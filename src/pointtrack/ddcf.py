"""Multi-channel discriminative correlation filters over shared feature maps.

A per-track filter is trained in closed form in the Fourier domain on a
windowed feature patch against a Gaussian target label, then used to
re-localize the target when its detection is missing. The whole-frame
feature map is computed once upstream (or synthesized); tracks only
extract small patches from it.

Patches, label and response are real, so every spectrum in the closed form
is Hermitian; the model is kept on the half spectrum of the real FFT, the
first s//2 + 1 columns of each full (s, s) spectrum.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .errors import ConfigError, InvalidInputError

MIN_PATCH_CELLS = 8
# localize's exclusion window is 2 * PSR_EXCLUSION + 1 cells wide; a filter
# patch must leave sidelobe cells outside it
PSR_EXCLUSION = 5
MIN_FILTER_CELLS = 2 * PSR_EXCLUSION + 2
# bounds each track's filter: one of its (s, s//2 + 1, c) complex spectra
# takes about 4 MB at 256 cells and 8 channels, and a patch that wide spans
# 1,024 px at a 4 px stride
MAX_FILTER_CELLS = 256


@dataclass(frozen=True)
class DcfConfig:
    patch_cells: int = 32        # square patch side, in feature cells
    regularization: float = 0.01
    learning_rate: float = 0.02  # exponential model blend per update
    label_sigma: float = 2.0     # Gaussian target width, cells
    psr_min: float = 5.0         # acceptance gate for recoveries

    def __post_init__(self):
        if self.patch_cells < MIN_FILTER_CELLS:
            raise ConfigError(f"patch_cells must be >= {MIN_FILTER_CELLS}")
        if self.patch_cells > MAX_FILTER_CELLS:
            raise ConfigError(f"patch_cells must be <= {MAX_FILTER_CELLS}")
        if not (math.isfinite(self.regularization) and self.regularization > 0):
            raise ConfigError("regularization must be finite and > 0")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ConfigError("learning_rate must be in (0, 1]")
        if not (math.isfinite(self.label_sigma) and self.label_sigma > 0):
            raise ConfigError("label_sigma must be finite and > 0")
        if not math.isfinite(self.psr_min):
            raise ConfigError("psr_min must be finite")


@dataclass(frozen=True)
class FeatureMap:
    """Whole-frame feature grid, channel-last, with an image-px stride."""

    data: np.ndarray  # (height, width, channels)
    stride: float     # image pixels per feature cell

    def __post_init__(self):
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise InvalidInputError(f"feature map must be (h, w, c) with positive dims, got {self.data.shape}")
        if self.stride <= 0 or not np.isfinite(self.stride):
            raise InvalidInputError(f"stride must be > 0, got {self.stride!r}")
        if not np.all(np.isfinite(self.data)):
            raise InvalidInputError("non-finite feature values")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeaturePatch:
    """Square window of a feature map, centred on a snapped grid cell.

    origin is the image-px position of the patch's centre cell; localization
    offsets are reported relative to it.
    """

    data: np.ndarray   # (size, size, channels)
    origin: np.ndarray  # (2,) image px, centre cell position
    stride: float

    @property
    def size(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class CorrelationFilter:
    """The running model statistics of a filter and the DcfConfig that
    trained it, whose regularization, label width and learning rate every
    read and update of the filter uses.

    The model keeps the average spectrum of its windowed patches and the
    average of their power. The Gaussian label is constant per config, so
    it is applied to the average when the filter is read (numerator), not
    to each patch."""

    spectrum: np.ndarray     # (s, s//2 + 1, c) complex, average of X_c
    denominator: np.ndarray  # (s, s//2 + 1) real, average of sum_c |X_c|^2
    config: DcfConfig

    @property
    def numerator(self) -> np.ndarray:
        """(s, s//2 + 1, c) Y * conj(spectrum), with Y the label's half
        spectrum."""
        numerator = np.conj(self.spectrum)
        numerator *= _gaussian_label_fft(self.spectrum.shape[0], self.config.label_sigma)[:, :, None]
        return numerator

    @cached_property
    def freq(self) -> np.ndarray:
        """The (s, s//2 + 1, c) half-spectrum filter, numerator / (denominator
        + regularization); built on the first localization, as a filter that
        is only updated never needs it."""
        freq = self.numerator
        freq /= (self.denominator + self.config.regularization)[:, :, None]
        return freq


@lru_cache(maxsize=8)
def _hann(size: int, channels: int) -> np.ndarray:
    """(size, size, channels) 2-D Hann window, the same in every channel."""
    w = np.hanning(size)
    window = np.repeat(np.outer(w, w)[:, :, None], channels, axis=2)
    window.flags.writeable = False
    return window


@lru_cache(maxsize=8)
def _gaussian_label_fft(size: int, sigma: float) -> np.ndarray:
    """Half-spectrum FFT of a Gaussian peak at the centre cell, wrapped
    circularly."""
    c = size // 2
    # circular distance of each index to the centre cell
    d = np.minimum(np.abs(np.arange(size) - c), size - np.abs(np.arange(size) - c))
    g = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma ** 2))
    return scipy.fft.rfft2(g)


def _windowed_fft(patch: FeaturePatch) -> np.ndarray:
    """(s, s//2 + 1, c) half spectrum of the Hann-windowed patch."""
    return scipy.fft.rfftn(patch.data * _hann(patch.size, patch.data.shape[2]), axes=(0, 1))


def extract_patch(fmap: FeatureMap, center, size: int) -> FeaturePatch:
    """Cut a size x size window around an image-px point.

    The centre is snapped to the nearest feature cell; cells falling outside
    the map are filled by edge replication. No window function is applied
    here (training and localization apply their own).
    """
    center = np.asarray(center, dtype=float).reshape(2)
    x, y = center.tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"non-finite patch centre {center!r}")
    if size < MIN_PATCH_CELLS:
        raise InvalidInputError(f"patch size must be >= {MIN_PATCH_CELLS}, got {size}")
    x, y = x / fmap.stride + 0.5, y / fmap.stride + 0.5
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"patch centre {center!r} overflows at stride {fmap.stride!r}")
    cx, cy = math.floor(x), math.floor(y)
    # a window centred farther out than size cells is all edge cells either way
    x0 = min(max(cx, -size), fmap.width + size) - size // 2
    y0 = min(max(cy, -size), fmap.height + size) - size // 2
    if 0 <= x0 <= fmap.width - size and 0 <= y0 <= fmap.height - size:
        data = np.array(fmap.data[y0:y0 + size, x0:x0 + size], dtype=float)
    else:
        # edge replication: take with mode="clip" clamps each index to the map
        rows = fmap.data.take(np.arange(y0, y0 + size), axis=0, mode="clip")
        data = rows.take(np.arange(x0, x0 + size), axis=1, mode="clip").astype(float, copy=False)
    origin = np.array([cx * fmap.stride, cy * fmap.stride])
    return FeaturePatch(data=data, origin=origin, stride=fmap.stride)


def _power(x: np.ndarray) -> np.ndarray:
    """(s, s//2 + 1) sum_c |x_c|^2 of an (s, s//2 + 1, c) spectrum."""
    parts = x.view(float)  # (s, s//2 + 1, 2c): the real and imaginary part of each x_c
    return np.einsum("ijk,ijk->ij", parts, parts)


def train_filter(patch: FeaturePatch, config: DcfConfig = DcfConfig()) -> CorrelationFilter:
    """Closed-form ridge-regression filter for one patch: with X =
    rfft2(windowed patch) and Y = rfft2(Gaussian label), numerator_c =
    Y * conj(X_c) and denominator = sum_c |X_c|^2, and the filter is
    numerator / (denominator + regularization).
    """
    if not patch.data.any():
        raise InvalidInputError("all-zero patch cannot train a filter")
    x = _windowed_fft(patch)
    return CorrelationFilter(x, _power(x), config)


def _check_shapes(filt: CorrelationFilter, patch: FeaturePatch):
    h, w, c = patch.data.shape
    if filt.spectrum.shape != (h, w // 2 + 1, c):
        raise InvalidInputError(
            f"filter shape {filt.spectrum.shape} is not the half spectrum of patch shape {patch.data.shape}")


def response(filt: CorrelationFilter, patch: FeaturePatch) -> np.ndarray:
    """Real-valued correlation response over the patch grid."""
    _check_shapes(filt, patch)
    spectrum = np.einsum("ijc,ijc->ij", filt.freq, _windowed_fft(patch))
    return scipy.fft.irfft2(spectrum, s=patch.data.shape[:2])


@lru_cache(maxsize=8)
def _sidelobe_band(size: int) -> np.ndarray:
    """The (size, size) mask that is True outside the PSR exclusion window
    around cell (0, 0), tiled twice along each axis. Its view
    [size - py:2 * size - py, size - px:2 * size - px] is that mask rolled
    circularly to a peak at (py, px)."""
    d = np.arange(size)
    near = np.minimum(d, size - d) <= PSR_EXCLUSION
    band = ~(near[:, None] & near[None, :])
    band = np.tile(band, (2, 2))
    band.flags.writeable = False
    return band


def _subcell(prev_v: float, peak_v: float, next_v: float) -> float:
    """Sub-cell peak offset of a quadratic through three samples, in
    [-0.5, 0.5]; 0 when the peak is not a strict local maximum."""
    denom = prev_v - 2.0 * peak_v + next_v
    if denom >= -1e-12:
        return 0.0
    return max(-0.5, min(0.5, 0.5 * (prev_v - next_v) / denom))


def localize(filt: CorrelationFilter, patch: FeaturePatch) -> tuple[np.ndarray, float]:
    """Locate the target inside a patch.

    Returns (offset, psr): offset is the displacement from patch.origin in
    image pixels (circular-shift convention, refined to sub-cell precision
    by a quadratic fit around the peak); psr is the peak-to-sidelobe ratio
    with an 11x11 exclusion window. A patch that the window covers whole
    has no sidelobe, and an all-zero patch has no target (its flat response
    would put the peak at cell (0, 0)); both raise InvalidInputError.
    """
    s = patch.size
    if s < MIN_FILTER_CELLS:
        raise InvalidInputError(
            f"a {s}-cell patch leaves no sidelobe outside the PSR window; need >= {MIN_FILTER_CELLS}")
    if not patch.data.any():
        raise InvalidInputError("all-zero patch has no target to locate")
    r = response(filt, patch)
    py, px = divmod(int(np.argmax(r)), s)
    peak = float(r[py, px])
    dy = _subcell(float(r[py - 1, px]), peak, float(r[(py + 1) % s, px]))
    dx = _subcell(float(r[py, px - 1]), peak, float(r[py, (px + 1) % s]))

    # signed displacement from the centre cell s // 2, in [-s/2, s/2)
    off_y = py - s // 2 + dy
    off_x = px - s // 2 + dx

    sidelobe = r[_sidelobe_band(s)[s - py:2 * s - py, s - px:2 * s - px]]
    sd = float(sidelobe.std())
    if sd < 1e-12:
        psr = float("inf")
    else:
        psr = (peak - float(sidelobe.mean())) / sd

    offset = np.array([off_x * patch.stride, off_y * patch.stride])
    return offset, psr


def update_filter(filt: CorrelationFilter, patch: FeaturePatch) -> CorrelationFilter:
    """Blend the running spectrum and power averages with a new patch's at
    the learning rate of the filter's config."""
    _check_shapes(filt, patch)
    eta = filt.config.learning_rate
    x = _windowed_fft(patch)
    power = _power(x)
    spectrum = np.multiply(1.0 - eta, filt.spectrum)
    spectrum += np.multiply(eta, x, out=x)
    denominator = np.multiply(1.0 - eta, filt.denominator)
    denominator += np.multiply(eta, power, out=power)
    return CorrelationFilter(spectrum, denominator, filt.config)

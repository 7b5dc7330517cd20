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
    """The running model statistics of a filter and the regularization of
    the DcfConfig that trained it; that config also supplies label and
    learning rate to every update."""

    numerator: np.ndarray    # (s, s//2 + 1, c) complex, half spectrum
    denominator: np.ndarray  # (s, s//2 + 1) real
    regularization: float

    @cached_property
    def freq(self) -> np.ndarray:
        """The (s, s//2 + 1, c) half-spectrum filter, numerator / (denominator
        + regularization); built on the first localization, as a filter that
        is only updated never needs it."""
        return self.numerator / (self.denominator + self.regularization)[:, :, None]


@lru_cache(maxsize=8)
def _hann2d(size: int) -> np.ndarray:
    w = np.hanning(size)
    return np.outer(w, w)


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
    windowed = patch.data * _hann2d(patch.size)[:, :, None]
    return scipy.fft.rfftn(windowed, axes=(0, 1))


def extract_patch(fmap: FeatureMap, center, size: int) -> FeaturePatch:
    """Cut a size x size window around an image-px point.

    The centre is snapped to the nearest feature cell; cells falling outside
    the map are filled by edge replication. No window function is applied
    here (training and localization apply their own).
    """
    center = np.asarray(center, dtype=float).reshape(2)
    if not np.all(np.isfinite(center)):
        raise InvalidInputError(f"non-finite patch centre {center!r}")
    if size < MIN_PATCH_CELLS:
        raise InvalidInputError(f"patch size must be >= {MIN_PATCH_CELLS}, got {size}")
    x, y = float(center[0]) / fmap.stride + 0.5, float(center[1]) / fmap.stride + 0.5
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidInputError(f"patch centre {center!r} overflows at stride {fmap.stride!r}")
    cx, cy = math.floor(x), math.floor(y)
    # a window centred farther out than size cells is all edge cells either way
    x0 = min(max(cx, -size), fmap.width + size) - size // 2
    y0 = min(max(cy, -size), fmap.height + size) - size // 2
    if 0 <= x0 <= fmap.width - size and 0 <= y0 <= fmap.height - size:
        cut = fmap.data[y0:y0 + size, x0:x0 + size]
    else:
        rows = np.clip(np.arange(y0, y0 + size), 0, fmap.height - 1)
        cols = np.clip(np.arange(x0, x0 + size), 0, fmap.width - 1)
        cut = fmap.data[np.ix_(rows, cols)]
    data = np.array(cut, dtype=float)
    origin = np.array([cx * fmap.stride, cy * fmap.stride])
    return FeaturePatch(data=data, origin=origin, stride=fmap.stride)


def _sample_stats(patch: FeaturePatch, config: DcfConfig) -> tuple[np.ndarray, np.ndarray]:
    """A patch's model statistics: with X = rfft2(windowed patch) and
    Y = rfft2(Gaussian label), numerator_c = Y * conj(X_c) per channel and
    denominator = sum_c |X_c|^2."""
    x = _windowed_fft(patch)
    conj_x = np.conj(x)
    numerator = _gaussian_label_fft(patch.size, config.label_sigma)[:, :, None] * conj_x
    return numerator, np.sum(np.multiply(x, conj_x, out=conj_x), axis=2).real


def train_filter(patch: FeaturePatch, config: DcfConfig = DcfConfig()) -> CorrelationFilter:
    """Closed-form ridge-regression filter for one patch: its sample
    statistics, whose filter is numerator / (denominator + regularization).
    """
    if not np.any(patch.data):
        raise InvalidInputError("all-zero patch cannot train a filter")
    return CorrelationFilter(*_sample_stats(patch, config), config.regularization)


def _check_shapes(filt: CorrelationFilter, patch: FeaturePatch):
    h, w, c = patch.data.shape
    if filt.numerator.shape != (h, w // 2 + 1, c):
        raise InvalidInputError(
            f"filter shape {filt.numerator.shape} is not the half spectrum of patch shape {patch.data.shape}")


def response(filt: CorrelationFilter, patch: FeaturePatch) -> np.ndarray:
    """Real-valued correlation response over the patch grid."""
    _check_shapes(filt, patch)
    z = _windowed_fft(patch)
    spectrum = np.sum(filt.freq * z, axis=2)
    return scipy.fft.irfft2(spectrum, s=patch.data.shape[:2])


def localize(filt: CorrelationFilter, patch: FeaturePatch) -> tuple[np.ndarray, float]:
    """Locate the target inside a patch.

    Returns (offset, psr): offset is the displacement from patch.origin in
    image pixels (circular-shift convention, refined to sub-cell precision
    by a quadratic fit around the peak); psr is the peak-to-sidelobe ratio
    with an 11x11 exclusion window. A patch that the window covers whole
    has no sidelobe and raises InvalidInputError.
    """
    s = patch.size
    if s < MIN_FILTER_CELLS:
        raise InvalidInputError(
            f"a {s}-cell patch leaves no sidelobe outside the PSR window; need >= {MIN_FILTER_CELLS}")
    r = response(filt, patch)
    c = s // 2
    peak_flat = int(np.argmax(r))
    py, px = np.unravel_index(peak_flat, r.shape)

    def _subcell(axis_vals) -> float:
        prev_v, peak_v, next_v = axis_vals
        denom = prev_v - 2.0 * peak_v + next_v
        if denom >= -1e-12:  # not a strict local maximum
            return 0.0
        delta = 0.5 * (prev_v - next_v) / denom
        return float(np.clip(delta, -0.5, 0.5))

    dy = _subcell((r[(py - 1) % s, px], r[py, px], r[(py + 1) % s, px]))
    dx = _subcell((r[py, (px - 1) % s], r[py, px], r[py, (px + 1) % s]))

    # signed displacement from the centre cell, wrapped into [-s/2, s/2)
    off_y = ((py - c + s // 2) % s) - s // 2 + dy
    off_x = ((px - c + s // 2) % s) - s // 2 + dx

    yy = (np.arange(s)[:, None] - py + s // 2) % s - s // 2
    xx = (np.arange(s)[None, :] - px + s // 2) % s - s // 2
    sidelobe = r[(np.abs(yy) > PSR_EXCLUSION) | (np.abs(xx) > PSR_EXCLUSION)]
    sd = float(sidelobe.std())
    if sd < 1e-12:
        psr = float("inf")
    else:
        psr = float((r[py, px] - sidelobe.mean()) / sd)

    offset = np.array([off_x * patch.stride, off_y * patch.stride])
    return offset, psr


def update_filter(filt: CorrelationFilter, patch: FeaturePatch, config: DcfConfig) -> CorrelationFilter:
    """Blend the running model statistics with a new patch's at
    config.learning_rate and rebuild; config is the one that trained filt."""
    _check_shapes(filt, patch)
    eta = config.learning_rate
    num_new, den_new = _sample_stats(patch, config)
    numerator = np.multiply(1.0 - eta, filt.numerator)
    numerator += np.multiply(eta, num_new, out=num_new)
    denominator = np.multiply(1.0 - eta, filt.denominator)
    denominator += np.multiply(eta, den_new, out=den_new)
    return CorrelationFilter(numerator, denominator, config.regularization)

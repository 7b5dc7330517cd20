"""Camera-motion estimation from keypoint correspondences.

The upstream corner detector / optical flow is out of scope; this module
consumes point correspondences (from files or the simulator) and fits a
full 2x3 affine transform with a 3-sample consensus loop followed by a
least-squares refit on the inliers.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateTransformError, InvalidInputError, NoMotionEstimateError

_DET_EPS = 1e-6
_SCORE_BLOCK = 1024  # hypotheses scored per array pass; bounds memory to O(block * n)


@dataclass(frozen=True)
class AffineTransform:
    """p' = M p + b with M = [[m11, m12], [m21, m22]], b = (t1, t2)."""

    m11: float = 1.0
    m12: float = 0.0
    m21: float = 0.0
    m22: float = 1.0
    t1: float = 0.0
    t2: float = 0.0

    def __post_init__(self):
        vals = (self.m11, self.m12, self.m21, self.m22, self.t1, self.t2)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidInputError(f"non-finite affine parameters {vals}")

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def linear(self) -> np.ndarray:
        """2x2 linear part; raises if degenerate."""
        if abs(self.det) <= _DET_EPS:
            raise DegenerateTransformError(f"|det| = {abs(self.det):g} <= {_DET_EPS:g}")
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.t1, self.t2])

    def is_identity(self, tol: float = 0.0) -> bool:
        ref = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        vals = (self.m11, self.m12, self.m21, self.m22, self.t1, self.t2)
        return all(abs(v - r) <= tol for v, r in zip(vals, ref))

    def inverse(self) -> "AffineTransform":
        m = self.linear
        mi = np.linalg.inv(m)
        bi = -mi @ self.translation
        return AffineTransform(mi[0, 0], mi[0, 1], mi[1, 0], mi[1, 1], bi[0], bi[1])

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform()

    @staticmethod
    def from_params(params) -> "AffineTransform":
        """Build from the 6-vector [m11, m12, t1, m21, m22, t2]."""
        m11, m12, t1, m21, m22, t2 = (float(v) for v in params)
        return AffineTransform(m11, m12, m21, m22, t1, t2)


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 100
    inlier_threshold: float = 3.0
    min_inliers: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ConfigError("inlier_threshold must be finite and > 0")
        if self.min_inliers < 3:
            raise ConfigError("min_inliers must be >= 3")


def warp_point(t: AffineTransform, p) -> np.ndarray:
    """Apply M p + b to a single point."""
    m = t.linear
    p = np.asarray(p, dtype=float).reshape(2)
    return m @ p + t.translation


def warp_points(t: AffineTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the transform to an (n, 2) array of points."""
    m = t.linear
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return pts @ m.T + t.translation


def _lstsq_affine(prev: np.ndarray, cur: np.ndarray) -> AffineTransform:
    """Least-squares affine fit; prev/cur are (n, 2) with n >= 3."""
    n = prev.shape[0]
    a = np.zeros((2 * n, 6))
    a[0::2, 0] = prev[:, 0]
    a[0::2, 1] = prev[:, 1]
    a[0::2, 2] = 1.0
    a[1::2, 3] = prev[:, 0]
    a[1::2, 4] = prev[:, 1]
    a[1::2, 5] = 1.0
    b = cur.reshape(-1)
    params, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 6:
        raise NoMotionEstimateError("degenerate correspondence geometry")
    return AffineTransform.from_params(params)


def _residuals(t: AffineTransform, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    return np.linalg.norm(warp_points(t, prev) - cur, axis=1)


@lru_cache(maxsize=4)
def _sample_indices(seed: int, n: int, iterations: int) -> np.ndarray:
    """The (iterations, 3) sample indices of one estimate_affine call,
    read-only because every call with these arguments shares them. Each
    cached entry holds iterations * 24 bytes."""
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(iterations)])
    idx.setflags(write=False)
    return idx


def _score_hypotheses(prev: np.ndarray, cur: np.ndarray, samples: np.ndarray,
                      threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine fit of each 3-point sample and its inlier mask.

    Returns (inliers, counts) over the usable samples only, in sample order:
    a sample is skipped when _lstsq_affine would call it rank deficient or
    its transform has |det| <= _DET_EPS. The 6x6 system of a sample has the
    singular values of its 3x3 [x, y, 1] matrix, each twice, so the rank
    rule is lstsq's default one, sigma_min > sigma_max * eps * 6.
    """
    src = np.ones((len(samples), 3, 3))
    src[:, :, :2] = prev[samples]
    sv = np.linalg.svd(src, compute_uv=False)
    full_rank = sv[:, 2] > sv[:, 0] * (np.finfo(float).eps * 6)
    # sol[k] = [[m11, m21], [m12, m22], [t1, t2]]: src @ sol = cur samples
    sol = np.linalg.solve(src[full_rank], cur[samples[full_rank]])
    if not np.isfinite(sol).all():
        raise NoMotionEstimateError("a 3-point hypothesis overflows")
    det = sol[:, 0, 0] * sol[:, 1, 1] - sol[:, 1, 0] * sol[:, 0, 1]
    sol = sol[np.abs(det) > _DET_EPS]
    residuals = np.linalg.norm(prev @ sol[:, :2] + sol[:, None, 2] - cur, axis=2)
    inliers = residuals <= threshold
    return inliers, inliers.sum(axis=1)


def estimate_affine(pairs, config: RansacConfig = RansacConfig()) -> AffineTransform:
    """Robustly fit the inter-frame affine transform.

    Repeats 3-sample exact fits, keeps the hypothesis with the largest
    consensus set (the first one on a tie), then refits by least squares on
    that set, re-selecting the inliers against each refit, up to 10 times,
    until the set is stable. Deterministic for a fixed config.seed.

    The hypotheses are solved and scored as arrays, _SCORE_BLOCK at a time,
    so memory stays O(_SCORE_BLOCK * n) whatever config.iterations is. The
    samples are the ones a per-iteration rng.choice(n, 3, replace=False)
    loop draws from default_rng(config.seed); _sample_indices caches them
    per (seed, n, iterations), so a stream whose correspondence count does
    not change draws them once, while one whose count changes every frame
    pays the draw loop on each call.

    pairs are rows with prev_x, prev_y, cur_x and cur_y in px
    (formats.CorrespondenceRow). Raises InvalidInputError on a non-finite
    value, and NoMotionEstimateError when fewer than 3 pairs are given, a
    3-point fit overflows or no consensus reaches config.min_inliers
    points; callers are expected to fall back to the identity transform.
    """
    pts = np.array([(c.prev_x, c.prev_y, c.cur_x, c.cur_y) for c in pairs],
                   dtype=float).reshape(-1, 4)
    if not np.isfinite(pts).all():
        raise InvalidInputError("non-finite correspondence")
    n = len(pts)
    if n < 3:
        raise NoMotionEstimateError(f"need at least 3 correspondences, got {n}")
    prev, cur = pts[:, :2].copy(), pts[:, 2:].copy()

    samples = _sample_indices(config.seed, n, config.iterations)
    best_count, best_inliers = -1, None
    for start in range(0, len(samples), _SCORE_BLOCK):
        inliers, counts = _score_hypotheses(prev, cur, samples[start:start + _SCORE_BLOCK],
                                            config.inlier_threshold)
        if len(counts) and counts.max() > best_count:
            best_count = int(counts.max())
            best_inliers = inliers[np.argmax(counts)]

    if best_count < max(config.min_inliers, 3):
        raise NoMotionEstimateError(
            f"consensus of {max(best_count, 0)} below min_inliers = {config.min_inliers}")

    fit = _lstsq_affine(prev[best_inliers], cur[best_inliers])
    # iterate inlier re-selection against the refit until the set stabilises
    current = best_inliers
    for _ in range(10):
        refined = _residuals(fit, prev, cur) <= config.inlier_threshold
        if refined.sum() < 3 or np.array_equal(refined, current):
            break
        current = refined
        fit = _lstsq_affine(prev[current], cur[current])
    if abs(fit.det) <= _DET_EPS:
        raise NoMotionEstimateError("fitted transform is degenerate")
    return fit

"""Camera-motion estimation from keypoint correspondences.

The upstream corner detector / optical flow is out of scope; this module
consumes point correspondences (from files or the simulator) and fits a
full 2x3 affine transform with a 3-sample consensus loop followed by a
least-squares refit on the inliers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateTransformError, InvalidInputError, NoMotionEstimateError

_DET_EPS = 1e-6


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
        if self.inlier_threshold <= 0:
            raise ConfigError("inlier_threshold must be > 0")
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


def estimate_affine(pairs, config: RansacConfig = RansacConfig()) -> AffineTransform:
    """Robustly fit the inter-frame affine transform.

    Repeats 3-sample exact fits, keeps the hypothesis with the largest
    consensus set, then refits by least squares on that set (one extra
    round of inlier re-selection after the refit). Deterministic for a
    fixed config.seed.

    pairs are rows with prev_x, prev_y, cur_x and cur_y in px
    (formats.CorrespondenceRow). Raises InvalidInputError on a non-finite
    value, and NoMotionEstimateError when fewer than 3 pairs are given or no
    consensus of at least config.min_inliers points exists; callers are
    expected to fall back to the identity transform.
    """
    pts = np.array([(c.prev_x, c.prev_y, c.cur_x, c.cur_y) for c in pairs],
                   dtype=float).reshape(-1, 4)
    if not np.isfinite(pts).all():
        raise InvalidInputError("non-finite correspondence")
    n = len(pts)
    if n < 3:
        raise NoMotionEstimateError(f"need at least 3 correspondences, got {n}")
    prev, cur = pts[:, :2].copy(), pts[:, 2:].copy()

    rng = np.random.default_rng(config.seed)
    best_inliers: np.ndarray | None = None
    for _ in range(config.iterations):
        idx = rng.choice(n, size=3, replace=False)
        sp, sc = prev[idx], cur[idx]
        # exact interpolation of the 3 samples; skip collinear picks
        try:
            cand = _lstsq_affine(sp, sc)
        except NoMotionEstimateError:
            continue
        if abs(cand.det) <= _DET_EPS:
            continue
        inliers = _residuals(cand, prev, cur) <= config.inlier_threshold
        if best_inliers is None or inliers.sum() > best_inliers.sum():
            best_inliers = inliers

    if best_inliers is None or best_inliers.sum() < max(config.min_inliers, 3):
        found = 0 if best_inliers is None else int(best_inliers.sum())
        raise NoMotionEstimateError(
            f"consensus of {found} below min_inliers = {config.min_inliers}")

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

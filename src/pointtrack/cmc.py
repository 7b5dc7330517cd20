"""Camera-motion estimation from keypoint correspondences.

The upstream corner detector / optical flow is out of scope; this module
consumes point correspondences (from files or the simulator) and fits a
full 2x3 affine transform with a 3-sample consensus loop followed by a
least-squares refit on the inliers.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateTransformError, InvalidInputError, NoMotionEstimateError

_DET_EPS = 1e-6
_FIRST_BLOCK = 8  # hypotheses in the first pass: an outlier-free frame needs no more
_SCORE_BLOCK = 1024  # hypotheses in each later pass; bounds memory to O(block * n)
# a frame with an outlier scores every hypothesis, so the count bounds its
# time; N = log(1 - p) / log(1 - w^3) is about 6,900 for an inlier share w
# of 10% at p = 0.999
MAX_ITERATIONS = 10_000


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

    def is_identity(self) -> bool:
        return (self.m11, self.m12, self.m21, self.m22, self.t1, self.t2) == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def inverse(self) -> "AffineTransform":
        m = self.linear
        mi = np.linalg.inv(m)
        bi = -mi @ self.translation
        return AffineTransform(mi[0, 0], mi[0, 1], mi[1, 0], mi[1, 1], bi[0], bi[1])

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform()


@dataclass(frozen=True)
class RansacConfig:
    iterations: int = 100
    inlier_threshold: float = 3.0
    min_inliers: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ConfigError(f"iterations must be in [1, {MAX_ITERATIONS}]")
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ConfigError("inlier_threshold must be finite and > 0")
        if self.min_inliers < 3:
            raise ConfigError("min_inliers must be >= 3")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def warp_points(t: AffineTransform, pts: np.ndarray) -> np.ndarray:
    """Apply the transform to an (n, 2) array of points."""
    m = t.linear
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return pts @ m.T + t.translation


def _det(sol: np.ndarray) -> np.ndarray:
    """|M| of each (..., 3, 2) solution sol = [[m11, m21], [m12, m22], [t1, t2]]."""
    return sol[..., 0, 0] * sol[..., 1, 1] - sol[..., 1, 0] * sol[..., 0, 1]


def _lstsq_affine(src: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """The (3, 2) least-squares sol of src @ sol = cur for n >= 3 rows.
    Raises NoMotionEstimateError when lstsq finds rank < 3 or the linear
    part has |det| <= _DET_EPS."""
    sol, _, rank, _ = np.linalg.lstsq(src, cur, rcond=None)
    if rank < 3:
        raise NoMotionEstimateError("degenerate correspondence geometry")
    if not abs(_det(sol)) > _DET_EPS:
        raise NoMotionEstimateError("fitted transform is degenerate")
    return sol


def _sample_blocks(seed: int, n: int, iterations: int) -> Iterator[np.ndarray]:
    """Yield the (k, 3) sample indices of one estimate_affine call, a first
    block of _FIRST_BLOCK rows and then _SCORE_BLOCK rows at a time, until
    iterations rows are drawn. The blocks come from one default_rng(seed)
    and together equal one (iterations, 3) draw. Each row is uniform over the
    ordered triples of distinct indices below n: the second index skips the
    first, and the third skips the lower and then the higher of the first two."""
    rng = np.random.default_rng(seed)
    drawn, block = 0, _FIRST_BLOCK
    while drawn < iterations:
        idx = rng.integers(0, [n, n - 1, n - 2], size=(min(block, iterations - drawn), 3))
        first, second, third = idx.T  # views: the updates below write into idx
        second += second >= first
        third += third >= np.minimum(first, second)
        third += third >= np.maximum(first, second)
        yield idx
        drawn, block = drawn + len(idx), _SCORE_BLOCK


def _score_hypotheses(src: np.ndarray, cur: np.ndarray, samples: np.ndarray,
                      threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact fit of each 3-point sample of src @ sol = cur and its inlier mask.

    Returns (inliers, counts) over the usable samples only, in sample order:
    a sample is skipped when _lstsq_affine would reject its three rows, that
    is when sigma_min <= sigma_max * eps * 3 (lstsq's default rank rule for a
    3 x 3 matrix) or its solution has |det| <= _DET_EPS.
    """
    rows = src[samples]
    sv = np.linalg.svd(rows, compute_uv=False)
    full_rank = sv[:, 2] > sv[:, 0] * (np.finfo(float).eps * 3)
    sol = np.linalg.solve(rows[full_rank], cur[samples[full_rank]])
    if not np.isfinite(sol).all():
        raise NoMotionEstimateError("a 3-point hypothesis overflows")
    sol = sol[np.abs(_det(sol)) > _DET_EPS]
    inliers = np.linalg.norm(src @ sol - cur, axis=2) <= threshold
    return inliers, inliers.sum(axis=1)


def estimate_affine(pairs, config: RansacConfig = RansacConfig()) -> AffineTransform:
    """Robustly fit the inter-frame affine transform.

    Each pair is a row src = [prev_x, prev_y, 1] with target [cur_x, cur_y],
    and the transform is the (3, 2) solution sol of src @ sol = cur. Exact
    fits of 3-row samples are the hypotheses; the one with the largest
    consensus set (the first one on a tie) is refit by least squares on that
    set, re-selecting the inliers against each refit, up to 10 times, until
    the set is stable. Hypotheses and refits share the residual
    norm(src @ sol - cur). Deterministic for a fixed config.seed.

    The hypotheses are drawn (_sample_blocks), solved and scored as arrays,
    block by block: _FIRST_BLOCK of them, then _SCORE_BLOCK at a time, up to
    config.iterations in all. Scoring stops after the first block that
    brings a hypothesis holding all n pairs: a later one can only tie with
    it, and a tie keeps the earlier one, so the result equals that of
    scoring every hypothesis. An outlier-free frame costs one _FIRST_BLOCK
    pass, and memory stays O(_SCORE_BLOCK * n) whatever config.iterations is.

    pairs is an (m, 4) array of prev_x, prev_y, cur_x and cur_y in px, the
    columns of correspondences.csv after the frame. Raises
    InvalidInputError on a non-finite value, and NoMotionEstimateError when
    fewer than 3 pairs are given, a scored 3-point fit overflows, no
    consensus reaches config.min_inliers points or a refit is rank deficient
    or degenerate; callers are expected to fall back to the identity
    transform.

    A fit after the stop is never made, so it cannot overflow: this is the
    one input class whose outcome may differ from scoring every hypothesis,
    and it needs a cur coordinate or config.inlier_threshold of about 1e292
    or more. The rank rule keeps sigma_min of a scored sample's rows above
    sigma_max * 3 * eps, and sigma_max >= sqrt(3) by the column of ones, so
    the inverse of those rows has norm below 1 / (3 * sqrt(3) * eps) < 1e15.
    The consensus fit is such an inverse times three cur rows, and since
    every pair lies within the threshold of it, a later fit differs from it
    by such an inverse times three residuals of at most the threshold. Both
    terms stay below a few times 1e15 times the largest cur coordinate or
    the threshold, which overflows float64 (1.8e308) only from about 1e292.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 4)
    if not np.isfinite(pairs).all():
        raise InvalidInputError("non-finite correspondence")
    n = len(pairs)
    if n < 3:
        raise NoMotionEstimateError(f"need at least 3 correspondences, got {n}")
    src = np.ones((n, 3))
    src[:, :2] = pairs[:, :2]
    cur = pairs[:, 2:].copy()

    best_count, best_inliers = -1, None
    for samples in _sample_blocks(config.seed, n, config.iterations):
        inliers, counts = _score_hypotheses(src, cur, samples, config.inlier_threshold)
        if len(counts) and counts.max() > best_count:
            best_count = int(counts.max())
            best_inliers = inliers[np.argmax(counts)]
        if best_count == n:  # a later hypothesis can only tie, and a tie keeps this one
            break

    if best_count < config.min_inliers:
        raise NoMotionEstimateError(
            f"consensus of {max(best_count, 0)} below min_inliers = {config.min_inliers}")

    current = best_inliers
    sol = _lstsq_affine(src[current], cur[current])
    # iterate inlier re-selection against the refit until the set stabilises
    for _ in range(10):
        refined = np.linalg.norm(src @ sol - cur, axis=1) <= config.inlier_threshold
        if refined.sum() < 3 or np.array_equal(refined, current):
            break
        current = refined
        sol = _lstsq_affine(src[current], cur[current])
    (m11, m21), (m12, m22), (t1, t2) = sol.tolist()
    return AffineTransform(m11, m12, m21, m22, t1, t2)

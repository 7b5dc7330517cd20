import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack import cmc
from pointtrack.cmc import AffineTransform, RansacConfig, estimate_affine, warp_points
from pointtrack.errors import ConfigError, InvalidInputError, NoMotionEstimateError

COLUMNS = ("prev_x", "prev_y", "cur_x", "cur_y")  # of a correspondence array


def make_pairs(transform: AffineTransform, prev_pts: np.ndarray,
               noise: float = 0.0, rng=None) -> np.ndarray:
    cur = prev_pts @ transform.linear.T + transform.translation
    if noise:
        cur = cur + rng.normal(0, noise, cur.shape)
    return np.c_[prev_pts, cur]


def rotation(deg: float, tx: float = 0.0, ty: float = 0.0) -> AffineTransform:
    th = math.radians(deg)
    return AffineTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th), tx, ty)


def params(t: AffineTransform) -> np.ndarray:
    return np.array([t.m11, t.m12, t.m21, t.m22, t.t1, t.t2])


def loop_estimate_affine(pairs, config: RansacConfig) -> AffineTransform:
    """Reference: estimate_affine with one 3-row lstsq fit and one residual
    pass per hypothesis, over the same sample rows."""
    pts = np.asarray(pairs, dtype=float).reshape(-1, 4)
    if not np.isfinite(pts).all():
        raise InvalidInputError("non-finite correspondence")
    n = len(pts)
    if n < 3:
        raise NoMotionEstimateError(f"need at least 3 correspondences, got {n}")
    src, cur = np.c_[pts[:, :2], np.ones(n)], pts[:, 2:].copy()

    def det(sol):
        return sol[0, 0] * sol[1, 1] - sol[1, 0] * sol[0, 1]

    def inliers_of(sol):
        return np.linalg.norm(src @ sol - cur, axis=1) <= config.inlier_threshold

    best_inliers = None
    for idx in cmc._sample_indices(config.seed, n, config.iterations):
        cand, _, rank, _ = np.linalg.lstsq(src[idx], cur[idx], rcond=None)
        if rank < 3:
            continue
        if not np.isfinite(cand).all():
            raise NoMotionEstimateError("a 3-point hypothesis overflows")
        if not abs(det(cand)) > cmc._DET_EPS:
            continue
        inliers = inliers_of(cand)
        if best_inliers is None or inliers.sum() > best_inliers.sum():
            best_inliers = inliers

    if best_inliers is None or best_inliers.sum() < config.min_inliers:
        found = 0 if best_inliers is None else int(best_inliers.sum())
        raise NoMotionEstimateError(
            f"consensus of {found} below min_inliers = {config.min_inliers}")

    def refit(rows):
        sol, _, rank, _ = np.linalg.lstsq(src[rows], cur[rows], rcond=None)
        if rank < 3:
            raise NoMotionEstimateError("degenerate correspondence geometry")
        if not abs(det(sol)) > cmc._DET_EPS:
            raise NoMotionEstimateError("fitted transform is degenerate")
        return sol

    current = best_inliers
    sol = refit(current)
    for _ in range(10):
        refined = inliers_of(sol)
        if refined.sum() < 3 or np.array_equal(refined, current):
            break
        current = refined
        sol = refit(current)
    (m11, m21), (m12, m22), (t1, t2) = sol.tolist()
    return AffineTransform(m11, m12, m21, m22, t1, t2)


def outcome(estimate, pairs, config: RansacConfig):
    """The transform's bytes, or the exception's type and message."""
    try:
        return params(estimate(pairs, config)).tobytes()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestWarpPoint:
    def test_identity(self):
        assert np.allclose(warp_points(AffineTransform.identity(), (3, 4)), [[3, 4]])

    def test_translation(self):
        assert np.allclose(warp_points(AffineTransform(t1=1, t2=1), (0, 0)), [[1, 1]])

    def test_half_turn(self):
        assert np.allclose(warp_points(rotation(180), (2, 0)), [[-2, 0]], atol=1e-12)

    def test_degenerate(self):
        from pointtrack.errors import DegenerateTransformError
        with pytest.raises(DegenerateTransformError):
            warp_points(AffineTransform(0, 0, 0, 0), (1, 1))


class TestEstimateAffine:
    def test_exact_recovery_from_noiseless_points(self):
        rng = np.random.default_rng(0)
        truth = rotation(5.0, 4.0, -2.0)
        pts = rng.uniform(0, 500, (10, 2))
        got = estimate_affine(make_pairs(truth, pts), RansacConfig(min_inliers=3))
        assert np.max(np.abs(params(got) - params(truth))) <= 1e-9

    def test_exact_recovery_generic_transforms(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            truth = AffineTransform(*rng.uniform(-2, 2, 4), *rng.uniform(-50, 50, 2))
            if abs(truth.det) < 0.1:
                continue
            pts = rng.uniform(0, 1000, (rng.integers(3, 40), 2))
            # skip collinear layouts, they are genuinely underdetermined
            if np.linalg.matrix_rank(np.c_[pts - pts[0]][1:]) < 2:
                continue
            got = estimate_affine(make_pairs(truth, pts), RansacConfig(min_inliers=3))
            assert np.max(np.abs(params(got) - params(truth))) <= 1e-8

    def test_outlier_robustness(self):
        # origin-centred cloud so the translation parameter is directly
        # comparable (no lever-arm trade-off against the linear part)
        rng = np.random.default_rng(2)
        truth = rotation(2.0, 7.5, -3.25)
        errs = []
        for _ in range(50):
            pts = rng.uniform(-500, 500, (100, 2))
            pairs = make_pairs(truth, pts, noise=0.2, rng=rng)
            n_out = 30
            idx = rng.choice(100, n_out, replace=False)
            for i in idx:
                pairs[i, 2:] = rng.uniform(-500, 500), rng.uniform(-500, 500)
            got = estimate_affine(pairs, RansacConfig(seed=int(rng.integers(1 << 32))))
            errs.append(max(abs(got.t1 - truth.t1), abs(got.t2 - truth.t2)))
            lin_err = np.max(np.abs(params(got)[:4] - params(truth)[:4]))
            assert lin_err <= 1e-2
        assert max(errs) <= 0.1

    @pytest.mark.parametrize("column,bad", [("prev_x", float("nan")), ("cur_y", float("inf")),
                                            ("prev_y", -float("inf"))])
    def test_non_finite_row_rejected(self, column, bad):
        rng = np.random.default_rng(6)
        pairs = make_pairs(rotation(1.0, 2.0, 3.0), rng.uniform(0, 300, (12, 2)))
        pairs[5, COLUMNS.index(column)] = bad
        with pytest.raises(InvalidInputError):
            estimate_affine(pairs, RansacConfig(min_inliers=3))

    def test_too_few_pairs(self):
        with pytest.raises(NoMotionEstimateError):
            estimate_affine([(0, 0, 1, 1), (1, 0, 2, 1)])

    def test_no_consensus(self):
        rng = np.random.default_rng(3)
        pairs = rng.uniform(0, 100, (20, 4))
        with pytest.raises(NoMotionEstimateError):
            estimate_affine(pairs, RansacConfig(min_inliers=18, inlier_threshold=0.001))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        truth = rotation(1.0, 3.0, 3.0)
        pts = rng.uniform(0, 300, (40, 2))
        pairs = make_pairs(truth, pts, noise=0.5, rng=rng)
        a = estimate_affine(pairs, RansacConfig(seed=11))
        b = estimate_affine(pairs, RansacConfig(seed=11))
        assert params(a).tobytes() == params(b).tobytes()

    def test_inliers_fit_within_threshold(self):
        rng = np.random.default_rng(5)
        truth = rotation(-3.0, 1.0, 2.0)
        pts = rng.uniform(0, 400, (60, 2))
        pairs = make_pairs(truth, pts, noise=0.3, rng=rng)
        cfg = RansacConfig()
        got = estimate_affine(pairs, cfg)
        prev, cur = pairs[:, :2], pairs[:, 2:]
        residuals = np.linalg.norm(prev @ got.linear.T + got.translation - cur, axis=1)
        # a healthy consensus fits inside the threshold
        assert (residuals <= cfg.inlier_threshold).sum() >= cfg.min_inliers


@st.composite
def correspondence_sets(draw) -> np.ndarray:
    """Continuous correspondences: an affine motion with noise, outliers,
    an optional collinear block, an optional block whose motion flattens it
    onto a line, optional duplicated rows, and optionally two motions whose
    consensus sets tie. Coordinates come from a numpy generator so that
    they are never on an integer lattice, where a residual exactly at the
    threshold can round differently in a 3-point lstsq and in a batched
    solve."""
    n = draw(st.integers(3, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prev = rng.uniform(-500, 500, (n, 2)) * 10.0 ** rng.uniform(-2, 1)
    cur = prev @ rng.uniform(-2, 2, (2, 2)).T + rng.uniform(-50, 50, 2)
    cur += rng.normal(0, draw(st.floats(0, 2)), (n, 2))
    outliers = rng.random(n) < draw(st.floats(0, 0.6))
    cur[outliers] = rng.uniform(-500, 500, (outliers.sum(), 2))
    collinear = draw(st.integers(0, n))
    if collinear >= 2:
        direction = rng.normal(0, 100, 2)
        # off the line by 1e-13..1e-7 of its length: either side of lstsq's rank rule
        off = rng.normal(0, 10.0 ** draw(st.floats(-13, -7)), collinear)
        prev[:collinear] = (prev[0] + np.outer(rng.uniform(-1, 1, collinear), direction)
                            + np.outer(off, [-direction[1], direction[0]]))
    flat = draw(st.integers(0, n))
    if flat >= 3:
        # a rank-1 motion plus noise: its hypotheses have |det| on either side of _DET_EPS
        line = (prev[-flat:] @ rng.uniform(-2, 2, 2))[:, None] * rng.uniform(-2, 2, 2)
        cur[-flat:] = line + rng.uniform(-50, 50, 2) + rng.normal(
            0, 10.0 ** draw(st.floats(-8, -2)), (flat, 2))
    copies = draw(st.integers(0, n))
    dst, src = rng.integers(0, n, copies), rng.integers(0, n, copies)
    prev[dst], cur[dst] = prev[src], cur[src]
    if draw(st.booleans()):
        # two exact motions on mirrored halves of the rows, and the middle row of
        # an odd n far off: the largest consensus sets tie
        h = n // 2
        prev[n - h:] = prev[:h]
        for rows in (slice(0, h), slice(n - h, n)):
            cur[rows] = prev[:h] @ rng.uniform(-2, 2, (2, 2)).T + rng.uniform(-50, 50, 2)
        cur[h:n - h] = 1e4
    return np.c_[prev, cur]


class TestBatchedHypotheses:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(pairs=correspondence_sets(),
           iterations=st.one_of(st.integers(1, 200), st.integers(1000, 2500)),
           threshold=st.floats(0.5, 5.0), seed=st.integers(0, 4),
           min_inliers=st.integers(3, 40))
    def test_matches_per_hypothesis_loop(self, pairs, iterations, threshold, seed, min_inliers):
        # 1000-2500 iterations span the first scoring-block boundary
        cfg = RansacConfig(iterations=iterations, inlier_threshold=threshold,
                           min_inliers=min_inliers, seed=seed)
        assert outcome(estimate_affine, pairs, cfg) == outcome(loop_estimate_affine, pairs, cfg)

    @pytest.mark.parametrize("case", ["identical", "collinear", "near_1e300", "near_1e150",
                                      "det_1e-16"])
    def test_hostile_input_has_no_estimate(self, case):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 100, (20, 2))
        prev, cur = {
            "identical": (np.tile([5.0, 7.0], (20, 1)), np.tile([6.0, 8.0], (20, 1))),
            "collinear": (np.c_[pts[:, 0], 2 * pts[:, 0]], np.c_[pts[:, 0] + 1, 2 * pts[:, 0]]),
            "near_1e300": (1e300 + pts * 1e298, 1e300 + pts * 1e298),
            "near_1e150": (1e150 + pts * 1e148, 1e150 + pts * 1e148),
            "det_1e-16": (pts, pts * 1e-8 + [3.0, -2.0]),
        }[case]
        pairs = np.c_[prev, cur]
        with pytest.raises(NoMotionEstimateError):
            estimate_affine(pairs, RansacConfig(min_inliers=3))

    def test_overflowing_hypothesis_has_no_estimate(self):
        rng = np.random.default_rng(8)
        prev = rng.uniform(0, 100, (20, 2))
        cur = 1.7e308 * rng.choice([-1.0, 1.0], (20, 2))
        pairs = np.c_[prev, cur]
        with pytest.raises(NoMotionEstimateError), np.errstate(over="ignore", invalid="ignore"):
            estimate_affine(pairs, RansacConfig(min_inliers=3))

    @pytest.mark.parametrize("repeats", [1, 10])
    def test_three_distinct_points_give_a_transform(self, repeats):
        truth = rotation(4.0, 2.5, -1.5)
        pts = np.repeat(np.array([[10.0, 20.0], [200.0, 35.0], [90.0, 160.0]]), repeats, axis=0)
        got = estimate_affine(make_pairs(truth, pts), RansacConfig(min_inliers=3))
        assert np.max(np.abs(params(got) - params(truth))) <= 1e-9

    def test_tie_across_blocks_keeps_the_first_hypothesis(self):
        # two equally large motions: hypotheses of either tie on 10 inliers
        rng = np.random.default_rng(10)
        pairs = np.r_[make_pairs(rotation(3.0, 5.0, 1.0), rng.uniform(0, 400, (10, 2))),
                      make_pairs(rotation(-4.0, -6.0, 2.0), rng.uniform(0, 400, (10, 2)))]
        for seed in range(5):
            cfg = RansacConfig(iterations=2500, min_inliers=3, seed=seed)
            assert outcome(estimate_affine, pairs, cfg) == outcome(loop_estimate_affine, pairs, cfg)

    def test_seeds_draw_different_samples(self):
        assert cmc._sample_indices(0, 50, 100).shape == (100, 3)
        assert not np.array_equal(cmc._sample_indices(0, 50, 100), cmc._sample_indices(1, 50, 100))

    def test_sample_draw_is_deterministic(self):
        assert cmc._sample_indices(3, 50, 100).tobytes() == cmc._sample_indices(3, 50, 100).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 50])
    def test_samples_are_distinct_indices(self, n):
        samples = np.sort(cmc._sample_indices(0, n, 5000), axis=1)
        assert samples.min() >= 0 and samples.max() < n
        assert (samples[:, 1:] != samples[:, :-1]).all()

    def test_samples_are_uniform_over_ordered_triples(self):
        # n = 5 has 5 * 4 * 3 = 60 ordered triples of distinct indices
        draws = 60_000
        samples = cmc._sample_indices(12, 5, draws)
        _, counts = np.unique(samples @ [25, 5, 1], return_counts=True)
        assert len(counts) == 60
        expected = draws / 60
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert scipy.stats.chi2.sf(chi2, df=59) > 1e-3

    def test_degenerate_refit_has_no_estimate(self):
        # points flattened onto y = 100 up to 1e-4 px: 3-point hypotheses pass
        # the det filter by their noise alone, while the refit on all 50 points
        # averages the noise out to |det| ~ 1e-7
        rng = np.random.default_rng(0)
        prev = rng.uniform(0, 500, (50, 2))
        cur = np.c_[prev[:, 0] + 2, 100 + rng.normal(0, 1e-4, 50)]
        pairs = np.c_[prev, cur]
        with pytest.raises(NoMotionEstimateError, match="fitted transform is degenerate"):
            estimate_affine(pairs)


class TestConfigs:
    def test_ransac_validation(self):
        with pytest.raises(ConfigError):
            RansacConfig(min_inliers=2)
        with pytest.raises(ConfigError):
            RansacConfig(inlier_threshold=0)
        with pytest.raises(ConfigError):
            RansacConfig(seed=-1)

    def test_affine_requires_finite(self):
        with pytest.raises(InvalidInputError):
            AffineTransform(m11=float("nan"))

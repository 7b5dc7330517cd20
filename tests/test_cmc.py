import math
from dataclasses import replace

import numpy as np
import pytest

from pointtrack.cmc import AffineTransform, RansacConfig, estimate_affine, warp_point
from pointtrack.errors import ConfigError, InvalidInputError, NoMotionEstimateError
from pointtrack.formats import CorrespondenceRow


def make_pairs(transform: AffineTransform, prev_pts: np.ndarray,
               noise: float = 0.0, rng=None) -> list[CorrespondenceRow]:
    cur = prev_pts @ transform.linear.T + transform.translation
    if noise:
        cur = cur + rng.normal(0, noise, cur.shape)
    return [CorrespondenceRow(1, p[0], p[1], c[0], c[1]) for p, c in zip(prev_pts, cur)]


def rotation(deg: float, tx: float = 0.0, ty: float = 0.0) -> AffineTransform:
    th = math.radians(deg)
    return AffineTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th), tx, ty)


def params(t: AffineTransform) -> np.ndarray:
    return np.array([t.m11, t.m12, t.m21, t.m22, t.t1, t.t2])


class TestWarpPoint:
    def test_identity(self):
        assert np.allclose(warp_point(AffineTransform.identity(), (3, 4)), [3, 4])

    def test_translation(self):
        assert np.allclose(warp_point(AffineTransform(t1=1, t2=1), (0, 0)), [1, 1])

    def test_half_turn(self):
        assert np.allclose(warp_point(rotation(180), (2, 0)), [-2, 0], atol=1e-12)

    def test_degenerate(self):
        from pointtrack.errors import DegenerateTransformError
        with pytest.raises(DegenerateTransformError):
            warp_point(AffineTransform(0, 0, 0, 0), (1, 1))


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
                p = pairs[i]
                pairs[i] = CorrespondenceRow(p.frame, p.prev_x, p.prev_y,
                                             rng.uniform(-500, 500), rng.uniform(-500, 500))
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
        pairs[5] = replace(pairs[5], **{column: bad})
        with pytest.raises(InvalidInputError):
            estimate_affine(pairs, RansacConfig(min_inliers=3))

    def test_too_few_pairs(self):
        with pytest.raises(NoMotionEstimateError):
            estimate_affine([CorrespondenceRow(1, 0, 0, 1, 1), CorrespondenceRow(1, 1, 0, 2, 1)])

    def test_no_consensus(self):
        rng = np.random.default_rng(3)
        pairs = [CorrespondenceRow(1, *rng.uniform(0, 100, 4)) for _ in range(20)]
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
        prev = np.array([[c.prev_x, c.prev_y] for c in pairs])
        cur = np.array([[c.cur_x, c.cur_y] for c in pairs])
        residuals = np.linalg.norm(prev @ got.linear.T + got.translation - cur, axis=1)
        # a healthy consensus fits inside the threshold
        assert (residuals <= cfg.inlier_threshold).sum() >= cfg.min_inliers


class TestConfigs:
    def test_ransac_validation(self):
        with pytest.raises(ConfigError):
            RansacConfig(min_inliers=2)
        with pytest.raises(ConfigError):
            RansacConfig(inlier_threshold=0)

    def test_affine_requires_finite(self):
        with pytest.raises(InvalidInputError):
            AffineTransform(m11=float("nan"))

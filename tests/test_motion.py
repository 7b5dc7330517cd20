import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.cmc import AffineTransform
from pointtrack.errors import ConfigError, DegenerateTransformError, InvalidInputError
from pointtrack.motion import KalmanState, MotionConfig, apply_affine, init_state, predict, update

CFG = MotionConfig()


# --- independent textbook oracle, plain-python matrix arithmetic ---

def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def _matvec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _inv2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]


def oracle_predict(mean, cov, cfg):
    f = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    q = [[cfg.process_noise_pos, 0, 0, 0], [0, cfg.process_noise_pos, 0, 0],
         [0, 0, cfg.process_noise_vel, 0], [0, 0, 0, cfg.process_noise_vel]]
    mean2 = _matvec(f, mean)
    cov2 = _add(_matmul(_matmul(f, cov), _transpose(f)), q)
    return mean2, cov2


def oracle_update(mean, cov, z, cfg):
    h = [[1, 0, 0, 0], [0, 1, 0, 0]]
    ht = _transpose(h)
    s = _add(_matmul(_matmul(h, cov), ht), [[cfg.measurement_noise, 0], [0, cfg.measurement_noise]])
    k = _matmul(_matmul(cov, ht), _inv2(s))
    innov = [z[0] - mean[0], z[1] - mean[1]]
    mean2 = [m + kv for m, kv in zip(mean, _matvec(k, innov))]
    kh = _matmul(k, h)
    ikh = [[(1.0 if i == j else 0.0) - kh[i][j] for j in range(4)] for i in range(4)]
    cov2 = _matmul(_matmul(ikh, cov), _transpose(ikh))
    kr = _matmul(k, [[cfg.measurement_noise, 0], [0, cfg.measurement_noise]])
    cov2 = _add(cov2, _matmul(kr, _transpose(k)))
    return mean2, cov2


# --- reference: predict and update as general matrix products and an
# inverse, as written before the closed form ---

F = np.array([[1.0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
H = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])


def symmetrize(p):
    return (p + p.swapaxes(-1, -2)) / 2.0


def matmul_predict(state, cfg):
    q = np.diag([cfg.process_noise_pos, cfg.process_noise_pos,
                 cfg.process_noise_vel, cfg.process_noise_vel])
    return (F @ state.mean[..., None])[..., 0], symmetrize(F @ state.covariance @ F.T + q)


def matmul_update(state, z, cfg):
    r = cfg.measurement_noise * np.eye(2)
    p = state.covariance
    k = p @ H.T @ np.linalg.inv(H @ p @ H.T + r)
    mean = state.mean + (k @ (z - (H @ state.mean[..., None])[..., 0])[..., None])[..., 0]
    ikh = np.eye(4) - k @ H
    return mean, symmetrize(ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2))


def random_state(rng) -> KalmanState:
    mean = rng.normal(0, 50, 4)
    a = rng.normal(0, 2, (4, 4))
    cov = a @ a.T + 0.1 * np.eye(4)
    return KalmanState(mean, cov)


def assert_valid_covariance(p):
    assert np.max(np.abs(p - p.T)) <= 1e-9
    assert np.linalg.eigvalsh(p).min() >= -1e-9


class TestInitState:
    def test_basic(self):
        s = init_state((5, 7), CFG)
        assert np.allclose(s.mean, [5, 7, 0, 0])

    def test_zero(self):
        s = init_state((0, 0), CFG)
        assert np.allclose(s.mean, 0)
        assert np.allclose(s.covariance, np.diag([10, 10, 100, 100]))

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            init_state((float("nan"), 2), CFG)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MotionConfig(measurement_noise=0.0)


class TestShapes:
    """A state, or a measurement, of the wrong shape raises InvalidInputError."""

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros((2, 4)), np.zeros((3, 4, 4))),
        (np.zeros(3), np.zeros((3, 3))),
        (np.zeros(4), np.zeros((4, 3))),
        (np.zeros((2, 4)), np.zeros((4, 4))),
        (np.zeros(()), np.zeros((4,))),
    ], ids=["rows-differ", "mean-of-3", "covariance-not-square", "covariance-unstacked", "scalar-mean"])
    def test_state_shape_rejected(self, mean, cov):
        with pytest.raises(InvalidInputError):
            predict(KalmanState(mean, cov), CFG)

    @pytest.mark.parametrize("z", [[(1.0, 2.0)], [(1.0, 2.0)] * 4, np.zeros((3, 3)), np.zeros(6)],
                             ids=["one-for-three", "four-for-three", "width-3", "flat"])
    def test_update_measurement_shape_rejected(self, z):
        with pytest.raises(InvalidInputError):
            update(init_state(np.zeros((3, 2)), CFG), z, CFG)

    @pytest.mark.parametrize("z", [[(1.0, 2.0, 3.0)], 5.0, (1.0,), [(1.0, 2.0), (3.0,)], "ab"],
                             ids=["width-3", "scalar", "width-1", "ragged", "text"])
    def test_init_measurement_shape_rejected(self, z):
        with pytest.raises(InvalidInputError):
            init_state(z, CFG)

    def test_empty_stack(self):
        s = init_state(np.zeros((0, 2)), CFG)
        assert s.mean.shape == (0, 4) and s.covariance.shape == (0, 4, 4)
        assert update(predict(s, CFG), np.zeros((0, 2)), CFG).covariance.shape == (0, 4, 4)


class TestPredict:
    def test_constant_velocity(self):
        s = KalmanState(np.array([0.0, 0, 1, 0]), np.eye(4))
        assert np.allclose(predict(s, CFG).mean, [1, 0, 1, 0])

    def test_stationary_covariance_grows(self):
        s = KalmanState(np.array([3.0, 4, 0, 0]), np.eye(4))
        s2 = predict(s, CFG)
        assert np.allclose(s2.mean, [3, 4, 0, 0])
        assert np.trace(s2.covariance) > np.trace(s.covariance)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = random_state(rng)
            got = predict(s, CFG)
            mean, cov = oracle_predict(list(s.mean), [list(r) for r in s.covariance], CFG)
            assert np.allclose(got.mean, mean, atol=1e-12)
            assert np.allclose(got.covariance, cov, atol=1e-12)


class TestUpdate:
    def test_zero_innovation(self):
        s = KalmanState(np.array([2.0, 3, 1, 1]), np.diag([4.0, 4, 9, 9]))
        s2 = update(s, (2, 3), CFG)
        assert np.allclose(s2.position, [2, 3])

    def test_tight_measurement_pulls_to_it(self):
        cfg = MotionConfig(measurement_noise=1e-12)
        s = KalmanState(np.array([0.0, 0, 0, 0]), np.eye(4))
        s2 = update(s, (5, -1), cfg)
        assert np.allclose(s2.position, [5, -1], atol=1e-6)

    def test_posterior_between_prediction_and_measurement(self):
        # isotropic position covariance keeps the gain scalar
        s = init_state((0, 0), CFG)
        s2 = update(s, (10, 0), CFG)
        alpha = s2.position[0] / 10.0
        assert 0.0 < alpha < 1.0
        assert abs(s2.position[1]) < 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = random_state(rng)
            z = rng.normal(0, 50, 2)
            got = update(s, z, CFG)
            mean, cov = oracle_update(list(s.mean), [list(r) for r in s.covariance], list(z), CFG)
            assert np.allclose(got.mean, mean, atol=1e-10)
            assert np.allclose(got.covariance, cov, atol=1e-10)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            update(init_state((0, 0), CFG), (np.inf, 0), CFG)

    @pytest.mark.parametrize("cov", [-np.eye(4), np.full((4, 4), np.nan), np.diag([-3.0, 1.0, 1.0, 1.0]),
                                     -3.0 * np.eye(4)],
                             ids=["singular", "nan", "indefinite", "negative-definite"])
    def test_innovation_covariance_not_positive_definite_rejected(self, cov):
        # S = P[:2, :2] + I is 0, NaN, diag(-2, 2) and -2I: no division may run
        with pytest.raises(InvalidInputError, match="positive definite"):
            update(KalmanState(np.zeros(4), cov), (1, 1), CFG)

    def test_one_singular_row_rejects_the_stack(self):
        cov = np.stack([np.eye(4), -np.eye(4)])
        with pytest.raises(InvalidInputError):
            update(KalmanState(np.zeros((2, 4)), cov), [(1.0, 1.0), (1.0, 1.0)], CFG)


class TestApplyAffine:
    def test_identity(self):
        s = random_state(np.random.default_rng(5))
        s2 = apply_affine(s, AffineTransform.identity())
        assert np.allclose(s2.mean, s.mean)
        assert np.allclose(s2.covariance, s.covariance)

    def test_translation_leaves_velocity(self):
        s = KalmanState(np.array([1.0, 1, 2, 0]), np.eye(4))
        s2 = apply_affine(s, AffineTransform(t1=5, t2=-3))
        assert np.allclose(s2.mean, [6, -2, 2, 0])

    def test_rotation_rotates_both_blocks(self):
        rot = AffineTransform(0, -1, 1, 0)  # 90 degrees
        s = KalmanState(np.array([1.0, 0, 1, 0]), np.eye(4))
        s2 = apply_affine(s, rot)
        assert np.allclose(s2.mean, [0, 1, 0, 1], atol=1e-12)

    def test_degenerate_rejected(self):
        s = init_state((0, 0), CFG)
        with pytest.raises(DegenerateTransformError):
            apply_affine(s, AffineTransform(1e-9, 0, 0, 1e-9))

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            t = AffineTransform(math.cos(theta), -math.sin(theta),
                                math.sin(theta), math.cos(theta),
                                rng.normal(0, 10), rng.normal(0, 10))
            s = random_state(rng)
            back = apply_affine(apply_affine(s, t), t.inverse())
            assert np.allclose(back.mean, s.mean, atol=1e-8)
            assert np.allclose(back.covariance, s.covariance,
                               rtol=1e-6, atol=1e-9)


class TestInvariants:
    def test_covariance_valid_after_random_op_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = init_state(rng.normal(0, 100, 2), CFG)
            assert_valid_covariance(s.covariance)
            for _ in range(rng.integers(1, 101)):
                op = rng.integers(0, 3)
                if op == 0:
                    s = predict(s, CFG)
                elif op == 1:
                    s = update(s, rng.normal(0, 100, 2), CFG)
                else:
                    theta = rng.uniform(0, 2 * math.pi)
                    t = AffineTransform(math.cos(theta), -math.sin(theta),
                                        math.sin(theta), math.cos(theta),
                                        rng.normal(0, 5), rng.normal(0, 5))
                    s = apply_affine(s, t)
                assert_valid_covariance(s.covariance)

    def test_predict_update_at_prediction_keeps_position(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = random_state(rng)
            s2 = predict(s, CFG)
            s3 = update(s2, s2.position, CFG)
            assert np.allclose(s3.position, s2.position, atol=1e-12)

    def test_one_step_position_exact(self):
        s = KalmanState(np.array([2.0, -3.0, 0.5, 1.5]), np.eye(4))
        assert np.array_equal(predict(s, CFG).position, np.array([2.5, -1.5]))


@st.composite
def stacks(draw) -> tuple[KalmanState, np.ndarray, AffineTransform]:
    """0-40 random states with PSD covariances, a measurement for each and a
    near-identity camera transform."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2, 3))
    a = rng.normal(0, scale, (n, 4, 4))
    cov = a @ a.swapaxes(-1, -2) + draw(st.floats(1e-6, 10)) * np.eye(4)
    mean = rng.normal(0, 500, (n, 4))
    z = mean[:, :2] + rng.normal(0, scale, (n, 2))
    m = np.eye(2) + rng.normal(0, draw(st.floats(1e-6, 1e-2)), (2, 2))
    t = AffineTransform(*m.ravel(), *rng.normal(0, 5, 2))
    return KalmanState(mean, cov), z, t


class TestStacked:
    """A stacked call gives, row by row, bitwise the single-state result."""

    @staticmethod
    def assert_rows_equal(stacked: KalmanState, single: list[KalmanState]):
        assert stacked.mean.shape == (len(single), 4)
        assert stacked.covariance.shape == (len(single), 4, 4)
        for i, s in enumerate(single):
            assert np.array_equal(stacked.mean[i], s.mean)
            assert np.array_equal(stacked.covariance[i], s.covariance)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(case=stacks())
    def test_stack_equals_rows(self, case):
        state, z, t = case
        rows = [KalmanState(state.mean[i], state.covariance[i]) for i in range(len(z))]
        self.assert_rows_equal(predict(state, CFG), [predict(r, CFG) for r in rows])
        self.assert_rows_equal(update(state, z, CFG), [update(r, zi, CFG) for r, zi in zip(rows, z)])
        self.assert_rows_equal(apply_affine(state, t), [apply_affine(r, t) for r in rows])
        self.assert_rows_equal(init_state(z, CFG), [init_state(zi, CFG) for zi in z])

    def test_non_finite_row_rejected(self):
        state = init_state([(0.0, 0.0), (1.0, 1.0)], CFG)
        with pytest.raises(InvalidInputError):
            update(state, [(0.0, 0.0), (np.nan, 1.0)], CFG)
        with pytest.raises(InvalidInputError):
            init_state([(0.0, 0.0), (1.0, np.inf)], CFG)


class TestMatchesMatmulReference:
    """The closed form against the matrix-product reference above: predict
    bitwise, update to 1e-12 of each row's largest entry (an explicit 2 x 2
    inverse and LAPACK's differ in the last bits)."""

    @staticmethod
    def assert_close(got, want, axes):
        scale = np.abs(want).max(axis=axes, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(case=stacks())
    def test_same_as_reference(self, case):
        state, z, _ = case
        mean, cov = matmul_predict(state, CFG)
        got = predict(state, CFG)
        assert got.mean.tobytes() == mean.tobytes()
        assert got.covariance.tobytes() == cov.tobytes()
        mean, cov = matmul_update(state, z, CFG)
        got = update(state, z, CFG)
        self.assert_close(got.mean, mean, -1)
        self.assert_close(got.covariance, cov, (-1, -2))
        assert np.array_equal(got.covariance, got.covariance.swapaxes(-1, -2))
        assert got.covariance.flags.c_contiguous

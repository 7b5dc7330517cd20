"""Constant-velocity Kalman filtering of 2-D point targets.

State layout is [x, y, vx, vy] with a fixed one-frame time step. Positions
are image pixels, velocities pixels per frame. All operations are pure:
they take a state and return a new one.

A state holds one target (mean (4,), covariance (4, 4)) or a stack of them
(mean (..., 4), covariance (..., 4, 4)); every operation applies row by row
over the leading axes, and a stack may have zero rows. The transition F
adds each velocity to its position and the measurement H picks the
position, so predict and update are written out in closed form as element
arithmetic over the covariance entries, without a matrix product or an
inverse. Element arithmetic works on each row alone, so a stacked call
gives bitwise the same rows as the single-state calls. A state whose
shapes do not fit, a measurement of the wrong shape or a non-finite one,
and an update whose innovation covariance is singular or not positive
definite raise InvalidInputError.
"""

from dataclasses import dataclass

import numpy as np

from .cmc import AffineTransform
from .errors import ConfigError, InvalidInputError

@dataclass(frozen=True)
class MotionConfig:
    """Noise model of the point filter (pixel / pixel-per-frame units)."""

    process_noise_pos: float = 1.0
    process_noise_vel: float = 0.25
    measurement_noise: float = 1.0
    initial_pos_var: float = 10.0
    initial_vel_var: float = 100.0

    def __post_init__(self):
        for name in ("process_noise_pos", "process_noise_vel",
                     "measurement_noise", "initial_pos_var", "initial_vel_var"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ConfigError(f"{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class KalmanState:
    """Gaussian belief over [x, y, vx, vy], for one target or a stack."""

    mean: np.ndarray        # shape (..., 4)
    covariance: np.ndarray  # shape (..., 4, 4), symmetric PSD

    def __post_init__(self):
        mean, cov = np.shape(self.mean), np.shape(self.covariance)
        if mean[-1:] != (4,) or cov != mean + (4,):
            raise InvalidInputError(f"state of mean shape {mean} and covariance shape {cov}; "
                                    "expected (..., 4) and (..., 4, 4)")

    @property
    def position(self) -> np.ndarray:
        return self.mean[..., :2]


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.swapaxes(-1, -2)) / 2.0


def _entries(p: np.ndarray) -> np.ndarray:
    """A (..., 4, 4) stack as a new (4, 4, ...) array: entry [i, j] is then
    one contiguous array over the stack, which element arithmetic runs
    through far faster than through the stack's 4 x 4 blocks."""
    lead = p.ndim - 2
    return p.transpose(lead, lead + 1, *range(lead)).copy()


def _symmetric_stack(c: np.ndarray) -> np.ndarray:
    """The symmetric part of the (4, 4, ...) entries c as a new C-ordered
    (..., 4, 4) stack."""
    s = (c + c.swapaxes(0, 1)) / 2.0
    return s.transpose(*range(2, s.ndim), 0, 1).copy()


def _measurements(measurement, batch_shape: tuple | None = None) -> np.ndarray:
    """Measured positions as an array of shape batch_shape + (2,), or of any
    shape (..., 2) when batch_shape is None."""
    try:
        z = np.asarray(measurement, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"measurement {measurement!r} is not an array of positions") from exc
    expected = (z.shape[:-1] if batch_shape is None else batch_shape) + (2,)
    if z.shape != expected:
        raise InvalidInputError(f"measurement of shape {z.shape}, expected {expected}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError(f"non-finite measurement {measurement!r}")
    return z


def init_state(measurement, config: MotionConfig) -> KalmanState:
    """Start a filter at each measured position (shape (..., 2)) with zero
    velocity."""
    z = _measurements(measurement)
    mean = np.concatenate([z, np.zeros_like(z)], axis=-1)
    cov = np.diag([config.initial_pos_var, config.initial_pos_var,
                   config.initial_vel_var, config.initial_vel_var])
    return KalmanState(mean, np.broadcast_to(cov, z.shape[:-1] + (4, 4)).copy())


def predict(state: KalmanState, config: MotionConfig) -> KalmanState:
    """One-frame constant-velocity prediction: F x and F P F' + Q, where F
    adds each velocity to its position."""
    mean = state.mean.copy()
    mean[..., :2] += mean[..., 2:]
    c = _entries(state.covariance)
    c[:2] += c[2:]        # F P
    c[:, :2] += c[:, 2:]  # (F P) F'
    diagonal = np.einsum("ii...->i...", c)  # a writable view
    diagonal[:2] += config.process_noise_pos
    diagonal[2:] += config.process_noise_vel
    return KalmanState(mean, _symmetric_stack(c))


def update(state: KalmanState, measurement, config: MotionConfig) -> KalmanState:
    """Correct each state with its position measurement (shape (..., 2)).

    H picks the position and R = rI, so the innovation covariance is the
    2 x 2 S = P[:2, :2] + rI, inverted in closed form, and the gain is
    K = P[:, :2] S^-1. The covariance takes the Joseph form
    (I - KH) P (I - KH)' + r KK', which keeps it symmetric and PSD under
    roundoff. Raises InvalidInputError where S is not positive definite.
    """
    z = _measurements(measurement, state.mean.shape[:-1])
    r = config.measurement_noise
    x, p = state.mean, _entries(state.covariance)
    s00, s01, s11 = p[0, 0] + r, p[0, 1], p[1, 1] + r
    det = s00 * s11 - s01 * s01
    if not np.all((det > 0) & (s00 > 0)):  # written so that NaN fails it
        raise InvalidInputError("innovation covariance is not positive definite")
    # the gain's columns, P[:, :2] times S^-1 = [[s11, -s01], [-s01, s00]] / det
    k0 = p[:, 0] * (s11 / det) - p[:, 1] * (s01 / det)
    k1 = p[:, 1] * (s00 / det) - p[:, 0] * (s01 / det)
    nu = z - x[..., :2]
    mean = x + (k0 * nu[..., 0] + k1 * nu[..., 1]).transpose(*range(1, x.ndim), 0)
    # B = (I - KH) P takes the gain times P's position rows off P; then
    # B (I - KH)' + r KK' = B + sum over i of (r k_i - B[:, i]) k_i'
    b = p - k0[:, None] * p[0] - k1[:, None] * p[1]
    cov = b + (r * k0 - b[:, 0])[:, None] * k0 + (r * k1 - b[:, 1])[:, None] * k1
    return KalmanState(mean, _symmetric_stack(cov))


def apply_affine(state: KalmanState, t: AffineTransform) -> KalmanState:
    """Carry the state through an inter-frame camera transform.

    Position maps affinely, velocity by the linear part only; the covariance
    is transformed with the block-diagonal Jacobian. Process and measurement
    noise are frame-local model constants and are not touched.
    """
    m = t.linear  # validates non-degeneracy
    j = np.zeros((4, 4))
    j[:2, :2] = m
    j[2:, 2:] = m
    mean = (j @ state.mean[..., None])[..., 0]  # one product per row, as for a single state
    mean[..., :2] += t.translation
    cov = _symmetrize(j @ state.covariance @ j.T)
    return KalmanState(mean, cov)

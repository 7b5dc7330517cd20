"""Constant-velocity Kalman filtering of 2-D point targets.

State layout is [x, y, vx, vy] with a fixed one-frame time step. Positions
are image pixels, velocities pixels per frame. All operations are pure:
they take a state and return a new one.

A state holds one target (mean (4,), covariance (4, 4)) or a stack of them
(mean (..., 4), covariance (..., 4, 4)); every operation applies row by row
over the leading axes, and a stack may have zero rows. Each product is a
matrix times a column, ``M @ x[..., None]``, never ``x @ M.T``: numpy then
does one small product per row, so a stacked call gives bitwise the same
rows as the single-state calls.
"""

from dataclasses import dataclass

import numpy as np

from .cmc import AffineTransform
from .errors import ConfigError, InvalidInputError

# one-frame constant-velocity transition and position-only measurement
_F = np.array([
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])
_H = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


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

    @property
    def position(self) -> np.ndarray:
        return self.mean[..., :2]


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.swapaxes(-1, -2)) / 2.0


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for each row x of a stack of vectors."""
    return (m @ x[..., None])[..., 0]


def _measurements(measurement, batch_shape: tuple) -> np.ndarray:
    """Measured positions as an array of shape batch_shape + (2,)."""
    z = np.asarray(measurement, dtype=float).reshape(batch_shape + (2,))
    if not np.all(np.isfinite(z)):
        raise InvalidInputError(f"non-finite measurement {measurement!r}")
    return z


def init_state(measurement, config: MotionConfig) -> KalmanState:
    """Start a filter at each measured position (shape (..., 2)) with zero
    velocity."""
    z = np.asarray(measurement, dtype=float)
    z = _measurements(z, z.shape[:-1])
    mean = np.concatenate([z, np.zeros_like(z)], axis=-1)
    cov = np.diag([config.initial_pos_var, config.initial_pos_var,
                   config.initial_vel_var, config.initial_vel_var])
    return KalmanState(mean, np.broadcast_to(cov, z.shape[:-1] + (4, 4)).copy())


def predict(state: KalmanState, config: MotionConfig) -> KalmanState:
    """One-frame constant-velocity prediction."""
    q = np.diag([config.process_noise_pos, config.process_noise_pos,
                 config.process_noise_vel, config.process_noise_vel])
    mean = _apply(_F, state.mean)
    cov = _symmetrize(_F @ state.covariance @ _F.T + q)
    return KalmanState(mean, cov)


def update(state: KalmanState, measurement, config: MotionConfig) -> KalmanState:
    """Correct each state with its position measurement (shape (..., 2)).

    Uses the Joseph-form covariance update, which keeps the covariance
    symmetric and PSD under roundoff.
    """
    z = _measurements(measurement, state.mean.shape[:-1])
    r = config.measurement_noise * np.eye(2)
    p = state.covariance
    s = _H @ p @ _H.T + r
    k = p @ _H.T @ np.linalg.inv(s)
    innovation = z - _apply(_H, state.mean)
    mean = state.mean + _apply(k, innovation)
    ikh = np.eye(4) - k @ _H
    cov = _symmetrize(ikh @ p @ ikh.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2))
    return KalmanState(mean, cov)


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
    mean = _apply(j, state.mean)
    mean[..., :2] += t.translation
    cov = _symmetrize(j @ state.covariance @ j.T)
    return KalmanState(mean, cov)

"""Gated Euclidean cost matrices and optimal detection-to-track assignment."""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigError, InvalidInputError


@dataclass(frozen=True)
class GatingPolicy:
    """Altitude-aware assignment gate.

    The gate radius grows as the platform descends: at the reference
    altitude it equals base_radius and it is never smaller than that.
    """

    base_radius: float = 10.0
    reference_altitude: float = 100.0

    def __post_init__(self):
        if not (math.isfinite(self.base_radius) and self.base_radius > 0):
            raise ConfigError("base_radius must be finite and > 0")
        if not (math.isfinite(self.reference_altitude) and self.reference_altitude > 0):
            raise ConfigError("reference_altitude must be finite and > 0")


@dataclass
class AssignmentResult:
    matches: list[tuple[int, int, float]] = field(default_factory=list)  # (track, detection, distance)
    unmatched_tracks: list[int] = field(default_factory=list)
    unmatched_detections: list[int] = field(default_factory=list)


def dynamic_threshold(altitude: float, policy: GatingPolicy = GatingPolicy()) -> float:
    """Assignment gate in pixels for a given flight altitude in metres."""
    if not np.isfinite(altitude) or altitude <= 0:
        raise InvalidInputError(f"altitude must be > 0, got {altitude!r}")
    return max(policy.base_radius, policy.reference_altitude / altitude * policy.base_radius)


def build_cost_matrix(predicted, detections) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(predicted), len(detections))."""
    p = np.asarray(predicted, dtype=float).reshape(-1, 2)
    d = np.asarray(detections, dtype=float).reshape(-1, 2)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(d))):
        raise InvalidInputError("non-finite coordinates in cost matrix input")
    return np.linalg.norm(p[:, None, :] - d[None, :, :], axis=2)


def solve_assignment(costs: np.ndarray, gate: float) -> AssignmentResult:
    """Minimum-cost one-to-one assignment over pairs with cost < gate.

    Among all assignments that use only in-gate pairs, one of maximum
    cardinality and, within that, minimum total cost is returned. Gating is
    strict: a pair at exactly the gate distance is never matched.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise InvalidInputError(f"cost matrix must be 2-D, got shape {costs.shape}")
    if np.any(np.isnan(costs)):
        raise InvalidInputError("NaN in cost matrix")
    if not np.isfinite(gate) or gate <= 0:
        raise InvalidInputError(f"gate must be > 0, got {gate!r}")

    n_rows, n_cols = costs.shape
    result = AssignmentResult()
    if n_rows == 0 or n_cols == 0:
        result.unmatched_tracks = list(range(n_rows))
        result.unmatched_detections = list(range(n_cols))
        return result

    admissible = costs < gate
    # A forbidden cell costing more than all admissible cells combined makes
    # the solver prefer maximum admissible cardinality before total cost.
    big = float(costs[admissible].sum()) + 1.0 if admissible.any() else 1.0
    padded = np.where(admissible, costs, big)
    rows, cols = linear_sum_assignment(padded)

    matched_rows, matched_cols = set(), set()
    for i, j in sorted(zip(rows, cols)):
        if admissible[i, j]:
            result.matches.append((int(i), int(j), float(costs[i, j])))
            matched_rows.add(int(i))
            matched_cols.add(int(j))
    result.unmatched_tracks = [i for i in range(n_rows) if i not in matched_rows]
    result.unmatched_detections = [j for j in range(n_cols) if j not in matched_cols]
    return result

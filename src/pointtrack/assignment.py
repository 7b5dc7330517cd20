"""Gated Euclidean cost matrices and optimal detection-to-track assignment."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

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
    matches: np.ndarray  # (k, 2) int: track row, detection column; rows ascend
    distances: np.ndarray  # (k,) the cost of each match, < gate
    unmatched_tracks: np.ndarray  # ascending rows
    unmatched_detections: np.ndarray  # ascending columns


def dynamic_threshold(altitude: float, policy: GatingPolicy = GatingPolicy()) -> float:
    """Assignment gate in pixels for a given flight altitude in metres."""
    if not np.isfinite(altitude) or altitude <= 0:
        raise InvalidInputError(f"altitude must be > 0, got {altitude!r}")
    gate = max(policy.base_radius, policy.reference_altitude / altitude * policy.base_radius)
    if not math.isfinite(gate):
        raise InvalidInputError(f"altitude {altitude!r} is too close to 0: the gate "
                                f"{policy.reference_altitude!r} / altitude * {policy.base_radius!r} "
                                "overflows")
    return gate


def check_gate(gate: float):
    """Raise InvalidInputError unless gate is finite and > 0."""
    if not (gate > 0 and math.isfinite(gate)):
        raise InvalidInputError(f"gate must be finite and > 0, got {gate!r}")


# Up to this many cells, a dense cdist and a nonzero find the in-gate pairs
# faster than the band search; the two took the same time near 5,000 cells.
# S20 frames (about 25 x 30 cells) fall below it, crowd frames (about
# 350 x 300) far above.
DENSE_CELLS = 4096


@dataclass(frozen=True)
class GatedCosts:
    """The cells of an n x m cost matrix that lie inside a gate, in
    row-major order: costs[k] < gate is the cost of row rows[k] and column
    cols[k]. Every other cell is at or beyond the gate."""

    shape: tuple[int, int]
    gate: float
    rows: np.ndarray
    cols: np.ndarray
    costs: np.ndarray

    @classmethod
    def from_dense(cls, costs: np.ndarray, gate: float) -> "GatedCosts":
        rows, cols = np.nonzero(costs < gate)
        return cls(costs.shape, gate, rows, cols, costs[rows, cols])


def band_pairs(queries, data, radius) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, datum) index pair of two 1-d float arrays with the
    datum in the closed band [q - radius, q + radius] of the query q, as
    two index arrays, query by query; radius is one float or one per query.
    The data are sorted once and each band bound is a searchsorted."""
    order = np.argsort(data)
    keys = data[order]
    lo = np.searchsorted(keys, queries - radius, side="left")
    counts = np.searchsorted(keys, queries + radius, side="right") - lo
    rows = np.repeat(np.arange(len(counts)), counts)
    # the k-th candidate of a query is the k-th datum of its band
    cols = order[np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    return rows, cols


def build_cost_matrix(predicted, detections, gate: float) -> GatedCosts:
    """The in-gate cells of the Euclidean distance matrix, shape
    (len(predicted), len(detections)).

    Above DENSE_CELLS cells no dense matrix is built: the detections are
    sorted by x, each predicted point takes the detections of its
    [x - gate, x + gate] band, and the exact distance filters those
    candidates. A distance is sqrt(dx * dx + dy * dy), the same bits as
    cdist.
    """
    p = np.asarray(predicted, dtype=float).reshape(-1, 2)
    d = np.asarray(detections, dtype=float).reshape(-1, 2)
    if not (np.isfinite(p).all() and np.isfinite(d).all()):
        raise InvalidInputError("non-finite coordinates in cost matrix input")
    check_gate(gate)
    n, m = len(p), len(d)
    if n * m <= DENSE_CELLS:
        return GatedCosts.from_dense(cdist(p, d), gate)
    # a closed band: |dx| < gate puts the detection inside it whatever the
    # rounding of x -/+ gate
    rows, cols = band_pairs(p[:, 0], d[:, 0], gate)
    with np.errstate(over="ignore"):  # points near +-1e308: +inf, beyond every gate
        dx, dy = p[rows, 0] - d[cols, 0], p[rows, 1] - d[cols, 1]
        costs = np.sqrt(dx * dx + dy * dy)
    inside = np.flatnonzero(costs < gate)
    inside = inside[np.lexsort((cols[inside], rows[inside]))]
    return GatedCosts((n, m), gate, rows[inside], cols[inside], costs[inside])


def solve_assignment(costs, gate: float) -> AssignmentResult:
    """Minimum-cost one-to-one assignment over pairs with cost < gate.

    Among all assignments that use only in-gate pairs, one of maximum
    cardinality and, within that, minimum total cost is returned. Gating is
    strict: a pair at exactly the gate distance is never matched. costs is
    a dense matrix or the GatedCosts that build_cost_matrix found at this
    gate.

    That optimum splits over the connected components of the gate graph. A
    pair whose row and column gate only each other is in every optimum and
    is matched directly; one linear_sum_assignment solves the rows and
    columns left. Where the optimum is unique the result equals one dense
    solve; among tied optima, it may pick another one.
    """
    check_gate(gate)
    if not isinstance(costs, GatedCosts):
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 2:
            raise InvalidInputError(f"cost matrix must be 2-D, got shape {costs.shape}")
        if np.any(np.isnan(costs)):
            raise InvalidInputError("NaN in cost matrix")
        costs = GatedCosts.from_dense(costs, gate)
    elif gate != costs.gate:
        raise InvalidInputError(f"cells found at gate {costs.gate!r} cannot be solved at {gate!r}")
    (n_rows, n_cols), rows, cols, cost = costs.shape, costs.rows, costs.cols, costs.costs
    lone = (np.bincount(rows, minlength=n_rows)[rows] == 1) & (
        np.bincount(cols, minlength=n_cols)[cols] == 1)
    if not lone.all():
        pairs = (~lone).nonzero()[0]
        block_rows = np.bincount(rows[pairs], minlength=n_rows).nonzero()[0]
        block_cols = np.bincount(cols[pairs], minlength=n_cols).nonzero()[0]
        at = block_rows.searchsorted(rows[pairs]), block_cols.searchsorted(cols[pairs])
        pair_at = np.full((len(block_rows), len(block_cols)), -1)
        pair_at[at] = pairs
        # A forbidden cell costing more than all admissible cells combined
        # makes the solver prefer maximum admissible cardinality before total
        # cost.
        padded = np.full(pair_at.shape, float(cost[pairs].sum()) + 1.0)
        padded[at] = cost[pairs]
        chosen = pair_at[linear_sum_assignment(padded)]
        lone[chosen[chosen >= 0]] = True
    rows, cols, cost = rows[lone], cols[lone], cost[lone]  # ascending rows
    free_rows = np.ones(n_rows, dtype=bool)
    free_rows[rows] = False
    free_cols = np.ones(n_cols, dtype=bool)
    free_cols[cols] = False
    return AssignmentResult(np.column_stack((rows, cols)), cost,
                            free_rows.nonzero()[0], free_cols.nonzero()[0])

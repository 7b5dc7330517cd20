"""Offline min-cost-flow baseline over a whole sequence's detections.

Each detection becomes an entry/exit node pair in a DAG ordered by frame;
trajectories are extracted by repeatedly taking the cheapest source-to-sink
path via dynamic programming while its total cost stays negative (the
sequential-shortest-path scheme without residual-edge reversal).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .formats import Detection
from .metrics import TrajectorySet


@dataclass(frozen=True)
class GogConfig:
    entry_cost: float = 10.0
    exit_cost: float = 10.0
    gap_penalty: float = 0.2  # per skipped frame on a transition
    max_gap: int = 60         # frames a transition may bridge
    gate: float = 10.0        # px per frame of gap, unless per-frame gates given

    def __post_init__(self):
        if self.max_gap < 1:
            raise ConfigError("max_gap must be >= 1")
        for name in ("entry_cost", "exit_cost", "gap_penalty", "gate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.gate <= 0:
            raise ConfigError("gate must be > 0")


@dataclass
class FlowGraph:
    """Flattened detection DAG; transition edges are implicit in the
    admission rule (see transition_cost)."""

    frames: np.ndarray     # (n,) int, sorted non-decreasing
    xs: np.ndarray         # (n,)
    ys: np.ndarray         # (n,)
    confs: np.ndarray      # (n,)
    det_costs: np.ndarray  # (n,) log((1-conf)/conf)
    gates: np.ndarray      # (n,) px, gate of each detection's frame
    config: GogConfig
    frame_slices: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.frames)

    def transition_cost(self, i: int, j: int) -> float | None:
        """Cost of linking detection i to a later detection j, or None when
        the edge is inadmissible (gap or distance out of range)."""
        gap = int(self.frames[j] - self.frames[i])
        if gap < 1 or gap > self.config.max_gap:
            return None
        dist = math.hypot(self.xs[j] - self.xs[i], self.ys[j] - self.ys[i])
        if dist > self.gates[i] * gap:
            return None
        return dist / self.gates[i] + self.config.gap_penalty * (gap - 1)


def build_graph(detections: list[Detection], config: GogConfig = GogConfig(),
                gates_by_frame: dict[int, float] | None = None) -> FlowGraph:
    """Arrange a sequence's detections into the association DAG.

    gates_by_frame carries altitude-scaled per-frame gates; frames without
    an entry fall back to config.gate. Raises InvalidInputError on a conf
    outside the open interval (0, 1), a non-finite coordinate, or a
    per-frame gate that is not finite and > 0.
    """
    ordered = sorted(range(len(detections)), key=lambda k: (detections[k].frame, k))
    frames = np.array([detections[k].frame for k in ordered], dtype=int)
    xs = np.array([detections[k].x for k in ordered], dtype=float)
    ys = np.array([detections[k].y for k in ordered], dtype=float)
    confs = np.array([detections[k].conf for k in ordered], dtype=float)
    # written so that NaN fails every check
    if not ((confs > 0.0) & (confs < 1.0)).all():
        raise InvalidInputError("detection confidences must lie strictly in (0, 1)")
    if not (np.isfinite(xs) & np.isfinite(ys)).all():
        raise InvalidInputError("detection coordinates must be finite")
    det_costs = np.log((1.0 - confs) / confs)
    if gates_by_frame:
        gates = np.array([gates_by_frame.get(int(f), config.gate) for f in frames], dtype=float)
        if not (np.isfinite(gates) & (gates > 0.0)).all():
            raise InvalidInputError("per-frame gates must be finite and > 0")
    else:
        gates = np.full(len(frames), config.gate)

    slices: dict[int, tuple[int, int]] = {}
    start = 0
    for i in range(1, len(frames) + 1):
        if i == len(frames) or frames[i] != frames[start]:
            slices[int(frames[start])] = (start, i)
            start = i
    return FlowGraph(frames=frames, xs=xs, ys=ys, confs=confs,
                     det_costs=det_costs, gates=gates, config=config,
                     frame_slices=slices)


def _cheapest_path(graph: FlowGraph, alive: np.ndarray) -> tuple[float, list[int]]:
    """DP over the DAG restricted to alive detections.

    Returns (total cost, detection indices) of the cheapest full path,
    (inf, []) when no detection is alive.
    """
    cfg = graph.config
    n = len(graph)
    dp = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=int)
    frame_list = sorted(graph.frame_slices)

    for fi, frame in enumerate(frame_list):
        lo, hi = graph.frame_slices[frame]
        cur = np.arange(lo, hi)[alive[lo:hi]]
        if cur.size == 0:
            continue
        best_prev_cost = np.full(cur.size, cfg.entry_cost)
        best_prev_idx = np.full(cur.size, -1, dtype=int)
        for pframe in reversed(frame_list[:fi]):
            gap = frame - pframe
            if gap > cfg.max_gap:
                break
            plo, phi = graph.frame_slices[pframe]
            prev = np.arange(plo, phi)[alive[plo:phi] & np.isfinite(dp[plo:phi])]
            if prev.size == 0:
                continue
            dx = graph.xs[cur][:, None] - graph.xs[prev][None, :]
            dy = graph.ys[cur][:, None] - graph.ys[prev][None, :]
            dist = np.hypot(dx, dy)
            trans = dist / graph.gates[prev][None, :] + cfg.gap_penalty * (gap - 1)
            total = dp[prev][None, :] + np.where(dist <= graph.gates[prev][None, :] * gap,
                                                 trans, np.inf)
            k = np.argmin(total, axis=1)
            cand = total[np.arange(cur.size), k]
            better = cand < best_prev_cost
            best_prev_cost = np.where(better, cand, best_prev_cost)
            best_prev_idx = np.where(better, prev[k], best_prev_idx)
        dp[cur] = graph.det_costs[cur] + best_prev_cost
        pred[cur] = best_prev_idx

    totals = dp + cfg.exit_cost
    totals[~alive] = np.inf
    if not np.any(np.isfinite(totals)):
        return float("inf"), []
    end = int(np.argmin(totals))
    path = []
    node = end
    while node != -1:
        path.append(node)
        node = int(pred[node])
    path.reverse()
    return float(totals[end]), path


def _extract(graph: FlowGraph):
    """Yield (cost, path) of each negative-cost path, removing its
    detections before the next search, until none remains."""
    alive = np.ones(len(graph), dtype=bool)
    while alive.any():
        cost, path = _cheapest_path(graph, alive)
        if cost >= 0.0 or not path:
            return
        alive[path] = False
        yield cost, path


def solve(graph: FlowGraph) -> TrajectorySet:
    """Extract negative-cost paths greedily until none remains; the k-th
    path found becomes track k."""
    paths = [path for _, path in _extract(graph)]
    rows = np.array([i for path in paths for i in path], dtype=int)
    ids = np.repeat(np.arange(1, len(paths) + 1), [len(path) for path in paths])
    return TrajectorySet(graph.frames[rows], ids, graph.xs[rows], graph.ys[rows], graph.confs[rows])


def solve_total_cost(graph: FlowGraph) -> float:
    """Total cost of the greedy solution (0.0 when nothing is extracted)."""
    return sum((cost for cost, _ in _extract(graph)), 0.0)

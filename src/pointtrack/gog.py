"""Offline min-cost-flow baseline over a whole sequence's detections.

Each detection becomes an entry/exit node pair in a DAG ordered by frame;
trajectories are extracted by repeatedly taking the cheapest source-to-sink
path via dynamic programming while its total cost stays negative (the
sequential-shortest-path scheme without residual-edge reversal; Pirsiavash
et al., CVPR 2011).

The DP runs in full once. After each extracted path only the detections it
invalidated are recomputed: removing detections can only raise dp, so a
detection whose chosen predecessor kept its dp keeps its dp and pred (every
option before that predecessor in tie order stays strictly worse, every
later one stays no better). Walking forward from the path's first frame,
a detection is recomputed only when its predecessor was removed or its dp
rose, which gives bitwise the same paths as a full DP rerun per path.

Each step of the DP relaxes detections of one frame (rows) against a window
of predecessors, the live detections 1 to max_gap frames back, in tie order
(nearest frame first, then lowest index). The live detections are kept in
tie order in a compacted graph of their own, rebuilt once per extracted
path, so every window is a slice of it. FlowGraph.link_terms states the
admission rule and gives what depends only on the predecessor, once per
window column: its position, gate, gate radius gate * gap, gap penalty. Per
cell (detection x predecessor) link_costs computes only the distance, the
radius test and distance / gate + penalty, and the DP adds the
predecessor's dp and takes the argmin, in blocks of at most _BLOCK cells.
transition_cost applies the same two methods to a single pair.

A row's result depends only on the predecessors that can reach its best,
so a relax of more than _GROUP rows, a frame's or a repair's, skips the
others:

- Bound. A link from i costs dp[i] + (distance / gate + penalty), at
  least lb[i] = dp[i] + penalty, since distance / gate >= 0 and rounded
  float addition is monotone.
- Probe. Each row's best is at most its cheapest link into the _PROBE
  nearest frames, a prefix of the window, and at most the entry cost.
- Groups. The rows, sorted by that bound, are relaxed _GROUP at a time
  against the columns with lb <= the group's largest bound, kept in tie
  order.

Exactness: a column with lb above a row's bound costs more than the row's
best, so it can neither be the argmin nor tie with it; the columns kept
hold every one that reaches the best, in the same order, so the argmin
and the strict comparison with the entry cost pick the same result as
over the whole window. The comparison must stay <=: a column whose lb
equals the bound can tie the best and win it by tie order. Row sets of at
most _GROUP rows, nearly all of the repairs, scan the whole window, where
a probe would cost more than it saves.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .formats import DETECTIONS, Detection
from .metrics import TrajectorySet

# cells per (detections x predecessor window) block, bounding DP temporaries
_BLOCK = 1 << 12
# rows relaxed against one set of columns; more rows than this are grouped
_GROUP = 6
# frames back that the probe bounding a grouped row's best reaches
_PROBE = 2


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
        if self.gap_penalty < 0:
            raise ConfigError("gap_penalty must be >= 0")
        if self.gate <= 0:
            raise ConfigError("gate must be > 0")


@dataclass
class FlowGraph:
    """Flattened detection DAG; transition edges are implicit in the
    admission rule (see link_terms)."""

    frames: np.ndarray     # (n,) int; build_graph sorts them non-decreasing
    xs: np.ndarray         # (n,)
    ys: np.ndarray         # (n,)
    confs: np.ndarray      # (n,)
    det_costs: np.ndarray  # (n,) log((1-conf)/conf)
    gates: np.ndarray      # (n,) px, gate of each detection's frame
    config: GogConfig
    frame_slices: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.frames)

    def link_terms(self, i, frame: int) -> tuple:
        """Everything a link from detections i to a detection of frame needs
        that does not depend on that detection, one entry per i: position,
        gate, gate radius and gap penalty.

        The admission rule: a link bridges a gap of 1 to max_gap frames and
        spans at most gate * gap px, with the gate of i's frame. Outside that
        gap range the radius is -inf, which no distance meets."""
        gap = frame - self.frames[i]
        gate = self.gates[i]
        # a +inf gate * gap admits every finite distance
        with np.errstate(over="ignore"):
            radius = np.where((gap >= 1) & (gap <= self.config.max_gap), gate * gap, -np.inf)
            penalty = self.config.gap_penalty * (gap - 1)
        return self.xs[i], self.ys[i], gate, radius, penalty

    def link_costs(self, terms: tuple, j) -> np.ndarray:
        """The cost formula: (len(j), len(i)) costs of linking the detections
        i that link_terms(i, frame) describes to detections j of that frame,
        distance / gate + penalty; inf where the link is inadmissible."""
        x, y, gate, radius, penalty = terms
        # points near +-1e308 overflow to a +inf distance or cost: either
        # way the link costs inf
        with np.errstate(over="ignore"):
            dist = np.hypot(self.xs[j][:, None] - x, self.ys[j][:, None] - y)
            return np.where(dist <= radius, dist / gate + penalty, np.inf)

    def transition_cost(self, i: int, j: int) -> float | None:
        """Cost of linking detection i to a later detection j, or None when
        the edge is inadmissible."""
        cost = float(self.link_costs(self.link_terms([i], self.frames[j]), [j])[0, 0])
        return cost if cost != math.inf else None


def build_graph(detections: list[Detection], config: GogConfig = GogConfig(),
                gates_by_frame: dict[int, float] | None = None) -> FlowGraph:
    """Arrange a sequence's detections into the association DAG.

    gates_by_frame carries altitude-scaled per-frame gates; frames without
    an entry fall back to config.gate. Raises InvalidInputError on a conf
    outside the open interval (0, 1), a non-finite coordinate, or a
    per-frame gate that is not finite and > 0.
    """
    frame, x, y, conf, _ = DETECTIONS.to_columns(detections, 4)
    order = np.argsort(frame, kind="stable")
    frames, xs, ys, confs = frame[order], x[order], y[order], conf[order]
    # written so that NaN fails every check
    if not ((confs > 0.0) & (confs < 1.0)).all():
        raise InvalidInputError("detection confidences must lie strictly in (0, 1)")
    if not (np.isfinite(xs) & np.isfinite(ys)).all():
        raise InvalidInputError("detection coordinates must be finite")
    det_costs = np.log((1.0 - confs) / confs)
    if gates_by_frame:
        gates = np.array([gates_by_frame.get(f, config.gate) for f in frames.tolist()], dtype=float)
        if not (np.isfinite(gates) & (gates > 0.0)).all():
            raise InvalidInputError("per-frame gates must be finite and > 0")
    else:
        gates = np.full(len(frames), config.gate)

    starts = np.flatnonzero(np.diff(frames, prepend=frames[:1] - 1)).tolist()
    slices = dict(zip(frames[starts].tolist(), zip(starts, starts[1:] + [len(frames)])))
    return FlowGraph(frames=frames, xs=xs, ys=ys, confs=confs,
                     det_costs=det_costs, gates=gates, config=config,
                     frame_slices=slices)


def _extract(graph: FlowGraph):
    """Yield (cost, path) of each negative-cost path, removing its
    detections before the next search, until none remains.

    One full DP pass, then after each path an exact repair of only the
    detections it invalidated (see the module docstring).
    """
    n = len(graph)
    cfg = graph.config
    dp = np.full(n, np.inf)                  # inf marks a removed detection
    pred = np.full(n, -1, dtype=int)         # -1: the path enters here
    changed = np.zeros(n + 1, dtype=bool)    # changed[-1] is the entry, never set
    frame_list = sorted(graph.frame_slices)
    if not frame_list:
        return
    frames = np.array(frame_list)
    span = min(cfg.max_gap, frame_list[-1] - frame_list[0])  # stays within int64
    # the live detections in tie order: nearest frame first, then ascending index
    live = np.lexsort((np.arange(n), -graph.frames))

    def compact():
        """The live detections as a graph of their own, in tie order, and
        per frame the bounds of its window in that graph and the length of
        its probe, the window's prefix over the _PROBE nearest frames."""
        view = FlowGraph(frames=graph.frames[live], xs=graph.xs[live], ys=graph.ys[live],
                         confs=graph.confs[live], det_costs=graph.det_costs[live],
                         gates=graph.gates[live], config=cfg)
        back = -view.frames  # non-decreasing
        start = np.searchsorted(back, -frames, side="right")
        stop = np.searchsorted(back, span - frames, side="right")
        probe = np.minimum(np.searchsorted(back, _PROBE - frames, side="right"), stop) - start
        return view, start.tolist(), stop.tolist(), probe.tolist()

    def scan(rows, terms, dp_window):
        """Each row's minimum of dp_window + its link costs, and the first
        window position that reaches it, in blocks of at most _BLOCK cells."""
        best = np.empty(rows.size)
        arg = np.empty(rows.size, dtype=int)
        step = max(1, _BLOCK // dp_window.size)
        for a in range(0, rows.size, step):
            total = dp_window + graph.link_costs(terms, rows[a:a + step])
            k = total.argmin(axis=1)
            best[a:a + step] = total[np.arange(k.size), k]
            arg[a:a + step] = k
        return best, arg

    def relax(fi: int, rows: np.ndarray) -> None:
        a, b = start[fi], stop[fi]
        best = np.full(rows.size, cfg.entry_cost, dtype=float)
        via = np.full(rows.size, -1)
        if a < b:
            window = live[a:b]
            terms = view.link_terms(slice(a, b), frame_list[fi])
            dp_window = dp[window]
            if rows.size <= _GROUP:
                best, k = scan(rows, terms, dp_window)
                via = window[k]
            else:
                # bound each row's best by the entry cost and its probe
                # (see the module docstring)
                bound = best.copy()
                p = probe[fi]
                if p:
                    reach, _ = scan(rows, tuple(t[:p] for t in terms), dp_window[:p])
                    np.minimum(bound, reach, out=bound)
                lower = dp_window + terms[-1]  # dp + gap penalty
                ranked = np.argsort(bound, kind="stable")
                for g in np.array_split(ranked, range(_GROUP, rows.size, _GROUP)):
                    cand = np.flatnonzero(lower <= bound[g[-1]])
                    if cand.size:
                        best[g], k = scan(rows[g], tuple(t[cand] for t in terms), dp_window[cand])
                        via[g] = window[cand[k]]
        # the entry cost wins ties: a link must be strictly cheaper
        better = best < cfg.entry_cost
        dp[rows] = graph.det_costs[rows] + np.where(better, best, cfg.entry_cost)
        pred[rows] = np.where(better, via, -1)

    view, start, stop, probe = compact()
    for fi, frame in enumerate(frame_list):
        relax(fi, np.arange(*graph.frame_slices[frame]))

    while True:
        totals = dp + cfg.exit_cost
        end = int(np.argmin(totals))
        if not totals[end] < 0.0:  # also when every detection is removed (inf)
            return
        path = [end]
        while pred[path[-1]] != -1:
            path.append(int(pred[path[-1]]))
        path.reverse()
        yield float(totals[end]), path

        # Repair forward from the path's first frame; a frame more than
        # max_gap past the last change has no changed predecessor.
        changed[:] = False
        changed[path] = True
        dp[path] = np.inf
        live = live[np.isfinite(dp[live])]
        view, start, stop, probe = compact()
        last_change = int(graph.frames[path[-1]])
        for fi in range(bisect_right(frame_list, graph.frames[path[0]]), len(frame_list)):
            frame = frame_list[fi]
            if frame - last_change > cfg.max_gap:
                break
            lo, hi = graph.frame_slices[frame]
            rows = lo + np.flatnonzero(np.isfinite(dp[lo:hi]) & changed[pred[lo:hi]])
            if rows.size == 0:
                continue
            before = dp[rows]
            relax(fi, rows)
            moved = rows[dp[rows] != before]
            if moved.size:
                changed[moved] = True
                last_change = max(last_change, frame)


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

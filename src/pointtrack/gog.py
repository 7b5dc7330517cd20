"""Offline min-cost-flow baseline over a whole sequence's detections.

Each detection becomes an entry/exit node pair in a DAG ordered by frame;
trajectories are extracted by repeatedly taking the cheapest source-to-sink
path via dynamic programming while its total cost stays negative (the
sequential-shortest-path scheme without residual-edge reversal; Pirsiavash
et al., CVPR 2011).

The DP runs in full once. After each extracted path only the path's
descendants in the pred forest (the detections whose chain of chosen
predecessors runs through it) are recomputed, frame by frame in frame
order. Exactness: removing detections can only raise dp, and a detection
outside that set has a chosen predecessor outside it too, whose dp is
unchanged by induction over the frames; every option before that
predecessor in tie order stays strictly worse and every later one stays no
better, so the detection keeps its dp and pred. A descendant whose result
does not move is recomputed to the same dp and pred, which gives bitwise
the same paths as a full DP rerun per path. The set is found before any
relax, from the pred forest as it stood when the path was taken, by
pointer doubling: each round ORs into every detection whether its current
ancestor is marked and then doubles its ancestor step, so about
log2(longest chain) vectorised passes over the detections from the path's
first one on.

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
transition_cost applies the same two methods to a single pair. A window's
gaps all lie in 1..max_gap by construction, so link_terms skips the gap
test for a slice.

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
        gap range the radius is -inf, which no distance meets. A slice i is
        a DP window, whose gaps all lie in that range, so it skips the test."""
        gap = frame - self.frames[i]
        gate = self.gates[i]
        # a +inf gate * gap admits every finite distance
        with np.errstate(over="ignore"):
            radius = gate * gap
            if not isinstance(i, slice):
                radius = np.where((gap >= 1) & (gap <= self.config.max_gap), radius, -np.inf)
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
    path's descendants in the pred forest (see the module docstring).
    """
    n = len(graph)
    cfg = graph.config
    dp = np.full(n, np.inf)                  # inf marks a removed detection
    pred = np.full(n, -1, dtype=int)         # -1: the path enters here
    frame_list = sorted(graph.frame_slices)
    if not frame_list:
        return
    entry = float(cfg.entry_cost)
    det_costs = graph.det_costs.tolist()
    frames = np.array(frame_list)
    frame_of = np.searchsorted(frames, graph.frames)  # each detection's index in frame_list
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
        step = max(1, _BLOCK // dp_window.size)
        if rows.size > step:
            blocks = [scan(rows[a:a + step], terms, dp_window) for a in range(0, rows.size, step)]
            return tuple(np.concatenate(part) for part in zip(*blocks))
        total = graph.link_costs(terms, rows)
        total += dp_window
        k = total.argmin(axis=1)
        return total[np.arange(k.size), k], k

    def relax(fi: int, rows: np.ndarray) -> None:
        a, b = start[fi], stop[fi]
        if a == b:
            dp[rows] = graph.det_costs[rows] + entry
            pred[rows] = -1
            return
        window = live[a:b]
        terms = view.link_terms(slice(a, b), frame_list[fi])
        dp_window = dp[window]
        if rows.size <= _GROUP:
            best, k = scan(rows, terms, dp_window)
            via = window[k]
        else:
            # bound each row's best by the entry cost and its probe
            # (see the module docstring)
            best = np.full(rows.size, entry)
            via = np.full(rows.size, -1)
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
        for r, link, i in zip(rows.tolist(), best.tolist(), via.tolist()):
            # the entry cost wins ties: a link must be strictly cheaper
            if link < entry:
                dp[r], pred[r] = det_costs[r] + link, i
            else:
                dp[r], pred[r] = det_costs[r] + entry, -1

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

        # The path's descendants in the pred forest, by pointer doubling
        # over the detections from its first one on (no earlier one can
        # descend from it): before round r, up holds each detection's
        # ancestor 2**r links up (m once past its root), and mark whether
        # the detection or one of its 2**r - 1 nearest ancestors is on the
        # path; each round doubles both reaches.
        first = path[0]
        m = n - first
        up = np.append(pred[first:] - first, m)
        up[up < 0] = m
        mark = np.zeros(m + 1, dtype=bool)
        mark[np.array(path) - first] = True
        while up.min() < m:
            mark |= mark[up]
            up = up[up]
        dp[path] = np.inf
        rows = first + np.flatnonzero(mark[:m] & np.isfinite(dp[first:]))  # live descendants
        live = live[np.isfinite(dp[live])]
        view, start, stop, probe = compact()
        # relax them frame by frame, in frame order
        fis = frame_of[rows]
        heads = np.flatnonzero(np.diff(fis, prepend=-1))
        for fi, part in zip(fis[heads].tolist(), np.split(rows, heads[1:])):
            relax(fi, part)


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

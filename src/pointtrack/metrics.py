"""Trajectory-level evaluation: counting errors, identity switches,
tracklet average precision and sequence-characteristic correlation."""

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .assignment import GatedCosts, band_pairs, check_gate, solve_assignment
from .errors import InvalidInputError
from .formats import Table, collector_paused, number_column

T_MAP_THRESHOLDS = tuple(range(1, 26))  # px, T-mAP averages T-AP over these
EXPORT_BOX_HALF_SIZE = 10.0             # px, fixed box half-size for box-based evaluators


@dataclass(slots=True)
class TrackPoint:
    """One point of the TrajectorySet.tracks view."""

    frame: int
    x: float
    y: float
    conf: float | None = None


class TrajectorySet:
    """A read-only table of trajectory points; the unit all metrics operate on.

    The columns frame, id, x and y are sorted by (id, frame); conf is NaN
    where a point has no confidence. slices[id] is each identity's
    contiguous slice, in id order. frame_order lists the rows frame-major
    and id-ordered. Raises InvalidInputError when an identity's frames are not
    strictly increasing, on a non-finite x or y, and on a conf that is
    infinite or outside [0, 1].
    """

    def __init__(self, frame=(), id=(), x=(), y=(), conf=None):
        frame, id = number_column("frame", np.int64, frame), number_column("id", np.int64, id)
        x, y = number_column("x", np.float64, x), number_column("y", np.float64, y)
        conf = np.full(len(frame), np.nan) if conf is None else number_column("conf", np.float64, conf)
        if not len(frame) == len(id) == len(x) == len(y) == len(conf):
            raise InvalidInputError("trajectory columns differ in length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise InvalidInputError("non-finite trajectory coordinate")
        if np.any((conf < 0.0) | (conf > 1.0)):
            raise InvalidInputError("trajectory conf must lie in [0, 1]")

        order = np.lexsort((frame, id))
        self.columns = self.frame, self.id, self.x, self.y, self.conf = tuple(
            col[order] for col in (frame, id, x, y, conf))
        repeated = (self.id[1:] == self.id[:-1]) & (self.frame[1:] <= self.frame[:-1])
        if repeated.any():
            raise InvalidInputError(f"track {self.id[1:][repeated][0]}: frames not strictly increasing")

        starts = np.flatnonzero(np.diff(self.id, prepend=self.id[:1] - 1)).tolist()
        self.slices = {int(self.id[a]): slice(a, b) for a, b in zip(starts, starts[1:] + [len(order)])}
        self.ids = list(self.slices)
        self.frame_order = np.lexsort((self.id, self.frame))
        for col in (*self.columns, self.frame_order):
            col.setflags(write=False)

    @classmethod
    @collector_paused()
    def from_rows(cls, rows) -> "TrajectorySet":
        """Build from (frame, id, x, y[, conf]) tuples in any order; a conf
        of None, or none given, means no confidence. The collector is paused
        while rows is read and converted."""
        rows = list(rows)
        try:
            widths = set(map(len, rows))
        except TypeError:  # a row that is not a sequence has no width
            widths = {None}
        if not widths <= {4, 5}:
            raise InvalidInputError("a trajectory row is (frame, id, x, y[, conf])")
        conf = [r[4] if len(r) > 4 else None for r in rows]
        conf_array = number_column("conf", np.float64, conf)
        if np.count_nonzero(np.isnan(conf_array)) > conf.count(None):
            raise InvalidInputError("trajectory conf is NaN")
        # one itemgetter pass per column: zip(*rows) makes an iterator per row
        return cls(*(list(map(itemgetter(k), rows)) for k in range(4)), conf_array)

    def __len__(self) -> int:
        return len(self.slices)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrajectorySet) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self.columns, other.columns))

    def frame_major(self) -> tuple[np.ndarray, ...]:
        """The frame, id, x, y and conf columns, frame-major and id-ordered;
        conf is NaN where the point has none."""
        return tuple(col[self.frame_order] for col in self.columns)

    @cached_property
    @collector_paused()
    def tracks(self) -> dict[int, list[TrackPoint]]:
        """{id: [TrackPoint]} of Python scalars, conf None where a point has
        none; built once with the collector paused, as the columns cannot
        change under it."""
        conf = [None if math.isnan(c) else c for c in self.conf.tolist()]
        points = list(map(TrackPoint, self.frame.tolist(), self.x.tolist(), self.y.tolist(), conf))
        return {tid: points[span] for tid, span in self.slices.items()}


@dataclass
class SequenceMetrics:
    gt_count: int
    pred_count: int
    tr_ae: float
    tr_nae: float
    id_sw: int
    t_ap: dict[int, float]      # threshold px -> AP

    @property
    def t_map(self) -> float:
        return float(np.mean([self.t_ap[t] for t in T_MAP_THRESHOLDS]))

    @property
    def t_ap10(self) -> float:
        return self.t_ap[10]


@dataclass
class MetricsReport:
    per_sequence: list[SequenceMetrics]
    tr_mae: float = 0.0
    tr_mae_std: float = 0.0
    tr_nmae: float = 0.0
    tr_nmae_std: float = 0.0
    id_sw_total: int = 0
    id_sw_mean: float = 0.0
    t_map: float = 0.0
    t_ap10: float = 0.0

    @classmethod
    def aggregate(cls, per_sequence: list["SequenceMetrics"]) -> "MetricsReport":
        if not per_sequence:
            raise InvalidInputError("no sequences to aggregate")
        aes = np.array([m.tr_ae for m in per_sequence])
        naes = np.array([m.tr_nae for m in per_sequence])
        sws = np.array([m.id_sw for m in per_sequence])
        return cls(
            per_sequence=per_sequence,
            tr_mae=float(aes.mean()), tr_mae_std=float(aes.std()),
            tr_nmae=float(naes.mean()), tr_nmae_std=float(naes.std()),
            id_sw_total=int(sws.sum()), id_sw_mean=float(sws.mean()),
            t_map=float(np.mean([m.t_map for m in per_sequence])),
            t_ap10=float(np.mean([m.t_ap10 for m in per_sequence])),
        )


def _counts(gt_counts, pred_counts) -> tuple[np.ndarray, np.ndarray]:
    """Both count lists as float arrays of one length, at least 1, with no
    negative ground-truth count."""
    y = np.asarray(gt_counts, dtype=float)
    yhat = np.asarray(pred_counts, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 1:
        raise InvalidInputError("count lists must be equal-length and non-empty")
    if np.any(y < 0):
        raise InvalidInputError("ground-truth counts must be >= 0")
    return y, yhat


def tr_mae(gt_counts, pred_counts) -> float:
    """Mean absolute trajectory counting error across sequences."""
    y, yhat = _counts(gt_counts, pred_counts)
    return float(np.mean(np.abs(y - yhat)))


def tr_nmae(gt_counts, pred_counts) -> float:
    """Mean relative trajectory counting error across sequences."""
    y, yhat = _counts(gt_counts, pred_counts)
    if np.any(y == 0):
        raise InvalidInputError("relative error undefined for ground-truth count 0")
    return float(np.mean(np.abs(y - yhat) / y))


class _FrameRows(NamedTuple):
    """A set's rows in the frames that two sets share, frame-major and
    id-ordered, as indices into its columns. Frames are keyed by their rank
    among the shared frames: ranks, unlike frame numbers near 2**63, are
    exact as float64."""

    rows: np.ndarray
    rank: np.ndarray   # each row's frame rank
    place: np.ndarray  # each row's place among its frame's rows
    first: np.ndarray  # per rank, the index of the frame's first row in rows
    count: np.ndarray  # per rank, the frame's row count


def _shared_frame_rows(gt: TrajectorySet, pred: TrajectorySet) -> tuple[_FrameRows, _FrameRows]:
    majors = [s.frame[s.frame_order] for s in (gt, pred)]
    # each set's frames, read off its sorted frame column
    shared = np.intersect1d(*(m[np.flatnonzero(np.diff(m, prepend=m[:1] - 1))] for m in majors),
                            assume_unique=True)
    out = []
    for s, major in zip((gt, pred), majors):
        rank = np.searchsorted(shared, major)
        keep = rank < len(shared)
        keep[keep] = shared[rank[keep]] == major[keep]
        rank = rank[keep]
        count = np.bincount(rank, minlength=len(shared))
        first = np.cumsum(count) - count
        out.append(_FrameRows(s.frame_order[keep], rank, np.arange(len(rank)) - first[rank], first, count))
    return out[0], out[1]


def _same_frame_pairs(g: _FrameRows, gx: np.ndarray, p: _FrameRows, px: np.ndarray, radius: float):
    """(i, j), indices into g.rows and p.rows: every pair of one frame whose
    dx, px[j] - gx[i] as rounded, is within radius, and some more pairs of
    one frame.

    One band search runs on the keys 4 * rank + x / 2**e, where per frame
    2**e exceeds radius and every |x| of the frame: the scaling is exact,
    and each frame's keys lie in (4 * rank - 1, 4 * rank + 1). Four ulps of
    the largest key widen the band by more than the rounding of the keys
    and of dx can move a pair. A frame with a point near +-1e308 thus pairs
    nearly all its points, but no other frame does.
    """
    if not len(g.count):
        return np.empty(0, np.intp), np.empty(0, np.intp)
    top = np.maximum(np.maximum.reduceat(np.abs(gx), g.first), np.maximum.reduceat(np.abs(px), p.first))
    e = np.frexp(np.maximum(top, radius))[1]
    g_e = e[g.rank]
    g_key, p_key = 4.0 * g.rank + np.ldexp(gx, -g_e), 4.0 * p.rank + np.ldexp(px, -e[p.rank])
    slack = 4 * np.spacing(4.0 * len(g.count))
    by_key = np.argsort(g_key)  # searchsorted runs fastest on ascending queries
    i, j = band_pairs(g_key[by_key], p_key, np.ldexp(radius, -g_e[by_key]) + slack)
    return by_key[i], j


def id_switches(gt: TrajectorySet, pred: TrajectorySet, gate: float = 10.0) -> int:
    """Count identity reassignments of ground-truth objects.

    Per frame, GT and predicted points are matched by the same gated
    minimum-cost assignment the tracker uses; a switch is an event where a
    GT id's partner differs from the partner at its most recent previously
    matched frame. gate must be finite and > 0.

    One frame-keyed band search finds the in-gate pairs of all frames, at
    sqrt(dx * dx + dy * dy) as build_cost_matrix gives them. Every row lies
    in one frame, so solve_assignment's lone pairs are found over all frames
    at once; solve_assignment itself runs only on each frame with contested
    pairs, in that frame's row and column order, and so breaks ties as a
    solve of the whole frame does.
    """
    check_gate(gate)
    g, p = _shared_frame_rows(gt, pred)
    gx, gy, px, py = gt.x[g.rows], gt.y[g.rows], pred.x[p.rows], pred.y[p.rows]
    i, j = _same_frame_pairs(g, gx, p, px, gate)
    with np.errstate(over="ignore"):  # points near +-1e308: +inf, beyond every gate
        dx, dy = gx[i] - px[j], gy[i] - py[j]
        costs = np.sqrt(dx * dx + dy * dy)
    inside = costs < gate
    i, j, costs = i[inside], j[inside], costs[inside]
    lone = (np.bincount(i, minlength=len(g.rows))[i] == 1) & (np.bincount(j, minlength=len(p.rows))[j] == 1)
    matched_gt, matched_pred = [g.rows[i[lone]]], [p.rows[j[lone]]]
    # the contested pairs frame by frame, each frame's in row-major order
    i, j, costs = i[~lone], j[~lone], costs[~lone]
    order = np.lexsort((j, i))
    i, j, costs = i[order], j[order], costs[order]
    rank = g.rank[i]
    bounds = np.flatnonzero(np.diff(rank, prepend=-1, append=-1)).tolist()
    for a, b in zip(bounds, bounds[1:]):
        r = rank[a]
        shape = int(g.count[r]), int(p.count[r])
        cells = GatedCosts(shape, gate, g.place[i[a:b]], p.place[j[a:b]], costs[a:b])
        matches = solve_assignment(cells, gate).matches
        matched_gt.append(g.rows[g.first[r] + matches[:, 0]])
        matched_pred.append(p.rows[p.first[r] + matches[:, 1]])
    # the rows are sorted by (id, frame): in row order, each GT id's partners
    # come in frame order, and a switch is a neighbour pair of one GT id with
    # different partners
    matched_gt, matched_pred = np.concatenate(matched_gt), np.concatenate(matched_pred)
    order = np.argsort(matched_gt)
    gt_id, pred_id = gt.id[matched_gt[order]], pred.id[matched_pred[order]]
    return int(np.count_nonzero((gt_id[1:] == gt_id[:-1]) & (pred_id[1:] != pred_id[:-1])))


def _t_aps(gt: TrajectorySet, pred: TrajectorySet, taus) -> list[float]:
    """T-AP at each threshold of taus (px).

    For each (pred, GT) pair, the frames both are present in are the
    product of the two sets' 0/1 frame-presence matrices, exact in float64.
    One frame-keyed band search finds the same-frame point pairs within the
    largest tau. One bincount counts each point pair once, at the smallest
    tau with hypot(dx, dy) <= tau, and a cumulative sum over the sorted taus
    gives each tracklet pair's hits at every tau. A pair's match score is
    its hits over the union of its frames.
    """
    missing = np.isnan(pred.conf)
    if missing.any():
        raise InvalidInputError(f"predicted track {pred.id[missing][0]} is missing confidences")
    n_gt, n_pred = len(gt), len(pred)
    if n_gt == 0:
        return [1.0 if n_pred == 0 else 0.0] * len(taus)

    taus = np.asarray(taus, dtype=float)
    p_track, g_track = np.searchsorted(pred.ids, pred.id), np.searchsorted(gt.ids, gt.id)
    g, p = _shared_frame_rows(gt, pred)
    g_present, p_present = np.zeros((n_gt, len(g.count))), np.zeros((n_pred, len(p.count)))
    g_present[g_track[g.rows], g.rank] = 1.0
    p_present[p_track[p.rows], p.rank] = 1.0
    common = p_present @ g_present.T
    gx, px = gt.x[g.rows], pred.x[p.rows]
    i, j = _same_frame_pairs(g, gx, p, px, taus.max())
    with np.errstate(over="ignore"):  # points near +-1e308: +inf, beyond every tau
        dist = np.hypot(px[j] - gx[i], pred.y[p.rows[j]] - gt.y[g.rows[i]])
    cell = p_track[p.rows[j]] * n_gt + g_track[g.rows[i]]
    # a pair counts once, at the first of the sorted taus it is within;
    # summed over the sorted taus, the counts are each tau's hits
    by_tau = np.argsort(taus, kind="stable")
    near = np.flatnonzero(dist <= taus.max())  # one index: cheaper than two boolean masks
    first = np.searchsorted(taus[by_tau], dist[near], side="left")
    counts = np.bincount(first * (n_pred * n_gt) + cell[near], minlength=len(taus) * n_pred * n_gt)
    hits = np.cumsum(counts.reshape(len(taus), n_pred, n_gt), axis=0)
    scores = hits / (np.bincount(p_track)[:, None] + np.bincount(g_track) - common)

    # predictions by descending mean confidence, then id
    order = np.argsort([-np.mean(pred.conf[span]) for span in pred.slices.values()], kind="stable")
    aps = np.empty(len(taus))
    for t, score in zip(by_tau, scores):
        ap, tp = 0.0, 0
        for rank, k in enumerate(order, start=1):
            best = int(np.argmax(score[k]))  # the first GT of the highest score
            if score[k, best] >= 0.5:
                score[:, best] = -1.0  # taken: below every free GT's score
                tp += 1
                ap += tp / rank
        aps[t] = ap / n_gt
    return aps.tolist()


def t_ap(gt: TrajectorySet, pred: TrajectorySet, tau: float) -> float:
    """Average precision over confidence-ranked predicted tracklets.

    A prediction is greedily assigned to the unassigned GT tracklet with the
    highest match score at threshold tau and counts as a true positive when
    that score reaches 0.5.
    """
    if not tau > 0:  # written so that NaN fails it
        raise InvalidInputError("tau must be > 0")
    return _t_aps(gt, pred, [tau])[0]


def t_map(gt: TrajectorySet, pred: TrajectorySet) -> dict[int, float]:
    """T-AP at every threshold in T_MAP_THRESHOLDS."""
    return dict(zip(T_MAP_THRESHOLDS, _t_aps(gt, pred, T_MAP_THRESHOLDS)))


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; errors on constant input."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise InvalidInputError("need two equal-length lists of at least 2 values")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc ** 2)))
    sy = float(np.sqrt(np.sum(yc ** 2)))
    if sx == 0.0 or sy == 0.0:
        raise InvalidInputError("correlation undefined for constant input")
    return float(np.sum(xc * yc) / (sx * sy))


def compute_sequence_metrics(gt: TrajectorySet, pred: TrajectorySet,
                             idsw_gate: float = 10.0) -> SequenceMetrics:
    """All per-sequence scores in one pass."""
    y, yhat = len(gt), len(pred)
    return SequenceMetrics(
        gt_count=y,
        pred_count=yhat,
        tr_ae=float(abs(y - yhat)),
        tr_nae=tr_nmae([y], [yhat]),
        id_sw=id_switches(gt, pred, idsw_gate),
        t_ap=t_map(gt, pred),
    )


@dataclass(slots=True)
class InterchangeRow:
    """One box of the box-based interchange table."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    conf: float


INTERCHANGE = Table("frame,id,left,top,width,height,conf", InterchangeRow)


def export_interchange(pred: TrajectorySet) -> list[str]:
    """Rows for box-based external evaluators.

    Each point becomes a fixed 20 px box (10 px half-size). Frame-major,
    then id order; first row is the header.
    """
    h = EXPORT_BOX_HALF_SIZE
    frame, tid, x, y, conf = pred.frame_major()
    size = np.full(len(frame), 2 * h)
    return INTERCHANGE.write_columns(
        [frame, tid, x - h, y - h, size, size, np.where(np.isnan(conf), 1.0, conf)]).splitlines()


def parse_interchange(rows) -> TrajectorySet:
    """Inverse of export_interchange (box centres become points)."""
    text = "".join(row.strip() + "\n" for row in rows)
    frame, tid, left, top, width, height, conf = INTERCHANGE.parse_columns(text)
    return TrajectorySet(frame, tid, left + width / 2, top + height / 2, conf)

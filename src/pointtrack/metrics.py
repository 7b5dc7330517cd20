"""Trajectory-level evaluation: counting errors, identity switches,
tracklet average precision and sequence-characteristic correlation."""

from dataclasses import dataclass

import numpy as np

from .assignment import build_cost_matrix, solve_assignment
from .errors import InvalidInputError
from .formats import Table

T_MAP_THRESHOLDS = tuple(range(1, 26))  # px, T-mAP averages T-AP over these
EXPORT_BOX_HALF_SIZE = 10.0             # px, fixed box half-size for box-based evaluators


@dataclass(frozen=True)
class TrackPoint:
    frame: int
    x: float
    y: float
    conf: float | None = None


class TrajectorySet:
    """Per-identity ordered point lists; the unit all metrics operate on."""

    def __init__(self, tracks: dict[int, list[TrackPoint]] | None = None):
        self.tracks: dict[int, list[TrackPoint]] = {}
        if tracks:
            for tid, pts in tracks.items():
                self._add_track(int(tid), list(pts))

    def _add_track(self, tid: int, pts: list[TrackPoint]):
        frames = [p.frame for p in pts]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise InvalidInputError(f"track {tid}: frames not strictly increasing")
        self.tracks[tid] = pts

    @classmethod
    def from_rows(cls, rows) -> "TrajectorySet":
        """Build from (frame, id, x, y[, conf]) tuples in any order."""
        grouped: dict[int, list[TrackPoint]] = {}
        for row in rows:
            frame, tid, x, y = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            conf = float(row[4]) if len(row) > 4 and row[4] is not None else None
            grouped.setdefault(tid, []).append(TrackPoint(frame, x, y, conf))
        out = cls()
        for tid, pts in grouped.items():
            out._add_track(tid, sorted(pts, key=lambda p: p.frame))
        return out

    def __len__(self) -> int:
        return len(self.tracks)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrajectorySet) and self.tracks == other.tracks

    @property
    def ids(self) -> list[int]:
        return sorted(self.tracks)

    def frames(self) -> list[int]:
        out = set()
        for pts in self.tracks.values():
            out.update(p.frame for p in pts)
        return sorted(out)

    def at_frame(self, frame: int) -> list[tuple[int, TrackPoint]]:
        """(id, point) pairs present at a frame, id-ordered."""
        out = []
        for tid in self.ids:
            for p in self.tracks[tid]:
                if p.frame == frame:
                    out.append((tid, p))
                    break
        return out


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


def tr_mae(gt_counts, pred_counts) -> float:
    """Mean absolute trajectory counting error across sequences."""
    y = np.asarray(gt_counts, dtype=float)
    yhat = np.asarray(pred_counts, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 1:
        raise InvalidInputError("count lists must be equal-length and non-empty")
    if np.any(y < 0):
        raise InvalidInputError("ground-truth counts must be >= 0")
    return float(np.mean(np.abs(y - yhat)))


def tr_nmae(gt_counts, pred_counts) -> float:
    """Mean relative trajectory counting error across sequences."""
    y = np.asarray(gt_counts, dtype=float)
    yhat = np.asarray(pred_counts, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size < 1:
        raise InvalidInputError("count lists must be equal-length and non-empty")
    if np.any(y <= 0):
        raise InvalidInputError("relative error undefined for ground-truth count 0")
    return float(np.mean(np.abs(y - yhat) / y))


def id_switches(gt: TrajectorySet, pred: TrajectorySet, gate: float = 10.0) -> int:
    """Count identity reassignments of ground-truth objects.

    Per frame, GT and predicted points are matched by the same gated
    minimum-cost assignment the tracker uses; a switch is an event where a
    GT id's partner differs from the partner at its most recent previously
    matched frame.
    """
    if gate <= 0:
        raise InvalidInputError("gate must be > 0")
    last_partner: dict[int, int] = {}
    switches = 0
    frames = sorted(set(gt.frames()) | set(pred.frames()))
    for frame in frames:
        gt_here = gt.at_frame(frame)
        pred_here = pred.at_frame(frame)
        if not gt_here or not pred_here:
            continue
        costs = build_cost_matrix([(p.x, p.y) for _, p in gt_here],
                                  [(p.x, p.y) for _, p in pred_here])
        for gi, pj, _ in solve_assignment(costs, gate).matches:
            gt_id = gt_here[gi][0]
            pred_id = pred_here[pj][0]
            if gt_id in last_partner and last_partner[gt_id] != pred_id:
                switches += 1
            last_partner[gt_id] = pred_id
    return switches


def _tracklet_match_score(pred_pts: list[TrackPoint], gt_pts: list[TrackPoint],
                          tau: float) -> float:
    """Fraction of the two tracklets' frame union where they agree within tau."""
    gt_by_frame = {p.frame: p for p in gt_pts}
    union = len({p.frame for p in pred_pts} | set(gt_by_frame))
    hits = 0
    for p in pred_pts:
        g = gt_by_frame.get(p.frame)
        if g is not None and np.hypot(p.x - g.x, p.y - g.y) <= tau:
            hits += 1
    return hits / union if union else 0.0


def t_ap(gt: TrajectorySet, pred: TrajectorySet, tau: float) -> float:
    """Average precision over confidence-ranked predicted tracklets.

    A prediction is greedily assigned to the unassigned GT tracklet with the
    highest match score at threshold tau and counts as a true positive when
    that score reaches 0.5.
    """
    if tau <= 0:
        raise InvalidInputError("tau must be > 0")
    for tid, pts in pred.tracks.items():
        if any(p.conf is None for p in pts):
            raise InvalidInputError(f"predicted track {tid} is missing confidences")
    n_gt = len(gt)
    if n_gt == 0:
        return 1.0 if len(pred) == 0 else 0.0

    order = sorted(pred.tracks,
                   key=lambda tid: (-float(np.mean([p.conf for p in pred.tracks[tid]])), tid))
    assigned: set[int] = set()
    tp_flags = []
    for pid in order:
        best_gid, best_score = None, -1.0
        for gid in gt.ids:
            if gid in assigned:
                continue
            score = _tracklet_match_score(pred.tracks[pid], gt.tracks[gid], tau)
            if score > best_score:
                best_gid, best_score = gid, score
        if best_gid is not None and best_score >= 0.5:
            assigned.add(best_gid)
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    ap = 0.0
    tp = 0
    for rank, is_tp in enumerate(tp_flags, start=1):
        if is_tp:
            tp += 1
            ap += tp / rank
    return ap / n_gt


def t_map(gt: TrajectorySet, pred: TrajectorySet) -> dict[int, float]:
    """T-AP at every threshold in T_MAP_THRESHOLDS."""
    return {tau: t_ap(gt, pred, float(tau)) for tau in T_MAP_THRESHOLDS}


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


@dataclass(frozen=True)
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
    boxes = [InterchangeRow(p.frame, tid, p.x - h, p.y - h, 2 * h, 2 * h,
                            1.0 if p.conf is None else p.conf)
             for tid in pred.ids for p in pred.tracks[tid]]
    boxes.sort(key=lambda b: (b.frame, b.track_id))
    return INTERCHANGE.format_lines(boxes)


def parse_interchange(rows) -> TrajectorySet:
    """Inverse of export_interchange (box centres become points)."""
    boxes = INTERCHANGE.parse_lines([row.strip() for row in rows])
    return TrajectorySet.from_rows((b.frame, b.track_id, b.left + b.width / 2,
                                    b.top + b.height / 2, b.conf) for b in boxes)

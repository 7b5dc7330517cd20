import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.assignment import build_cost_matrix, solve_assignment
from pointtrack.errors import InvalidInputError, ParseError
from pointtrack.metrics import (
    EXPORT_BOX_HALF_SIZE, INTERCHANGE, T_MAP_THRESHOLDS, InterchangeRow, TrackPoint,
    TrajectorySet, _t_aps, compute_sequence_metrics, export_interchange, id_switches,
    parse_interchange, pearson, t_ap, t_map, tr_mae, tr_nmae,
)
from pointtrack.render import render_overlay


def ts(rows) -> TrajectorySet:
    return TrajectorySet.from_rows(rows)


# --- reference: the metrics as written over per-identity TrackPoint lists,
# before TrajectorySet became a column table ---

class LoopTrajectorySet:
    def __init__(self):
        self.tracks: dict[int, list[TrackPoint]] = {}

    @classmethod
    def from_rows(cls, rows) -> "LoopTrajectorySet":
        grouped: dict[int, list[TrackPoint]] = {}
        for row in rows:
            frame, tid, x, y = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            conf = float(row[4]) if len(row) > 4 and row[4] is not None else None
            grouped.setdefault(tid, []).append(TrackPoint(frame, x, y, conf))
        out = cls()
        for tid, pts in grouped.items():
            out.tracks[tid] = sorted(pts, key=lambda p: p.frame)
        return out

    def __len__(self) -> int:
        return len(self.tracks)

    @property
    def ids(self) -> list[int]:
        return sorted(self.tracks)

    def frames(self) -> list[int]:
        return sorted({p.frame for pts in self.tracks.values() for p in pts})

    def at_frame(self, frame: int) -> list[tuple[int, TrackPoint]]:
        out = []
        for tid in self.ids:
            for p in self.tracks[tid]:
                if p.frame == frame:
                    out.append((tid, p))
                    break
        return out


def loop_id_switches(gt: LoopTrajectorySet, pred: LoopTrajectorySet, gate: float = 10.0) -> int:
    last_partner: dict[int, int] = {}
    switches = 0
    for frame in sorted(set(gt.frames()) | set(pred.frames())):
        gt_here = gt.at_frame(frame)
        pred_here = pred.at_frame(frame)
        if not gt_here or not pred_here:
            continue
        costs = build_cost_matrix([(p.x, p.y) for _, p in gt_here],
                                  [(p.x, p.y) for _, p in pred_here], gate)
        for gi, pj in solve_assignment(costs, gate).matches.tolist():
            gt_id = gt_here[gi][0]
            pred_id = pred_here[pj][0]
            if gt_id in last_partner and last_partner[gt_id] != pred_id:
                switches += 1
            last_partner[gt_id] = pred_id
    return switches


def loop_tracklet_match_score(pred_pts, gt_pts, tau: float) -> float:
    gt_by_frame = {p.frame: p for p in gt_pts}
    union = len({p.frame for p in pred_pts} | set(gt_by_frame))
    hits = 0
    for p in pred_pts:
        g = gt_by_frame.get(p.frame)
        if g is not None and np.hypot(p.x - g.x, p.y - g.y) <= tau:
            hits += 1
    return hits / union if union else 0.0


def loop_t_ap(gt: LoopTrajectorySet, pred: LoopTrajectorySet, tau: float) -> float:
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
            score = loop_tracklet_match_score(pred.tracks[pid], gt.tracks[gid], tau)
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


def loop_export_interchange(pred: LoopTrajectorySet) -> list[str]:
    h = EXPORT_BOX_HALF_SIZE
    boxes = [InterchangeRow(p.frame, tid, p.x - h, p.y - h, 2 * h, 2 * h,
                            1.0 if p.conf is None else p.conf)
             for tid in pred.ids for p in pred.tracks[tid]]
    boxes.sort(key=lambda b: (b.frame, b.track_id))
    return INTERCHANGE.write(boxes).splitlines()


def loop_render_overlay(gt: LoopTrajectorySet, pred: LoopTrajectorySet, width=None,
                        height=None) -> str:
    def fmt(v):
        return f"{v:.2f}"

    def group(ts, color, radius):
        rows = [f'<g stroke="{color}" fill="none" stroke-width="1">']
        for tid in ts.ids:
            pts = ts.tracks[tid]
            if len(pts) == 1:
                p = pts[0]
                rows.append(f'<circle cx="{fmt(p.x)}" cy="{fmt(p.y)}" r="{fmt(radius)}" '
                            f'fill="{color}" stroke="none"/>')
                continue
            coords = " ".join(f"{fmt(p.x)},{fmt(p.y)}" for p in pts)
            rows.append(f'<polyline points="{coords}"/>')
            last = pts[-1]
            rows.append(f'<circle cx="{fmt(last.x)}" cy="{fmt(last.y)}" r="{fmt(radius)}" '
                        f'fill="{color}" stroke="none"/>')
        rows.append("</g>")
        return rows

    if width is None or height is None:
        xs = [p.x for s in (gt, pred) for pts in s.tracks.values() for p in pts]
        ys = [p.y for s in (gt, pred) for pts in s.tracks.values() for p in pts]
        x0, y0, x1, y1 = (min(xs), min(ys), max(xs), max(ys)) if xs else (0.0, 0.0, 1.0, 1.0)
        pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
        x0, y0 = x0 - pad, y0 - pad
        w, h = (x1 - x0) + pad, (y1 - y0) + pad
    else:
        x0, y0, w, h = 0.0, 0.0, float(width), float(height)
    rows = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(x0)} {fmt(y0)} '
        f'{fmt(w)} {fmt(h)}" width="{fmt(w)}" height="{fmt(h)}">',
        f'<rect x="{fmt(x0)}" y="{fmt(y0)}" width="{fmt(w)}" height="{fmt(h)}" fill="white"/>',
    ]
    rows += group(gt, "#2e8b57", 1.5)
    rows += group(pred, "#d62728", 1.0)
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


# --- reference: TrajectorySet.from_rows, id_switches and _t_aps as written
# before the one-pass forms, over TrajectorySet's former frame_groups ---

def frame_groups(s: TrajectorySet) -> dict[int, np.ndarray]:
    """Each frame, ascending, to its rows in id order."""
    groups = np.split(s.frame_order, np.flatnonzero(np.diff(s.frame[s.frame_order])) + 1)
    return {int(s.frame[g[0]]): g for g in groups if len(g)}


def comprehension_from_rows(rows) -> TrajectorySet:
    rows = list(rows)
    conf = [r[4] if len(r) > 4 else None for r in rows]
    if any(c is not None and math.isnan(c) for c in conf):
        raise InvalidInputError("trajectory conf is NaN")
    return TrajectorySet(*([r[k] for r in rows] for k in range(4)), np.array(conf, dtype=float))


def partner_walk_id_switches(gt: TrajectorySet, pred: TrajectorySet, gate: float = 10.0) -> int:
    last_partner: dict[int, int] = {}
    switches = 0
    gt_groups, pred_groups = frame_groups(gt), frame_groups(pred)
    for frame in sorted(gt_groups.keys() & pred_groups.keys()):
        g_rows, p_rows = gt_groups[frame], pred_groups[frame]
        costs = build_cost_matrix(np.column_stack((gt.x[g_rows], gt.y[g_rows])),
                                  np.column_stack((pred.x[p_rows], pred.y[p_rows])), gate)
        for gi, pj in solve_assignment(costs, gate).matches.tolist():
            gt_id, pred_id = int(gt.id[g_rows[gi]]), int(pred.id[p_rows[pj]])
            if gt_id in last_partner and last_partner[gt_id] != pred_id:
                switches += 1
            last_partner[gt_id] = pred_id
    return switches


def per_frame_id_switches(gt: TrajectorySet, pred: TrajectorySet, gate: float = 10.0) -> int:
    if not gate > 0:
        raise InvalidInputError("gate must be > 0")
    gt_groups, pred_groups = frame_groups(gt), frame_groups(pred)
    matched_gt, matched_pred = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for frame in sorted(gt_groups.keys() & pred_groups.keys()):
        g_rows, p_rows = gt_groups[frame], pred_groups[frame]
        costs = build_cost_matrix(np.column_stack((gt.x[g_rows], gt.y[g_rows])),
                                  np.column_stack((pred.x[p_rows], pred.y[p_rows])), gate)
        matches = solve_assignment(costs, gate).matches
        matched_gt.append(g_rows[matches[:, 0]])
        matched_pred.append(p_rows[matches[:, 1]])
    gt_id, pred_id = gt.id[np.concatenate(matched_gt)], pred.id[np.concatenate(matched_pred)]
    order = np.argsort(gt_id, kind="stable")
    gt_id, pred_id = gt_id[order], pred_id[order]
    return int(np.count_nonzero((gt_id[1:] == gt_id[:-1]) & (pred_id[1:] != pred_id[:-1])))


def per_frame_t_aps(gt: TrajectorySet, pred: TrajectorySet, taus) -> list[float]:
    n_gt = len(gt)
    if n_gt == 0:
        return [1.0 if len(pred) == 0 else 0.0] * len(taus)
    taus = np.asarray(taus, dtype=float)
    p_track, g_track = np.searchsorted(pred.ids, pred.id), np.searchsorted(gt.ids, gt.id)
    common = np.zeros((len(pred), n_gt), dtype=np.int32)
    hits = np.zeros((len(taus), len(pred), n_gt), dtype=np.int32)
    gt_groups, pred_groups = frame_groups(gt), frame_groups(pred)
    for frame in gt_groups.keys() & pred_groups.keys():
        g_rows, p_rows = gt_groups[frame], pred_groups[frame]
        common[p_track[p_rows, None], g_track[g_rows]] += 1
        with np.errstate(over="ignore"):
            dist = np.hypot(pred.x[p_rows, None] - gt.x[g_rows], pred.y[p_rows, None] - gt.y[g_rows])
        pi, gi = np.nonzero(dist <= taus.max())
        hits[:, p_track[p_rows[pi]], g_track[g_rows[gi]]] += dist[pi, gi] <= taus[:, None]
    scores = hits / (np.bincount(p_track)[:, None] + np.bincount(g_track) - common)
    order = np.argsort([-np.mean(pred.conf[span]) for span in pred.slices.values()], kind="stable")
    aps = []
    for score in scores:
        ap, tp = 0.0, 0
        for rank, k in enumerate(order, start=1):
            best = int(np.argmax(score[k]))
            if score[k, best] >= 0.5:
                score[:, best] = -1.0
                tp += 1
                ap += tp / rank
        aps.append(ap / n_gt)
    return aps


CONFS = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])


@st.composite
def row_sets(draw, with_conf: bool):
    """Rows of up to 8 identities, each over its own frame range with gaps,
    all shifted by a drawn offset: disjoint ranges, empty and single-point
    sets, many identities per frame. Coordinates are mostly integer lattice
    points, so distances of exactly tau (3-4-5 triangles, axis steps) are
    common."""
    offset = draw(st.integers(0, 12))
    coord = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0))
    rows = []
    for tid in draw(st.sets(st.integers(1, 8), max_size=8)):
        start, length = draw(st.integers(0, 10)), draw(st.integers(1, 12))
        for frame in range(start + offset, start + offset + length):
            if draw(st.integers(0, 4)) > 0:
                conf = (draw(CONFS),) if with_conf else ()
                rows.append((frame, tid, draw(coord), draw(coord)) + conf)
    return rows


@st.composite
def scored_pairs(draw):
    """(gt rows, pred rows). Half the time the prediction is drawn on its
    own; otherwise it follows the ground truth, with points dropped and
    moved by up to 4 px, and ids that are relabelled at a drawn frame, so
    matches and identity switches occur."""
    gt_rows = draw(row_sets(with_conf=False))
    if draw(st.booleans()):
        return gt_rows, draw(row_sets(with_conf=True))
    labels = st.lists(st.integers(1, 8), min_size=8, max_size=8)
    before, after, cut = draw(labels), draw(labels), draw(st.integers(0, 22))
    pred = {}
    for frame, tid, x, y in gt_rows:
        if draw(st.integers(0, 5)) == 0:
            continue
        pid = (before if frame < cut else after)[tid - 1]
        dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        pred[pid, frame] = (x + dx, y + dy, draw(CONFS))
    return gt_rows, [(frame, pid, x, y, c) for (pid, frame), (x, y, c) in pred.items()]


@st.composite
def mixed_rows(draw):
    """Rows of row_sets in which each conf is kept, dropped (a row of width
    4), None or, rarely, NaN."""
    rows = []
    for row in draw(row_sets(with_conf=True)):
        kind = draw(st.integers(0, 12))
        rows.append(row if kind < 5 else row[:4] if kind < 9 else row[:4] + (None,) if kind < 12
                    else row[:4] + (math.nan,))
    return rows


HUGE = [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max]


@st.composite
def crowd_pairs(draw):
    """(gt rows, pred rows) of 1 to 4 frames with 30 to 60 identities each
    in a 24 px arena, so that most frames are contested. The frames start
    at 0 or just below 2**63 - 1, and some hold only GT or only
    predictions. Coordinates are mostly integer, so ties and distances of
    exactly tau are common; one in twenty is near +-1e308. Predictions
    follow the GT by up to 3 px, under labels that swap between frames, and
    a few clutter points join them. The points come from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    first = draw(st.sampled_from([0, 2 ** 63 - 4]))
    label = rng.permutation(80) + 1
    gt_rows, pred_rows = [], []
    for frame in range(first, first + draw(st.integers(1, 4))):
        sides = draw(st.sampled_from(["both", "both", "both", "gt", "pred"]))
        n = draw(st.integers(30, 60))
        ids = rng.permutation(80)[:n] + 1
        xy = rng.integers(0, 25, (n, 2)).astype(float)
        off_lattice = rng.random(n) < 0.3
        xy[off_lattice] += rng.random((off_lattice.sum(), 2))
        huge = rng.random((n, 2)) < 0.05
        xy[huge] = rng.choice(HUGE, huge.sum())
        if sides != "pred":
            gt_rows += [(frame, i, x, y) for i, (x, y) in zip(ids.tolist(), xy.tolist())]
        if sides != "gt":
            swap = rng.choice(80, 2, replace=False)
            label[swap] = label[swap[::-1]]
            kept = rng.random(n) < 0.9
            moved = xy[kept] + rng.integers(-3, 4, (kept.sum(), 2))
            clutter = rng.integers(0, 25, (draw(st.integers(0, 5)), 2)).astype(float)
            pids = np.concatenate((label[ids[kept] - 1], 81 + np.arange(len(clutter))))
            confs = rng.choice([0.0, 0.25, 0.5, 0.9, 1.0], len(pids))
            pred_rows += [(frame, i, x, y, c) for i, (x, y), c in
                          zip(pids.tolist(), np.concatenate((moved, clutter)).tolist(), confs.tolist())]
    return gt_rows, pred_rows


def line_track(tid, frames, x0=0.0, y0=0.0, vx=1.0, conf=1.0):
    return [(f, tid, x0 + vx * i, y0, conf) for i, f in enumerate(frames)]


class TestTable:
    def test_columns_sorted_by_id_then_frame(self):
        t = ts([(5, 2, 1.0, 1.0), (3, 9, 2.0, 2.0), (1, 2, 3.0, 3.0, 0.5)])
        assert t.id.tolist() == [2, 2, 9] and t.frame.tolist() == [1, 5, 3]
        assert t.ids == [2, 9] and len(t) == 2
        assert np.isnan(t.conf[1:]).all() and t.conf[0] == 0.5
        assert t.frame_order.tolist() == [0, 2, 1]
        assert [c.tolist() for c in t.frame_major()[:2]] == [[1, 3, 5], [2, 9, 2]]
        assert ts([(0, -1, 0.0, 0.0), (1, -1, 1.0, 1.0)]).slices == {-1: slice(0, 2)}

    def test_columns_are_read_only_and_tracks_built_once(self):
        t = ts(line_track(1, range(3)))
        for col in t.columns:
            with pytest.raises(ValueError):
                col[0] = 0
        assert t.tracks is t.tracks
        assert t.tracks == {1: [TrackPoint(f, float(f), 0.0, 1.0) for f in range(3)]}

    def test_equality_treats_missing_conf_as_equal(self):
        assert ts([(0, 1, 1.0, 2.0)]) == ts([(0, 1, 1.0, 2.0, None)])
        assert ts([(0, 1, 1.0, 2.0)]) != ts([(0, 1, 1.0, 2.0, 0.5)])

    def test_mixed_widths_and_none_conf(self):
        t = ts([(0, 1, 1.0, 2.0, 0.5), (1, 1, 2.0, 3.0), (2, 1, 3.0, 4.0, None)])
        assert t.conf[0] == 0.5 and np.isnan(t.conf[1:]).all()
        assert ts([]) == TrajectorySet() and len(ts([])) == 0
        assert ts(iter([(0, 1, 1.0, 2.0)])).ids == [1]

    def test_repeated_frame_rejected(self):
        with pytest.raises(InvalidInputError, match="track 3"):
            ts([(4, 3, 0.0, 0.0), (4, 3, 1.0, 1.0)])

    @pytest.mark.parametrize("row", [
        (0, 1, math.nan, 0.0, 0.5), (0, 1, 0.0, math.inf, 0.5), (0, 1, -math.inf, 0.0),
        (0, 1, 0.0, 0.0, math.nan), (0, 1, 0.0, 0.0, math.inf), (0, 1, 0.0, 0.0, 7.5),
        (0, 1, 0.0, 0.0, -0.1), (0.5, 1, 0.0, 0.0), (0, 1.5, 0.0, 0.0), (math.inf, 1, 0.0, 0.0),
        (2 ** 63, 1, 0.0, 0.0), (0, None, 0.0, 0.0), (0, 1, "x", 0.0), (0, 1, 0.0, 0.0, "high"),
        (0, 1, [0.0, 1.0], 0.0), (0, 1, 2.0), (0, 1, 0.0, 0.0, 0.5, 7), 7, None,
    ], ids=["x-nan", "y-inf", "x-minus-inf", "conf-nan", "conf-inf", "conf-7.5", "conf-negative",
            "fractional-frame", "fractional-id", "infinite-frame", "frame-past-int64", "none-id",
            "text-x", "text-conf", "nested-x", "three-cells", "six-cells", "int-row", "none-row"])
    def test_hostile_row_rejected(self, row):
        with pytest.raises(InvalidInputError):
            ts([(1, 1, 0.0, 0.0, 0.5), row])
        if isinstance(row, tuple) and len(row) == 4:  # the same cells as columns
            with pytest.raises(InvalidInputError):
                TrajectorySet(*([1, cell] for cell in row))


class TestMatchesReference:
    """The column metrics against the TrackPoint-list reference above."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(rows=scored_pairs(), gate=st.sampled_from([1.0, 5.0, 10.0]))
    def test_same_scores_and_text(self, rows, gate):
        gt_rows, pred_rows = rows
        gt, pred = ts(gt_rows), ts(pred_rows)
        ref_gt, ref_pred = LoopTrajectorySet.from_rows(gt_rows), LoopTrajectorySet.from_rows(pred_rows)
        assert id_switches(gt, pred, gate) == loop_id_switches(ref_gt, ref_pred, gate)
        assert t_map(gt, pred) == {tau: loop_t_ap(ref_gt, ref_pred, float(tau))
                                   for tau in T_MAP_THRESHOLDS}
        assert t_ap(gt, pred, 2.5) == loop_t_ap(ref_gt, ref_pred, 2.5)
        for s, ref in ((gt, ref_gt), (pred, ref_pred)):
            assert export_interchange(s) == loop_export_interchange(ref)
        assert render_overlay(gt, pred) == loop_render_overlay(ref_gt, ref_pred)
        assert render_overlay(gt, pred, 64, 48) == loop_render_overlay(ref_gt, ref_pred, 64, 48)


class TestMatchesOnePassReference:
    """from_rows and id_switches against the per-row forms above."""

    @staticmethod
    def outcome(build, rows):
        try:
            return build(rows)
        except InvalidInputError:
            return InvalidInputError

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(rows=mixed_rows())
    def test_from_rows(self, rows):
        got, want = self.outcome(TrajectorySet.from_rows, rows), self.outcome(comprehension_from_rows, rows)
        if want is InvalidInputError:
            assert got is InvalidInputError
        else:
            for a, b in zip(got.columns, want.columns):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(rows=scored_pairs(), gate=st.sampled_from([1.0, 5.0, 10.0]))
    def test_id_switches(self, rows, gate):
        gt, pred = ts(rows[0]), ts(rows[1])
        assert id_switches(gt, pred, gate) == partner_walk_id_switches(gt, pred, gate)


class TestMatchesPerFrameReference:
    """id_switches and T-AP against the per-frame forms above on crowded
    frames."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(rows=crowd_pairs(), gate=st.sampled_from([1.0, 3.0, 10.0]))
    def test_same_scores(self, rows, gate):
        gt, pred = ts(rows[0]), ts(rows[1])
        assert id_switches(gt, pred, gate) == per_frame_id_switches(gt, pred, gate)
        assert t_map(gt, pred) == dict(zip(T_MAP_THRESHOLDS, per_frame_t_aps(gt, pred, T_MAP_THRESHOLDS)))


class TestCountingErrors:
    def test_tr_mae_single(self):
        assert tr_mae([100], [85]) == 15

    def test_tr_mae_identity(self):
        assert tr_mae([10, 20], [10, 20]) == 0

    def test_tr_mae_three(self):
        assert tr_mae([5, 15, 25], [7, 10, 30]) == 4

    def test_tr_nmae_headline_form(self):
        assert tr_nmae([100], [85]) == pytest.approx(0.15)

    def test_tr_nmae_two(self):
        assert tr_nmae([10, 20], [15, 10]) == pytest.approx(0.5)

    def test_tr_nmae_identity(self):
        assert tr_nmae([4], [4]) == 0

    def test_zero_gt_count_rejected(self):
        with pytest.raises(InvalidInputError):
            tr_nmae([0], [5])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            tr_mae([1, 2], [1])

    def test_sign_symmetric(self):
        assert tr_mae([10], [7]) == tr_mae([10], [13])
        assert tr_nmae([10], [7]) == tr_nmae([10], [13])


class TestIdSwitches:
    def test_consistent_relabeling_is_zero(self):
        gt = ts(line_track(1, range(10)) + line_track(2, range(10), y0=100))
        pred = ts(line_track(7, range(10)) + line_track(9, range(10), y0=100))
        assert id_switches(gt, pred) == 0

    def test_single_handover(self):
        gt = ts(line_track(1, range(1, 21)))
        pred = ts(line_track(1, range(1, 11)) +
                  [(f, 2, float(f - 1), 0.0, 1.0) for f in range(11, 21)])
        assert id_switches(gt, pred) == 1

    def test_crossing_swap_counts_two(self):
        # two parallel gt tracks whose predicted ids swap at frame 5
        gt_rows, pred_rows = [], []
        for f in range(10):
            gt_rows += [(f, 1, float(f), 0.0), (f, 2, float(f), 50.0)]
            a, b = (1, 2) if f < 5 else (2, 1)
            pred_rows += [(f, a, float(f), 0.0, 1.0), (f, b, float(f), 50.0, 1.0)]
        assert id_switches(ts(gt_rows), ts(pred_rows)) == 2

    def test_gap_does_not_reset_partner(self):
        gt = ts(line_track(1, range(20)))
        pred_rows = line_track(5, range(8))
        pred_rows += [(f, 5, float(f), 0.0, 1.0) for f in range(12, 20)]
        assert id_switches(gt, ts(pred_rows)) == 0

    def test_out_of_gate_not_matched(self):
        gt = ts(line_track(1, range(5)))
        pred = ts([(f, 3, float(f), 30.0, 1.0) for f in range(5)])
        assert id_switches(gt, pred, gate=10.0) == 0

    @pytest.mark.parametrize("gate", [0.0, -1.0, float("nan"), float("inf")])
    def test_gate_must_be_positive(self, gate):
        # finite too; no shared frame, so a gate that slipped past the check
        # would give 0
        gt = ts(line_track(1, range(5)))
        pred = ts(line_track(1, range(10, 15)))
        with pytest.raises(InvalidInputError):
            id_switches(gt, pred, gate=gate)


class TestTrackletAP:
    def test_perfect_overlay(self):
        gt = ts(line_track(1, range(30)))
        pred = ts(line_track(4, range(30)))
        for tau in (1, 10, 25):
            assert t_ap(gt, pred, tau) == 1.0

    def test_two_gt_one_perfect_pred(self):
        # hand-computed: ranked list = [TP]; precision 1 at recall 1/2;
        # AP = 1/2 over the 2 ground-truth tracklets
        gt = ts(line_track(1, range(30)) + line_track(2, range(30), y0=200))
        pred = ts(line_track(1, range(30)))
        assert t_ap(gt, pred, 10) == pytest.approx(0.5)

    def test_displaced_pred_scores_zero(self):
        gt = ts(line_track(1, range(30)))
        pred = ts(line_track(1, range(30), y0=30.0))
        for tau in range(1, 26):
            assert t_ap(gt, pred, tau) == 0.0

    def test_non_decreasing_in_tau(self):
        rng = np.random.default_rng(0)
        gt_rows, pred_rows = [], []
        for tid in range(1, 6):
            y = 40.0 * tid
            gt_rows += [(f, tid, float(f), y) for f in range(40)]
            pred_rows += [(f, tid, float(f) + rng.normal(0, 4), y + rng.normal(0, 4),
                           float(rng.uniform(0.3, 1.0))) for f in range(40)]
        aps = [t_ap(ts(gt_rows), ts(pred_rows), tau) for tau in range(1, 26)]
        assert all(b >= a - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_low_confidence_fp_ranked_last(self):
        gt = ts(line_track(1, range(20)))
        pred_rows = line_track(1, range(20), conf=0.9)
        pred_rows += [(f, 2, 500.0, 500.0, 0.1) for f in range(20)]
        # TP at rank 1, FP at rank 2: AP stays 1.0
        assert t_ap(gt, ts(pred_rows), 10) == 1.0

    def test_half_coverage_is_rejected_below_half(self):
        gt = ts(line_track(1, range(30)))
        pred = ts(line_track(1, range(14)))  # 14/30 < 0.5 of the frame union
        assert t_ap(gt, pred, 10) == 0.0

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_tau_must_be_positive(self, tau):
        gt = ts(line_track(1, range(30)))
        pred = ts(line_track(4, range(30)))
        with pytest.raises(InvalidInputError):
            t_ap(gt, pred, tau)

    def test_missing_confidence_rejected(self):
        gt = ts(line_track(1, range(5)))
        pred = ts([(0, 1, 0.0, 0.0)])
        with pytest.raises(InvalidInputError):
            t_ap(gt, pred, 10)

    def test_t_map_thresholds(self):
        gt = ts(line_track(1, range(30)))
        pred = ts(line_track(2, range(30)))
        table = t_map(gt, pred)
        assert sorted(table) == list(range(1, 26))
        assert all(v == 1.0 for v in table.values())

    @staticmethod
    def crowd(seed: int) -> tuple[TrajectorySet, TrajectorySet]:
        """300 walking identities over 20 frames, and their predictions, each
        offset by its own 0 to 30 px and some cut short, under shuffled ids."""
        rng = np.random.default_rng(seed)
        start = rng.uniform(0, 2000, (300, 2))
        step = rng.normal(0, 1.5, (300, 2))
        heading = rng.normal(size=(300, 2))
        offset = rng.uniform(0, 30, 300)[:, None] * heading / np.linalg.norm(heading, axis=1, keepdims=True)
        last = rng.integers(5, 21, 300)
        labels = rng.permutation(300) + 1
        gt_rows, pred_rows = [], []
        for k in range(300):
            for f in range(20):
                x, y = (start[k] + f * step[k]).tolist()
                gt_rows.append((f, k + 1, x, y))
                if f < last[k]:
                    px, py = (start[k] + f * step[k] + offset[k] + rng.normal(0, 1, 2)).tolist()
                    pred_rows.append((f, int(labels[k]), px, py, float(rng.uniform(0.5, 1.0))))
        return ts(gt_rows), ts(pred_rows)

    def test_t_map_equals_t_ap_at_each_threshold_on_a_crowd(self):
        gt, pred = self.crowd(4)
        table = t_map(gt, pred)
        assert table == {tau: t_ap(gt, pred, float(tau)) for tau in T_MAP_THRESHOLDS}
        assert len(set(table.values())) > 10  # the offsets spread the scores over the taus

    def test_unsorted_and_repeated_taus(self):
        gt, pred = self.crowd(5)
        taus = [10.0, 1.0, 25.0, 10.0, 4.5, 2.0]
        assert _t_aps(gt, pred, taus) == per_frame_t_aps(gt, pred, taus)
        assert _t_aps(gt, pred, taus) == [t_ap(gt, pred, tau) for tau in taus]


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            pearson([1, 2, 3], [2, 2, 2])

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.2 * y - 11.0) == pytest.approx(base, abs=1e-12)


class TestInterchange:
    def test_empty_set(self):
        assert export_interchange(TrajectorySet()) == ["frame,id,left,top,width,height,conf"]

    def test_two_frames_frame_major(self):
        pred = ts([(0, 1, 10.0, 20.0, 0.5), (1, 1, 11.0, 21.0, 0.5)])
        rows = export_interchange(pred)
        assert len(rows) == 3
        assert rows[1].startswith("0,1,0,10,20,20,")
        assert rows[2].startswith("1,1,1,11,20,20,")

    def test_round_trip_exact_on_representable_values(self):
        rng = np.random.default_rng(2)
        rows = []
        for tid in range(1, 6):
            frames = sorted(rng.choice(100, size=20, replace=False))
            for f in frames:
                # dyadic coordinates survive the box offset bit-exactly
                rows.append((int(f), tid, float(rng.integers(0, 2000)) / 4.0,
                             float(rng.integers(0, 2000)) / 4.0,
                             float(rng.integers(0, 64)) / 64.0))
        pred = ts(rows)
        assert parse_interchange(export_interchange(pred)) == pred

    def test_round_trip_is_serialization_fixed_point(self):
        rng = np.random.default_rng(3)
        rows = [(f, 1, float(rng.uniform(0, 500)), float(rng.uniform(0, 500)),
                 float(rng.uniform(0, 1))) for f in range(50)]
        once = export_interchange(ts(rows))
        again = export_interchange(parse_interchange(once))
        assert again == once

    @pytest.mark.parametrize("row", ["-3,1,10,10,20,20,0.5", "0,0,10,10,20,20,0.5",
                                     "0,1,nan,inf,20,20,0.5", "0,1,10,10,20,20,7.5"],
                             ids=["negative-frame", "id-0", "non-finite", "conf-7.5"])
    def test_hostile_row_rejected(self, row):
        with pytest.raises(ParseError) as err:
            parse_interchange(["frame,id,left,top,width,height,conf", row])
        assert err.value.line == 2


class TestSequenceMetrics:
    def test_aggregate_over_sequences(self):
        from pointtrack.metrics import MetricsReport
        seqs = []
        for k, (y, yhat) in enumerate([(10, 10), (20, 15), (10, 14)]):
            gt_rows, pred_rows = [], []
            for tid in range(1, y + 1):
                gt_rows += [(f, tid, float(f), 40.0 * tid) for f in range(20)]
            for tid in range(1, yhat + 1):
                pred_rows += [(f, tid, float(f), 40.0 * tid, 0.9) for f in range(20)]
            seqs.append(compute_sequence_metrics(ts(gt_rows), ts(pred_rows)))
        report = MetricsReport.aggregate(seqs)
        assert report.tr_mae == pytest.approx((0 + 5 + 4) / 3)
        assert report.tr_nmae == pytest.approx((0 + 0.25 + 0.4) / 3)
        assert report.id_sw_total == sum(m.id_sw for m in seqs)
        assert 0.0 <= report.t_map <= 1.0

    def test_points_near_the_float_limit(self):
        gt = ts([(f, 1, 1e308, 1e308) for f in range(2)])
        pred = ts([(f, 1, -1e308, -1e308, 0.9) for f in range(2)])
        m = compute_sequence_metrics(gt, pred)
        assert m.id_sw == 0 and m.t_map == 0.0

    def test_clean_overlay_report(self):
        gt = ts(line_track(1, range(40)) + line_track(2, range(40), y0=100))
        pred = ts(line_track(1, range(40)) + line_track(2, range(40), y0=100))
        m = compute_sequence_metrics(gt, pred)
        assert m.tr_ae == 0 and m.tr_nae == 0 and m.id_sw == 0
        assert m.t_ap10 == 1.0 and m.t_map == 1.0

    def test_overcount(self):
        gt = ts(line_track(1, range(40)))
        pred = ts(line_track(1, range(40)) + line_track(2, range(40), y0=400))
        m = compute_sequence_metrics(gt, pred)
        assert m.tr_ae == 1 and m.tr_nae == 1.0

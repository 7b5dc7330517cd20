import numpy as np
import pytest

from pointtrack.errors import InvalidInputError, ParseError
from pointtrack.metrics import (
    TrajectorySet, compute_sequence_metrics, export_interchange, id_switches,
    parse_interchange, pearson, t_ap, t_map, tr_mae, tr_nmae,
)


def ts(rows) -> TrajectorySet:
    return TrajectorySet.from_rows(rows)


def line_track(tid, frames, x0=0.0, y0=0.0, vx=1.0, conf=1.0):
    return [(f, tid, x0 + vx * i, y0, conf) for i, f in enumerate(frames)]


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

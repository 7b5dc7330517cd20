import hashlib
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from pointtrack import lifecycle, motion
from pointtrack.ddcf import FeatureMap, extract_patch, localize
from pointtrack.errors import InvalidInputError, SequencingError
from pointtrack.formats import (
    CORRESPONDENCES, DETECTIONS, Detection, SequenceBundlePaths, parse_correspondences,
    parse_detections, parse_metadata, read_feature_map, write_tracks,
)
from pointtrack.lifecycle import LifecycleConfig, OracleValidator, ScoreColumnValidator, TrackState, TrackTable
from pointtrack.pipeline import (
    FrameInput, PointTracker, SequenceResult, TrackerConfig, frame_inputs_from_bundle, run_sequence,
)
from pointtrack.simulate import ScenarioConfig, generate, write_bundle

BASELINE = TrackerConfig(use_cmc=False, use_alt=False, use_cls=False,
                         use_ddcf=False)


def frames_from_points(points_per_frame, start=0):
    """Build FrameInputs from [[(x, y), ...], ...]."""
    out = []
    for i, pts in enumerate(points_per_frame):
        dets = [Detection(frame=start + i, x=float(x), y=float(y), conf=0.9)
                for x, y in pts]
        out.append(FrameInput.from_rows(start + i, dets))
    return out


def oracle_from_bundle(bundle, radius=10.0) -> OracleValidator:
    by_frame = {}
    for tid in bundle.gt.ids:
        for p in bundle.gt.tracks[tid]:
            by_frame.setdefault(p.frame, []).append((p.x, p.y))
    return OracleValidator({f: np.array(v) for f, v in by_frame.items()}, radius)


# --- independently coded point-SORT baseline (textbook form) ---

class MiniSort:
    """Reference point tracker: constant-velocity KF + gated Hungarian
    assignment + hits/miss lifecycle. Written without the package's motion
    and lifecycle modules on purpose."""

    F = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    H = np.array([[1, 0, 0, 0], [0, 1, 0, 0.0]])
    Q = np.diag([1.0, 1.0, 0.25, 0.25])
    R = np.eye(2)

    def __init__(self, gate=10.0, min_hits=30, max_age=60, tentative_tolerance=3):
        self.gate = gate
        self.min_hits = min_hits
        self.max_age = max_age
        self.tol = tentative_tolerance
        self.tracks = []  # dicts
        self.next_id = 1

    def step(self, points):
        for t in self.tracks:
            t["x"] = self.F @ t["x"]
            t["P"] = self.F @ t["P"] @ self.F.T + self.Q

        n, m = len(self.tracks), len(points)
        matches, um_tracks, um_dets = [], list(range(n)), list(range(m))
        if n and m:
            costs = np.zeros((n, m))
            for i, t in enumerate(self.tracks):
                for j, p in enumerate(points):
                    costs[i, j] = np.hypot(t["x"][0] - p[0], t["x"][1] - p[1])
            big = costs[costs < self.gate].sum() + 1.0 if (costs < self.gate).any() else 1.0
            padded = np.where(costs < self.gate, costs, big)
            ri, ci = linear_sum_assignment(padded)
            matches = [(i, j) for i, j in zip(ri, ci) if costs[i, j] < self.gate]
            um_tracks = [i for i in range(n) if i not in {i for i, _ in matches}]
            um_dets = [j for j in range(m) if j not in {j for _, j in matches}]

        emitted = []
        for i, j in matches:
            t = self.tracks[i]
            z = np.array(points[j], dtype=float)
            S = self.H @ t["P"] @ self.H.T + self.R
            K = t["P"] @ self.H.T @ np.linalg.inv(S)
            t["x"] = t["x"] + K @ (z - self.H @ t["x"])
            t["P"] = (np.eye(4) - K @ self.H) @ t["P"]
            t["hits"] += 1
            t["misses"] = 0
            if t["hits"] >= self.min_hits:
                t["confirmed"] = True
            if t["confirmed"]:
                emitted.append((t["id"], t["x"][0], t["x"][1]))

        for j in um_dets:
            x = np.array([points[j][0], points[j][1], 0.0, 0.0])
            self.tracks.append({"id": self.next_id, "x": x,
                                "P": np.diag([10.0, 10, 100, 100]),
                                "hits": 1, "misses": 0, "confirmed": False})
            self.next_id += 1

        dead = []
        for i in um_tracks:
            t = self.tracks[i]
            t["misses"] += 1
            if (not t["confirmed"] and t["misses"] > self.tol) or t["misses"] > self.max_age:
                dead.append(i)
        self.tracks = [t for k, t in enumerate(self.tracks) if k not in set(dead)]
        return emitted


class TestSingleObject:
    def test_clean_track_confirms_at_min_hits(self):
        pts = [[(50.0 + f, 80.0)] for f in range(100)]
        result = run_sequence(frames_from_points(pts), TrackerConfig())
        assert result.summary.trajectory_count == 1
        (tid,) = result.to_trajectories().ids
        first, last = result.to_trajectories().frame[[0, -1]].tolist()
        assert first == 29  # the 30th frame, min_hits = 30
        assert last == 99
        for out in result.outputs[29:]:
            assert len(out.records) == 1
            assert out.records[0].track_id == tid

    def test_miss_bookkeeping_without_features(self):
        pts = [[(10.0, 10.0)] for _ in range(40)] + [[]]
        result = run_sequence(frames_from_points(pts), TrackerConfig())
        assert result.outputs[-1].records == []

    def test_emit_coasted_record(self):
        pts = [[(10.0, 10.0)] for _ in range(40)] + [[]]
        cfg = replace(TrackerConfig(), emit_coasted=True)
        result = run_sequence(frames_from_points(pts), cfg)
        last = result.outputs[-1].records
        assert len(last) == 1
        assert last[0].source == "coasted"


class TestSequencing:
    def test_gap_rejected(self):
        tracker = PointTracker()
        tracker.process_frame(FrameInput(frame=0))
        with pytest.raises(SequencingError):
            tracker.process_frame(FrameInput(frame=2))

    def test_sequence_may_start_at_any_frame(self):
        pts = [[(10.0 + f, 10.0)] for f in range(40)]
        result = run_sequence(frames_from_points(pts, start=5), TrackerConfig())
        assert result.outputs[0].frame == 5
        assert result.summary.trajectory_count == 1

    def test_ids_unique_and_never_reused(self):
        rng = np.random.default_rng(0)
        pts = []
        for f in range(120):
            frame = []
            if f % 17 < 12:  # appear and disappear repeatedly
                frame.append((100.0 + rng.normal(0, 0.5), 100.0))
            if rng.random() < 0.4:
                frame.append((rng.uniform(0, 400), rng.uniform(0, 400)))
            pts.append(frame)
        result = run_sequence(frames_from_points(pts), TrackerConfig())
        born = result.summary.births
        # all ids handed out are distinct by construction; emitted ids are a subset
        emitted = [r.track_id for out in result.outputs for r in out.records]
        assert set(emitted) == set(result.to_trajectories().ids)
        assert born >= result.summary.trajectory_count


class TestLibraryInput:
    @pytest.mark.parametrize("conf,score", [(7.5, None), (-0.1, None), (float("nan"), None),
                                            (0.9, 1.5), (0.9, float("inf"))])
    def test_detection_outside_unit_interval_rejected(self, conf, score):
        # the values parse_detections would reject must not reach tracks.csv
        frames = [FrameInput.from_rows(f, [Detection(f, 10.0, 10.0, conf, score)])
                  for f in range(5)]
        cfg = replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=2, cls_lead=1))
        with pytest.raises(InvalidInputError):
            run_sequence(frames, cfg)


class TestBundleInput:
    """frame_inputs_from_bundle against FrameInputs built with from_rows from
    the same files, parsed row by row and grouped by frame in file order."""

    SCENE = ScenarioConfig(n_agents=6, frames=60, arena_width=256, arena_height=256,
                           camera_rotation_deg=0.2, camera_translation_x=1.0, fn_rate=0.1,
                           fp_clutter_rate=1.0, persistent_fp_count=2, jitter_sigma=0.3,
                           occlusion_windows=((2, 35, 45),), feature_channels=4, seed=31)

    @staticmethod
    def row_inputs(paths):
        dets, corr = {}, {}
        for d in parse_detections(paths.detections.read_text()):
            dets.setdefault(d.frame, []).append(d)
        for c in [] if paths.correspondences is None else parse_correspondences(
                paths.correspondences.read_text()):
            corr.setdefault(c.frame, []).append(c)
        altitude = {m.frame: m.altitude for m in parse_metadata(paths.metadata.read_text())}
        files = paths.feature_files()
        return [FrameInput.from_rows(f, dets.get(f, []), altitude.get(f), corr.get(f, []),
                                     read_feature_map(files[f].read_bytes()) if f in files else None)
                for f in range(max(altitude) + 1)]

    @staticmethod
    def tracks(frame_inputs) -> bytes:
        result = run_sequence(frame_inputs, TrackerConfig(), ScoreColumnValidator())
        return write_tracks([r for out in result.outputs for r in out.records]).encode()

    @pytest.mark.parametrize("order", ["as_written", "frames_descending"])
    def test_bundle_path_equals_row_path(self, tmp_path, order):
        paths = SequenceBundlePaths.from_dir(write_bundle(generate(self.SCENE), tmp_path / "b"))
        if order == "frames_descending":
            # the rows of later frames first, each frame's rows in their order
            for path, table in ((paths.detections, DETECTIONS),
                                (paths.correspondences, CORRESPONDENCES)):
                rows = table.parse(path.read_text())
                path.write_text(table.write(sorted(rows, key=lambda r: -r.frame)))
        from_bundle = list(frame_inputs_from_bundle(paths))
        assert len(from_bundle) == self.SCENE.frames
        assert any(len(fi.correspondences) for fi in from_bundle)
        expected = self.tracks(self.row_inputs(paths))
        assert expected.count(b"\n") > 100 and b",ddcf" in expected
        assert self.tracks(from_bundle) == expected

    def test_frames_without_rows_are_empty_blocks(self, tmp_path):
        # detections only in frames 0-39 and 50-59: frames 40-49 are zero-row
        # column blocks, and live tracks miss through them
        bundle = tmp_path / "b"
        write_bundle(generate(replace(self.SCENE, feature_channels=0)), bundle)
        paths = SequenceBundlePaths.from_dir(bundle)
        rows = [d for d in parse_detections(paths.detections.read_text())
                if not 40 <= d.frame < 50]
        paths.detections.write_text(DETECTIONS.write(rows))
        paths.correspondences.unlink()
        paths = SequenceBundlePaths.from_dir(bundle)
        inputs = list(frame_inputs_from_bundle(paths))
        gap = inputs[40:50]
        assert all(fi.points.shape == (0, 2) and fi.conf.shape == (0,) and fi.score.shape == (0,)
                   and fi.correspondences.shape == (0, 4) for fi in gap)
        tracker = PointTracker(replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=5)),
                               ScoreColumnValidator())
        outs = [tracker.process_frame(fi) for fi in inputs]
        assert all(out.records == [] for out in outs[40:50])
        assert sum(out.deaths for out in outs[40:50]) > 0
        assert self.tracks(inputs) == self.tracks(self.row_inputs(paths))


class TestHostileLibraryInput:
    def test_feature_map_smaller_than_the_patch(self):
        # a 2 x 2 map under 32-cell patches: every patch is edge cells, and
        # the filters still train, update and localise on it
        rng = np.random.default_rng(3)
        tracker = PointTracker(replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=5)))
        records = recoveries = 0
        for f in range(60):
            fmap = FeatureMap(data=rng.normal(0.0, 1.0, (2, 2, 4)), stride=4.0)
            point = [(1.0 + 0.05 * f, 6.0)] if f % 10 < 7 else []
            out = tracker.process_frame(FrameInput.from_rows(
                f, [Detection(f, x, y, conf=0.9) for x, y in point], features=fmap))
            records += len(out.records)
            recoveries += out.recoveries
        assert tracker.config.dcf.patch_cells == 32
        assert records > 0 and recoveries > 0

    def test_run_of_empty_frames(self):
        tracker = PointTracker(replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=4)))
        first = []
        for f in range(5):
            first.append(tracker.process_frame(FrameInput.from_rows(f, [Detection(f, 10.0 + f, 10.0, 0.9)])))
        empty = [FrameInput(f), FrameInput.from_rows(f + 1),
                 FrameInput(f + 2, np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                            correspondences=np.zeros((0, 4)))]
        outs = [tracker.process_frame(replace(fi, frame=5 + i)) for i, fi in enumerate(empty * 2)]
        assert [len(out.records) for out in outs] == [0] * 6
        assert SequenceResult(first + outs).summary.births == 1 and len(tracker.tracks) == 1
        assert tracker.tracks.misses.tolist() == [6]
        assert tracker.tracks.state.tolist() == [TrackState.CONFIRMED]

    def test_rows_take_their_own_detection_confidence(self):
        tracker = PointTracker(BASELINE)
        tracker.process_frame(FrameInput(0, [(10, 10), (50, 50), (90, 90)], [0.6, 0.7, 0.8]))
        assert tracker.tracks.last_confidence.tolist() == [0.6, 0.7, 0.8]
        # the middle detection is matched, the other two are born
        tracker.process_frame(FrameInput(1, [(200, 200), (50, 51), (300, 300)], [0.95, 0.71, 0.5]))
        assert tracker.tracks.id.tolist() == [1, 2, 3, 4, 5]
        assert tracker.tracks.last_confidence.tolist() == [0.6, 0.71, 0.8, 0.95, 0.5]

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(InvalidInputError):
            FrameInput(0, np.zeros((3, 2)), np.full(2, 0.5))
        with pytest.raises(InvalidInputError):
            FrameInput(0, np.zeros((2, 2)), np.full(2, 0.5), np.full(3, 0.5))

    def test_rejected_frame_leaves_the_tracker_unchanged(self):
        # a caller that catches the error and retries the frame gets the
        # records of a tracker that never saw the rejected one
        frames = frames_from_points([[(10.0 + 2 * f, 10.0), (80.0, 10.0 + 0.5 * f)] for f in range(40)])
        plain, retried = PointTracker(BASELINE), PointTracker(BASELINE)
        for fi in frames[:35]:
            plain.process_frame(fi)
            retried.process_frame(fi)
        for bad in ([np.nan, 10.0], [80.0, np.inf]):
            with pytest.raises(InvalidInputError):
                retried.process_frame(replace(frames[35], points=[bad, (80.0, 27.5)]))
        for fi in frames[35:]:
            a, b = plain.process_frame(fi), retried.process_frame(fi)
            assert len(a.records) == 2 and a.records == b.records

    def test_missing_score_beside_a_score_is_nan(self):
        fi = FrameInput.from_rows(0, [Detection(0, 1.0, 2.0, 0.5, 0.9), Detection(0, 3.0, 4.0, 0.5)])
        assert np.isnan(fi.score[1])
        with pytest.raises(InvalidInputError):
            PointTracker().process_frame(fi)
        assert FrameInput.from_rows(0, [Detection(0, 1.0, 2.0, 0.5)]).score is None


class TestBaselineEquivalence:
    def test_disabled_pipeline_matches_independent_sort(self):
        cfg = ScenarioConfig(n_agents=8, frames=150, arena_width=400, arena_height=400,
                             fn_rate=0.1, jitter_sigma=0.3, fp_clutter_rate=0.5,
                             feature_channels=0, seed=21)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, BASELINE)

        mini = MiniSort()
        mine, theirs = [], []
        for fi, out in zip(bundle.frames, result.outputs):
            emitted = mini.step(fi.points.tolist())
            theirs.append(sorted((tid, round(x, 6), round(y, 6)) for tid, x, y in emitted))
            mine.append(sorted((r.track_id, round(r.x, 6), round(r.y, 6))
                               for r in out.records))
        assert mine == theirs


class TestDdcfRecovery:
    def _occlusion_bundle(self, start=60, end=95, frames=160, seed=11):
        cfg = ScenarioConfig(n_agents=2, frames=frames, arena_width=240,
                             arena_height=240, agent_speed_sigma=1.2, turn_sigma=0.08,
                             jitter_sigma=0.2, fn_rate=0.0,
                             occlusion_windows=((1, start, end),),
                             feature_channels=8, feature_stride=4.0, seed=seed)
        return generate(cfg)

    def test_identity_bridged_through_occlusion(self):
        bundle = self._occlusion_bundle()
        result = run_sequence(bundle.frames, TrackerConfig(),
                              validator=ScoreColumnValidator())
        assert result.summary.trajectory_count == 2
        # find which track id covers ground-truth agent 1 before the gap
        gt1 = {p.frame: (p.x, p.y) for p in bundle.gt.tracks[1]}
        def covering_id(out):
            best, best_d = None, 12.0
            for r in out.records:
                d = np.hypot(r.x - gt1[out.frame][0], r.y - gt1[out.frame][1])
                if d < best_d:
                    best, best_d = r.track_id, d
            return best
        before = covering_id(result.outputs[59])
        after = covering_id(result.outputs[120])
        assert before is not None and before == after
        gap_sources = {r.source for out in result.outputs[61:95]
                       for r in out.records if r.track_id == before}
        assert gap_sources == {"ddcf"}

    def test_without_ddcf_identity_breaks(self):
        bundle = self._occlusion_bundle()
        cfg = replace(TrackerConfig(), use_ddcf=False)
        result = run_sequence(bundle.frames, cfg, validator=ScoreColumnValidator())
        # occluded agent cannot be followed; a second identity appears
        assert result.summary.trajectory_count >= 3

    def test_no_recovery_outside_feature_coverage(self):
        # camera drift carries targets beyond the feature map; recoveries on
        # edge-replicated garbage used to drag tracks off their detections
        # and split identities
        cfg = ScenarioConfig(n_agents=8, frames=200, arena_width=400,
                             arena_height=400, fn_rate=0.1, jitter_sigma=0.3,
                             fp_clutter_rate=0.5, persistent_fp_count=2,
                             camera_translation_x=1.0, camera_rotation_deg=0.1,
                             feature_channels=4, seed=42)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, TrackerConfig(),
                              validator=ScoreColumnValidator())
        assert result.summary.trajectory_count <= 10

    def test_one_blob_recovers_one_track(self):
        # two confirmed tracks 40 px apart with the same appearance; when both
        # detections vanish, one blob between them is left, both filters
        # localise on it (3.8 px apart), and only one track may take it
        rng = np.random.default_rng(5)
        signature = rng.normal(size=4)
        signature /= np.linalg.norm(signature)

        def features(centres, stride=4.0, cells=64):
            data = rng.normal(0.0, 0.05, (cells, cells, signature.size))
            yy, xx = np.mgrid[0:cells, 0:cells]
            for x, y in centres:
                blob = np.exp(-((yy - y / stride) ** 2 + (xx - x / stride) ** 2) / 8.0)
                data += blob[:, :, None] * signature
            return FeatureMap(data=data, stride=stride)

        a, b = (108.0, 128.0), (148.0, 128.0)
        tracker = PointTracker(replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=5)))
        outs = []
        for f in range(6):
            dets = [Detection(f, *a, conf=0.9), Detection(f, *b, conf=0.9)]
            outs.append(tracker.process_frame(FrameInput.from_rows(f, dets, features=features([a, b]))))
        assert SequenceResult(outs).summary.trajectory_count == 2
        out = tracker.process_frame(FrameInput(6, features=features([(128.0, 128.0)])))
        assert out.recoveries == 1
        assert [r.source for r in out.records] == ["ddcf"]

    def test_recovery_never_outlives_max_age(self):
        frames = 200
        bundle = self._occlusion_bundle(start=50, end=frames - 1, frames=frames, seed=3)
        result = run_sequence(bundle.frames, TrackerConfig(),
                              validator=ScoreColumnValidator())
        # the occluded track keeps emitting via recovery, then dies at max_age
        last_seen = {}
        for out in result.outputs:
            for r in out.records:
                if r.source == "ddcf":
                    last_seen[r.track_id] = out.frame
        assert last_seen  # recoveries did happen
        assert max(last_seen.values()) <= 49 + 60  # last detection frame + max_age


class TestDdcfBranches:
    """One confirmed track at a fixed point, then a frame without its
    detection: each case steers the DDCF maintain or recover step into one
    of its rejections."""

    POINT = (128.0, 128.0)
    ZEROS = FeatureMap(data=np.zeros((64, 64, 4)), stride=4.0)

    @staticmethod
    def blob_features(seed=0, sign=1.0):
        """A blob at POINT (cell 32, 32) on noise; sign=-1 inverts its appearance."""
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 0.05, (64, 64, 4))
        yy, xx = np.mgrid[0:64, 0:64]
        bump = np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / 8.0)
        data += bump[:, :, None] * (sign * np.array([0.5, -0.5, 0.5, 0.5]))
        return FeatureMap(data=data, stride=4.0)

    def confirm_then_lose(self, confirm_features, lost_features):
        tracker = PointTracker(replace(TrackerConfig(), lifecycle=LifecycleConfig(min_hits=5)))
        for f in range(6):
            tracker.process_frame(FrameInput.from_rows(f, [Detection(f, *self.POINT, conf=0.9)],
                                                       features=confirm_features))
        assert tracker.tracks.state.tolist() == [TrackState.CONFIRMED]
        out = tracker.process_frame(FrameInput(6, features=lost_features))
        return tracker, out

    def test_all_zero_patch_leaves_the_match_without_a_model(self):
        tracker, out = self.confirm_then_lose(self.ZEROS, None)
        assert tracker.tracks.filters[0] is None
        assert out.recoveries == 0

    def test_all_zero_previous_map_trains_no_late_model(self):
        tracker, out = self.confirm_then_lose(self.ZEROS, self.blob_features())
        assert tracker.tracks.filters[0] is None
        assert out.recoveries == 0

    def test_no_model_and_no_previous_map_skips_recovery(self):
        tracker, out = self.confirm_then_lose(None, self.blob_features())
        assert tracker.tracks.filters[0] is None
        assert out.recoveries == 0

    def test_all_zero_patch_recovers_nothing(self):
        # exact-zero background, as a ReLU map has, gives a flat response
        # whose peak is the patch corner, not the target
        tracker, out = self.confirm_then_lose(self.blob_features(), self.ZEROS)
        assert tracker.tracks.filters[0] is not None
        assert out.recoveries == 0 and out.records == []

    def test_low_psr_rejects_recovery(self):
        # control: the blob as trained is recovered
        assert self.confirm_then_lose(self.blob_features(), self.blob_features(seed=1))[1].recoveries == 1
        inverted = self.blob_features(seed=1, sign=-1.0)
        tracker, out = self.confirm_then_lose(self.blob_features(), inverted)
        patch = extract_patch(inverted, tracker.tracks.mean[0, :2], tracker.config.dcf.patch_cells)
        assert localize(tracker.tracks.filters[0], patch)[1] < tracker.config.dcf.psr_min
        assert out.recoveries == 0


class TestDeterminism:
    def test_identical_runs_identical_outputs(self):
        cfg = ScenarioConfig(n_agents=5, frames=80, fn_rate=0.15, jitter_sigma=0.4,
                             fp_clutter_rate=1.0, camera_rotation_deg=0.1,
                             camera_translation_x=1.0, feature_channels=4, seed=13)
        bundle = generate(cfg)
        a = run_sequence(bundle.frames, TrackerConfig(), validator=ScoreColumnValidator())
        b = run_sequence(bundle.frames, TrackerConfig(), validator=ScoreColumnValidator())
        ra = [(o.frame, r.track_id, r.x, r.y, r.conf, r.source)
              for o in a.outputs for r in o.records]
        rb = [(o.frame, r.track_id, r.x, r.y, r.conf, r.source)
              for o in b.outputs for r in o.records]
        assert ra == rb

    def test_golden_digest(self):
        """tracks.csv of a small scene with occlusions, clutter and camera
        drift, pinned to a committed digest: a change that moves a single
        output byte (DDCF recoveries included) fails here, not only a change
        that makes two reruns differ."""
        cfg = ScenarioConfig(n_agents=6, frames=120, arena_width=300, arena_height=300,
                             fn_rate=0.1, jitter_sigma=0.3, fp_clutter_rate=0.5,
                             occlusion_windows=((1, 40, 75), (4, 60, 90)),
                             camera_translation_x=0.5, feature_channels=8, feature_stride=4.0,
                             seed=29)
        result = run_sequence(generate(cfg).frames, TrackerConfig(),
                              validator=ScoreColumnValidator())
        text = write_tracks([r for out in result.outputs for r in out.records])
        assert result.summary.recoveries > 0
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "3c6e06d958d3e3d9046c472721ba4154a14581e955b1bfc6c198257605c862a4"

    def test_streaming_matches_run_sequence(self):
        pts = [[(5.0 + f, 5.0)] for f in range(50)]
        inputs = frames_from_points(pts)
        whole = run_sequence(inputs, TrackerConfig())
        tracker = PointTracker(TrackerConfig())
        stepped = [tracker.process_frame(fi) for fi in inputs]
        assert [(o.frame, tuple(o.records)) for o in whole.outputs] == \
               [(o.frame, tuple(o.records)) for o in stepped]
        # a hand-driven loop gets the same bookkeeping as run_sequence
        assert SequenceResult(stepped).summary == whole.summary
        assert whole.summary.births == 1
        assert whole.to_trajectories().ids == [1]
        assert whole.to_trajectories().frame[[0, -1]].tolist() == [29, 49]


class TestKalmanTable:
    def test_few_stacked_motion_calls_per_frame(self, monkeypatch):
        """One predict, affine and init_state per frame and at most two
        updates (matches, recoveries), each over a stack of table rows; one
        on_match and one on_miss over row sets; one table row per track."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("predict", "apply_affine", "update", "init_state"):
            monkeypatch.setattr(motion, name, counting(name, getattr(motion, name)))
        for name in ("on_match", "on_miss"):
            monkeypatch.setattr(lifecycle, name, counting(name, getattr(lifecycle, name)))
        cfg = ScenarioConfig(n_agents=5, frames=80, fn_rate=0.15, jitter_sigma=0.4,
                             fp_clutter_rate=1.0, camera_rotation_deg=0.1,
                             camera_translation_x=1.0, feature_channels=4, seed=13)
        tracker = PointTracker(TrackerConfig(), ScoreColumnValidator())
        per_frame, recoveries = Counter(), 0
        for frame_input in generate(cfg).frames:
            calls.clear()
            recoveries += tracker.process_frame(frame_input).recoveries
            assert calls["predict"] <= 1 and calls["apply_affine"] <= 1
            assert calls["init_state"] <= 1 and calls["update"] <= 2
            assert calls["on_match"] <= 1 and calls["on_miss"] <= 1
            tracks = tracker.tracks
            assert tracks.mean.shape == (len(tracks), 4)
            assert tracks.covariance.shape == (len(tracks), 4, 4)
            assert all(len(getattr(tracks, f.name)) == len(tracks) for f in fields(TrackTable))
            assert len(set(tracks.id.tolist())) == len(tracks) and np.all(np.diff(tracks.id) > 0)
            per_frame.update(calls)
        # the scene exercises every path: camera motion and recoveries
        assert per_frame["apply_affine"] > 0 and recoveries > 0


class TestGateAndCmcWiring:
    def test_altitude_changes_gate(self):
        fi = FrameInput(frame=0, altitude=50.0)
        out = PointTracker(TrackerConfig()).process_frame(fi)
        assert out.gate == 20.0
        out = PointTracker(replace(TrackerConfig(), use_alt=False)).process_frame(fi)
        assert out.gate == 10.0

    def test_invalid_altitude_propagates(self):
        from pointtrack.errors import InvalidInputError
        with pytest.raises(InvalidInputError):
            PointTracker(TrackerConfig()).process_frame(FrameInput(frame=0, altitude=-4.0))

    def test_cmc_failure_falls_back_to_identity(self):
        pairs = [(0, 0, 50, 50), (1, 0, -30, 2)]  # prev_x, prev_y, cur_x, cur_y
        out = PointTracker(TrackerConfig()).process_frame(
            FrameInput(frame=0, correspondences=pairs))
        assert out.affine.is_identity()

    def test_overflowing_cmc_fit_falls_back_to_identity(self, caplog):
        # finite correspondences whose 3-point fits overflow
        rng = np.random.default_rng(8)
        prev = rng.uniform(0, 100, (20, 2))
        cur = 1.7e308 * rng.choice([-1.0, 1.0], (20, 2))
        pairs = np.c_[prev, cur]
        with np.errstate(over="ignore", invalid="ignore"):
            out = PointTracker(TrackerConfig()).process_frame(
                FrameInput(frame=0, correspondences=pairs))
        assert out.affine.is_identity()
        assert "camera-motion estimate failed" in caplog.text

    def test_degenerate_cmc_refit_falls_back_to_identity(self, caplog):
        # points flattened onto y = 100 up to 1e-4 px: the 3-point fits pass
        # the det filter by their noise, the refit on all of them does not
        rng = np.random.default_rng(0)
        prev = rng.uniform(0, 500, (50, 2))
        cur = np.c_[prev[:, 0] + 2, 100 + rng.normal(0, 1e-4, 50)]
        pairs = np.c_[prev, cur]
        out = PointTracker(TrackerConfig()).process_frame(FrameInput(frame=0, correspondences=pairs))
        assert out.affine.is_identity()
        assert "fitted transform is degenerate" in caplog.text

    def test_camera_motion_corrected_tracking(self):
        cfg = ScenarioConfig(n_agents=6, frames=120, arena_width=400, arena_height=400,
                             camera_translation_x=5.0, camera_translation_y=3.0,
                             camera_rotation_deg=0.2, jitter_sigma=0.3,
                             fn_rate=0.05, feature_channels=0, seed=17)
        bundle = generate(cfg)
        with_cmc = run_sequence(bundle.frames, TrackerConfig())
        without = run_sequence(bundle.frames, replace(TrackerConfig(), use_cmc=False))
        assert with_cmc.summary.mean_match_distance < without.summary.mean_match_distance


class TestClassificationWiring:
    def test_ghosts_suppressed_with_oracle_validator(self):
        cfg = ScenarioConfig(n_agents=4, frames=120, persistent_fp_count=3,
                             jitter_sigma=0.2, feature_channels=0, seed=19)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, TrackerConfig(),
                              validator=oracle_from_bundle(bundle))
        assert result.summary.trajectory_count == 4

    def test_ghosts_confirmed_without_classification(self):
        cfg = ScenarioConfig(n_agents=4, frames=120, persistent_fp_count=3,
                             jitter_sigma=0.2, feature_channels=0, seed=19)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, replace(TrackerConfig(), use_cls=False))
        assert result.summary.trajectory_count == 7

    def test_feature_energy_validator_in_pipeline(self):
        from pointtrack.lifecycle import FeatureEnergyValidator
        cfg = ScenarioConfig(n_agents=3, frames=80, arena_width=240, arena_height=240,
                             jitter_sigma=0.2, feature_channels=8,
                             feature_stride=4.0, seed=23)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, TrackerConfig(),
                              validator=FeatureEnergyValidator())
        # agents light the feature map up around themselves, so the energy
        # score clears the confirmation threshold
        assert result.summary.trajectory_count == 3

    def test_zero_validator_confirms_nothing(self):
        class Zero:
            def score(self, ctx):
                return 0.0

        cfg = ScenarioConfig(n_agents=4, frames=120, jitter_sigma=0.2,
                             feature_channels=0, seed=19)
        bundle = generate(cfg)
        result = run_sequence(bundle.frames, TrackerConfig(), validator=Zero())
        assert result.summary.trajectory_count == 0

"""Per-frame orchestration of the online tracker and sequence execution.

Frame order: gate from altitude, camera-motion estimate, Kalman predict +
affine correction, gated optimal assignment, match bookkeeping with the
classification gate, correlation-filter recovery of unmatched confirmed
tracks, births, miss handling, emission.

The tracker keeps the Kalman states of all its tracks in one stacked
``motion.KalmanState`` table whose row i belongs to ``tracks[i]``. Each
frame predicts (and carries through the camera motion) the whole table in
one call, corrects the matched rows in one call and the recovered rows in
another, and appends the births' rows in one more.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import lifecycle, motion
from .assignment import AssignmentResult, GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment
from .cmc import AffineTransform, RansacConfig, estimate_affine
from .ddcf import DcfConfig, FeatureMap, extract_patch, localize, train_filter, update_filter
from .errors import InvalidInputError, NoMotionEstimateError, SequencingError
from .formats import (
    SOURCE_COASTED, SOURCE_DDCF, SOURCE_DETECTION, CorrespondenceRow, Detection, SequenceBundlePaths,
    TrackRow, parse_correspondences, parse_detections, parse_metadata, read_feature_map,
)
from .lifecycle import LifecycleConfig, Track, TrackState, TrajectoryValidator, ValidationContext
from .metrics import TrajectorySet
from .motion import KalmanState, MotionConfig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrackerConfig:
    motion: MotionConfig = field(default_factory=MotionConfig)
    gating: GatingPolicy = field(default_factory=GatingPolicy)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    dcf: DcfConfig = field(default_factory=DcfConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    use_cmc: bool = True
    use_alt: bool = True
    use_cls: bool = True
    use_ddcf: bool = True
    emit_coasted: bool = False


@dataclass
class FrameInput:
    frame: int
    detections: list[Detection] = field(default_factory=list)
    altitude: float | None = None
    correspondences: list[CorrespondenceRow] = field(default_factory=list)
    features: FeatureMap | None = None


@dataclass
class FrameOutput:
    frame: int
    records: list[TrackRow]
    gate: float
    affine: AffineTransform
    births: int
    deaths: int
    recoveries: int


@dataclass
class SequenceSummary:
    lifespans: dict[int, tuple[int, int]] = field(default_factory=dict)  # first-emission order
    births: int = 0
    deaths: int = 0
    recoveries: int = 0
    match_count: int = 0
    match_distance_sum: float = 0.0

    @property
    def confirmed_ids(self) -> list[int]:
        return list(self.lifespans)

    @property
    def trajectory_count(self) -> int:
        return len(self.lifespans)

    @property
    def mean_match_distance(self) -> float:
        return self.match_distance_sum / self.match_count if self.match_count else 0.0


class PointTracker:
    """Online tracker over one sequence; call process_frame in frame order."""

    def __init__(self, config: TrackerConfig | None = None,
                 validator: TrajectoryValidator | None = None):
        self.config = config or TrackerConfig()
        self.validator = validator
        self.tracks: list[Track] = []
        self.kalman = KalmanState(np.zeros((0, 4)), np.zeros((0, 4, 4)))  # row i: tracks[i]
        self._next_id = 1
        self._last_frame: int | None = None
        self._prev_features: FeatureMap | None = None
        self.summary = SequenceSummary()

    @property
    def _cls_enabled(self) -> bool:
        return self.config.use_cls and self.validator is not None

    def process_frame(self, frame_input: FrameInput) -> FrameOutput:
        frame = frame_input.frame
        if self._last_frame is not None and frame != self._last_frame + 1:
            raise SequencingError(
                f"frame {frame} does not follow frame {self._last_frame}")
        if self._last_frame is None and frame < 0:
            raise SequencingError(f"negative frame index {frame}")
        for det in frame_input.detections:
            # the range checks of the detections table; x and y are checked
            # where they are used
            if not (0.0 <= det.conf <= 1.0 and (det.score is None or 0.0 <= det.score <= 1.0)):
                raise InvalidInputError(f"frame {frame}: detection {det} needs conf and score in [0, 1]")

        gate = self._gate(frame_input)
        affine = self._camera_motion(frame_input)
        self._predict(affine)

        detections = frame_input.detections
        result = self._associate(detections, gate)
        matched_ids = self._handle_matches(result, detections, frame_input)
        claimed = np.array([[detections[dj].x, detections[dj].y]
                            for _, dj, _ in result.matches]).reshape(-1, 2)
        recovered_ids = self._recover(result, frame_input, claimed, gate)
        births = self._spawn(result, detections)
        deaths = self._handle_misses(result)

        records = self._emit(frame, matched_ids, recovered_ids)
        self._prev_features = frame_input.features
        self._last_frame = frame
        summary = self.summary
        summary.births += births
        summary.deaths += deaths
        summary.recoveries += len(recovered_ids)
        for r in records:
            first, _ = summary.lifespans.get(r.track_id, (frame, frame))
            summary.lifespans[r.track_id] = (first, frame)
        return FrameOutput(frame=frame, records=records, gate=gate, affine=affine,
                           births=births, deaths=deaths, recoveries=len(recovered_ids))

    # --- pipeline steps ---

    def _gate(self, frame_input: FrameInput) -> float:
        if not self.config.use_alt:
            return self.config.gating.base_radius
        altitude = frame_input.altitude
        if altitude is None:
            altitude = self.config.gating.reference_altitude
        return dynamic_threshold(altitude, self.config.gating)

    def _camera_motion(self, frame_input: FrameInput) -> AffineTransform:
        if not self.config.use_cmc or not frame_input.correspondences:
            return AffineTransform.identity()
        try:
            return estimate_affine(frame_input.correspondences, self.config.ransac)
        except NoMotionEstimateError as exc:
            logger.warning("frame %d: camera-motion estimate failed (%s), using identity",
                           frame_input.frame, exc)
            return AffineTransform.identity()

    def _predict(self, affine: AffineTransform):
        self.kalman = motion.predict(self.kalman, self.config.motion)
        if not affine.is_identity():
            self.kalman = motion.apply_affine(self.kalman, affine)

    def _correct(self, rows: list[int], points):
        """Update the table's given rows, each with its measured point."""
        table = self.kalman
        fixed = motion.update(KalmanState(table.mean[rows], table.covariance[rows]),
                              points, self.config.motion)
        table.mean[rows] = fixed.mean
        table.covariance[rows] = fixed.covariance

    def _associate(self, detections: list[Detection], gate: float) -> AssignmentResult:
        points = [(d.x, d.y) for d in detections]
        return solve_assignment(build_cost_matrix(self.kalman.position, points), gate)

    def _validator_prob(self, track: Track, det: Detection,
                        frame_input: FrameInput) -> float | None:
        if not self._cls_enabled or track.state is TrackState.CONFIRMED:
            return None
        if not lifecycle.classification_gate_active(track.hits + 1, self.config.lifecycle):
            return None
        context = ValidationContext(
            frame=frame_input.frame,
            position=np.array([det.x, det.y]),
            detection_score=det.score,
            features=frame_input.features,
        )
        try:
            return lifecycle.validate(self.validator, context)
        except lifecycle.ValidationUnavailableError:
            return None

    def _handle_matches(self, result: AssignmentResult, detections: list[Detection],
                        frame_input: FrameInput) -> set[int]:
        matched: set[int] = set()
        for ti, dj, dist in result.matches:
            track = self.tracks[ti]
            det = detections[dj]
            prob = self._validator_prob(track, det, frame_input)
            lifecycle.on_match(track, (det.x, det.y), det.conf, prob, self.config.lifecycle,
                               classification_enabled=self._cls_enabled)
            self.summary.match_count += 1
            self.summary.match_distance_sum += dist
            if track.is_confirmed:
                matched.add(track.track_id)
                self._maintain_filter(track, det, frame_input)
        self._correct([ti for ti, _, _ in result.matches],
                      [(detections[dj].x, detections[dj].y) for _, dj, _ in result.matches])
        return matched

    @staticmethod
    def _in_coverage(features: FeatureMap, position) -> bool:
        x, y = float(position[0]), float(position[1])
        return (0.0 <= x < features.width * features.stride
                and 0.0 <= y < features.height * features.stride)

    def _maintain_filter(self, track: Track, det: Detection, frame_input: FrameInput):
        cfg = self.config
        if not cfg.use_ddcf or frame_input.features is None:
            return
        if not self._in_coverage(frame_input.features, (det.x, det.y)):
            return
        try:
            patch = extract_patch(frame_input.features, (det.x, det.y), cfg.dcf.patch_cells)
            if track.filter is None:
                track.filter = train_filter(patch, cfg.dcf)
            else:
                track.filter = update_filter(track.filter, patch, cfg.dcf)
        except InvalidInputError:
            pass  # degenerate patch; keep whatever model we had

    def _recover(self, result: AssignmentResult, frame_input: FrameInput,
                 claimed: np.ndarray, gate: float) -> set[int]:
        recovered: set[int] = set()
        cfg = self.config
        if not cfg.use_ddcf or frame_input.features is None:
            return recovered
        # each track reads only its own predicted row, so the accepted
        # recoveries can all be applied in one update after the loop
        rows, points = [], []
        for ti in result.unmatched_tracks:
            track = self.tracks[ti]
            if not track.is_confirmed:
                continue
            if track.filter is None and self._prev_features is not None:
                # no model yet: build it from the last measured position
                try:
                    patch = extract_patch(self._prev_features, track.last_position,
                                          cfg.dcf.patch_cells)
                    track.filter = train_filter(patch, cfg.dcf)
                except InvalidInputError:
                    continue
            if track.filter is None:
                continue
            predicted = self.kalman.position[ti]
            if not self._in_coverage(frame_input.features, predicted):
                continue  # target outside the feature map; let it age out
            patch = extract_patch(frame_input.features, predicted, cfg.dcf.patch_cells)
            offset, psr = localize(track.filter, patch)
            if psr < cfg.dcf.psr_min:
                continue
            point = patch.origin + offset
            if claimed.size and np.linalg.norm(claimed - point, axis=1).min() < gate:
                # the spot is explained by a detection or a recovery another
                # track already owns; recovering here would duplicate it
                continue
            track.last_position = np.asarray(point)
            recovered.add(track.track_id)
            claimed = np.vstack([claimed, point])
            rows.append(ti)
            points.append(point)
        self._correct(rows, points)
        return recovered

    def _spawn(self, result: AssignmentResult, detections: list[Detection]) -> int:
        points = np.array([(detections[dj].x, detections[dj].y)
                           for dj in result.unmatched_detections]).reshape(-1, 2)
        born = motion.init_state(points, self.config.motion)
        self.kalman = KalmanState(np.concatenate([self.kalman.mean, born.mean]),
                                  np.concatenate([self.kalman.covariance, born.covariance]))
        for dj, point in zip(result.unmatched_detections, points):
            self.tracks.append(Track(track_id=self._next_id, last_position=point,
                                     last_confidence=detections[dj].conf))
            self._next_id += 1
        return len(result.unmatched_detections)

    def _handle_misses(self, result: AssignmentResult) -> int:
        """Age the unmatched tracks, then drop every track deleted this frame
        (by a miss or by the classification decision); returns their count.
        A frame starts with no deleted track and spawned tracks are tentative,
        so the dropped tracks are exactly this frame's deaths."""
        for ti in result.unmatched_tracks:
            lifecycle.on_miss(self.tracks[ti], self.config.lifecycle)
        live = [not t.is_deleted for t in self.tracks]
        deaths = live.count(False)
        self.tracks = [t for t, keep in zip(self.tracks, live) if keep]
        self.kalman = KalmanState(self.kalman.mean[live], self.kalman.covariance[live])
        return deaths

    def _emit(self, frame: int, matched: set[int], recovered: set[int]) -> list[TrackRow]:
        records = []
        for track, (x, y) in zip(self.tracks, self.kalman.position.tolist()):
            if not track.is_confirmed:
                continue
            if track.track_id in matched:
                source = SOURCE_DETECTION
            elif track.track_id in recovered:
                source = SOURCE_DDCF
            elif self.config.emit_coasted:
                source = SOURCE_COASTED
            else:
                continue
            records.append(TrackRow(frame, track.track_id, x, y, track.last_confidence, source))
        return records


@dataclass
class SequenceResult:
    outputs: list[FrameOutput]
    summary: SequenceSummary

    def to_trajectories(self) -> TrajectorySet:
        rows = [r for out in self.outputs for r in out.records]
        return TrajectorySet(*([getattr(r, name) for r in rows]
                               for name in ("frame", "track_id", "x", "y", "conf")))


def run_sequence(frame_inputs, config: TrackerConfig | None = None,
                 validator: TrajectoryValidator | None = None) -> SequenceResult:
    """Stream a whole ordered sequence through a fresh tracker."""
    tracker = PointTracker(config, validator)
    outputs = [tracker.process_frame(frame_input) for frame_input in frame_inputs]
    if not outputs:
        raise InvalidInputError("empty frame sequence")
    return SequenceResult(outputs=outputs, summary=tracker.summary)


def frame_inputs_from_bundle(paths: SequenceBundlePaths):
    """Generate FrameInputs from a bundle directory, features loaded lazily."""
    detections = parse_detections(paths.detections.read_text())
    dets_by_frame: dict[int, list[Detection]] = {}
    for d in detections:
        dets_by_frame.setdefault(d.frame, []).append(d)

    alt_by_frame: dict[int, float] = {}
    if paths.metadata is not None:
        for row in parse_metadata(paths.metadata.read_text()):
            alt_by_frame[row.frame] = row.altitude

    corr_by_frame: dict[int, list[CorrespondenceRow]] = {}
    if paths.correspondences is not None:
        for row in parse_correspondences(paths.correspondences.read_text()):
            corr_by_frame.setdefault(row.frame, []).append(row)

    feature_files = paths.feature_files()
    last = max((max(source) for source in (dets_by_frame, alt_by_frame, corr_by_frame, feature_files)
                if source), default=-1)
    if last < 0:
        raise InvalidInputError(f"bundle {paths.root} contains no frames")

    for frame in range(last + 1):
        fpath = feature_files.get(frame)
        features = read_feature_map(fpath.read_bytes()) if fpath is not None else None
        yield FrameInput(
            frame=frame,
            detections=dets_by_frame.get(frame, []),
            altitude=alt_by_frame.get(frame),
            correspondences=corr_by_frame.get(frame, []),
            features=features,
        )

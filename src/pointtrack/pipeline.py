"""Per-frame orchestration of the online tracker and sequence execution.

Frame order: gate from altitude, camera-motion estimate, Kalman predict +
affine correction, gated optimal assignment, match bookkeeping with the
classification gate, correlation-filter recovery of unmatched confirmed
tracks, births, miss handling, emission.

Every live track is one row of the tracker's ``lifecycle.TrackTable``, its
only per-track store. Each frame predicts (and carries through the camera
motion) the table's Kalman columns in one call, applies the match and miss
rules to row sets, corrects the matched rows in one call and the recovered
rows in another, and then drops the deleted rows and appends the births in
one step.
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
from .lifecycle import LifecycleConfig, TrackState, TrackTable, TrajectoryValidator, ValidationContext
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
        self.tracks = TrackTable.born(1, [], [], motion.init_state(np.zeros((0, 2)), self.config.motion))
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
        points = np.array([(d.x, d.y) for d in detections], dtype=float).reshape(-1, 2)
        result = solve_assignment(build_cost_matrix(self.tracks.mean[:, :2], points), gate)
        matched = self._handle_matches(result, points, frame_input)
        recovered = self._recover(result, frame_input, matched, gate)
        lifecycle.on_miss(self.tracks, result.unmatched_tracks, self.config.lifecycle)
        # a frame starts with no deleted row, so the deleted rows are exactly
        # this frame's deaths (by a miss or by the classification decision)
        deleted = self.tracks.state == TrackState.DELETED
        records = self._emit(frame, matched, recovered)
        # drop the deleted rows, append one tentative row per unmatched detection
        born = result.unmatched_detections
        self.tracks = self.tracks.keep_and_append(~deleted, TrackTable.born(
            self._next_id, points[born], [detections[dj].conf for dj in born],
            motion.init_state(points[born], self.config.motion)))
        self._next_id += len(born)
        births, deaths, recoveries = len(born), int(deleted.sum()), int(recovered.sum())

        self._prev_features = frame_input.features
        self._last_frame = frame
        summary = self.summary
        summary.births += births
        summary.deaths += deaths
        summary.recoveries += recoveries
        for r in records:
            first, _ = summary.lifespans.get(r.track_id, (frame, frame))
            summary.lifespans[r.track_id] = (first, frame)
        return FrameOutput(frame=frame, records=records, gate=gate, affine=affine,
                           births=births, deaths=deaths, recoveries=recoveries)

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
        kalman = motion.predict(KalmanState(self.tracks.mean, self.tracks.covariance), self.config.motion)
        if not affine.is_identity():
            kalman = motion.apply_affine(kalman, affine)
        self.tracks.mean, self.tracks.covariance = kalman.mean, kalman.covariance

    def _correct(self, rows: np.ndarray):
        """Correct the Kalman state of the given rows with their last_position."""
        tracks = self.tracks
        fixed = motion.update(KalmanState(tracks.mean[rows], tracks.covariance[rows]),
                              tracks.last_position[rows], self.config.motion)
        tracks.mean[rows], tracks.covariance[rows] = fixed.mean, fixed.covariance

    def _handle_matches(self, result: AssignmentResult, points: np.ndarray,
                        frame_input: FrameInput) -> np.ndarray:
        """Apply the match rule to the matched rows, maintain the filters of
        the confirmed ones and correct their Kalman states; returns the mask
        of matched rows."""
        tracks, detections = self.tracks, frame_input.detections
        rows = np.array([ti for ti, _, _ in result.matches], dtype=np.intp)
        dets = [dj for _, dj, _ in result.matches]
        probs = np.full(len(rows), np.nan)
        if self._cls_enabled:
            # only the rows inside the classification window are scored
            window = ((tracks.state[rows] != TrackState.CONFIRMED)
                      & lifecycle.classification_gate_active(tracks.hits[rows] + 1, self.config.lifecycle))
            for i in np.flatnonzero(window):
                det = detections[dets[i]]
                context = ValidationContext(frame_input.frame, np.array([det.x, det.y]), det.score,
                                            frame_input.features)
                try:
                    probs[i] = lifecycle.validate(self.validator, context)
                except lifecycle.ValidationUnavailableError:
                    pass  # no context for this detection, so no score
        lifecycle.on_match(tracks, rows, points[dets], [detections[dj].conf for dj in dets], probs,
                           self.config.lifecycle, classification_enabled=self._cls_enabled)
        self.summary.match_count += len(rows)
        for _, _, dist in result.matches:
            self.summary.match_distance_sum += dist
        if self.config.use_ddcf and frame_input.features is not None:
            for k in np.flatnonzero(tracks.state[rows] == TrackState.CONFIRMED).tolist():
                self._maintain_filter(rows[k], points[dets[k]], frame_input.features)
        self._correct(rows)
        matched = np.zeros(len(tracks), dtype=bool)
        matched[rows] = True
        return matched

    @staticmethod
    def _in_coverage(features: FeatureMap, position) -> bool:
        x, y = float(position[0]), float(position[1])
        return (0.0 <= x < features.width * features.stride
                and 0.0 <= y < features.height * features.stride)

    def _maintain_filter(self, row: int, point: np.ndarray, features: FeatureMap):
        if not self._in_coverage(features, point):
            return
        filters, dcf = self.tracks.filters, self.config.dcf
        try:
            patch = extract_patch(features, point, dcf.patch_cells)
            if filters[row] is None:
                filters[row] = train_filter(patch, dcf)
            else:
                filters[row] = update_filter(filters[row], patch, dcf)
        except InvalidInputError:
            pass  # degenerate patch; keep whatever model we had

    def _recover(self, result: AssignmentResult, frame_input: FrameInput,
                 matched: np.ndarray, gate: float) -> np.ndarray:
        """Re-localize the unmatched confirmed rows with their filters and
        correct the recovered ones; returns the mask of recovered rows."""
        tracks, cfg = self.tracks, self.config
        recovered = np.zeros(len(tracks), dtype=bool)
        if not cfg.use_ddcf or frame_input.features is None:
            return recovered
        # each track reads only its own predicted row, so the accepted
        # recoveries can all be applied in one update after the loop
        claimed = tracks.last_position[matched]  # this frame's matched detections
        unmatched = np.asarray(result.unmatched_tracks, dtype=np.intp)
        for ti in unmatched[tracks.state[unmatched] == TrackState.CONFIRMED].tolist():
            if tracks.filters[ti] is None and self._prev_features is not None:
                # no model yet: build it from the last measured position
                try:
                    patch = extract_patch(self._prev_features, tracks.last_position[ti],
                                          cfg.dcf.patch_cells)
                    tracks.filters[ti] = train_filter(patch, cfg.dcf)
                except InvalidInputError:
                    continue
            if tracks.filters[ti] is None:
                continue
            predicted = tracks.mean[ti, :2]
            if not self._in_coverage(frame_input.features, predicted):
                continue  # target outside the feature map; let it age out
            patch = extract_patch(frame_input.features, predicted, cfg.dcf.patch_cells)
            offset, psr = localize(tracks.filters[ti], patch)
            if psr < cfg.dcf.psr_min:
                continue
            point = patch.origin + offset
            if claimed.size and np.linalg.norm(claimed - point, axis=1).min() < gate:
                # the spot is explained by a detection or a recovery another
                # track already owns; recovering here would duplicate it
                continue
            tracks.last_position[ti] = point
            recovered[ti] = True
            claimed = np.vstack([claimed, point])
        self._correct(np.flatnonzero(recovered))
        return recovered

    def _emit(self, frame: int, matched: np.ndarray, recovered: np.ndarray) -> list[TrackRow]:
        """One record per confirmed row that was matched or recovered this
        frame, or per confirmed row with emit_coasted."""
        tracks = self.tracks
        rows = np.flatnonzero((tracks.state == TrackState.CONFIRMED)
                              & (matched | recovered | self.config.emit_coasted))
        # an object array hands out the shared source strings, not a copy per record
        sources = np.array([SOURCE_COASTED, SOURCE_DDCF, SOURCE_DETECTION], dtype=object)
        return [TrackRow(frame, *values) for values in zip(
            tracks.id[rows].tolist(), tracks.mean[rows, 0].tolist(), tracks.mean[rows, 1].tolist(),
            tracks.last_confidence[rows].tolist(), sources[2 * matched[rows] + recovered[rows]])]


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

"""Per-frame orchestration of the online tracker and sequence execution.

Frame order: gate from altitude, camera-motion estimate, Kalman predict +
affine correction, gated optimal assignment, match bookkeeping with the
classification gate, correlation-filter recovery of unmatched confirmed
tracks, births, miss handling, emission.

Every live track is one row of the tracker's ``lifecycle.TrackTable``, its
only per-track store. Each frame predicts (and carries through the camera
motion) the table's Kalman columns in one call, applies the match and miss
rules to row sets, corrects the matched and the recovered rows in one call,
and then drops the deleted rows and appends the births in one step.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lifecycle, motion
from .assignment import AssignmentResult, GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment
from .cmc import AffineTransform, RansacConfig, estimate_affine
from .ddcf import DcfConfig, FeatureMap, extract_patch, localize, train_filter, update_filter
from .errors import InvalidInputError, NoMotionEstimateError, SequencingError
from .formats import (
    CORRESPONDENCES, DETECTIONS, METADATA, SOURCE_COASTED, SOURCE_DDCF, SOURCE_DETECTION, TRACKS,
    CorrespondenceRow, Detection, SequenceBundlePaths, TrackRow, read_feature_map,
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
    """One frame's input as columns: the detections' points (k, 2), conf
    (k,) and score (k,), or None when they carry no score column; and the
    background correspondences (m, 4) as prev_x, prev_y, cur_x, cur_y.
    Detection rows keep their file order, which sets assignment ties and the
    order of births."""

    frame: int
    points: np.ndarray = ()
    conf: np.ndarray = ()
    score: np.ndarray | None = None
    altitude: float | None = None
    correspondences: np.ndarray = ()
    features: FeatureMap | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.conf = np.asarray(self.conf, dtype=float)
        if self.score is not None:
            self.score = np.asarray(self.score, dtype=float)
        if self.conf.shape != (len(self.points),) or (self.score is not None
                                                      and self.score.shape != self.conf.shape):
            raise InvalidInputError(f"frame {self.frame}: {len(self.points)} points need as many "
                                    "conf and score values")
        self.correspondences = np.asarray(self.correspondences, dtype=float).reshape(-1, 4)

    @classmethod
    def from_rows(cls, frame: int, detections: list[Detection] = (), altitude: float | None = None,
                  correspondences: list[CorrespondenceRow] = (),
                  features: FeatureMap | None = None) -> "FrameInput":
        """A FrameInput from formats.Detection and CorrespondenceRow rows;
        their frame fields are not read. score is None when no row sets
        one, and NaN for a row without one beside rows with one."""
        _, x, y, conf, score = DETECTIONS.to_columns(list(detections))
        corr = CORRESPONDENCES.to_columns(list(correspondences))[1:]
        return cls(frame, np.column_stack([x, y]), conf, score, altitude, np.column_stack(corr), features)


@dataclass
class FrameOutput:
    frame: int
    records: list[TrackRow]
    gate: float
    affine: AffineTransform
    births: int
    deaths: int
    recoveries: int
    match_distances: np.ndarray  # (m,) this frame's matched track-to-detection distances, px


@dataclass(frozen=True)
class SequenceSummary:
    births: int = 0
    deaths: int = 0
    recoveries: int = 0
    trajectory_count: int = 0
    mean_match_distance: float = 0.0


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
        # the checks of the detections table, written so that NaN fails them;
        # they run before any track moves, so a rejected frame changes nothing
        points, conf, score = frame_input.points, frame_input.conf, frame_input.score
        bad = ~(np.isfinite(points).all(axis=1) & (conf >= 0.0) & (conf <= 1.0))
        if score is not None:
            bad |= ~((score >= 0.0) & (score <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidInputError(f"frame {frame}: detection {i} (x, y {points[i].tolist()}, conf "
                                    f"{conf[i]!r}, score {None if score is None else score[i]!r}) needs "
                                    "finite x and y and conf and score in [0, 1]")

        gate = self._gate(frame_input)
        affine = self._camera_motion(frame_input)
        self._predict(affine)

        result = solve_assignment(build_cost_matrix(self.tracks.mean[:, :2], points, gate), gate)
        matched, distances = self._handle_matches(result, points, frame_input)
        recovered = self._recover(result, frame_input, matched, gate)
        # _recover reads only the predicted means of unmatched rows, so the
        # matched rows are corrected with the recovered ones in one call
        self._correct(np.flatnonzero(matched | recovered))
        lifecycle.on_miss(self.tracks, result.unmatched_tracks, self.config.lifecycle)
        # a frame starts with no deleted row, so the deleted rows are exactly
        # this frame's deaths (by a miss or by the classification decision)
        deleted = self.tracks.state == TrackState.DELETED
        records = self._emit(frame, matched, recovered)
        # drop the deleted rows, append one tentative row per unmatched detection
        born = result.unmatched_detections
        self.tracks = self.tracks.keep_and_append(~deleted, TrackTable.born(
            self._next_id, points[born], conf[born],
            motion.init_state(points[born], self.config.motion)))
        self._next_id += len(born)

        self._prev_features = frame_input.features
        self._last_frame = frame
        return FrameOutput(frame, records, gate, affine, births=len(born), deaths=int(deleted.sum()),
                           recoveries=int(recovered.sum()), match_distances=distances)

    # --- pipeline steps ---

    def _gate(self, frame_input: FrameInput) -> float:
        if not self.config.use_alt:
            return self.config.gating.base_radius
        altitude = frame_input.altitude
        if altitude is None:
            altitude = self.config.gating.reference_altitude
        return dynamic_threshold(altitude, self.config.gating)

    def _camera_motion(self, frame_input: FrameInput) -> AffineTransform:
        if not self.config.use_cmc or not len(frame_input.correspondences):
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
                        frame_input: FrameInput) -> tuple[np.ndarray, np.ndarray]:
        """Apply the match rule to the matched rows and maintain the filters
        of the confirmed ones; returns the matched-row mask and distances."""
        tracks, score = self.tracks, frame_input.score
        matches = np.array(result.matches, dtype=float).reshape(-1, 3)
        rows, dets = matches[:, :2].astype(np.intp).T
        probs = np.full(len(rows), np.nan)
        if self._cls_enabled:
            # only the rows inside the classification window are scored
            window = ((tracks.state[rows] != TrackState.CONFIRMED)
                      & lifecycle.classification_gate_active(tracks.hits[rows] + 1, self.config.lifecycle))
            for i, dj in zip(np.flatnonzero(window).tolist(), dets[window].tolist()):
                context = ValidationContext(frame_input.frame, points[dj],
                                            None if score is None else float(score[dj]),
                                            frame_input.features)
                try:
                    probs[i] = lifecycle.validate(self.validator, context)
                except lifecycle.ValidationUnavailableError:
                    pass  # no context for this detection, so no score
        lifecycle.on_match(tracks, rows, points[dets], frame_input.conf[dets], probs,
                           self.config.lifecycle, classification_enabled=self._cls_enabled)
        if self.config.use_ddcf and frame_input.features is not None:
            for k in np.flatnonzero(tracks.state[rows] == TrackState.CONFIRMED).tolist():
                self._maintain_filter(rows[k], points[dets[k]], frame_input.features)
        matched = np.zeros(len(tracks), dtype=bool)
        matched[rows] = True
        return matched, matches[:, 2]

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
        """Re-localize the unmatched confirmed rows with their filters; returns
        the mask of recovered rows, whose last_position it sets."""
        tracks, cfg = self.tracks, self.config
        recovered = np.zeros(len(tracks), dtype=bool)
        if not cfg.use_ddcf or frame_input.features is None:
            return recovered
        # each track reads only its own predicted row, so the accepted
        # recoveries can all be corrected after the loop
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
            try:
                offset, psr = localize(tracks.filters[ti], patch)
            except InvalidInputError:
                continue  # an all-zero patch holds no target
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

    def to_trajectories(self) -> TrajectorySet:
        *columns, _ = TRACKS.to_columns([r for out in self.outputs for r in out.records])
        return TrajectorySet(*columns)

    @cached_property
    def summary(self) -> SequenceSummary:
        distances = np.concatenate([np.zeros(0)] + [out.match_distances for out in self.outputs])
        return SequenceSummary(
            births=sum(out.births for out in self.outputs),
            deaths=sum(out.deaths for out in self.outputs),
            recoveries=sum(out.recoveries for out in self.outputs),
            trajectory_count=len(self.to_trajectories()),
            mean_match_distance=float(distances.mean()) if len(distances) else 0.0)


def run_sequence(frame_inputs, config: TrackerConfig | None = None,
                 validator: TrajectoryValidator | None = None) -> SequenceResult:
    """Stream a whole ordered sequence through a fresh tracker."""
    tracker = PointTracker(config, validator)
    outputs = [tracker.process_frame(frame_input) for frame_input in frame_inputs]
    if not outputs:
        raise InvalidInputError("empty frame sequence")
    return SequenceResult(outputs)


def _by_frame(frame: np.ndarray, *columns):
    """The frame column and each column (None stays None) in one stable
    order by frame, so that every frame keeps its file row order."""
    order = np.argsort(frame, kind="stable")
    return [frame[order]] + [None if c is None else c[order] for c in columns]


def frame_inputs_from_bundle(paths: SequenceBundlePaths):
    """Generate FrameInputs from a bundle directory, features loaded lazily.
    Each table is parsed into columns once; a frame's detections and
    correspondences are slices of them."""
    det_frame, x, y, conf, score = DETECTIONS.parse_columns(paths.detections.read_text())
    det_frame, points, conf, score = _by_frame(det_frame, np.column_stack([x, y]), conf, score)

    alt_by_frame: dict[int, float] = {}
    if paths.metadata is not None:
        alt_frame, altitude = METADATA.parse_columns(paths.metadata.read_text())
        alt_by_frame = dict(zip(alt_frame.tolist(), altitude.tolist()))

    corr_frame, corr = np.zeros(0, dtype=np.int64), np.zeros((0, 4))
    if paths.correspondences is not None:
        corr_frame, *cells = CORRESPONDENCES.parse_columns(paths.correspondences.read_text())
        corr_frame, corr = _by_frame(corr_frame, np.column_stack(cells))

    feature_files = paths.feature_files()
    last = max([int(f[-1]) for f in (det_frame, corr_frame) if len(f)] + list(alt_by_frame)
               + list(feature_files), default=-1)
    if last < 0:
        raise InvalidInputError(f"bundle {paths.root} contains no frames")

    for frame in range(last + 1):
        d0, d1 = np.searchsorted(det_frame, (frame, frame + 1)).tolist()
        c0, c1 = np.searchsorted(corr_frame, (frame, frame + 1)).tolist()
        fpath = feature_files.get(frame)
        yield FrameInput(
            frame=frame,
            points=points[d0:d1],
            conf=conf[d0:d1],
            score=None if score is None else score[d0:d1],
            altitude=alt_by_frame.get(frame),
            correspondences=corr[c0:c1],
            features=read_feature_map(fpath.read_bytes()) if fpath is not None else None,
        )

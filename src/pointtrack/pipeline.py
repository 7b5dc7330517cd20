"""Per-frame orchestration of the online tracker and sequence execution.

Frame order: gate from altitude, camera-motion estimate, Kalman predict +
affine correction, gated optimal assignment, match bookkeeping with the
classification gate, correlation-filter recovery of unmatched confirmed
tracks, births, miss handling, emission.

Every live track is one row of the tracker's ``lifecycle.TrackTable``; the
table, the next id and the last frame are the tracker's whole state, so no
feature map outlives its frame. Each frame predicts (and carries through the
camera motion) the table's Kalman columns in one call, applies the match and
miss rules to row sets, corrects the matched and the recovered rows in one
call, then drops the ended rows and appends the births in one step.
"""

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lifecycle, motion
from .assignment import AssignmentResult, GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment
from .cmc import AffineTransform, RansacConfig, estimate_affine
from .ddcf import DcfConfig, FeatureMap, extract_patch, localize, train_filter, update_filter
from .errors import InvalidInputError, NoMotionEstimateError, SequencingError
from .formats import (
    CORRESPONDENCES, DETECTIONS, METADATA, SOURCE_COASTED, SOURCE_DDCF, SOURCE_DETECTION, TRACKS,
    CorrespondenceRow, Detection, SequenceBundlePaths, TrackRow, column_fault, read_feature_map,
)
from .lifecycle import LifecycleConfig, TrackTable, TrajectoryValidator, ValidationContext
from .metrics import TrajectorySet
from .motion import KalmanState, MotionConfig

logger = logging.getLogger(__name__)

# A matched confirmed track's filter is updated only on every 4th frame, at
# the per-frame learning rate compounded over the interval, so the model's
# memory per frame is kept: the sparse model updates of ECO (Danelljan et
# al., "ECO: Efficient Convolution Operators for Tracking", CVPR 2017). 4 is
# the largest interval that kept the ablation ladder; 6 worsened it.
DCF_UPDATE_INTERVAL = 4


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
        self.points = self._array("points", self.points, (-1, 2))
        self.conf = self._array("conf", self.conf, (len(self.points),))
        if self.score is not None:
            self.score = self._array("score", self.score, (len(self.points),))
        self.correspondences = self._array("correspondences", self.correspondences, (-1, 4))

    def _array(self, name: str, values, shape: tuple) -> np.ndarray:
        """values as a float array of shape, in which -1 stands for any
        length and an empty input has no rows; else InvalidInputError."""
        try:
            array = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError(f"frame {self.frame}: {name} is not an array of numbers") from None
        if array.size == 0:
            array = array.reshape(0, *shape[1:])
        if array.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, array.shape)):
            raise InvalidInputError(f"frame {self.frame}: {name} has shape {array.shape}, expected {shape}")
        return array

    @classmethod
    def from_rows(cls, frame: int, detections: list[Detection] = (), altitude: float | None = None,
                  correspondences: list[CorrespondenceRow] = (),
                  features: FeatureMap | None = None) -> "FrameInput":
        """A FrameInput from formats.Detection and CorrespondenceRow rows;
        their frame fields are not read. score is None when no row sets
        one, and NaN for a row without one beside rows with one, which
        process_frame rejects as DETECTIONS.write does."""
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
        # classification runs exactly when the tracker keeps a validator
        self.validator = validator if self.config.use_cls else None
        self.tracks = TrackTable.born(1, [], [], motion.init_state(np.zeros((0, 2)), self.config.motion))
        self._next_id = 1
        self._last_frame: int | None = None
        # every filter is trained with this config, so update_filter blends
        # at the compounded rate
        eta = self.config.dcf.learning_rate
        self._dcf = replace(self.config.dcf, learning_rate=1.0 - (1.0 - eta) ** DCF_UPDATE_INTERVAL)

    def process_frame(self, frame_input: FrameInput) -> FrameOutput:
        frame = frame_input.frame
        if self._last_frame is not None and frame != self._last_frame + 1:
            raise SequencingError(
                f"frame {frame} does not follow frame {self._last_frame}")
        if self._last_frame is None and frame < 0:
            raise SequencingError(f"negative frame index {frame}")
        # the detections table's column rule, in which NaN fails; it runs
        # before any track moves, so a rejected frame changes nothing
        points, conf, score = frame_input.points, frame_input.conf, frame_input.score
        for name, column in zip(DETECTIONS.columns[1:], (*points.T, conf, score)):
            fault = None if column is None else column_fault(name, column)
            if fault:
                raise InvalidInputError(f"frame {frame}: detection {fault[0]}: {fault[1]}")

        gate = self._gate(frame_input)
        affine = self._camera_motion(frame_input)
        self._predict(affine)

        result = solve_assignment(build_cost_matrix(self.tracks.mean[:, :2], points, gate), gate)
        matched, rejected = self._handle_matches(result, points, frame_input)
        recovered = self._recover(result, frame_input, matched, gate)
        # _recover reads only the predicted means of unmatched rows, so the
        # matched rows are corrected with the recovered ones in one call
        self._correct(np.flatnonzero(matched | recovered))
        # this frame's deaths: by the classification decision or by a miss
        deleted = np.zeros(len(self.tracks), dtype=bool)
        deleted[rejected] = True
        deleted[lifecycle.on_miss(self.tracks, result.unmatched_tracks, self.config.lifecycle)] = True
        records = self._emit(frame, matched, recovered, deleted)
        # drop the deleted rows, append one tentative row per unmatched detection
        born = result.unmatched_detections
        self.tracks = self.tracks.keep_and_append(~deleted, TrackTable.born(
            self._next_id, points[born], conf[born],
            motion.init_state(points[born], self.config.motion)))
        self._next_id += len(born)

        self._last_frame = frame
        return FrameOutput(frame, records, gate, affine, births=len(born), deaths=int(deleted.sum()),
                           recoveries=int(recovered.sum()), match_distances=result.distances)

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
        of the confirmed ones; returns the matched-row mask and the rows the
        classification decision ended."""
        tracks, score = self.tracks, frame_input.score
        rows, dets = result.matches.T
        probs = None if self.validator is None else np.full(len(rows), np.nan)
        if probs is not None:
            # only the rows inside the classification window are scored
            window = (~tracks.confirmed[rows]
                      & lifecycle.classification_gate_active(tracks.hits[rows] + 1, self.config.lifecycle))
            for i, dj in zip(np.flatnonzero(window).tolist(), dets[window].tolist()):
                context = ValidationContext(frame_input.frame, points[dj],
                                            None if score is None else float(score[dj]),
                                            frame_input.features)
                try:
                    probs[i] = lifecycle.validate(self.validator, context)
                except lifecycle.ValidationUnavailableError:
                    pass  # no context for this detection, so no score
        rejected = lifecycle.on_match(tracks, rows, points[dets], frame_input.conf[dets], probs,
                                      self.config.lifecycle)
        features = frame_input.features
        if self.config.use_ddcf and features is not None:
            # a first filter is fitted wherever the match lies: the patch edge-replicates
            update = frame_input.frame % DCF_UPDATE_INTERVAL == 0
            for k in np.flatnonzero(tracks.confirmed[rows]).tolist():
                row, point = rows[k], points[dets[k]]
                if tracks.filters[row] is None or (update and self._in_coverage(features, point)):
                    self._fit_filter(row, features, point)
        matched = np.zeros(len(tracks), dtype=bool)
        matched[rows] = True
        return matched, rejected

    @staticmethod
    def _in_coverage(features: FeatureMap, position) -> bool:
        x, y = float(position[0]), float(position[1])
        return (0.0 <= x < features.width * features.stride
                and 0.0 <= y < features.height * features.stride)

    def _fit_filter(self, row: int, features: FeatureMap, point: np.ndarray):
        """Train the row's filter on the patch of features around point, or
        update the filter it has with that patch."""
        filters, dcf = self.tracks.filters, self._dcf
        try:
            patch = extract_patch(features, point, dcf.patch_cells)
            if filters[row] is None:
                filters[row] = train_filter(patch, dcf)
            else:
                filters[row] = update_filter(filters[row], patch)
        except InvalidInputError:
            pass  # degenerate patch; keep whatever model we had

    def _recover(self, result: AssignmentResult, frame_input: FrameInput,
                 matched: np.ndarray, gate: float) -> np.ndarray:
        """Re-localize the unmatched confirmed rows that have a filter, training
        none; returns the mask of recovered rows, whose last_position it sets."""
        tracks, cfg = self.tracks, self.config
        recovered = np.zeros(len(tracks), dtype=bool)
        if not cfg.use_ddcf or frame_input.features is None:
            return recovered
        # each track reads only its own predicted row, so the accepted
        # recoveries can all be corrected after the loop
        claimed = tracks.last_position[matched]  # this frame's matched detections
        unmatched = result.unmatched_tracks
        for ti in unmatched[tracks.confirmed[unmatched]].tolist():
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

    def _emit(self, frame: int, matched: np.ndarray, recovered: np.ndarray,
              deleted: np.ndarray) -> list[TrackRow]:
        """One record per confirmed row not deleted this frame that was
        matched or recovered, or per such row with emit_coasted."""
        tracks = self.tracks
        rows = np.flatnonzero(tracks.confirmed & ~deleted & (matched | recovered | self.config.emit_coasted))
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

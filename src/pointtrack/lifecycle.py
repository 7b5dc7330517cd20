"""Track lifecycle: birth, classification-gated confirmation, miss handling.

A track is born Tentative from an unmatched detection. Shortly before it
reaches the minimum trajectory length its surroundings start being scored
by a pluggable validator; it is confirmed only when it is old enough AND
the running mean of those scores clears the confirmation threshold. With
no validator configured, confirmation falls back to the age rule alone.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .ddcf import CorrelationFilter, FeatureMap, MIN_PATCH_CELLS, extract_patch
from .errors import ConfigError, InvalidInputError, ValidationUnavailableError


class TrackState(enum.Enum):
    TENTATIVE = "tentative"
    PENDING_CLASSIFICATION = "pending"
    CONFIRMED = "confirmed"
    DELETED = "deleted"


@dataclass(frozen=True)
class LifecycleConfig:
    min_hits: int = 30                  # matched frames required for confirmation
    max_age: int = 60                   # misses a confirmed track survives
    cls_lead: int = 3                   # classification starts this many hits early
    cls_confirm_threshold: float = 0.8  # mean validator score must exceed this
    tentative_miss_tolerance: int = 3
    pending_fail_patience: int = 10     # failed post-min_hits evaluations before termination

    def __post_init__(self):
        if not self.min_hits > self.cls_lead >= 0:
            raise ConfigError("need min_hits > cls_lead >= 0")
        if self.max_age <= 0:
            raise ConfigError("max_age must be > 0")
        if not (0.0 < self.cls_confirm_threshold < 1.0):
            raise ConfigError("cls_confirm_threshold must be in (0, 1)")
        if self.tentative_miss_tolerance < 0:
            raise ConfigError("tentative_miss_tolerance must be >= 0")
        if self.pending_fail_patience < 1:
            raise ConfigError("pending_fail_patience must be >= 1")


@dataclass
class Track:
    """One hypothesised object, owned and mutated by a single pipeline. Its
    Kalman state is a row of the pipeline's table, not a field."""

    track_id: int
    last_position: np.ndarray          # px, last measured or recovered point
    state: TrackState = TrackState.TENTATIVE
    hits: int = 1                      # matched frames since birth
    consecutive_misses: int = 0
    cls_scores: list[float] = field(default_factory=list)
    pending_failures: int = 0          # consecutive failed confirmations past min_hits
    last_confidence: float = 0.0
    filter: CorrelationFilter | None = None

    @property
    def is_confirmed(self) -> bool:
        return self.state is TrackState.CONFIRMED

    @property
    def is_deleted(self) -> bool:
        return self.state is TrackState.DELETED


class TrajectoryValidator:
    """Scores how likely a track's surroundings contain a real object.

    Implementations return a probability in [0, 1] and raise
    ValidationUnavailableError when they have no context for the query.
    """

    def score(self, context: "ValidationContext") -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ValidationContext:
    """Everything a validator may look at for one matched frame."""

    frame: int
    position: np.ndarray                  # image px
    detection_score: float | None = None  # per-detection score from the input file
    features: FeatureMap | None = None


class ScoreColumnValidator(TrajectoryValidator):
    """Passes through the classifier score ingested with each detection."""

    def score(self, context: ValidationContext) -> float:
        if context.detection_score is None:
            raise ValidationUnavailableError("detection carries no score column")
        return float(context.detection_score)


class FeatureEnergyValidator(TrajectoryValidator):
    """Logistic score of the mean channel energy in a small feature patch.

    A crude stand-in for a learned classifier: real objects light up the
    feature map around their position, background does not. offset/scale
    calibrate the logistic to the feature statistics of the source.
    """

    def __init__(self, offset: float = 0.2, scale: float = 0.05,
                 patch_cells: int = MIN_PATCH_CELLS):
        if scale <= 0:
            raise ConfigError("scale must be > 0")
        self.offset = offset
        self.scale = scale
        self.patch_cells = patch_cells

    def score(self, context: ValidationContext) -> float:
        if context.features is None:
            raise ValidationUnavailableError("no feature map for this frame")
        patch = extract_patch(context.features, context.position, self.patch_cells)
        energy = float(np.mean(np.linalg.norm(patch.data, axis=2)))
        return float(1.0 / (1.0 + np.exp(-(energy - self.offset) / self.scale)))


class OracleValidator(TrajectoryValidator):
    """Ground-truth lookup for synthetic scenarios: 1.0 near a true object,
    0.0 otherwise. Only meaningful where ground truth exists."""

    def __init__(self, gt_points_by_frame: dict[int, np.ndarray], radius: float = 10.0):
        self.gt_points_by_frame = gt_points_by_frame
        self.radius = radius

    def score(self, context: ValidationContext) -> float:
        pts = self.gt_points_by_frame.get(context.frame)
        if pts is None or len(pts) == 0:
            return 0.0
        d = np.linalg.norm(np.asarray(pts, dtype=float) - context.position, axis=1)
        return 1.0 if float(d.min()) <= self.radius else 0.0


def validate(validator: TrajectoryValidator, context: ValidationContext) -> float:
    """Run a validator and enforce the probability contract."""
    p = validator.score(context)
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise InvalidInputError(f"validator returned {p!r}, expected probability in [0, 1]")
    return float(p)


def classification_gate_active(hits: int, config: LifecycleConfig) -> bool:
    """Whether a track is old enough for its surroundings to be classified."""
    return hits >= config.min_hits - config.cls_lead


def on_match(track: Track, measurement, confidence: float,
             validator_prob: float | None, config: LifecycleConfig,
             classification_enabled: bool = True) -> Track:
    """Fold a gated, assigned detection into the track's bookkeeping; the
    caller corrects the track's Kalman state with the same measurement.

    validator_prob is the classifier score for this frame's surroundings
    (None when classification is off or no context was available).
    """
    if validator_prob is not None and not (0.0 <= validator_prob <= 1.0):
        raise InvalidInputError(f"validator probability {validator_prob!r} outside [0, 1]")
    track.hits += 1
    track.consecutive_misses = 0
    track.last_position = np.asarray(measurement, dtype=float).reshape(2)
    track.last_confidence = float(confidence)

    if track.state is TrackState.CONFIRMED:
        return track

    if not classification_enabled:
        if track.hits >= config.min_hits:
            track.state = TrackState.CONFIRMED
        return track

    gate_active = classification_gate_active(track.hits, config)
    if track.state is TrackState.TENTATIVE and gate_active and validator_prob is not None:
        track.state = TrackState.PENDING_CLASSIFICATION
    if track.state is TrackState.PENDING_CLASSIFICATION:
        if validator_prob is not None:
            track.cls_scores.append(float(validator_prob))
        # once old enough, each matched frame confirms the track or counts
        # one failure toward the patience budget
        if track.hits >= config.min_hits:
            if float(np.mean(track.cls_scores)) > config.cls_confirm_threshold:
                track.state = TrackState.CONFIRMED
            else:
                track.pending_failures += 1
                if track.pending_failures >= config.pending_fail_patience:
                    track.state = TrackState.DELETED
    return track


def on_miss(track: Track, config: LifecycleConfig) -> None:
    """Register a frame without a gated detection; maybe delete the track."""
    track.consecutive_misses += 1
    over_tentative = (track.state is not TrackState.CONFIRMED
                      and track.consecutive_misses > config.tentative_miss_tolerance)
    over_age = track.consecutive_misses > config.max_age
    if over_tentative or over_age:
        track.state = TrackState.DELETED

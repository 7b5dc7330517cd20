"""Track lifecycle: birth, classification-gated confirmation, miss handling.

A track is born tentative from an unmatched detection. Shortly before it
reaches the minimum trajectory length its surroundings start being scored
by a pluggable validator, and from its first score on it is pending
classification. It is confirmed only when it is old enough AND the running
mean of those scores clears the confirmation threshold. With classification
off, confirmation falls back to the age rule alone.

A tracker keeps every live track as one row of a TrackTable, whose
confirmed flag and score count (cls_count) hold this state. on_match and
on_miss apply these rules to a set of rows at once and return the rows
they end.
"""

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .ddcf import FeatureMap, MIN_PATCH_CELLS, extract_patch
from .errors import ConfigError, InvalidInputError, ValidationUnavailableError
from .motion import KalmanState


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


@dataclass(eq=False)
class TrackTable:
    """Every live track of one tracker, one row each, in birth order. The
    lifecycle rules and the pipeline update the columns in place; once a
    frame the pipeline replaces the table, dropping the rows the rules
    ended and appending the births."""

    id: np.ndarray                # (n,) int, strictly increasing
    mean: np.ndarray              # (n, 4) Kalman mean [x, y, vx, vy]
    covariance: np.ndarray        # (n, 4, 4) Kalman covariance
    last_position: np.ndarray     # (n, 2) px, last measured or recovered point
    last_confidence: np.ndarray   # (n,)
    confirmed: np.ndarray         # (n,) bool, set once and never cleared
    hits: np.ndarray              # (n,) matched frames since birth, never falls
    misses: np.ndarray            # (n,) consecutive frames without a match
    pending_failures: np.ndarray  # (n,) consecutive failed confirmations past min_hits
    cls_sum: np.ndarray           # (n,) float, sum of the row's validator scores
    cls_count: np.ndarray         # (n,) int, number of the row's validator scores;
                                  # > 0 on an unconfirmed row means pending classification
    filters: np.ndarray           # (n,) object: CorrelationFilter or None

    @classmethod
    def born(cls, first_id: int, points, confidences, kalman: KalmanState) -> "TrackTable":
        """Tentative tracks with ids first_id, first_id + 1, ..., one per
        detected point, each starting from its row of kalman."""
        n = len(kalman.mean)
        return cls(np.arange(first_id, first_id + n), kalman.mean, kalman.covariance,
                   np.asarray(points, dtype=float).reshape(n, 2), np.asarray(confidences, dtype=float),
                   np.zeros(n, dtype=bool), np.ones(n, dtype=int),
                   np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.zeros(n), np.zeros(n, dtype=int),
                   np.full(n, None, dtype=object))

    def __len__(self) -> int:
        return len(self.id)

    def keep_and_append(self, keep: np.ndarray, born: "TrackTable") -> "TrackTable":
        """The rows where keep is true, followed by the rows of born."""
        return TrackTable(*(np.concatenate([getattr(self, f.name)[keep], getattr(born, f.name)])
                            for f in fields(self)))


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
    """Run a validator and enforce the probability contract (NaN fails it)."""
    p = validator.score(context)
    if not (isinstance(p, numbers.Real) and 0.0 <= p <= 1.0):
        raise InvalidInputError(f"validator returned {p!r}, expected a probability in [0, 1]")
    return float(p)


def classification_gate_active(hits: int, config: LifecycleConfig) -> bool:
    """Whether a track is old enough for its surroundings to be classified."""
    return hits >= config.min_hits - config.cls_lead


def on_match(tracks: TrackTable, rows, points, confidences, probs, config: LifecycleConfig) -> np.ndarray:
    """Fold each row's gated, assigned detection (its point and confidence)
    into the row's bookkeeping; the caller corrects the rows' Kalman states
    with the same points. rows are distinct.

    probs holds each row's classifier score for this frame's surroundings,
    NaN where there is none (no context available); probs=None means
    classification is off, and rows are confirmed by age alone.
    Returns the rows whose pending_fail_patience ran out this frame, which
    the classification decision ends, as an ascending integer array.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if probs is not None:
        probs = np.asarray(probs, dtype=float).reshape(len(rows))
        scored = ~np.isnan(probs)
        bad = scored & ~((probs >= 0.0) & (probs <= 1.0))
        if bad.any():
            raise InvalidInputError(f"validator probability {probs[bad][0]!r} outside [0, 1]")
    hits = tracks.hits[rows] + 1
    tracks.hits[rows] = hits
    tracks.misses[rows] = 0
    tracks.last_position[rows] = np.asarray(points, dtype=float).reshape(len(rows), 2)
    tracks.last_confidence[rows] = confidences

    unconfirmed = ~tracks.confirmed[rows]
    if probs is None:
        tracks.confirmed[rows[unconfirmed & (hits >= config.min_hits)]] = True
        return np.zeros(0, dtype=np.intp)
    # an unconfirmed row takes each score from its gate on; hits never fall,
    # so a row that holds a score has an active gate and is pending
    adding = unconfirmed & scored & classification_gate_active(hits, config)
    tracks.cls_sum[rows[adding]] += probs[adding]
    tracks.cls_count[rows[adding]] += 1
    # once old enough, each matched frame confirms a pending row or counts
    # one failure toward the patience budget
    deciding = rows[unconfirmed & (hits >= config.min_hits)]
    deciding = deciding[tracks.cls_count[deciding] > 0]
    passed = tracks.cls_sum[deciding] / tracks.cls_count[deciding] > config.cls_confirm_threshold
    tracks.confirmed[deciding[passed]] = True
    failed = deciding[~passed]
    tracks.pending_failures[failed] += 1
    return np.sort(failed[tracks.pending_failures[failed] >= config.pending_fail_patience])


def on_miss(tracks: TrackTable, rows, config: LifecycleConfig) -> np.ndarray:
    """Register a frame without a gated detection for each of the (distinct)
    rows. Returns the rows past their miss budget, more than max_age misses
    or, unconfirmed, more than tentative_miss_tolerance, as an ascending
    integer array."""
    rows = np.asarray(rows, dtype=np.intp)
    misses = tracks.misses[rows] + 1
    tracks.misses[rows] = misses
    over_tentative = ~tracks.confirmed[rows] & (misses > config.tentative_miss_tolerance)
    return np.sort(rows[over_tentative | (misses > config.max_age)])

import numpy as np
import pytest

from pointtrack.ddcf import FeatureMap
from pointtrack.errors import ConfigError, InvalidInputError, ValidationUnavailableError
from pointtrack.lifecycle import (
    FeatureEnergyValidator, LifecycleConfig, OracleValidator,
    ScoreColumnValidator, Track, TrackState, ValidationContext,
    classification_gate_active, on_match, on_miss, validate,
)

CFG = LifecycleConfig()


def make_track(pos=(0.0, 0.0), **kwargs) -> Track:
    return Track(track_id=1, last_position=np.array(pos, dtype=float), **kwargs)


def match(track, pos=(0.0, 0.0), prob=None, cls=True, conf=0.9):
    return on_match(track, pos, conf, prob, CFG, classification_enabled=cls)


class TestClassificationGate:
    def test_activation_point(self):
        assert classification_gate_active(27, CFG) is True

    def test_below(self):
        assert classification_gate_active(26, CFG) is False

    def test_boundary_small_config(self):
        cfg = LifecycleConfig(min_hits=5, cls_lead=3)
        assert classification_gate_active(2, cfg) is True
        assert classification_gate_active(1, cfg) is False


class TestConfirmDecision:
    """The pending branch of on_match: each matched frame past min_hits
    confirms the track or counts one failure toward the patience budget."""

    def test_confirm(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=29, cls_scores=[0.9])
        match(t, prob=0.9)
        assert t.hits == 30
        assert t.state is TrackState.CONFIRMED

    def test_keep_pending_before_min_hits(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=27, cls_scores=[0.95])
        match(t, prob=0.95)
        assert t.state is TrackState.PENDING_CLASSIFICATION
        assert t.pending_failures == 0

    def test_terminate_after_patience(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=29,
                       cls_scores=[0.5], pending_failures=9)
        match(t, prob=0.5)
        assert t.pending_failures == 10
        assert t.is_deleted

    def test_threshold_is_strict(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=29, cls_scores=[0.8])
        match(t, prob=0.8)
        assert t.state is TrackState.PENDING_CLASSIFICATION
        assert t.pending_failures == 1


class TestOnMatch:
    def test_gate_activation_transitions_state(self):
        t = make_track(hits=26)
        match(t, prob=1.0)
        assert t.hits == 27
        assert t.state is TrackState.PENDING_CLASSIFICATION
        assert t.cls_scores == [1.0]

    def test_confirmed_is_absorbing(self):
        t = make_track(state=TrackState.CONFIRMED, hits=40, consecutive_misses=2)
        match(t, prob=None)
        assert t.state is TrackState.CONFIRMED
        assert t.consecutive_misses == 0

    def test_thirty_clean_matches_confirm_at_thirty(self):
        t = make_track(hits=1)
        for k in range(2, 31):
            match(t, prob=1.0)
            assert t.hits == k
            if k < 30:
                assert not t.is_confirmed
        assert t.state is TrackState.CONFIRMED

    def test_no_transition_without_score(self):
        t = make_track(hits=26)
        match(t, prob=None)
        assert t.state is TrackState.TENTATIVE

    def test_low_scores_terminate_after_patience(self):
        t = make_track(hits=26)
        for _ in range(3 + 10):
            match(t, prob=0.2)
            if t.is_deleted:
                break
        assert t.is_deleted

    def test_classification_disabled_confirms_on_hits(self):
        t = make_track(hits=29)
        match(t, prob=None, cls=False)
        assert t.state is TrackState.CONFIRMED
        assert t.cls_scores == []

    def test_invalid_probability(self):
        t = make_track(hits=27)
        with pytest.raises(InvalidInputError):
            match(t, prob=1.5)

    def test_misses_reset(self):
        t = make_track(hits=5, consecutive_misses=2)
        match(t)
        assert t.consecutive_misses == 0


class TestOnMiss:
    def test_confirmed_deleted_past_max_age(self):
        t = make_track(state=TrackState.CONFIRMED, hits=100, consecutive_misses=60)
        on_miss(t, CFG)
        assert t.consecutive_misses == 61
        assert t.is_deleted

    def test_tentative_tolerance(self):
        t = make_track(hits=2, consecutive_misses=3)
        on_miss(t, CFG)
        assert t.is_deleted

    def test_confirmed_kept_below_max_age(self):
        t = make_track(state=TrackState.CONFIRMED, hits=100, consecutive_misses=10)
        on_miss(t, CFG)
        assert not t.is_deleted

    def test_pending_uses_tentative_tolerance(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=28,
                       cls_scores=[0.9], consecutive_misses=3)
        on_miss(t, CFG)
        assert t.is_deleted


class TestValidators:
    def test_score_column(self):
        v = ScoreColumnValidator()
        ctx = ValidationContext(frame=0, position=np.zeros(2), detection_score=0.7)
        assert validate(v, ctx) == 0.7
        with pytest.raises(ValidationUnavailableError):
            validate(v, ValidationContext(frame=0, position=np.zeros(2)))

    def test_oracle_on_and_off_target(self):
        v = OracleValidator({3: np.array([[10.0, 10.0]])}, radius=10.0)
        on = ValidationContext(frame=3, position=np.array([12.0, 10.0]))
        off = ValidationContext(frame=3, position=np.array([60.0, 10.0]))
        assert validate(v, on) == 1.0
        assert validate(v, off) == 0.0
        missing = ValidationContext(frame=9, position=np.array([12.0, 10.0]))
        assert validate(v, missing) == 0.0

    def test_feature_energy_separates_blob_from_background(self):
        rng = np.random.default_rng(0)
        v = FeatureEnergyValidator()
        wins = 0
        trials = 100
        for _ in range(trials):
            c = 8
            sig = rng.normal(size=c)
            sig /= np.linalg.norm(sig)
            data = rng.normal(0, 0.05, (40, 40, c))
            yy, xx = np.mgrid[0:40, 0:40]
            data += np.exp(-(((yy - 20) ** 2 + (xx - 20) ** 2) / 8.0))[:, :, None] * sig
            fmap = FeatureMap(data=data, stride=4.0)
            agent = validate(v, ValidationContext(frame=0, position=np.array([80.0, 80.0]),
                                                  features=fmap))
            background = validate(v, ValidationContext(frame=0, position=np.array([10.0, 10.0]),
                                                       features=fmap))
            wins += agent > background
        assert wins >= 95

    def test_feature_energy_needs_features(self):
        with pytest.raises(ValidationUnavailableError):
            validate(FeatureEnergyValidator(),
                     ValidationContext(frame=0, position=np.zeros(2)))

    def test_range_contract_enforced(self):
        class Bad:
            def score(self, ctx):
                return 1.7

        with pytest.raises(InvalidInputError):
            validate(Bad(), ValidationContext(frame=0, position=np.zeros(2)))


class TestInvariantProperties:
    def test_never_confirmed_below_min_hits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = make_track()
            for _ in range(100):
                if t.is_deleted:
                    break
                if rng.random() < 0.7:
                    match(t, prob=float(rng.random()))
                    if t.is_confirmed:
                        assert t.hits >= CFG.min_hits
                        break
                else:
                    on_miss(t, CFG)

    def test_zero_validator_never_confirms(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = make_track()
            for _ in range(200):
                if t.is_deleted:
                    break
                if rng.random() < 0.9:
                    match(t, prob=0.0)
                else:
                    on_miss(t, CFG)
                assert not t.is_confirmed
            assert t.is_deleted  # patience or miss limits always fire

    def test_confirmed_never_demoted(self):
        t = make_track(state=TrackState.CONFIRMED, hits=60)
        for _ in range(50):
            match(t, prob=0.0)
        assert t.is_confirmed

    def test_deletion_reachable_from_every_state(self):
        for state, scores in ((TrackState.TENTATIVE, []),
                              (TrackState.PENDING_CLASSIFICATION, [0.9]),
                              (TrackState.CONFIRMED, [])):
            t = make_track(state=state, hits=35, cls_scores=list(scores))
            for _ in range(CFG.max_age + 2):
                on_miss(t, CFG)
            assert t.is_deleted


class TestConfigValidation:
    def test_lead_must_be_below_min_hits(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(min_hits=3, cls_lead=3)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(cls_confirm_threshold=1.0)

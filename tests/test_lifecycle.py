import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.ddcf import FeatureMap
from pointtrack.errors import ConfigError, InvalidInputError, ValidationUnavailableError
from pointtrack.lifecycle import (
    FeatureEnergyValidator, LifecycleConfig, OracleValidator,
    ScoreColumnValidator, TrackState, TrackTable, ValidationContext,
    classification_gate_active, on_match, on_miss, validate,
)
from pointtrack.motion import MotionConfig, init_state

CFG = LifecycleConfig()


def make_track(pos=(0.0, 0.0), cls_scores=(), **columns) -> TrackTable:
    """A one-row table: a newborn track, with the given columns overridden."""
    track = TrackTable.born(1, [pos], [0.0], init_state([pos], MotionConfig()))
    track.cls_sum[0], track.cls_count[0] = sum(cls_scores), len(cls_scores)
    for name, value in columns.items():
        getattr(track, name)[0] = value
    return track


def match(track, pos=(0.0, 0.0), prob=None, cls=True, conf=0.9):
    on_match(track, [0], [pos], [conf], [np.nan if prob is None else prob], CFG,
             classification_enabled=cls)
    return track


def miss(track):
    on_miss(track, [0], CFG)


def state_of(track) -> int:
    return int(track.state[0])


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
        assert t.hits[0] == 30
        assert state_of(t) == TrackState.CONFIRMED

    def test_keep_pending_before_min_hits(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=27, cls_scores=[0.95])
        match(t, prob=0.95)
        assert state_of(t) == TrackState.PENDING_CLASSIFICATION
        assert t.pending_failures[0] == 0

    def test_terminate_after_patience(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=29,
                       cls_scores=[0.5], pending_failures=9)
        match(t, prob=0.5)
        assert t.pending_failures[0] == 10
        assert state_of(t) == TrackState.DELETED

    def test_threshold_is_strict(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=29, cls_scores=[0.8])
        match(t, prob=0.8)
        assert state_of(t) == TrackState.PENDING_CLASSIFICATION
        assert t.pending_failures[0] == 1


class TestOnMatch:
    def test_gate_activation_transitions_state(self):
        t = make_track(hits=26)
        match(t, prob=1.0)
        assert t.hits[0] == 27
        assert state_of(t) == TrackState.PENDING_CLASSIFICATION
        assert (t.cls_sum[0], t.cls_count[0]) == (1.0, 1)

    def test_confirmed_is_absorbing(self):
        t = make_track(state=TrackState.CONFIRMED, hits=40, misses=2)
        match(t, prob=None)
        assert state_of(t) == TrackState.CONFIRMED
        assert t.misses[0] == 0

    def test_thirty_clean_matches_confirm_at_thirty(self):
        t = make_track(hits=1)
        for k in range(2, 31):
            match(t, prob=1.0)
            assert t.hits[0] == k
            if k < 30:
                assert state_of(t) != TrackState.CONFIRMED
        assert state_of(t) == TrackState.CONFIRMED

    def test_no_transition_without_score(self):
        t = make_track(hits=26)
        match(t, prob=None)
        assert state_of(t) == TrackState.TENTATIVE

    def test_low_scores_terminate_after_patience(self):
        t = make_track(hits=26)
        for _ in range(3 + 10):
            match(t, prob=0.2)
            if state_of(t) == TrackState.DELETED:
                break
        assert state_of(t) == TrackState.DELETED

    def test_classification_disabled_confirms_on_hits(self):
        t = make_track(hits=29)
        match(t, prob=None, cls=False)
        assert state_of(t) == TrackState.CONFIRMED
        assert (t.cls_sum[0], t.cls_count[0]) == (0.0, 0)

    def test_invalid_probability(self):
        t = make_track(hits=27)
        with pytest.raises(InvalidInputError):
            match(t, prob=1.5)

    def test_misses_reset(self):
        t = make_track(hits=5, misses=2)
        match(t)
        assert t.misses[0] == 0


class TestOnMiss:
    def test_confirmed_deleted_past_max_age(self):
        t = make_track(state=TrackState.CONFIRMED, hits=100, misses=60)
        miss(t)
        assert t.misses[0] == 61
        assert state_of(t) == TrackState.DELETED

    def test_tentative_tolerance(self):
        t = make_track(hits=2, misses=3)
        miss(t)
        assert state_of(t) == TrackState.DELETED

    def test_confirmed_kept_below_max_age(self):
        t = make_track(state=TrackState.CONFIRMED, hits=100, misses=10)
        miss(t)
        assert state_of(t) != TrackState.DELETED

    def test_pending_uses_tentative_tolerance(self):
        t = make_track(state=TrackState.PENDING_CLASSIFICATION, hits=28,
                       cls_scores=[0.9], misses=3)
        miss(t)
        assert state_of(t) == TrackState.DELETED


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

    @pytest.mark.parametrize("returned", [-0.1, float("nan"), float("inf"), None, "0.5", 1 + 0j, [0.5],
                                          np.array([0.5, 0.5]), np.array(0.5), 10 ** 400],
                             ids=["negative", "nan", "inf", "none", "text", "complex", "list",
                                  "two-element-array", "zero-d-array", "int-past-float"])
    def test_contract_refuses_what_is_not_a_probability(self, returned):
        class Bad:
            def score(self, ctx):
                return returned

        with pytest.raises(InvalidInputError, match="validator returned"):
            validate(Bad(), ValidationContext(frame=0, position=np.zeros(2)))


class TestInvariantProperties:
    def test_never_confirmed_below_min_hits(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = make_track()
            for _ in range(100):
                if state_of(t) == TrackState.DELETED:
                    break
                if rng.random() < 0.7:
                    match(t, prob=float(rng.random()))
                    if state_of(t) == TrackState.CONFIRMED:
                        assert t.hits[0] >= CFG.min_hits
                        break
                else:
                    miss(t)

    def test_zero_validator_never_confirms(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = make_track()
            for _ in range(200):
                if state_of(t) == TrackState.DELETED:
                    break
                if rng.random() < 0.9:
                    match(t, prob=0.0)
                else:
                    miss(t)
                assert state_of(t) != TrackState.CONFIRMED
            assert state_of(t) == TrackState.DELETED  # patience or miss limits always fire

    def test_confirmed_never_demoted(self):
        t = make_track(state=TrackState.CONFIRMED, hits=60)
        for _ in range(50):
            match(t, prob=0.0)
        assert state_of(t) == TrackState.CONFIRMED

    def test_deletion_reachable_from_every_state(self):
        for state, scores in ((TrackState.TENTATIVE, []),
                              (TrackState.PENDING_CLASSIFICATION, [0.9]),
                              (TrackState.CONFIRMED, [])):
            t = make_track(state=state, hits=35, cls_scores=list(scores))
            for _ in range(CFG.max_age + 2):
                miss(t)
            assert state_of(t) == TrackState.DELETED


def reference_match(row: dict, prob, config, cls: bool):
    """The per-track match rule, one track as a dict; prob None = no score."""
    row.update(hits=row["hits"] + 1, misses=0)
    if row["state"] == TrackState.CONFIRMED:
        return
    if not cls:
        if row["hits"] >= config.min_hits:
            row["state"] = TrackState.CONFIRMED
        return
    if (row["state"] == TrackState.TENTATIVE and classification_gate_active(row["hits"], config)
            and prob is not None):
        row["state"] = TrackState.PENDING_CLASSIFICATION
    if row["state"] == TrackState.PENDING_CLASSIFICATION:
        if prob is not None:
            row.update(cls_sum=row["cls_sum"] + prob, cls_count=row["cls_count"] + 1)
        if row["hits"] >= config.min_hits:
            if row["cls_sum"] / row["cls_count"] > config.cls_confirm_threshold:
                row["state"] = TrackState.CONFIRMED
            else:
                row["pending_failures"] += 1
                if row["pending_failures"] >= config.pending_fail_patience:
                    row["state"] = TrackState.DELETED


def reference_miss(row: dict, config):
    """The per-track miss rule, one track as a dict."""
    row["misses"] += 1
    if ((row["state"] != TrackState.CONFIRMED and row["misses"] > config.tentative_miss_tolerance)
            or row["misses"] > config.max_age):
        row["state"] = TrackState.DELETED


def as_rows(table: TrackTable) -> list[dict]:
    return [{"state": int(table.state[i]), "hits": int(table.hits[i]),
             "misses": int(table.misses[i]), "pending_failures": int(table.pending_failures[i]),
             "cls_sum": float(table.cls_sum[i]), "cls_count": int(table.cls_count[i])}
            for i in range(len(table))]


def assert_tables_equal(a: TrackTable, b: TrackTable):
    for f in fields(TrackTable):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


SCORES = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0))


@st.composite
def lifecycle_cases(draw):
    """A config with small budgets, a table whose columns straddle them, a
    set of matched rows with their scores (None = no score), and the rest."""
    min_hits = draw(st.integers(1, 6))
    config = LifecycleConfig(
        min_hits=min_hits, cls_lead=draw(st.integers(0, min_hits - 1)),
        max_age=draw(st.integers(1, 4)),
        cls_confirm_threshold=draw(st.sampled_from([0.3, 0.5, 0.8])),
        tentative_miss_tolerance=draw(st.integers(0, 3)),
        pending_fail_patience=draw(st.integers(1, 3)))
    n = draw(st.integers(0, 10))
    points = np.arange(2.0 * n).reshape(n, 2)
    table = TrackTable.born(1, points, np.full(n, 0.5), init_state(points, MotionConfig()))
    for i in range(n):
        table.state[i] = state = draw(st.sampled_from(
            [TrackState.TENTATIVE, TrackState.PENDING_CLASSIFICATION, TrackState.CONFIRMED]))
        table.hits[i] = draw(st.integers(1, min_hits + 1))
        table.misses[i] = draw(st.integers(0, max(config.max_age, config.tentative_miss_tolerance) + 1))
        table.pending_failures[i] = draw(st.integers(0, config.pending_fail_patience - 1))
        scores = draw(st.lists(SCORES, min_size=int(state == TrackState.PENDING_CLASSIFICATION), max_size=3))
        table.cls_sum[i], table.cls_count[i] = sum(scores), len(scores)
    matched = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    probs = [draw(st.one_of(st.none(), SCORES)) for _ in matched]
    return config, table, matched, probs, [i for i in range(n) if i not in matched]


class TestBatchedRules:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(case=lifecycle_cases(), cls=st.booleans())
    def test_one_call_over_rows_equals_one_row_calls(self, case, cls):
        """One on_match / on_miss call over k rows equals k one-row calls,
        and both follow the per-track rule at every budget boundary."""
        config, table, matched, probs, unmatched = case
        reference = as_rows(table)
        batched, single = copy.deepcopy(table), copy.deepcopy(table)
        points = np.array([[10.0 * r, 1.0] for r in matched]).reshape(-1, 2)
        confs = [0.25] * len(matched)
        nan_probs = [np.nan if p is None else p for p in probs]
        on_match(batched, matched, points, confs, nan_probs, config, cls)
        on_miss(batched, unmatched, config)
        for k, row in enumerate(matched):
            on_match(single, [row], points[k:k + 1], confs[k:k + 1], nan_probs[k:k + 1], config, cls)
            reference_match(reference[row], probs[k], config, cls)
        for row in unmatched:
            on_miss(single, [row], config)
            reference_miss(reference[row], config)
        assert_tables_equal(batched, single)
        assert as_rows(batched) == reference
        assert np.array_equal(batched.last_position[matched], points)
        assert np.all(batched.last_confidence[matched] == 0.25)

    def test_no_rows_change_nothing(self):
        t = make_track(hits=3, misses=1)
        before = copy.deepcopy(t)
        on_match(t, [], np.zeros((0, 2)), [], [], CFG)
        on_miss(t, [], CFG)
        assert_tables_equal(t, before)


class TestConfigValidation:
    def test_lead_must_be_below_min_hits(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(min_hits=3, cls_lead=3)

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            LifecycleConfig(cls_confirm_threshold=1.0)

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
    ScoreColumnValidator, TrackTable, ValidationContext,
    classification_gate_active, on_match, on_miss, validate,
)
from pointtrack.motion import MotionConfig, init_state

CFG = LifecycleConfig()


def make_tracks(*rows: dict) -> TrackTable:
    """A table of newborn tracks, one per dict, each with the dict's columns
    overridden; the dict's cls_scores, if any, set cls_sum and cls_count."""
    points = np.zeros((len(rows), 2))
    tracks = TrackTable.born(1, points, np.zeros(len(rows)), init_state(points, MotionConfig()))
    for i, columns in enumerate(rows):
        columns = dict(columns)
        scores = columns.pop("cls_scores", ())
        tracks.cls_sum[i], tracks.cls_count[i] = sum(scores), len(scores)
        for name, value in columns.items():
            getattr(tracks, name)[i] = value
    return tracks


def make_track(**columns) -> TrackTable:
    """A one-row table: a newborn track, with the given columns overridden."""
    return make_tracks(columns)


def match(track, pos=(0.0, 0.0), prob=None, cls=True, conf=0.9) -> np.ndarray:
    return on_match(track, [0], [pos], [conf], [np.nan if prob is None else prob] if cls else None, CFG)


def miss(track) -> np.ndarray:
    return on_miss(track, [0], CFG)


def is_pending(track) -> bool:
    """Unconfirmed and holding a score: the classification window is open."""
    return not track.confirmed[0] and track.cls_count[0] > 0


def is_tentative(track) -> bool:
    return not track.confirmed[0] and track.cls_count[0] == 0


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
        t = make_track(hits=29, cls_scores=[0.9])
        assert match(t, prob=0.9).tolist() == []
        assert t.hits[0] == 30
        assert t.confirmed[0]

    def test_keep_pending_before_min_hits(self):
        t = make_track(hits=27, cls_scores=[0.95])
        assert match(t, prob=0.95).tolist() == []
        assert is_pending(t)
        assert t.pending_failures[0] == 0

    def test_terminate_after_patience(self):
        t = make_track(hits=29, cls_scores=[0.5], pending_failures=9)
        assert match(t, prob=0.5).tolist() == [0]
        assert t.pending_failures[0] == 10
        assert not t.confirmed[0]

    def test_threshold_is_strict(self):
        t = make_track(hits=29, cls_scores=[0.8])
        assert match(t, prob=0.8).tolist() == []
        assert is_pending(t)
        assert t.pending_failures[0] == 1


class TestOnMatch:
    def test_gate_activation_transitions_state(self):
        t = make_track(hits=26)
        match(t, prob=1.0)
        assert t.hits[0] == 27
        assert is_pending(t)
        assert (t.cls_sum[0], t.cls_count[0]) == (1.0, 1)

    def test_confirmed_is_absorbing(self):
        t = make_track(confirmed=True, hits=40, misses=2)
        assert match(t, prob=None).tolist() == []
        assert t.confirmed[0]
        assert t.misses[0] == 0

    def test_thirty_clean_matches_confirm_at_thirty(self):
        t = make_track(hits=1)
        for k in range(2, 31):
            assert match(t, prob=1.0).tolist() == []
            assert t.hits[0] == k
            if k < 30:
                assert not t.confirmed[0]
        assert t.confirmed[0]

    def test_no_transition_without_score(self):
        t = make_track(hits=26)
        match(t, prob=None)
        assert is_tentative(t)

    def test_low_scores_terminate_after_patience(self):
        t = make_track(hits=26)
        for _ in range(3 + 10):
            ended = match(t, prob=0.2)
            if len(ended):
                break
        assert ended.tolist() == [0]
        assert t.pending_failures[0] == CFG.pending_fail_patience and not t.confirmed[0]

    def test_classification_disabled_confirms_on_hits(self):
        t = make_track(hits=29)
        assert match(t, prob=None, cls=False).tolist() == []
        assert t.confirmed[0]
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
        t = make_track(confirmed=True, hits=100, misses=60)
        assert miss(t).tolist() == [0]
        assert t.misses[0] == 61

    def test_tentative_tolerance(self):
        t = make_track(hits=2, misses=3)
        assert miss(t).tolist() == [0]

    def test_confirmed_kept_below_max_age(self):
        t = make_track(confirmed=True, hits=100, misses=10)
        assert miss(t).tolist() == []

    def test_pending_uses_tentative_tolerance(self):
        t = make_track(hits=28, cls_scores=[0.9], misses=3)
        assert miss(t).tolist() == [0]


class TestEndedRows:
    """on_match and on_miss return exactly the rows they end, ascending."""

    def test_on_match_returns_the_rows_out_of_patience(self):
        t = make_tracks(dict(hits=29, cls_scores=[0.5], pending_failures=9),  # ends
                        dict(hits=29, cls_scores=[0.9]),                      # confirms
                        dict(hits=26),                                        # opens
                        dict(hits=35, cls_scores=[0.1], pending_failures=9),  # ends
                        dict(hits=29, cls_scores=[0.5], pending_failures=8))  # fails once
        ended = on_match(t, [3, 1, 4, 0, 2], np.zeros((5, 2)), [0.9] * 5, [0.5, 0.9, 0.9, 0.5, 0.5], CFG)
        assert ended.dtype.kind == "i" and ended.tolist() == [0, 3]
        assert t.confirmed.tolist() == [False, True, False, False, False]
        assert t.pending_failures.tolist() == [10, 0, 0, 10, 9]

    def test_on_miss_returns_the_rows_past_their_budget(self):
        t = make_tracks(dict(confirmed=True, hits=100, misses=60),  # ends
                        dict(hits=2, misses=2),                     # kept
                        dict(hits=28, cls_scores=[0.9], misses=3),  # ends
                        dict(confirmed=True, hits=100, misses=3),   # kept
                        dict(hits=2, misses=3))                     # ends
        ended = on_miss(t, [4, 3, 2, 1, 0], CFG)
        assert ended.dtype.kind == "i" and ended.tolist() == [0, 2, 4]
        assert t.misses.tolist() == [61, 3, 4, 4, 4]

    @pytest.mark.parametrize("cls", [True, False])
    def test_nothing_ended_is_an_empty_array(self, cls):
        t = make_tracks(dict(hits=29, cls_scores=[0.9]), dict(hits=3, misses=1))
        for ended in (on_match(t, [0], [(0.0, 0.0)], [0.9], [0.9] if cls else None, CFG),
                      on_miss(t, [1], CFG),
                      on_match(t, [], np.zeros((0, 2)), [], [] if cls else None, CFG), on_miss(t, [], CFG)):
            assert isinstance(ended, np.ndarray) and ended.dtype.kind == "i" and ended.shape == (0,)


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
                if rng.random() < 0.7:
                    ended = match(t, prob=float(rng.random()))
                    if t.confirmed[0]:
                        assert t.hits[0] >= CFG.min_hits
                        break
                else:
                    ended = miss(t)
                if len(ended):
                    break

    def test_zero_validator_never_confirms(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = make_track()
            for _ in range(200):
                ended = match(t, prob=0.0) if rng.random() < 0.9 else miss(t)
                assert not t.confirmed[0]
                if len(ended):
                    break
            assert ended.tolist() == [0]  # patience or miss limits always fire

    def test_confirmed_never_demoted(self):
        t = make_track(confirmed=True, hits=60)
        for _ in range(50):
            assert match(t, prob=0.0).tolist() == []
        assert t.confirmed[0]

    def test_deletion_reachable_from_every_state(self):
        for confirmed, scores, budget in ((False, [], CFG.tentative_miss_tolerance),
                                          (False, [0.9], CFG.tentative_miss_tolerance),
                                          (True, [], CFG.max_age)):
            t = make_track(confirmed=confirmed, hits=35, cls_scores=scores)
            ends = [miss(t).tolist() for _ in range(CFG.max_age + 2)]
            assert ends == [[]] * budget + [[0]] * (CFG.max_age + 2 - budget)


def reference_match(row: dict, prob, config, cls: bool) -> bool:
    """The per-track match rule, one track as a dict; prob None = no score.
    Returns whether the rule ends the track."""
    row.update(hits=row["hits"] + 1, misses=0)
    if row["confirmed"]:
        return False
    if not cls:
        row["confirmed"] = row["hits"] >= config.min_hits
        return False
    if prob is not None and classification_gate_active(row["hits"], config):
        row.update(cls_sum=row["cls_sum"] + prob, cls_count=row["cls_count"] + 1)
    if row["cls_count"] == 0 or row["hits"] < config.min_hits:
        return False  # tentative, or pending and too young to decide
    if row["cls_sum"] / row["cls_count"] > config.cls_confirm_threshold:
        row["confirmed"] = True
        return False
    row["pending_failures"] += 1
    return row["pending_failures"] >= config.pending_fail_patience


def reference_miss(row: dict, config) -> bool:
    """The per-track miss rule, one track as a dict; returns whether it ends
    the track."""
    row["misses"] += 1
    return ((not row["confirmed"] and row["misses"] > config.tentative_miss_tolerance)
            or row["misses"] > config.max_age)


def as_rows(table: TrackTable) -> list[dict]:
    return [{"confirmed": bool(table.confirmed[i]), "hits": int(table.hits[i]),
             "misses": int(table.misses[i]), "pending_failures": int(table.pending_failures[i]),
             "cls_sum": float(table.cls_sum[i]), "cls_count": int(table.cls_count[i])}
            for i in range(len(table))]


def assert_tables_equal(a: TrackTable, b: TrackTable):
    for f in fields(TrackTable):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


SCORES = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0))


@st.composite
def lifecycle_cases(draw):
    """A config with small budgets, a table of rows the tracker can reach
    whose columns straddle them, a set of matched rows with their scores
    (None = no score), and the rest. A live row is within its miss and
    patience budgets, is confirmed only from min_hits on, holds scores only
    once confirmed or inside its classification window, and has failed a
    decision only after it could make one."""
    min_hits = draw(st.integers(1, 6))
    config = LifecycleConfig(
        min_hits=min_hits, cls_lead=draw(st.integers(0, min_hits - 1)),
        max_age=draw(st.integers(1, 4)),
        cls_confirm_threshold=draw(st.sampled_from([0.3, 0.5, 0.8])),
        tentative_miss_tolerance=draw(st.integers(0, 3)),
        pending_fail_patience=draw(st.integers(1, 3)))
    n = draw(st.integers(0, 10))
    table = make_tracks(*[{}] * n)
    for i in range(n):
        table.confirmed[i] = confirmed = draw(st.booleans())
        table.hits[i] = hits = draw(st.integers(min_hits if confirmed else 1, min_hits + 1))
        budget = config.max_age if confirmed else min(config.max_age, config.tentative_miss_tolerance)
        table.misses[i] = draw(st.integers(0, budget))
        may_hold_scores = confirmed or classification_gate_active(hits, config)
        scores = draw(st.lists(SCORES, max_size=3 if may_hold_scores else 0))
        table.cls_sum[i], table.cls_count[i] = sum(scores), len(scores)
        if confirmed or (scores and hits >= min_hits):
            table.pending_failures[i] = draw(st.integers(0, config.pending_fail_patience - 1))
    matched = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    probs = [draw(st.one_of(st.none(), SCORES)) for _ in matched]
    return config, table, matched, probs, [i for i in range(n) if i not in matched]


class TestBatchedRules:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(case=lifecycle_cases(), cls=st.booleans())
    def test_one_call_over_rows_equals_one_row_calls(self, case, cls):
        """One on_match / on_miss call over k rows equals k one-row calls,
        and both follow the per-track rule at every budget boundary and
        return the rows it ends."""
        config, table, matched, probs, unmatched = case
        reference = as_rows(table)
        batched, single = copy.deepcopy(table), copy.deepcopy(table)
        points = np.array([[10.0 * r, 1.0] for r in matched]).reshape(-1, 2)
        confs = [0.25] * len(matched)
        nan_probs = [np.nan if p is None else p for p in probs]
        ended = [on_match(batched, matched, points, confs, nan_probs if cls else None, config),
                 on_miss(batched, unmatched, config)]
        single_ended, reference_ended = [], []
        for k, row in enumerate(matched):
            single_ended += on_match(single, [row], points[k:k + 1], confs[k:k + 1],
                                     nan_probs[k:k + 1] if cls else None, config).tolist()
            reference_ended += [row] * reference_match(reference[row], probs[k], config, cls)
        assert ended[0].tolist() == sorted(single_ended) == sorted(reference_ended)
        single_ended, reference_ended = [], []
        for row in unmatched:
            single_ended += on_miss(single, [row], config).tolist()
            reference_ended += [row] * reference_miss(reference[row], config)
        assert ended[1].tolist() == sorted(single_ended) == sorted(reference_ended)
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

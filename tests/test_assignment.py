import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.assignment import GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment
from pointtrack.errors import ConfigError, InvalidInputError


def brute_force(costs: np.ndarray, gate: float):
    """Exhaustive oracle: maximum-cardinality in-gate matching, then min cost.

    Enumerates every injection of the smaller side into the larger one.
    Returns (cardinality, total cost).
    """
    n_rows, n_cols = costs.shape
    best = (0, 0.0)
    if n_rows == 0 or n_cols == 0:
        return best
    transposed = n_rows > n_cols
    c = costs.T if transposed else costs
    small, large = c.shape
    for perm in itertools.permutations(range(large), small):
        card, total = 0, 0.0
        for i, j in enumerate(perm):
            if c[i, j] < gate:
                card += 1
                total += c[i, j]
        if card > best[0] or (card == best[0] and (card == 0 or total < best[1])):
            best = (card, total)
    return best


class TestDynamicThreshold:
    def test_reference_altitude(self):
        assert dynamic_threshold(100.0) == 10.0

    def test_low_altitude_widens(self):
        assert dynamic_threshold(50.0) == 20.0

    def test_high_altitude_clamps(self):
        assert dynamic_threshold(200.0) == 10.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        alts = np.sort(rng.uniform(1.0, 1000.0, 1000))
        gates = [dynamic_threshold(a) for a in alts]
        assert all(g2 <= g1 for g1, g2 in zip(gates, gates[1:]))
        assert all(g >= 10.0 for g in gates)

    def test_invalid_altitude(self):
        with pytest.raises(InvalidInputError):
            dynamic_threshold(0.0)
        with pytest.raises(InvalidInputError):
            dynamic_threshold(-5.0)

    @pytest.mark.parametrize("altitude", [1e-310, 5e-324])
    def test_overflowing_gate_names_the_altitude(self, altitude):
        with pytest.raises(InvalidInputError, match=f"altitude {altitude!r} "):
            dynamic_threshold(altitude)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            GatingPolicy(base_radius=0)


class TestBuildCostMatrix:
    def test_three_four_five(self):
        assert build_cost_matrix([(0, 0)], [(3, 4)])[0, 0] == 5.0

    def test_empty_detections(self):
        assert build_cost_matrix([(0, 0)], []).shape == (1, 0)

    def test_symmetric_layout(self):
        c = build_cost_matrix([(0, 0), (1, 1)], [(0, 0), (1, 1)])
        assert np.allclose(c, c.T)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            build_cost_matrix([(np.nan, 0)], [(0, 0)])

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(n=st.integers(0, 60), m=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-3, 6), offset=st.floats(-1e6, 1e6))
    def test_equals_norm_of_differences(self, n, m, seed, scale, offset):
        rng = np.random.default_rng(seed)
        p = offset + rng.normal(0, 10.0 ** scale, (n, 2))
        d = offset + rng.normal(0, 10.0 ** scale, (m, 2))
        d[: min(n, m) // 3] = p[: min(n, m) // 3]  # exact coincidences give zeros
        expected = np.linalg.norm(p[:, None] - d[None], axis=2)
        assert np.array_equal(build_cost_matrix(p, d), expected)


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        r = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]), gate=10)
        assert [(m[0], m[1]) for m in r.matches] == [(0, 0), (1, 1)]
        assert r.unmatched_tracks == [] and r.unmatched_detections == []

    def test_gated_out(self):
        r = solve_assignment(np.array([[25.0]]), gate=10)
        assert r.matches == []
        assert r.unmatched_tracks == [0] and r.unmatched_detections == [0]

    def test_exact_gate_distance_not_matched(self):
        r = solve_assignment(np.array([[10.0]]), gate=10)
        assert r.matches == []

    def test_empty(self):
        r = solve_assignment(np.zeros((0, 0)), gate=1)
        assert r.matches == [] and r.unmatched_tracks == [] and r.unmatched_detections == []

    def test_prefers_cardinality_over_cost(self):
        # cheap single match vs two admissible matches: must take both
        costs = np.array([[1.0, 100.0], [100.0, 9.0]])
        r = solve_assignment(costs, gate=1000)
        assert len(r.matches) == 2

    def test_matches_brute_force_on_seeded_matrices(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            costs = rng.uniform(0, 30, (n, m))
            gate = float(rng.uniform(5, 35)) if trial % 2 == 0 else 1e9
            r = solve_assignment(costs, gate)
            card, total = brute_force(costs, gate)
            assert len(r.matches) == card
            got_total = sum(d for _, _, d in r.matches)
            assert got_total == pytest.approx(total, abs=1e-9)
            for _, _, d in r.matches:
                assert d < gate

    def test_gating_invariant_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            costs = rng.uniform(0, 50, (int(rng.integers(0, 10)), int(rng.integers(0, 10))))
            gate = float(rng.uniform(1, 60))
            for _, _, d in solve_assignment(costs, gate).matches:
                assert d < gate

    def test_index_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, m = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            costs = rng.uniform(0, 30, (n, m))
            r = solve_assignment(costs, gate=15.0)
            rows = [i for i, _, _ in r.matches] + r.unmatched_tracks
            cols = [j for _, j, _ in r.matches] + r.unmatched_detections
            assert sorted(rows) == list(range(n))
            assert sorted(cols) == list(range(m))

    def test_permutation_equivariance_on_unique_optimum(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 50:
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            costs = rng.uniform(0, 20, (n, m))
            gate = 15.0
            base = solve_assignment(costs, gate)
            card, total = brute_force(costs, gate)
            # verify uniqueness of the optimum by counting achievers
            achievers = 0
            transposed = n > m
            c = costs.T if transposed else costs
            small, large = c.shape
            for perm in itertools.permutations(range(large), small):
                pc = sum(c[i, j] for i, j in enumerate(perm) if c[i, j] < gate)
                pcard = sum(1 for i, j in enumerate(perm) if c[i, j] < gate)
                if pcard == card and abs(pc - total) < 1e-12:
                    achievers += 1
            if achievers != 1 or card == 0:
                continue
            done += 1
            perm_cols = rng.permutation(m)
            permuted = costs[:, perm_cols]
            r2 = solve_assignment(permuted, gate)
            remapped = {(i, int(perm_cols[j])) for i, j, _ in r2.matches}
            assert remapped == {(i, j) for i, j, _ in base.matches}

    def test_invalid_gate(self):
        with pytest.raises(InvalidInputError):
            solve_assignment(np.zeros((1, 1)), gate=0.0)

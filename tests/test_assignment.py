import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from pointtrack.assignment import (
    DENSE_CELLS, GatedCosts, GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment,
)
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


def dense_solve(costs: np.ndarray, gate: float):
    """Reference: one linear_sum_assignment over the whole padded matrix, as
    solve_assignment worked before the gate graph was split. Returns
    (matches, unmatched_tracks, unmatched_detections)."""
    n_rows, n_cols = costs.shape
    admissible = costs < gate
    big = float(costs[admissible].sum()) + 1.0 if admissible.any() else 1.0
    rows, cols = linear_sum_assignment(np.where(admissible, costs, big))
    keep = admissible[rows, cols]
    rows, cols = rows[keep], cols[keep]
    return (list(zip(rows.tolist(), cols.tolist(), costs[rows, cols].tolist())),
            sorted(set(range(n_rows)) - set(rows.tolist())),
            sorted(set(range(n_cols)) - set(cols.tolist())))


def as_tuple(result):
    """The result in dense_solve's form."""
    return (list(zip(result.matches[:, 0].tolist(), result.matches[:, 1].tolist(),
                     result.distances.tolist())),
            result.unmatched_tracks.tolist(), result.unmatched_detections.tolist())


def assert_contract(result, costs: np.ndarray, gate: float):
    """The result's arrays against the dense costs they were solved from:
    matches is (k, 2) and integer with ascending rows, distances are the
    matched cells and below the gate, and the matched and unmatched indices
    partition the rows and the columns."""
    k = len(result.matches)
    assert result.matches.shape == (k, 2) and np.issubdtype(result.matches.dtype, np.integer)
    rows, cols = result.matches[:, 0], result.matches[:, 1]
    assert np.all(np.diff(rows) > 0)
    assert result.distances.shape == (k,)
    assert np.array_equal(result.distances, costs[rows, cols])
    assert np.all(result.distances < gate)
    for matched, unmatched, size in ((rows, result.unmatched_tracks, costs.shape[0]),
                                     (cols, result.unmatched_detections, costs.shape[1])):
        assert np.issubdtype(unmatched.dtype, np.integer) and np.all(np.diff(unmatched) > 0)
        assert np.array_equal(np.sort(np.concatenate([matched, unmatched])), np.arange(size))


def scene(seed: int, n: int, m: int, layout: str, integer: bool = False):
    """Predicted (n, 2) and detected (m, 2) points, about one per 30 x 30
    px: spread uniformly, in three dense clusters, or as noisy copies of
    the predicted points, a third of them exactly on them. integer rounds
    them onto the pixel grid."""
    rng = np.random.default_rng(seed)
    side = 30.0 * np.sqrt(max(n, m, 1))
    if layout == "uniform":
        p, d = rng.uniform(0, side, (n, 2)), rng.uniform(0, side, (m, 2))
    elif layout == "clusters":
        centres = rng.uniform(0, side, (3, 2))
        p = centres[rng.integers(0, 3, n)] + rng.normal(0, 6.0, (n, 2))
        d = centres[rng.integers(0, 3, m)] + rng.normal(0, 6.0, (m, 2))
    else:  # "tracked"
        p = rng.uniform(0, side, (n, 2))
        d = rng.uniform(0, side, (m, 2))
        k = min(n, m)
        d[:k] = p[rng.permutation(n)[:k]] + rng.normal(0, 2.0, (k, 2))
        d[: k // 3] = p[: k // 3]  # coincident points cost exactly 0
    if integer:
        p, d = np.round(p), np.round(d)
    return p, d


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


def dense(cells: GatedCosts) -> np.ndarray:
    """The cells as a matrix, inf outside the gate."""
    out = np.full(cells.shape, np.inf)
    out[cells.rows, cells.cols] = cells.costs
    return out


class TestBuildCostMatrix:
    def test_three_four_five(self):
        c = build_cost_matrix([(0, 0)], [(3, 4)], gate=10.0)
        assert (c.rows.tolist(), c.cols.tolist(), c.costs.tolist()) == ([0], [0], [5.0])

    def test_empty_detections(self):
        c = build_cost_matrix([(0, 0)], [], gate=10.0)
        assert c.shape == (1, 0) and len(c.costs) == 0

    def test_symmetric_layout(self):
        c = dense(build_cost_matrix([(0, 0), (1, 1)], [(0, 0), (1, 1)], gate=10.0))
        assert np.array_equal(c, c.T)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            build_cost_matrix([(np.nan, 0)], [(0, 0)], gate=10.0)

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(n=st.integers(0, 120), m=st.integers(0, 120), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-3, 6), offset=st.floats(-1e6, 1e6), gate_scale=st.floats(-2, 1))
    @example(n=90, m=80, seed=0, scale=1.0, offset=0.0, gate_scale=1e9)  # every pair in gate
    def test_equals_norm_of_differences(self, n, m, seed, scale, offset, gate_scale):
        """The in-gate cells, by the band search above DENSE_CELLS cells and
        by cdist below, are the entries of the norm matrix below the gate,
        bit for bit and in row-major order."""
        rng = np.random.default_rng(seed)
        p = offset + rng.normal(0, 10.0 ** scale, (n, 2))
        d = offset + rng.normal(0, 10.0 ** scale, (m, 2))
        d[: min(n, m) // 3] = p[: min(n, m) // 3]  # exact coincidences give zeros
        gate = gate_scale if gate_scale > 1e3 else 10.0 ** (scale + gate_scale)
        expected = np.linalg.norm(p[:, None] - d[None], axis=2)
        cells = build_cost_matrix(p, d, gate)
        rows, cols = np.nonzero(expected < gate)
        assert cells.shape == (n, m) and cells.gate == gate
        assert np.array_equal(cells.rows, rows) and np.array_equal(cells.cols, cols)
        assert np.array_equal(cells.costs, expected[rows, cols])

    def test_band_path_overflow_is_beyond_the_gate(self):
        """On the band path, differences of points near +-1e308 overflow to
        inf, beyond the gate, with no warning: the cells of cdist's matrix."""
        rng = np.random.default_rng(3)
        p, d = rng.uniform(0, 100, (70, 2)), rng.uniform(0, 100, (70, 2))
        d[:2, 0] = p[:2, 0]  # in each other's x band
        p[0, 1], d[0, 1] = 1e308, -1e308  # dy overflows
        p[1, 1], d[1, 1] = 1e200, 0.0     # dy * dy overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = build_cost_matrix(p, d, 10.0)
            expected = GatedCosts.from_dense(cdist(p, d), 10.0)
        assert len(p) * len(d) > DENSE_CELLS and cells.shape == expected.shape
        assert np.array_equal(cells.rows, expected.rows) and np.array_equal(cells.cols, expected.cols)
        assert np.array_equal(cells.costs, expected.costs)


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        r = solve_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]), gate=10)
        assert r.matches.tolist() == [[0, 0], [1, 1]]
        assert r.unmatched_tracks.tolist() == [] and r.unmatched_detections.tolist() == []

    def test_gated_out(self):
        r = solve_assignment(np.array([[25.0]]), gate=10)
        assert r.matches.tolist() == []
        assert r.unmatched_tracks.tolist() == [0] and r.unmatched_detections.tolist() == [0]

    def test_exact_gate_distance_not_matched(self):
        r = solve_assignment(np.array([[10.0]]), gate=10)
        assert r.matches.tolist() == []
        # the in-gate cells, found by cdist and, beyond DENSE_CELLS cells, by
        # the band search: every row is 10 from its column and far from the rest
        for n in (1, 80):
            x = np.arange(n) * 100.0
            cells = build_cost_matrix(np.column_stack([x, np.zeros(n)]),
                                      np.column_stack([x + 6, np.full(n, 8.0)]), 10.0)
            assert len(cells.costs) == 0
            assert solve_assignment(cells, gate=10).matches.tolist() == []

    def test_empty(self):
        for n, m in ((0, 0), (0, 3), (3, 0)):
            costs = np.zeros((n, m))
            r = solve_assignment(costs, gate=1)
            assert r.matches.tolist() == [] and r.distances.tolist() == []
            assert r.unmatched_tracks.tolist() == list(range(n))
            assert r.unmatched_detections.tolist() == list(range(m))
            assert_contract(r, costs, 1)

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
            got_total = sum(r.distances.tolist())
            assert got_total == pytest.approx(total, abs=1e-9)
            for d in r.distances.tolist():
                assert d < gate

    def test_gating_invariant_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            costs = rng.uniform(0, 50, (int(rng.integers(0, 10)), int(rng.integers(0, 10))))
            gate = float(rng.uniform(1, 60))
            for d in solve_assignment(costs, gate).distances.tolist():
                assert d < gate

    def test_index_partition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, m = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            costs = rng.uniform(0, 30, (n, m))
            r = solve_assignment(costs, gate=15.0)
            rows = r.matches[:, 0].tolist() + r.unmatched_tracks.tolist()
            cols = r.matches[:, 1].tolist() + r.unmatched_detections.tolist()
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
            remapped = {(i, int(perm_cols[j])) for i, j in r2.matches.tolist()}
            assert remapped == {(i, j) for i, j in base.matches.tolist()}

    def test_invalid_gate(self):
        with pytest.raises(InvalidInputError):
            solve_assignment(np.zeros((1, 1)), gate=0.0)


    @pytest.mark.parametrize("gate", [6.0, 20.0])
    def test_cells_of_another_gate_rejected(self, gate):
        with pytest.raises(InvalidInputError, match="cannot be solved"):
            solve_assignment(build_cost_matrix([(0, 0)], [(3, 4)], gate=10.0), gate)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(n=st.integers(0, 9), m=st.integers(0, 9), seed=st.integers(0, 2**32 - 1),
           gate=st.floats(0.5, 40.0), integer=st.booleans())
    def test_result_contract(self, n, m, seed, gate, integer):
        """On dense matrices, integer ones (with ties) among them."""
        costs = np.random.default_rng(seed).uniform(0, 30, (n, m))
        if integer:
            costs = np.round(costs)
        assert_contract(solve_assignment(costs, gate), costs, gate)

    def test_result_contract_on_the_band_path(self):
        p, d = scene(5, 80, 75, "tracked")
        assert len(p) * len(d) > DENSE_CELLS
        result = solve_assignment(build_cost_matrix(p, d, 10.0), 10.0)
        assert len(result.matches) > 40
        assert_contract(result, cdist(p, d), 10.0)


# side lengths on both sides of DENSE_CELLS: 66 x 66 is just above it
SIDES = st.one_of(st.integers(0, 12), st.integers(66, 90))


class TestAgainstDenseSolve:
    """The split solve (lone pairs, then one contested block) against the
    dense padded solve of the whole matrix."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(n=SIDES, m=SIDES, seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["uniform", "clusters", "tracked"]),
           gate=st.sampled_from([3.0, 10.0, 25.0, 1e9]))
    @example(n=0, m=12, seed=1, layout="tracked", gate=10.0)
    @example(n=12, m=0, seed=1, layout="tracked", gate=10.0)
    @example(n=80, m=75, seed=2, layout="clusters", gate=1e9)
    def test_continuous_points_give_the_same_result(self, n, m, seed, layout, gate):
        """Continuous points have a unique optimum, so every match, distance
        and unmatched index is the dense solve's, by either input form."""
        p, d = scene(seed, n, m, layout)
        expected = dense_solve(cdist(p, d), gate)
        assert as_tuple(solve_assignment(build_cost_matrix(p, d, gate), gate)) == expected
        assert as_tuple(solve_assignment(cdist(p, d), gate)) == expected

    def test_thousand_agents(self):
        rng = np.random.default_rng(11)
        p, d = scene(11, 1000, 1000, "tracked")
        d = np.vstack([d[rng.random(1000) > 0.1], rng.uniform(0, 30.0 * np.sqrt(1000), (30, 2))])
        costs = cdist(p, d)
        expected = dense_solve(costs, 10.0)
        got = as_tuple(solve_assignment(build_cost_matrix(p, d, 10.0), 10.0))
        assert len(got[0]) > 700 and got == expected

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(n=SIDES, m=SIDES, seed=st.integers(0, 2**32 - 1),
           layout=st.sampled_from(["uniform", "clusters", "tracked"]),
           gate=st.sampled_from([1.5, 5.0, 10.0, 1e9]))
    def test_integer_points_give_an_equal_optimum(self, n, m, seed, layout, gate):
        """Integer points tie often; the split may choose another optimum,
        of the same cardinality and total cost."""
        p, d = scene(seed, n, m, layout, integer=True)
        matches, _, _ = dense_solve(cdist(p, d), gate)
        got = solve_assignment(build_cost_matrix(p, d, gate), gate)
        assert len(got.matches) == len(matches)
        assert sum(got.distances.tolist()) == pytest.approx(sum(c for _, _, c in matches),
                                                            abs=1e-9)
        assert all(c < gate for c in got.distances.tolist())
        rows = got.matches[:, 0].tolist() + got.unmatched_tracks.tolist()
        cols = got.matches[:, 1].tolist() + got.unmatched_detections.tolist()
        assert sorted(rows) == list(range(n))
        assert sorted(cols) == list(range(m))

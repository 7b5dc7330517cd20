import itertools
import math

import numpy as np
import pytest

from pointtrack.errors import ConfigError, InvalidInputError
from pointtrack.formats import Detection
from pointtrack.gog import FlowGraph, GogConfig, build_graph, solve, solve_total_cost


def det(frame, x, y, conf=0.9):
    return Detection(frame=frame, x=float(x), y=float(y), conf=conf)


# --- exhaustive oracle over disjoint path families ---

def all_paths(graph: FlowGraph):
    """Every admissible source-to-sink path with its total cost."""
    n = len(graph)
    cfg = graph.config
    paths = []

    def extend(path, cost):
        paths.append((cost + cfg.exit_cost, tuple(path)))
        last = path[-1]
        for j in range(n):
            t = graph.transition_cost(last, j)
            if t is not None:
                extend(path + [j], cost + t + graph.det_costs[j])

    for i in range(n):
        extend([i], cfg.entry_cost + graph.det_costs[i])
    return paths


def best_disjoint_family(graph: FlowGraph):
    """Minimum total cost over all vertex-disjoint families of paths
    (including the empty family at cost 0). Returns (cost, family size)."""
    paths = all_paths(graph)
    best = (0.0, 0)
    for r in range(1, len(paths) + 1):
        for combo in itertools.combinations(paths, r):
            used = set()
            ok = True
            for _, p in combo:
                if used & set(p):
                    ok = False
                    break
                used.update(p)
            if not ok:
                continue
            cost = sum(c for c, _ in combo)
            if cost < best[0] - 1e-12:
                best = (cost, r)
    return best


class TestBuildGraph:
    def test_detection_cost_at_half(self):
        g = build_graph([det(0, 0, 0, conf=0.5)])
        assert g.det_costs[0] == pytest.approx(0.0)

    def test_detection_cost_high_confidence(self):
        g = build_graph([det(0, 0, 0, conf=0.9)])
        assert g.det_costs[0] == pytest.approx(math.log(1 / 9), abs=1e-3)

    def test_transition_gating(self):
        g = build_graph([det(0, 0, 0), det(3, 50, 0)], GogConfig(gate=10.0))
        assert g.transition_cost(0, 1) is None  # 50 > 10*3

    def test_transition_cost_formula(self):
        g = build_graph([det(0, 0, 0), det(3, 12, 0)], GogConfig(gate=10.0, gap_penalty=0.2))
        assert g.transition_cost(0, 1) == pytest.approx(1.2 + 0.4)

    def test_max_gap(self):
        g = build_graph([det(0, 0, 0), det(61, 0, 0)], GogConfig(max_gap=60))
        assert g.transition_cost(0, 1) is None

    def test_confidence_domain(self):
        with pytest.raises(InvalidInputError):
            build_graph([det(0, 0, 0, conf=1.0)])
        with pytest.raises(InvalidInputError):
            build_graph([det(0, 0, 0, conf=0.0)])

    @pytest.mark.parametrize("bad,gates", [
        (det(1, 5, 5, conf=float("nan")), None),
        (det(1, float("nan"), 5), None),
        (det(1, 5, float("inf")), None),
        (None, {1: 0.0}),
        (None, {1: -5.0}),
        (None, {1: float("nan")}),
    ])
    def test_rejects_invalid_input(self, bad, gates):
        # five valid detections on a line, plus one bad detection or frame gate
        dets = [det(f, 2 * f, 0) for f in range(5)] + ([bad] if bad else [])
        with pytest.raises(InvalidInputError):
            build_graph(dets, gates_by_frame=gates)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GogConfig(max_gap=0)

    def test_per_frame_gates_scale_admission(self):
        dets = [det(0, 0, 0), det(1, 15, 0)]
        tight = build_graph(dets, GogConfig(gate=10.0))
        assert tight.transition_cost(0, 1) is None  # 15 > 10
        # a low-altitude frame widens its outgoing gate
        wide = build_graph(dets, GogConfig(gate=10.0), gates_by_frame={0: 20.0})
        assert wide.transition_cost(0, 1) == pytest.approx(15.0 / 20.0)


class TestSolve:
    def test_three_detections_one_track(self):
        dets = [det(0, 0, 0), det(1, 1, 0), det(2, 2, 0)]
        cfg = GogConfig(entry_cost=1.0, exit_cost=1.0)
        result = solve(build_graph(dets, cfg))
        assert len(result) == 1
        assert [p.frame for p in result.tracks[1]] == [0, 1, 2]
        # path cost is negative: 2 - 3*2.197 + 2*0.1
        cost, _ = best_disjoint_family(build_graph(dets, cfg))
        assert cost < 0

    def test_low_confidence_yields_nothing(self):
        dets = [det(f, f, 0, conf=0.1) for f in range(3)]
        g = build_graph(dets, GogConfig(entry_cost=1.0, exit_cost=1.0))
        assert len(solve(g)) == 0
        cost, size = best_disjoint_family(g)
        assert size == 0  # oracle agrees: no negative family exists

    def test_empty_input(self):
        assert len(solve(build_graph([]))) == 0

    def test_occlusion_bridged(self):
        dets = [det(f, f, 0) for f in range(5)] + [det(f, f, 0) for f in range(15, 20)]
        result = solve(build_graph(dets, GogConfig(entry_cost=2, exit_cost=2)))
        assert len(result) == 1
        assert len(result.tracks[1]) == 10

    def test_two_parallel_tracks(self):
        dets = []
        for f in range(4):
            dets.append(det(f, f, 0.0))
            dets.append(det(f, f, 100.0))
        result = solve(build_graph(dets, GogConfig(entry_cost=1, exit_cost=1)))
        assert len(result) == 2
        ys = sorted({p.y for tid in result.ids for p in result.tracks[tid]})
        assert ys == [0.0, 100.0]

    def test_far_detection_does_not_disturb(self):
        dets = [det(f, f, 0) for f in range(4)]
        base = solve(build_graph(dets, GogConfig(entry_cost=1, exit_cost=1)))
        with_far = dets + [det(2, 400.0, 400.0, conf=0.6)]
        again = solve(build_graph(with_far, GogConfig(entry_cost=1, exit_cost=1)))
        base_pts = [(p.frame, p.x, p.y) for p in base.tracks[1]]
        again_pts = [(p.frame, p.x, p.y) for p in again.tracks[1]]
        assert base_pts == again_pts


class TestOracleHarness:
    def _random_instance(self, rng):
        n = int(rng.integers(1, 7))
        dets = []
        for _ in range(n):
            dets.append(det(int(rng.integers(0, 6)),
                            float(rng.uniform(0, 40)), float(rng.uniform(0, 40)),
                            conf=float(rng.uniform(0.2, 0.95))))
        cfg = GogConfig(entry_cost=float(rng.uniform(0.5, 3)),
                        exit_cost=float(rng.uniform(0.5, 3)),
                        gap_penalty=0.2, max_gap=6, gate=10.0)
        return build_graph(dets, cfg)

    def test_small_instances_against_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        exact, suboptimal = 0, 0
        for _ in range(150):
            g = self._random_instance(rng)
            greedy_cost = solve_total_cost(g)
            oracle_cost, oracle_size = best_disjoint_family(g)
            # always-true properties of the greedy solution
            assert greedy_cost <= 1e-12
            result = solve(g)
            used = []
            for tid in result.ids:
                pts = result.tracks[tid]
                frames = [p.frame for p in pts]
                assert frames == sorted(frames)
                used += [(p.frame, p.x, p.y) for p in pts]
            assert len(used) == len(set(used))  # vertex-disjoint
            assert greedy_cost >= oracle_cost - 1e-9
            # exactness on the documented subset: optimal family uses <= 1 path
            if oracle_size <= 1:
                assert greedy_cost == pytest.approx(oracle_cost, abs=1e-9)
                exact += 1
            elif abs(greedy_cost - oracle_cost) > 1e-9:
                suboptimal += 1
        assert exact > 0  # the documented subset is non-trivial

    def test_every_extracted_path_is_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            g = self._random_instance(rng)
            # replay extraction manually to observe per-path costs
            from pointtrack.gog import _cheapest_path
            alive = np.ones(len(g), dtype=bool)
            while alive.any():
                cost, path = _cheapest_path(g, alive)
                if cost >= 0 or not path:
                    break
                assert cost < 0
                for i in path:
                    alive[i] = False

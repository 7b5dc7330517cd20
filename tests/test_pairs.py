"""tools/pairs.py: its claim rule on fixed numbers, its digest lines, and a
smoke run of one tiny pair."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


class TestVerdict:
    BASE = [4.30, 4.35, 4.28, 4.40, 4.33, 4.31, 4.36, 4.29, 4.34, 4.32]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_wider_than_the_iqr(self):
        head = [2.5] * 10
        assert pairs.verdict(self.BASE, head, True, 0.25) == (10, "gain")
        one_loss = [2.5] * 9 + [5.0]
        assert pairs.verdict(self.BASE, one_loss, True, 0.25) == (9, "gain")
        two_losses = [2.5] * 8 + [5.0, 5.0]
        assert pairs.verdict(self.BASE, two_losses, True, 0.25) == (8, "within bound")

    def test_no_gain_below_ten_pairs(self):
        assert pairs.verdict(self.BASE[:9], [2.5] * 9, True, 0.25) == (9, "within bound")

    def test_no_gain_inside_the_base_spread(self):
        # the head wins every pair, but by less than the base's IQR
        base = [4.0, 5.0] * 5
        assert pairs.verdict(base, [b - 0.1 for b in base], True, 0.25) == (10, "within bound")

    def test_a_tie_counts_for_neither_side(self):
        assert pairs.verdict(self.BASE, self.BASE, True, 0.25) == (0, "within bound")

    def test_higher_is_better(self):
        assert pairs.verdict([200.0] * 10, [290.0] * 10, False, 0.25) == (10, "gain")
        assert pairs.verdict([200.0] * 10, [140.0] * 10, False, 0.25) == (0, "worse")

    def test_worse_beyond_the_bound(self):
        assert pairs.verdict([90.0] * 3, [100.0] * 3, True, 0.1) == (0, "worse")
        assert pairs.verdict([90.0] * 3, [98.0] * 3, True, 0.1) == (0, "within bound")

    def test_unresolved_when_the_base_spreads_wider_than_the_bound(self):
        base = [1.0, 2.0, 3.0, 4.0]
        assert pairs.verdict(base, [2.4, 2.6, 2.4, 2.6], True, 0.25) == (2, "unresolved")
        # unless every head run beats every base run
        assert pairs.verdict(base, [0.9, 0.8, 0.9, 0.8], True, 0.25)[1] == "within bound"


def test_digest_lines_mark_each_mismatch():
    line = "tr_nae 0.1, id_sw 2, t_ap10 1, gt_trajectories 20, pred_trajectories 22"
    quality = pairs.parse_quality(line)
    assert quality == {"tr_nae": "0.1", "id_sw": "2", "t_ap10": "1", "gt_trajectories": "20",
                       "pred_trajectories": "22"}
    base = {7: ("a" * 64, quality), 1000007: ("b" * 64, quality), 2000007: ("d" * 64, quality)}
    head = {7: ("a" * 64, quality), 1000007: ("c" * 64, quality),
            2000007: ("d" * 64, {**quality, "id_sw": "3", "t_map": "0.5", "pred_trajectories": "21"})}
    assert pairs.digest_lines("w seed 7 trace 0", base, head) == [
        f"w seed 7 trace 0 scenario 7: {'a' * 64} equal; quality equal",
        f"w seed 7 trace 0 scenario 1000007: {'c' * 64} DIFFERS from base {'b' * 64}; quality equal",
        f"w seed 7 trace 0 scenario 2000007: {'d' * 64} equal; quality DIFFERS: id_sw 3 (base 2), "
        "t_map 0.5 (base None)",
    ]


def test_scenario_lines_parse_with_their_quality():
    text = (f"scenario seed 7: output sha256 {'a' * 64}; quality tr_nae 0, id_sw 5\n"
            f"scenario seed 23: output sha256 {'b' * 64}\n")
    assert [(int(s), d, pairs.parse_quality(q)) for s, d, q in pairs.DIGEST_LINE.findall(text)] == [
        (7, "a" * 64, {"tr_nae": "0", "id_sw": "5"}), (23, "b" * 64, {})]


def _tree(dest: Path) -> Path:
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("work", "__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def test_one_tiny_pair(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    proc = subprocess.run([sys.executable, "tools/pairs.py", "--base", str(base), "--head", str(head),
                           "--workload", "s20_offline", "--pairs", "1", "--size", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == [m["name"] for m in BENCH["end_to_end"]]
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[3] in ("0 of 1", "1 of 1")
        # one pair never supports a gain
        assert cells[5] in ("within bound", "worse", "unresolved")
    assert "base: operations attempted" in proc.stdout and "head: operations attempted" in proc.stdout


@pytest.mark.parametrize("missing", ["base", "head"])
def test_tree_without_the_benchmark_is_a_usage_error(tmp_path, missing):
    trees = {"base": ROOT, "head": ROOT, missing: tmp_path}
    proc = subprocess.run([sys.executable, "tools/pairs.py", "--base", str(trees["base"]),
                           "--head", str(trees["head"]), "--workload", "s20_offline"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "holds no perfbench/run.py" in proc.stderr


@pytest.mark.parametrize("args,message", [
    (["--workload", "s20_offline", "--pairs", "0"], "--pairs 0 runs nothing without --digests"),
    (["--workload", "no_such_workload"], "unknown workload 'no_such_workload'"),
], ids=["zero_pairs_without_digests", "unknown_workload"])
def test_argument_that_runs_nothing_is_a_usage_error(args, message):
    proc = subprocess.run([sys.executable, "tools/pairs.py", "--base", str(ROOT), "--head", str(ROOT), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""

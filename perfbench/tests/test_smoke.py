"""Smoke test: every workload at a tiny size, untraced and traced.

    python3 -m pytest -q perfbench/tests

Asserts that each run exits 0, that its output checks pass, and that the
last line carries every BENCHMARK.json metric of that mode with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    checks = next(line for line in lines if line.startswith("checks "))
    assert "FAILED" not in checks
    if trace:  # the traced job reran the untraced job's bundle
        assert "output_repeatable ok" in checks


def _copy_benchmark(dest: Path):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))


def test_refuses_to_run_without_the_sources(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


# Appended to a copy of the package. The first makes every frame emit its
# first record twice; the second makes the tenth frame raise.
DUPLICATE_RECORD = """
def _duplicate_first_record(process_frame):
    def wrapped(self, frame_input):
        out = process_frame(self, frame_input)
        out.records.extend(out.records[:1])
        return out
    return wrapped


PointTracker.process_frame = _duplicate_first_record(PointTracker.process_frame)
"""
RAISE_ON_FRAME_10 = """
def _raise_on_frame_10(process_frame):
    def wrapped(self, frame_input):
        if frame_input.frame == 10:
            raise RuntimeError("injected failure")
        return process_frame(self, frame_input)
    return wrapped


PointTracker.process_frame = _raise_on_frame_10(PointTracker.process_frame)
"""


@pytest.mark.parametrize("patch, shown", [(DUPLICATE_RECORD, "id_once_per_frame FAILED"),
                                          (RAISE_ON_FRAME_10, "RuntimeError: injected failure")])
def test_failure_exits_nonzero(tmp_path, patch, shown):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "pointtrack" / "__init__.py", "a") as fh:
        fh.write(patch)
    proc = _run(tmp_path, "--workload", "s20_online", "--seed", "3", "--seconds", "1",
                "--size", "tiny")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert shown in proc.stdout + proc.stderr

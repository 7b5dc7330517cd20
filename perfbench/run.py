"""pointtrack benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload s20_online --seed 7 --seconds 36 --trace 0

The workload's ScenarioConfig lives in perfbench/workloads.json. A run
generates it for several seeds derived from --seed (seed + k * SEED_STRIDE)
in one child process and writes one bundle per seed under perfbench/work/;
the program only ever sees those bundles. Each job tracks one bundle in a
fresh child process (job.py), so a job's peak RSS excludes the generator.
Every bundle is tracked exactly once. How many there are is fixed per
workload ("scenarios" in workloads.json, sized so that a run takes about
BENCHMARK.json's run_seconds); it never depends on --seconds or on how fast
the code under test runs, so a parent and a change measure the same frames.
With --trace 1, half as many bundles (rounded up) are each tracked untraced
and then traced, and the per-layer metrics come from the traced jobs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are BENCHMARK.json's end_to_end
list (--trace 0) or its per_layer list (--trace 1). The lines before it are
a readable report, also saved as JSON under perfbench/work/results/. The exit
status is 1 when any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# numpy's OpenBLAS would otherwise start one thread per core for tiny
# matrices; pinning makes timings independent of how busy the machine is
BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")}
DEADLINE_S = 170.0   # every run must end within 180 s
# scenario k of a run uses seed --seed + k * SEED_STRIDE; several scenarios
# per run average out how much tracking work one seed's scene happens to need
SEED_STRIDE = 1_000_000


class BenchError(Exception):
    pass


def _child(role: str, spec: dict, env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} step")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), role, json.dumps(spec)],
                              env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} step ran past the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} step exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _mean_eval(jobs: list[dict], key: str = "") -> float:
    """Evaluation time per repeat, averaged over every repeat of every job."""
    repeats = sum(j["eval_repeats"] for j in jobs)
    total = sum((j[key] if key else j)["eval_s"] * j["eval_repeats"] for j in jobs)
    return total / repeats if repeats else float("nan")


def measure(workload: dict, scenario: dict, args, env: dict, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # a traced run tracks each bundle twice, so it takes half as many
    count = math.ceil(workload["scenarios"] / 2) if args.trace else workload["scenarios"]
    seeds = [args.seed + k * SEED_STRIDE for k in range(count)]
    bundles = [str(work / f"scenario{k}") for k in range(count)]
    setup = _child("setup", {"scenario": scenario, "seeds": seeds, "bundles": bundles}, env, deadline)
    spec = {"out": str(work / "tracks.csv"), "tracker": workload.get("tracker", {}),
            "gog": workload.get("gog", {}), "t_ap10": workload["t_ap10"]}
    jobs = []
    for k, bundle in enumerate(bundles):
        # a traced job reruns the untraced job's bundle, so their outputs must match
        for traced in (False, True) if args.trace else (False,):
            job = _child(workload["job"], dict(spec, bundle=bundle, trace=traced), env, deadline)
            jobs.append(dict(job, traced=traced, scenario=k))
    return {"setup": setup, "jobs": jobs, "seeds": seeds}


def summarize(raw: dict, trace: bool) -> dict:
    setup, jobs = raw["setup"], raw["jobs"]
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if trace and not traced:
        raise BenchError("no traced job finished within the time limit")
    setup_s = [g + w for g, w in zip(setup["generate_s"], setup["write_bundle_s"])]
    # pooled over every untraced job of the run: the machine's speed drifts
    # over seconds, so estimates that average over the whole run are steadiest
    frame_ms = [1e3 * s for j in plain for s in j["frame_s"]]
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "track_fps": sum(j["frames"] for j in plain) / sum(j["job_s"] for j in plain),
        "frame_ms_p50": statistics.median(frame_ms),
        "frame_ms_p95": _p95(frame_ms),
        "eval_s": _mean_eval(plain),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
    }
    wall_clock = {
        "setup_s": statistics.median(setup["wall_s"]),
        "track_fps": sum(j["frames"] for j in plain) / sum(j["wall"]["job_s"] for j in plain),
        "frame_ms_p50": statistics.median(j["wall"]["frame_ms"] for j in plain),
        "eval_s": _mean_eval(plain, "wall"),
    }
    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median(j["layers"][name] for j in traced)
        per_layer["simulate.generate_s"] = statistics.median(setup["generate_s"])
        per_layer["formats.write_bundle_s"] = statistics.median(setup["write_bundle_s"])
        per_layer["formats.bundle_mb"] = statistics.median(setup["bundle_mb"])
        busy = [j["job_s"] + j["eval_s"] for j in traced], [j["job_s"] + j["eval_s"] for j in plain]
        per_layer["trace.overhead_frac"] = statistics.median(busy[0]) / statistics.median(busy[1]) - 1.0

    names = dict.fromkeys(name for j in jobs for name in j["checks"])
    checks = {name: all(j["checks"].get(name, True) for j in jobs) for name in names}
    digests: dict[int, set] = {}
    for j in jobs:
        digests.setdefault(j["scenario"], set()).add(j["digest"])
    # a bundle tracked twice in a run (traced runs always do) must give identical bytes
    checks["output_repeatable"] = all(len(d) == 1 for d in digests.values())
    attempted = sum(j["attempted"] for j in jobs)
    failed = min(attempted, sum(j["failed"] for j in jobs) + sum(not ok for ok in checks.values()))
    return {
        "end_to_end": end_to_end, "per_layer": per_layer, "checks": checks,
        "wall_clock": wall_clock,
        "slowdown": statistics.median(j["wall"]["job_s"] / j["job_s"] for j in jobs),
        "attempted": attempted, "failed": failed,
        "jobs": len(jobs), "traced_jobs": len(traced), "frame_samples": len(frame_ms),
        "frame_samples_beyond_p95": sum(v > end_to_end["frame_ms_p95"] for v in frame_ms),
        "scenarios": {raw["seeds"][j["scenario"]]: {"sha256": j["digest"], "quality": j["quality"],
                                                     "counts": j["counts"]}
                      for j in jobs},
        "tracker_config": jobs[0]["config"], "scenario": setup["scenario"], "setup_s": setup_s,
        "per_job": [{"scenario": j["scenario"], "traced": j["traced"], "job_s": j["job_s"],
                     "eval_s": j["eval_s"], "eval_repeats": j["eval_repeats"], "wall": j["wall"]}
                    for j in jobs],
    }


def _report_lines(name: str, args, summary: dict, environment: dict, units: dict) -> list[str]:
    lines = [
        f"workload {name}  seed {args.seed}  size {args.size}  trace {args.trace}  "
        f"jobs {summary['jobs']} ({summary['traced_jobs']} traced)",
        "environment " + ", ".join(f"{k} {v}" for k, v in environment.items()),
    ]
    for seed, scenario in sorted(summary["scenarios"].items()):
        lines.append(f"scenario seed {seed}: output sha256 {scenario['sha256']}; quality " + ", ".join(
            f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}" for k, v in scenario["quality"].items()))
    lines += [
        "checks " + ", ".join(f"{k} {'ok' if ok else 'FAILED'}" for k, ok in summary["checks"].items()),
        f"operations attempted {summary['attempted']}, failed {summary['failed']}",
        f"frame latency samples {summary['frame_samples']} "
        f"({summary['frame_samples_beyond_p95']} beyond p95)",
    ]
    lines.append(f"machine slowdown {summary['slowdown']:.3f} (median over jobs); unscaled wall clock: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in summary["wall_clock"].items()))
    for key in ("end_to_end", "per_layer"):
        for metric, value in summary[key].items():
            lines.append(f"{metric} {value:.6g} {units.get(metric, '')}".rstrip())
    return lines


def main(argv=None) -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="nominal run length; the work of a run is fixed per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the scenario for a smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pointtrack" / "__init__.py").is_file():
        print("error: src/pointtrack not found; run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    workload = workloads[args.workload]
    scenario = dict(workload["scenario"], seed=args.seed)
    if args.size == "tiny":
        scenario.update(workload["tiny"])
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_THREADS)
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        raw = measure(workload, scenario, args, env, work)
        summary = summarize(raw, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    environment = dict(raw["setup"]["environment"], nproc=os.cpu_count(),
                       usable_cpus=len(os.sched_getaffinity(0)),
                       blas_threads=",".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))
    for line in _report_lines(args.workload, args, summary, environment, units):
        print(line)
    results = HERE / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    report = dict(summary, workload=args.workload, seed=args.seed, size=args.size,
                  trace=args.trace, environment=environment)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    values = summary["per_layer" if args.trace else "end_to_end"]
    # failed counts raised operations and failed checks alike
    correct = summary["failed"] == 0 and all(math.isfinite(v) for v in values.values())
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

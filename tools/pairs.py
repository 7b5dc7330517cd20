"""Paired benchmark runs of two source trees: a speed verdict per metric, and
the byte-identity check of the tracks.

    python3 tools/pairs.py --base DIR --head DIR --workload W [--pairs N]
                           [--seed S] [--size full|tiny] [--digests]

--base and --head are the roots of two checkouts, usually the parent commit
and the change, each in its own directory. Pair k runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each tree, the
base first when k is even and the head first when k is odd, so that a drift
of the machine's speed favours neither side. For each end-to-end metric of
the base's BENCHMARK.json it prints a Markdown row: each side's median and
quartiles, the number of pairs in which the head was better (a tie counts
for neither side), the base's interquartile range (IQR) and a verdict.

The claim rule. A speed claim holds only for a metric whose verdict is
``gain``:

- gain: at least 10 pairs were run, the head was better in at least nine
  tenths of them, and the head's median is better than the base's by more
  than the base's IQR;
- worse: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json (a fraction of the base's median);
- unresolved: not worse, but the base's IQR is wider than the bound and not
  every head run is better than every base run, so the runs spread too
  widely to call the metric unchanged;
- within bound: any other case.

The operations each side attempted and failed are printed as well; a gain
does not count when the head fails more of them.

With --digests the byte-identity check follows: perfbench/run.py in both
trees for every workload of BENCHMARK.json, at seeds 7 and 23, with --trace
0 and --trace 1 (12 runs per tree). It prints each scenario's digest in the
head tree and marks every one that differs from the base's. It also marks
each scenario whose quality scores, as run.py prints them (Tr-nAE, ID-SW,
T-AP@10 and T-mAP), differ from the base's. A mismatch is reported, not an
error: a deliberate behaviour change moves digests and scores.

The exit status is 1 when a run fails (it exits non-zero, prints no result
line or reports a failed operation), else 0.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10          # fewer pairs never support a gain
WIN_SHARE = 0.9         # share of pairs the head must win for a gain
DIGEST_SEEDS = (7, 23)
RUN_TIMEOUT_S = 600     # run.py holds itself to 180 s; this only catches a hang
DIGEST_LINE = re.compile(r"^scenario seed (\d+): output sha256 ([0-9a-f]{64})(?:; quality (.*))?$",
                         re.MULTILINE)
QUALITY = ("tr_nae", "id_sw", "t_ap10", "t_map")  # the scores compared between trees


class RunError(Exception):
    pass


def run_bench(tree: Path, workload: str, seed: int, trace: int, size: str) -> dict:
    """One perfbench/run.py run in tree: its result line (correct, attempted,
    failed, metrics) plus the scenario digests of its report."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--size", size]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{tree}: {workload} seed {seed} trace {trace} ran past {RUN_TIMEOUT_S} s") from None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError(f"{tree}: {workload} seed {seed} trace {trace} exited {proc.returncode} "
                       f"without a result line: {proc.stderr.strip()[-500:]}") from None
    result["ok"] = proc.returncode == 0 and result.get("correct") is True
    result["digests"] = {int(s): (d, parse_quality(q)) for s, d, q in DIGEST_LINE.findall(proc.stdout)}
    return result


def parse_quality(text: str) -> dict[str, str]:
    """{score: printed value} of the quality part of a scenario line, such
    as "tr_nae 0.1, id_sw 2"."""
    return dict(item.rsplit(" ", 1) for item in text.split(", ")) if text else {}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(base: list[float], head: list[float], lower_is_better: bool, bound: float) -> tuple[int, str]:
    """(pairs the head won, verdict) for paired runs base[k], head[k]; see the
    claim rule in the module docstring."""
    sign = 1.0 if lower_is_better else -1.0  # sign * value: lower is better
    wins = sum(sign * h < sign * b for b, h in zip(base, head))
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    b_med, h_med = statistics.median(base), statistics.median(head)
    gain = sign * (b_med - h_med)  # > 0 when the head's median is better
    if len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base) and gain > iqr:
        return wins, "gain"
    if -gain > bound * abs(b_med):
        return wins, "worse"
    every_run_better = max(sign * h for h in head) < min(sign * b for b in base)
    if iqr > bound * abs(b_med) and not every_run_better:
        return wins, "unresolved"
    return wins, "within bound"


def pair_report(bench: dict, base_runs: list[dict], head_runs: list[dict]) -> list[str]:
    """The Markdown table of the end-to-end metrics and the failure counts."""
    lines = ["| metric | base median (q1–q3) | head median (q1–q3) | head better | base IQR | verdict |",
             "| --- | --- | --- | --- | --- | --- |"]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        head = [r["metrics"][name]["value"] for r in head_runs]
        wins, call = verdict(base, head, metric["better"] == "lower", metric["bound"])
        (bq1, bq3), (hq1, hq3) = quartiles(base), quartiles(head)
        lines.append(f"| `{name}` ({metric['unit']}) | {statistics.median(base):.4g} ({bq1:.4g}–{bq3:.4g}) "
                     f"| {statistics.median(head):.4g} ({hq1:.4g}–{hq3:.4g}) | {wins} of {len(base)} "
                     f"| {bq3 - bq1:.4g} | {call} |")
    for side, runs in (("base", base_runs), ("head", head_runs)):
        lines.append(f"{side}: operations attempted {sum(r['attempted'] for r in runs)}, "
                     f"failed {sum(r['failed'] for r in runs)}")
    return lines


def digest_lines(label: str, base: dict[int, tuple], head: dict[int, tuple]) -> list[str]:
    """One line per scenario of a run pair, each side's scenarios given as
    {seed: (digest, quality)}: the head's digest, and the base's beside it
    when the two differ; then each QUALITY score that differs, with the
    base's value beside the head's."""
    lines = []
    for scenario in sorted(set(base) | set(head)):
        (b, b_quality), (h, h_quality) = base.get(scenario, (None, {})), head.get(scenario, (None, {}))
        state = "equal" if b == h else f"DIFFERS from base {b}"
        moved = [f"{k} {h_quality.get(k)} (base {b_quality.get(k)})"
                 for k in QUALITY if h_quality.get(k) != b_quality.get(k)]
        quality = "DIFFERS: " + ", ".join(moved) if moved else "equal"
        lines.append(f"{label} scenario {scenario}: {h} {state}; quality {quality}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the parent's checkout")
    parser.add_argument("--head", required=True, type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help="timing pairs; 0 runs only --digests")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--digests", action="store_true", help="also run the byte-identity check")
    args = parser.parse_args(argv)
    for tree in (args.base, args.head):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    if args.pairs < 0:
        parser.error("--pairs must be >= 0")
    if args.pairs == 0 and not args.digests:
        parser.error("--pairs 0 runs nothing without --digests")
    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; the base's BENCHMARK.json has {', '.join(names)}")
    ok = True
    try:
        if args.pairs:
            runs = {"base": [], "head": []}
            for k in range(args.pairs):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    run = run_bench(getattr(args, side), args.workload, args.seed, 0, args.size)
                    ok &= run["ok"]
                    runs[side].append(run)
            print(f"{args.workload}, seed {args.seed}, size {args.size}, --trace 0: "
                  f"pairs {args.pairs}, alternating which tree runs first\n")
            print("\n".join(pair_report(bench, runs["base"], runs["head"])))
        if args.digests:
            print(f"\nper-scenario sha256 of tracks.csv, size {args.size}:")
            equal = same_quality = total = 0
            for workload in (w["name"] for w in bench["workloads"]):
                for seed in DIGEST_SEEDS:
                    for trace in (0, 1):
                        base, head = (run_bench(tree, workload, seed, trace, args.size)
                                      for tree in (args.base, args.head))
                        ok &= base["ok"] and head["ok"]
                        lines = digest_lines(f"{workload} seed {seed} trace {trace}",
                                             base["digests"], head["digests"])
                        print("\n".join(lines))
                        total += len(lines)
                        equal += sum(" equal; quality " in line for line in lines)
                        same_quality += sum(line.endswith("; quality equal") for line in lines)
            print(f"{equal} of {total} scenario digests equal, "
                  f"{same_quality} of {total} scenario qualities equal")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print("error: a run failed or reported a failed operation", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The ablation ladder: the tracker's four additions (CMC, ALT, CLS, DDCF)
switched on one at a time, with the offline GOG baseline beside them.

    python3 tools/ladder.py [--size full|tiny] [--out LADDER.json]

The scenes are perfbench/workloads.json's s20_online scenario at seeds
7 + k * 1,000,000, in two altitude variants: constant 100 m, and linear
from 100 to 40 m. --size full runs 8 scenes per variant; --size tiny runs 2,
with the workload's tiny overrides but 100 frames, so that a track can be
confirmed and scored on the online rungs. Each scene goes through
simulate.generate and write_bundle, and each ladder row is the CLI run on
that bundle: ``pointtrack track`` with the additions above the rung
disabled (or ``pointtrack gog``), then ``pointtrack evaluate`` with the
default ID-SW gate.

The JSON written holds, per variant and row, each scene's Tr-nAE, ID-SW
and T-AP@10, the mean Tr-nAE, the total ID-SW and the mean T-AP@10, and the
list of flips: a scene, rung and metric where a rung does worse than the
rung below it. It holds no timings, so reruns write the same bytes. A
Markdown table of the aggregates goes to standard output.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pointtrack import cli  # noqa: E402
from pointtrack.formats import parse_kv_text  # noqa: E402
from pointtrack.simulate import ScenarioConfig, generate, write_bundle  # noqa: E402

WORKLOAD = "s20_online"
SEED_STRIDE = 1_000_000
SCENES = {"full": 8, "tiny": 2}
# the workload's tiny scenes (50 frames) are shorter than twice min_hits: every online rung read T-AP@10 0
TINY_FRAMES = 100
VARIANTS = {
    "constant": {"altitude_shape": "constant", "altitude_start": 100.0, "altitude_end": 100.0},
    "linear": {"altitude_shape": "linear", "altitude_start": 100.0, "altitude_end": 40.0},
}
# cumulative rungs: rung k runs the first k additions and disables the rest
ADDITIONS = cli.DISABLE_CHOICES
RUNGS = ["baseline"] + [f"+{name.upper()}" for name in ADDITIONS]
# metric -> whether a higher value is worse
METRICS = {"tr_nae": True, "id_sw": True, "t_ap10": False}


def _cli(*argv: str):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    if status:
        raise RuntimeError(f"pointtrack {argv[0]} exited with status {status}")


def _score(bundle: Path, command: list[str]) -> dict:
    """Run one CLI tracking command on bundle and score its tracks.csv."""
    tracks, report = bundle / "tracks.csv", bundle / "report.txt"
    _cli(*command, "--bundle", str(bundle), "--out", str(tracks))
    _cli("evaluate", "--gt", str(bundle / "gt.csv"), "--pred", str(tracks), "--report", str(report))
    values = parse_kv_text(report.read_text())
    return {"tr_nae": float(values["tr_nae"]), "id_sw": int(values["id_sw"]),
            "t_ap10": float(values["t_ap_10"])}


def _scenario(size: str, variant: dict, seed: int) -> ScenarioConfig:
    workload = json.loads((ROOT / "perfbench" / "workloads.json").read_text())[WORKLOAD]
    tiny = dict(workload["tiny"], frames=TINY_FRAMES) if size == "tiny" else {}
    fields = dict(workload["scenario"], **tiny, **variant, seed=seed)
    fields["occlusion_windows"] = tuple(map(tuple, fields["occlusion_windows"]))
    return ScenarioConfig(**fields)


def run_variant(size: str, variant: dict, seeds: list[int], work: Path) -> dict:
    rows = {name: {"scenes": {}} for name in RUNGS + ["GOG"]}
    for seed in seeds:
        bundle = write_bundle(generate(_scenario(size, variant, seed)), work / f"{seed}")
        for k, name in enumerate(RUNGS):
            disabled = [arg for addition in ADDITIONS[k:] for arg in ("--disable", addition)]
            rows[name]["scenes"][seed] = _score(bundle, ["track", *disabled])
        rows["GOG"]["scenes"][seed] = _score(bundle, ["gog"])
    for row in rows.values():
        scenes = list(row["scenes"].values())
        row["mean_tr_nae"] = sum(s["tr_nae"] for s in scenes) / len(scenes)
        row["total_id_sw"] = sum(s["id_sw"] for s in scenes)
        row["mean_t_ap10"] = sum(s["t_ap10"] for s in scenes) / len(scenes)
    flips = []
    for seed in seeds:
        for lower, upper in zip(RUNGS, RUNGS[1:]):
            for metric, higher_is_worse in METRICS.items():
                below, value = rows[lower]["scenes"][seed][metric], rows[upper]["scenes"][seed][metric]
                if (value > below) if higher_is_worse else (value < below):
                    flips.append({"scene": seed, "rung": upper, "metric": metric, "below": below, "value": value})
    return {"altitude": variant, "rows": rows, "flips": flips}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(SCENES), default="full")
    parser.add_argument("--out", default=str(ROOT / "LADDER.json"))
    args = parser.parse_args(argv)
    seeds = [7 + k * SEED_STRIDE for k in range(SCENES[args.size])]
    with tempfile.TemporaryDirectory(prefix="ladder-") as work:
        variants = {name: run_variant(args.size, variant, seeds, Path(work) / name)
                    for name, variant in VARIANTS.items()}
    ladder = {"scenario": WORKLOAD, "size": args.size, "seeds": seeds, "variants": variants}
    Path(args.out).write_text(json.dumps(ladder, indent=1) + "\n")
    print(f"ablation ladder, {WORKLOAD} at size {args.size}, {len(seeds)} scenes per variant\n")
    print("| variant | row | mean Tr-nAE | total ID-SW | mean T-AP@10 | flips |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, variant in variants.items():
        for row_name, row in variant["rows"].items():
            flips = sum(f["rung"] == row_name for f in variant["flips"]) if row_name in RUNGS[1:] else ""
            print(f"| {name} | {row_name} | {row['mean_tr_nae']:.6g} | {row['total_id_sw']} "
                  f"| {row['mean_t_ap10']:.6g} | {flips} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

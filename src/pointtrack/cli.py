"""Command-line entry points: simulate, track, gog, evaluate, render, version.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

import argparse
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import __version__
from .assignment import dynamic_threshold
from .config import ToolkitConfig, load_toolkit_config
from .errors import ParseError, TrackingError
from .formats import (
    DETECTIONS, GT, METADATA, SOURCE_DETECTION, TRACKS, SequenceBundlePaths,
    format_float, parse_detections, parse_kv_text, write_kv_text, write_tracks,
)
from .gog import build_graph, solve
from .lifecycle import ScoreColumnValidator
from .metrics import T_MAP_THRESHOLDS, TrajectorySet, compute_sequence_metrics
from .pipeline import frame_inputs_from_bundle, run_sequence
from .render import render_overlay
from .simulate import generate, scenario_from_kv, write_bundle

DISABLE_CHOICES = ("cmc", "alt", "cls", "ddcf")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pointtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic sequence bundle")
    p.add_argument("--config", help="scenario key=value file (defaults when omitted)")
    p.add_argument("--out", required=True, help="bundle output directory")

    p = sub.add_parser("track", help="run the online tracker over a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", help="global key=value config file")
    p.add_argument("--out", required=True, help="output tracks CSV")
    p.add_argument("--disable", action="append", default=[], choices=DISABLE_CHOICES,
                   help="turn an enhancement off (repeatable)")

    p = sub.add_parser("gog", help="run the offline min-cost-flow baseline")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", help="global key=value config file")
    p.add_argument("--out", required=True, help="output tracks CSV")

    p = sub.add_parser("evaluate", help="score predicted tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--report", help="write a machine-readable key=value report here")
    p.add_argument("--config", help="global key=value config file")

    p = sub.add_parser("render", help="render a trajectory overlay SVG")
    p.add_argument("--bundle", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("version", help="print the package version")
    return parser


def _tracker_config(args) -> ToolkitConfig:
    cfg = load_toolkit_config(args.config)
    disabled = {f"use_{name}": False for name in getattr(args, "disable", [])}
    return replace(cfg, tracker=replace(cfg.tracker, **disabled))


def _cmd_simulate(args) -> int:
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise TrackingError(f"scenario config {path} does not exist")
        scenario = scenario_from_kv(parse_kv_text(path.read_text()))
    else:
        scenario = scenario_from_kv({})
    bundle = generate(scenario)
    out = write_bundle(bundle, args.out)
    print(f"wrote bundle with {len(bundle.frames)} frames to {out}")
    return 0


def _detections_have_scores(paths: SequenceBundlePaths) -> bool:
    with open(paths.detections, "r", encoding="utf-8") as fh:
        return fh.readline().strip() == DETECTIONS.header


def _cmd_track(args) -> int:
    cfg = _tracker_config(args)
    paths = SequenceBundlePaths.from_dir(args.bundle)
    validator = ScoreColumnValidator() if _detections_have_scores(paths) else None
    result = run_sequence(frame_inputs_from_bundle(paths), cfg.tracker, validator)
    rows = [r for out in result.outputs for r in out.records]
    Path(args.out).write_text(write_tracks(rows))
    print(f"tracked {len(result.outputs)} frames: {result.summary.trajectory_count} "
          f"confirmed trajectories, {len(rows)} records -> {args.out}")
    return 0


def _cmd_gog(args) -> int:
    cfg = _tracker_config(args)
    paths = SequenceBundlePaths.from_dir(args.bundle)
    detections = parse_detections(paths.detections.read_text())
    gates = None
    if paths.metadata is not None:
        frame, altitude = METADATA.parse_columns(paths.metadata.read_text())
        gates = {f: dynamic_threshold(a, cfg.tracker.gating)
                 for f, a in zip(frame.tolist(), altitude.tolist())}
    trajectories = solve(build_graph(detections, cfg.gog, gates))
    columns = trajectories.frame_major()
    Path(args.out).write_text(TRACKS.write_columns([*columns, [SOURCE_DETECTION] * len(columns[0])]))
    print(f"gog extracted {len(trajectories)} trajectories, {len(columns[0])} records -> {args.out}")
    return 0


def _load_trajectories(path: Path, gt: bool) -> TrajectorySet:
    """gt.csv's frame, id, x and y columns, or tracks.csv's and its conf."""
    columns = (GT if gt else TRACKS).parse_columns(path.read_text())
    return TrajectorySet(*columns[:4 if gt else 5])


def _cmd_evaluate(args) -> int:
    cfg = load_toolkit_config(args.config)
    gt = _load_trajectories(Path(args.gt), gt=True)
    pred = _load_trajectories(Path(args.pred), gt=False)
    m = compute_sequence_metrics(gt, pred, idsw_gate=cfg.idsw_gate)

    table = [
        ("gt_trajectories", str(m.gt_count)),
        ("pred_trajectories", str(m.pred_count)),
        ("tr_ae", format_float(m.tr_ae)),
        ("tr_nae", format_float(m.tr_nae)),
        ("id_sw", str(m.id_sw)),
        ("t_ap@10", format_float(m.t_ap10)),
        ("t_map", format_float(m.t_map)),
    ]
    width = max(len(k) for k, _ in table)
    print(f"{'metric'.ljust(width)}  value")
    for key, value in table:
        print(f"{key.ljust(width)}  {value}")

    if args.report:
        report = {
            "gt_count": str(m.gt_count),
            "pred_count": str(m.pred_count),
            "tr_ae": format_float(m.tr_ae),
            "tr_nae": format_float(m.tr_nae),
            "id_sw": str(m.id_sw),
            "t_map": format_float(m.t_map),
        }
        for tau in T_MAP_THRESHOLDS:
            report[f"t_ap_{tau:02d}"] = format_float(m.t_ap[tau])
        Path(args.report).write_text(write_kv_text(report))
    return 0


def _cmd_render(args) -> int:
    paths = SequenceBundlePaths.from_dir(args.bundle)
    if paths.gt is None:
        raise TrackingError(f"bundle {paths.root} has no ground-truth file")
    gt = _load_trajectories(paths.gt, gt=True)
    pred = _load_trajectories(Path(args.pred), gt=False)
    width = height = None
    if paths.manifest is not None:
        manifest = parse_kv_text(paths.manifest.read_text())
        if "arena_width" in manifest and "arena_height" in manifest:
            try:
                width = float(manifest["arena_width"])
                height = float(manifest["arena_height"])
            except ValueError:
                width = height = math.nan
            if not (0.0 < width < math.inf and 0.0 < height < math.inf):
                raise ParseError(f"{paths.manifest}: arena size must be a positive number")
    Path(args.out).write_text(render_overlay(gt, pred, width, height))
    print(f"wrote overlay -> {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "track": _cmd_track,
    "gog": _cmd_gog,
    "evaluate": _cmd_evaluate,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "version":
            print(__version__)
            return 0
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (TrackingError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())

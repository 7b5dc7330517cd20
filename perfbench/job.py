"""One benchmark child process: a scenario set-up or one job.

    python3 perfbench/job.py setup   SPEC_JSON
    python3 perfbench/job.py online  SPEC_JSON
    python3 perfbench/job.py offline SPEC_JSON

run.py starts it with ``PYTHONPATH=src`` from the repository root and reads
one JSON object from its standard output. Each job runs in a process of its
own that never generated a scenario, so its peak RSS is the job's alone.

- setup: ``simulate.generate`` + ``write_bundle`` for each scenario seed.
- online: ``pointtrack track`` in library form. ``frame_inputs_from_bundle``
  feeds ``PointTracker.process_frame`` one frame at a time (closed loop), and
  ``formats.write_tracks`` writes tracks.csv.
- offline: ``pointtrack gog`` in library form (``gog.build_graph`` +
  ``gog.solve``).

Both jobs then score their tracks against the bundle's ground truth and run
the output checks. Every time is taken on the clock of a ``speed.SpeedProbe``
and reported at the probe's nominal machine speed; ``wall`` keeps the
unscaled figures. With ``"trace": true`` in the spec, the calls into
pointtrack's public functions are wrapped by ``spans.Tracer`` and the
per-layer metrics are computed from the spans.
"""

import hashlib
import json
import os
import resource
import sys
import traceback
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from pointtrack import gog, metrics, simulate  # noqa: E402
from pointtrack.assignment import dynamic_threshold  # noqa: E402
from pointtrack.config import ToolkitConfig  # noqa: E402
from pointtrack.formats import (  # noqa: E402
    SequenceBundlePaths, TrackRow, parse_detections, parse_gt, parse_metadata,
    parse_tracks, write_tracks,
)
from pointtrack.lifecycle import ScoreColumnValidator  # noqa: E402
from pointtrack.pipeline import PointTracker, TrackerConfig, frame_inputs_from_bundle  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

IDSW_GATE = ToolkitConfig().idsw_gate
EVAL_MIN_S = 1.2

# Public functions wrapped in a traced job, as module.attr under the names the
# package calls them by, and the layer their time is charged to.
LAYER_OF = {
    "pipeline.estimate_affine": "cmc",
    "pipeline.extract_patch": "ddcf",
    "pipeline.train_filter": "ddcf",
    "pipeline.update_filter": "ddcf",
    "pipeline.localize": "ddcf",
    "pipeline.build_cost_matrix": "assignment",
    "pipeline.solve_assignment": "assignment",
    "motion.predict": "motion",
    "motion.apply_affine": "motion",
    "motion.update": "motion",
    "motion.init_state": "motion",
    "lifecycle.on_match": "lifecycle",
    "lifecycle.on_miss": "lifecycle",
    "lifecycle.validate": "lifecycle",
    "metrics.id_switches": "metrics",
    "metrics.t_map": "metrics",
}
ROOT = "pipeline.process_frame"


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _write(rows: list[TrackRow], path: Path) -> str:
    text = write_tracks(rows)
    path.write_text(text)
    return text


def _scenario(spec) -> simulate.ScenarioConfig:
    fields = dict(spec["scenario"])
    fields["occlusion_windows"] = tuple(tuple(w) for w in fields["occlusion_windows"])
    return simulate.ScenarioConfig(**fields)


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration", ""),
    }


def run_setup(spec, probe: SpeedProbe) -> dict:
    """Generate and write one bundle per scenario seed, each timed."""
    base = _scenario(spec)
    generate_s, write_s, wall_s, sizes = [], [], [], []
    for seed, bundle in zip(spec["seeds"], spec["bundles"]):
        t0 = probe.now()
        scenario = simulate.generate(replace(base, seed=seed))
        t1 = probe.now()
        simulate.write_bundle(scenario, bundle)
        t2 = probe.now()
        del scenario
        generate_s.append(probe.scaled(t0, t1))
        write_s.append(probe.scaled(t1, t2))
        wall_s.append(t2 - t0)
        files = [p for p in Path(bundle).rglob("*") if p.is_file()]
        for path in files:
            # write the bundle back now, not while a job is being timed
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        sizes.append(sum(p.stat().st_size for p in files) / 1e6)
    return {"generate_s": generate_s, "write_bundle_s": write_s, "wall_s": wall_s,
            "bundle_mb": sizes, "scenario": asdict(base), "environment": _environment()}


def _frame_checks(rows: list[TrackRow], allowed_sources: set[str]) -> dict[str, bool]:
    ids_per_frame = Counter((r.frame, r.track_id) for r in rows)
    return {
        "id_once_per_frame": all(n == 1 for n in ids_per_frame.values()),
        "sources_allowed": all(r.source in allowed_sources for r in rows),
    }


def _evaluate(paths: SequenceBundlePaths, text: str, t_ap10: bool, full: bool):
    """Score tracks.csv text against the bundle's gt.csv, as ``pointtrack
    evaluate`` would; also returns the parsed rows for the round-trip check."""
    gt = metrics.TrajectorySet.from_rows(
        (r.frame, r.track_id, r.x, r.y) for r in parse_gt(paths.gt.read_text()))
    parsed = parse_tracks(text)
    pred = metrics.TrajectorySet.from_rows((r.frame, r.track_id, r.x, r.y, r.conf) for r in parsed)
    if full:
        m = metrics.compute_sequence_metrics(gt, pred, idsw_gate=IDSW_GATE)
        quality = {"tr_nae": m.tr_nae, "id_sw": m.id_sw, "t_ap10": m.t_ap10, "t_map": m.t_map}
    else:
        quality = {"tr_nae": metrics.tr_nmae([len(gt)], [len(pred)]),
                   "id_sw": metrics.id_switches(gt, pred, IDSW_GATE)}
        if t_ap10:
            quality["t_ap10"] = metrics.t_ap(gt, pred, 10.0)
    quality.update(gt_trajectories=len(gt), pred_trajectories=len(pred))
    return quality, parsed, len(gt) * len(pred)


def _timed_evaluation(probe: SpeedProbe, paths, text: str, t_ap10: bool, full: bool) -> dict:
    """Evaluate until EVAL_MIN_S have passed (short evaluations are noisy);
    eval_s is the mean repeat. Every repeat must score the same."""
    scaled, wall, scores = [], [], []
    try:
        while sum(wall) < EVAL_MIN_S:
            e0 = probe.now()
            quality, parsed, pairs = _evaluate(paths, text, t_ap10, full)
            e1 = probe.now()
            scaled.append(probe.scaled(e0, e1))
            wall.append(e1 - e0)
            scores.append(quality)
    except Exception:
        traceback.print_exc()
        return {"failed": 1, "eval_s": float("nan"), "eval_wall_s": float("nan"), "eval_repeats": 0,
                "quality": {}, "parsed": [], "pairs": 0, "repeatable": False}
    return {"failed": 0, "eval_s": sum(scaled) / len(scaled), "eval_wall_s": sum(wall) / len(wall),
            "eval_repeats": len(scaled), "quality": quality, "parsed": parsed, "pairs": pairs,
            "repeatable": all(q == quality for q in scores)}


def _job_result(probe: SpeedProbe, run: dict, evaluation: dict, checks: dict, **fields) -> dict:
    """Timings of a job's run over one bundle, its checks and its digest."""
    text = run["text"]
    checks["tracks_roundtrip"] = write_tracks(evaluation["parsed"]) == text
    checks["evaluation_repeatable"] = evaluation["repeatable"]
    wall_ms = sorted(1e3 * (b - a) for a, b in run["frame_iv"])
    return dict(
        fields, frames=run["frames"], job_s=probe.scaled(run["start"], run["end"]),
        frame_s=[probe.scaled(a, b) for a, b in run["frame_iv"]],
        eval_s=evaluation["eval_s"], eval_repeats=evaluation["eval_repeats"],
        wall={"job_s": run["end"] - run["start"], "eval_s": evaluation["eval_wall_s"],
              "frame_ms": wall_ms[len(wall_ms) // 2] if wall_ms else float("nan")},
        quality=evaluation["quality"], checks=checks,
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )


def run_online(spec, call, probe: SpeedProbe) -> dict:
    tracker_cfg = replace(TrackerConfig(), **spec["tracker"])
    paths = SequenceBundlePaths.from_dir(spec["bundle"])
    tracker = PointTracker(tracker_cfg, ScoreColumnValidator())
    rows: list[TrackRow] = []
    frame_iv, tracks_alive = [], []
    frames = failed = births = deaths = recoveries = 0
    start = probe.now()
    inputs = frame_inputs_from_bundle(paths)
    while True:
        frame_input = call("formats.read", next, inputs, None)
        if frame_input is None:
            break
        t0 = probe.now()
        try:
            out = call(ROOT, tracker.process_frame, frame_input)
        except Exception:
            # the tracker's state is undefined after a raise, so the job ends
            # here; only frames that returned count towards track_fps
            traceback.print_exc()
            failed = 1
            break
        frame_iv.append((t0, probe.now()))
        frames += 1
        tracks_alive.append(len(tracker.tracks))
        births += out.births
        deaths += out.deaths
        recoveries += out.recoveries
        rows.extend(TrackRow(out.frame, r.track_id, r.x, r.y, r.conf, r.source) for r in out.records)
    text = call("formats.write", _write, rows, Path(spec["out"]))
    end = probe.now()
    peak_rss = _peak_rss_mb()

    allowed = {"detection", "ddcf"} | ({"coasted"} if tracker_cfg.emit_coasted else set())
    checks = _frame_checks(rows, allowed)
    evaluation = _timed_evaluation(probe, paths, text, spec["t_ap10"], full=False)
    run = {"start": start, "end": end, "frame_iv": frame_iv, "text": text, "frames": frames}
    return _job_result(
        probe, run, evaluation, checks,
        # operations: every frame handed to the tracker, then the evaluation
        attempted=frames + failed + 1, failed=failed + evaluation["failed"], peak_rss_mb=peak_rss,
        counts={"births": births, "deaths": deaths, "recoveries": recoveries,
                "confirmed": len({r.track_id for r in rows}),
                "tracks_per_frame": float(np.mean(tracks_alive)) if tracks_alive else 0.0,
                "tracklet_pairs": evaluation["pairs"]},
        config=asdict(tracker_cfg))


def _read_offline(paths: SequenceBundlePaths, gating):
    detections = parse_detections(paths.detections.read_text())
    gates = {row.frame: dynamic_threshold(row.altitude, gating)
             for row in parse_metadata(paths.metadata.read_text())}
    return detections, gates


def run_offline(spec, call, probe: SpeedProbe) -> dict:
    toolkit = ToolkitConfig()
    gog_cfg = replace(toolkit.gog, **spec["gog"])
    paths = SequenceBundlePaths.from_dir(spec["bundle"])
    failed = 0
    start = probe.now()
    detections, gates = call("formats.read", _read_offline, paths, toolkit.tracker.gating)
    graph = []
    try:
        graph = call("gog.build_graph", gog.build_graph, detections, gog_cfg, gates)
        trajectories = call("gog.solve", gog.solve, graph)
    except Exception:
        traceback.print_exc()
        failed += 1
        trajectories = metrics.TrajectorySet()
    rows = [TrackRow(p.frame, tid, p.x, p.y, p.conf, "detection")
            for tid in trajectories.ids for p in trajectories.tracks[tid]]
    rows.sort(key=lambda r: (r.frame, r.track_id))
    text = call("formats.write", _write, rows, Path(spec["out"]))
    end = probe.now()
    peak_rss = _peak_rss_mb()

    checks = _frame_checks(rows, {"detection"})
    evaluation = _timed_evaluation(probe, paths, text, True, full=True)
    # every output point is a distinct input detection
    available = Counter((d.frame, d.x, d.y, d.conf) for d in detections)
    used = Counter((r.frame, r.x, r.y, r.conf) for r in evaluation["parsed"])
    checks["gog_detections_used_once"] = all(available[k] >= n for k, n in used.items())
    # a batch tracker emits every frame's tracks when the whole job ends
    run = {"start": start, "end": end, "frame_iv": [(start, end)] * len(gates), "text": text,
           "frames": len(gates)}
    return _job_result(
        probe, run, evaluation, checks,
        # operations: the solve, then the evaluation
        attempted=2, failed=failed + evaluation["failed"], peak_rss_mb=peak_rss,
        counts={"detections": len(graph), "paths": len(trajectories),
                "tracklet_pairs": evaluation["pairs"]},
        config={"gog": asdict(gog_cfg), "gating": asdict(toolkit.tracker.gating)})


RUNS = {"online": run_online, "offline": run_offline}


def layer_metrics(tracer: Tracer, result: dict, assignments: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced job (see BENCHMARK.json per_layer).
    The self times of every span under process_frame add up to its traced
    duration by construction; trace.overhead_frac, taken in run.py against
    untraced jobs, is what shows the tracer's own cost."""
    f_job = result["wall"]["job_s"] / result["job_s"]
    f_eval = result["wall"]["eval_s"] / result["eval_s"] * result["eval_repeats"]
    per_frame = 1e-6 / max(result["frames"], 1) / f_job   # ns summed over the job -> ms per frame
    under = tracer.summary(ROOT)
    totals = tracer.totals()
    layer_ns = Counter()
    for name, entry in under.items():
        layer_ns[LAYER_OF.get(name, "pipeline")] += entry["self_ns"]

    def calls(name):
        return under.get(name, {}).get("calls", 0)

    def fn_ms(name):
        return under.get(name, {}).get("self_ns", 0) * per_frame

    def total_s(name, factor=f_job):
        return totals.get(name, {}).get("total_ns", 0) * 1e-9 / factor

    counts = result["counts"]
    out = {
        "pipeline.self_ms_per_frame": layer_ns["pipeline"] * per_frame,
        "pipeline.tracks_per_frame": counts.get("tracks_per_frame", 0.0),
        "cmc.ms_per_frame": layer_ns["cmc"] * per_frame,
        "cmc.calls": calls("pipeline.estimate_affine"),
        "cmc.fallbacks": tracer.errors["pipeline.estimate_affine", "NoMotionEstimateError"],
        "ddcf.ms_per_frame": layer_ns["ddcf"] * per_frame,
    }
    for fn in ("update_filter", "extract_patch", "localize", "train_filter"):
        out[f"ddcf.{fn}.calls"] = calls(f"pipeline.{fn}")
        out[f"ddcf.{fn}.ms_per_frame"] = fn_ms(f"pipeline.{fn}")
    localizations = calls("pipeline.localize")
    out["ddcf.recovery_yield"] = counts.get("recoveries", 0) / localizations if localizations else 0.0
    out.update({
        "motion.ms_per_frame": layer_ns["motion"] * per_frame,
        "motion.predict_calls": calls("motion.predict"),
        "motion.update_calls": calls("motion.update"),
        "assignment.ms_per_frame": layer_ns["assignment"] * per_frame,
        "assignment.cells": assignments["cells"],
        "assignment.match_ratio": (assignments["matches"] / assignments["capacity"]
                                   if assignments["capacity"] else 0.0),
        "lifecycle.ms_per_frame": layer_ns["lifecycle"] * per_frame,
        "lifecycle.births": counts.get("births", 0),
        "lifecycle.deaths": counts.get("deaths", 0),
        "lifecycle.confirmed": counts.get("confirmed", 0),
        "formats.read_ms_per_frame": total_s("formats.read") * 1e3 / max(result["frames"], 1),
        "formats.write_ms": total_s("formats.write") * 1e3,
        "gog.build_graph_s": total_s("gog.build_graph"),
        "gog.solve_s": total_s("gog.solve"),
        "gog.detections": counts.get("detections", 0),
        "gog.paths": counts.get("paths", 0),
        "metrics.id_switches_s": total_s("metrics.id_switches", f_eval),
        "metrics.t_map_s": total_s("metrics.t_map", f_eval),
        "metrics.tracklet_pairs": counts.get("tracklet_pairs", 0),
    })
    return out


def main(argv: list[str]) -> int:
    role, spec = argv[0], json.loads(argv[1])
    with SpeedProbe() as probe:
        if role == "setup":
            result = run_setup(spec, probe)
        elif not spec["trace"]:
            result = RUNS[role](spec, _plain, probe)
        else:
            tracer = Tracer(clock=probe.now_ns)
            assignments = Counter(cells=0, capacity=0, matches=0)

            def count_assignment(out, costs, gate):
                rows, cols = np.shape(costs)
                assignments.update(cells=rows * cols, capacity=min(rows, cols),
                                   matches=len(out.matches))

            tracer.install("pointtrack", LAYER_OF,
                           observers={"pipeline.solve_assignment": count_assignment})
            try:
                result = RUNS[role](spec, tracer.call, probe)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, result, assignments)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

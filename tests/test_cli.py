import hashlib
from pathlib import Path

import numpy as np
import pytest

from pointtrack import cli
from pointtrack.cli import main
from pointtrack.config import _KINDS
from pointtrack.formats import (
    CorrespondenceRow, parse_correspondences, parse_gt, parse_kv_text, parse_tracks,
    write_correspondences, write_tracks,
)
from pointtrack.metrics import TrajectorySet

SCENARIO = """
n_agents = 6
frames = 90
arena_width = 300
arena_height = 300
agent_speed_sigma = 1.2
jitter_sigma = 0
fn_rate = 0
fp_clutter_rate = 0
feature_channels = 0
seed = 31
"""


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, text=SCENARIO) -> Path:
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    return path


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestBasics:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "version")
        assert code == 0
        assert out.strip() == "0.1.0"

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "track", "--warp", "9")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1

    def test_track_missing_bundle(self, capsys, tmp_path):
        code, _, err = run(capsys, "track", "--bundle", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "nope" in err


class TestEndToEnd:
    def test_simulate_track_evaluate_clean(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        bundle = tmp_path / "bundle"
        code, _, _ = run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))
        assert code == 0
        tracks = tmp_path / "tracks.csv"
        code, _, _ = run(capsys, "track", "--bundle", str(bundle), "--out", str(tracks))
        assert code == 0
        report = tmp_path / "report.txt"
        code, out, _ = run(capsys, "evaluate", "--gt", str(bundle / "gt.csv"),
                           "--pred", str(tracks), "--report", str(report))
        assert code == 0
        values = parse_kv_text(report.read_text())
        assert values["tr_nae"] == "0"
        assert values["id_sw"] == "0"
        assert values["t_ap_10"] == "1"
        assert "tr_nae" in out

    def test_disable_flags_change_output(self, capsys, tmp_path):
        scen = write_scenario(tmp_path, SCENARIO.replace("fp_clutter_rate = 0",
                                                         "fp_clutter_rate = 0") \
                              .replace("n_agents = 6", "n_agents = 4") + "persistent_fp_count = 3\n")
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        with_cls = tmp_path / "with_cls.csv"
        without_cls = tmp_path / "without_cls.csv"
        assert run(capsys, "track", "--bundle", str(bundle), "--out", str(with_cls))[0] == 0
        assert run(capsys, "track", "--bundle", str(bundle), "--out", str(without_cls),
                   "--disable", "cls")[0] == 0
        n_with = len({r.track_id for r in parse_tracks(with_cls.read_text())})
        n_without = len({r.track_id for r in parse_tracks(without_cls.read_text())})
        assert n_with == 4       # ghosts rejected by the score column
        assert n_without == 7    # ghosts confirmed without classification

    def test_gog_subcommand(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        out_csv = tmp_path / "gog.csv"
        code, out, _ = run(capsys, "gog", "--bundle", str(bundle), "--out", str(out_csv))
        assert code == 0
        rows = parse_tracks(out_csv.read_text())
        assert len({r.track_id for r in rows}) == 6

    def test_render_subcommand(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        bundle = tmp_path / "bundle"
        tracks = tmp_path / "tracks.csv"
        run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))
        run(capsys, "track", "--bundle", str(bundle), "--out", str(tracks))
        svg = tmp_path / "overlay.svg"
        code, _, _ = run(capsys, "render", "--bundle", str(bundle),
                         "--pred", str(tracks), "--out", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "#2e8b57" in text and "#d62728" in text

    def test_custom_config_respected(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        bundle = tmp_path / "bundle"
        run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))
        cfg = tmp_path / "config.txt"
        cfg.write_text("min_hits = 5\n")
        tracks = tmp_path / "tracks.csv"
        run(capsys, "track", "--bundle", str(bundle), "--config", str(cfg),
            "--out", str(tracks))
        rows = parse_tracks(tracks.read_text())
        assert min(r.frame for r in rows) == 4  # confirms at the 5th frame

    def test_bad_config_key_is_input_error(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        bundle = tmp_path / "bundle"
        run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))
        cfg = tmp_path / "config.txt"
        cfg.write_text("warp_factor = 9\n")
        code, _, err = run(capsys, "track", "--bundle", str(bundle),
                           "--config", str(cfg), "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "warp_factor" in err


def _bad_arena(width: str):
    def corrupt(bundle: Path) -> list[str]:
        manifest = bundle / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("arena_width = 300.0",
                                                         f"arena_width = {width}"))
        (bundle / "tracks.csv").write_text(write_tracks([]))
        return ["render", "--bundle", str(bundle), "--pred", str(bundle / "tracks.csv"),
                "--out", str(bundle / "overlay.svg")]
    return corrupt


def _non_utf8_detections(bundle: Path) -> list[str]:
    with open(bundle / "detections.csv", "ab") as fh:
        fh.write(b"\xff\xfe,1,2,0.9\n")
    return ["track", "--bundle", str(bundle), "--out", str(bundle / "t.csv")]


def _non_utf8_config(bundle: Path) -> list[str]:
    config = bundle / "config.txt"
    config.write_bytes(b"min_hits = 5\n# \xff\xfe\n")
    return ["track", "--bundle", str(bundle), "--config", str(config),
            "--out", str(bundle / "t.csv")]


def _metadata_is_directory(bundle: Path) -> list[str]:
    (bundle / "metadata.csv").unlink()
    (bundle / "metadata.csv").mkdir()
    return ["track", "--bundle", str(bundle), "--out", str(bundle / "t.csv")]


class TestBadInput:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(_bad_arena("abc"), id="arena_abc"),
        pytest.param(_bad_arena("nan"), id="arena_nan"),
        pytest.param(_bad_arena("-5"), id="arena_negative"),
        pytest.param(_non_utf8_detections, id="non_utf8_detections"),
        pytest.param(_non_utf8_config, id="non_utf8_config"),
        pytest.param(_metadata_is_directory, id="metadata_is_directory"),
    ])
    def test_exits_one(self, capsys, tmp_path, corrupt):
        scen = write_scenario(tmp_path, SCENARIO.replace("frames = 90", "frames = 5"))
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        code, _, err = run(capsys, *corrupt(bundle))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("altitude", ["1e-310", "5e-324"])
    def test_overflowing_gate_names_the_altitude(self, capsys, tmp_path, altitude):
        scen = write_scenario(tmp_path, SCENARIO.replace("frames = 90", "frames = 5"))
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        metadata = bundle / "metadata.csv"
        header, first, *rest = metadata.read_text().splitlines(keepends=True)
        metadata.write_text(header + f"{first.split(',')[0]},{altitude}\n" + "".join(rest))
        code, _, err = run(capsys, "track", "--bundle", str(bundle), "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert f"altitude {float(altitude)!r} " in err


    def test_huge_coordinate_exits_zero(self, capsys, tmp_path):
        """A finite detection far off the feature map is tracked: a confirmed
        track that loses it trains its late filter on edge cells."""
        scen = write_scenario(tmp_path, SCENARIO.replace("frames = 90", "frames = 5")
                              .replace("feature_channels = 0", "feature_channels = 2"))
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        (bundle / "detections.csv").write_text(
            "frame,x,y,conf,score\n" + "".join(f"{f},1e300,1e300,0.9,1\n" for f in range(3)))
        cfg = tmp_path / "config.txt"
        cfg.write_text("min_hits = 2\ncls_lead = 1\n")
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "track", "--bundle", str(bundle), "--config", str(cfg),
                           "--out", str(out), "--disable", "cls", "--disable", "cmc")
        assert code == 0, err
        assert [(r.frame, r.x) for r in parse_tracks(out.read_text())] == [(1, 1e300), (2, 1e300)]


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("small")
    scen = write_scenario(root, SCENARIO.replace("frames = 90", "frames = 5"))
    assert main(["simulate", "--config", str(scen), "--out", str(root / "bundle")]) == 0
    return root / "bundle"


class TestConfigValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, kind in _KINDS.items() if kind is float])
    def test_non_finite_float_exits_one(self, capsys, tmp_path, small_bundle, key, value):
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = run(capsys, "track", "--bundle", str(small_bundle), "--config", str(cfg),
                           "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert key in err

    def test_patch_without_psr_sidelobe_exits_one(self, capsys, tmp_path, small_bundle):
        cfg = tmp_path / "config.txt"
        cfg.write_text("dcf_patch_cells = 11\n")
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "track", "--bundle", str(small_bundle), "--config", str(cfg),
                           "--out", str(out))
        assert code == 1
        assert "patch_cells must be >= 12" in err
        assert not out.exists()
        cfg.write_text("dcf_patch_cells = 12\n")
        assert run(capsys, "track", "--bundle", str(small_bundle), "--config", str(cfg),
                   "--out", str(out))[0] == 0


class TestCameraMotion:
    @staticmethod
    def track_with_and_without_cmc(capsys, tmp_path, rewrite) -> list[bytes]:
        """Simulate a moving-camera bundle, replace its correspondences with
        rewrite(rows), and track it with CMC and with CMC disabled."""
        scen = write_scenario(tmp_path, SCENARIO + "camera_translation_x = 2\n")
        bundle = tmp_path / "bundle"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        path = bundle / "correspondences.csv"
        rows = parse_correspondences(path.read_text())
        assert rows
        path.write_text(write_correspondences(rewrite(rows)))
        outputs = []
        for extra in ([], ["--disable", "cmc"]):
            out = tmp_path / f"tracks{len(extra)}.csv"
            code, _, err = run(capsys, "track", "--bundle", str(bundle), "--out", str(out), *extra)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert parse_tracks(outputs[0].decode())
        return outputs

    def test_collinear_correspondences_fall_back_to_identity(self, capsys, tmp_path):
        # integers, so that the points stay on the line y = x after the CSV rounding
        with_cmc, without = self.track_with_and_without_cmc(capsys, tmp_path, lambda rows: [
            CorrespondenceRow(r.frame, x, x, x + 2, x - 1)
            for r in rows for x in [float(round(r.prev_x))]])
        assert with_cmc == without

    def test_degenerate_refit_falls_back_to_identity(self, capsys, tmp_path):
        # every frame's points flatten onto y = 0 up to 1e-4 px of noise, which
        # the CSV keeps: the 3-point fits pass the det filter, the refit does not
        def flatten(rows):
            rng = np.random.default_rng(0)
            out = []
            for frame in sorted({r.frame for r in rows}):
                prev = rng.uniform(0, 500, (50, 2))
                out += [CorrespondenceRow(frame, px, py, px + 2, dy)
                        for (px, py), dy in zip(prev, rng.normal(0, 1e-4, 50))]
            return out
        with_cmc, without = self.track_with_and_without_cmc(capsys, tmp_path, flatten)
        assert with_cmc == without


class TestEvaluateReadsColumns:
    @staticmethod
    def load_by_rows(path: Path, gt: bool) -> TrajectorySet:
        """Trajectories built from one parsed row object per line."""
        rows = (parse_gt if gt else parse_tracks)(path.read_text())
        return TrajectorySet.from_rows((r.frame, r.track_id, r.x, r.y) + (() if gt else (r.conf,))
                                       for r in rows)

    def test_table_and_report_equal_the_row_parse(self, capsys, tmp_path, monkeypatch):
        scen = write_scenario(tmp_path, SCENARIO.replace("fn_rate = 0", "fn_rate = 0.2")
                              .replace("fp_clutter_rate = 0", "fp_clutter_rate = 3"))
        bundle, tracks = tmp_path / "bundle", tmp_path / "tracks.csv"
        assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
        assert run(capsys, "track", "--bundle", str(bundle), "--out", str(tracks))[0] == 0
        outputs = []
        for name in ("columns", "rows"):
            if name == "rows":
                monkeypatch.setattr(cli, "_load_trajectories", self.load_by_rows)
            report = tmp_path / f"report-{name}.txt"
            code, out, _ = run(capsys, "evaluate", "--gt", str(bundle / "gt.csv"),
                               "--pred", str(tracks), "--report", str(report))
            assert code == 0
            outputs.append((out, report.read_bytes()))
        assert outputs[0] == outputs[1]
        assert parse_kv_text(outputs[0][1].decode())["id_sw"] != "0"  # a table worth comparing

    def test_conf_out_of_range_names_the_line(self, capsys, tmp_path):
        gt, pred = tmp_path / "gt.csv", tmp_path / "tracks.csv"
        gt.write_text("frame,id,x,y\n0,1,5,5\n")
        pred.write_text("frame,id,x,y,conf,source\n0,1,5,5,1.5,detection\n")
        code, _, err = run(capsys, "evaluate", "--gt", str(gt), "--pred", str(pred))
        assert code == 1
        assert "line 2: conf 1.5 outside [0.0, 1.0]" in err


class TestDeterminism:
    def test_all_subcommands_byte_identical(self, capsys, tmp_path):
        scen = write_scenario(tmp_path)
        digests = []
        for name in ("a", "b"):
            root = tmp_path / name
            bundle = root / "bundle"
            assert run(capsys, "simulate", "--config", str(scen), "--out", str(bundle))[0] == 0
            tracks = root / "tracks.csv"
            assert run(capsys, "track", "--bundle", str(bundle), "--out", str(tracks))[0] == 0
            gogcsv = root / "gog.csv"
            assert run(capsys, "gog", "--bundle", str(bundle), "--out", str(gogcsv))[0] == 0
            report = root / "report.txt"
            assert run(capsys, "evaluate", "--gt", str(bundle / "gt.csv"),
                       "--pred", str(tracks), "--report", str(report))[0] == 0
            svg = root / "overlay.svg"
            assert run(capsys, "render", "--bundle", str(bundle), "--pred", str(tracks),
                       "--out", str(svg))[0] == 0
            digests.append(tree_digest(root))
        assert digests[0] == digests[1]

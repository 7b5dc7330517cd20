"""Smoke test of the ablation-ladder runner, tools/ladder.py, at its tiny size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ["baseline", "+CMC", "+ALT", "+CLS", "+DDCF", "GOG"]


def test_tiny_ladder_is_deterministic_and_complete(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "tools/ladder.py", "--size", "tiny", "--out", str(out)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        assert "| constant | +DDCF |" in proc.stdout
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    ladder = json.loads(outputs[0])
    assert ladder["size"] == "tiny" and len(ladder["seeds"]) == 2
    assert list(ladder["variants"]) == ["constant", "linear"]
    for variant in ladder["variants"].values():
        assert list(variant["rows"]) == ROWS
        for row in variant["rows"].values():
            scenes = list(row["scenes"].values())
            assert len(scenes) == 2
            assert row["mean_tr_nae"] == sum(s["tr_nae"] for s in scenes) / len(scenes)
            assert row["total_id_sw"] == sum(s["id_sw"] for s in scenes)
            assert row["mean_t_ap10"] == sum(s["t_ap10"] for s in scenes) / len(scenes)
        # tiny scenes are long enough to confirm and score online tracks
        assert any(variant["rows"][rung]["mean_t_ap10"] > 0 for rung in ROWS[:-1])
        for flip in variant["flips"]:
            assert flip["rung"] in ROWS[1:-1]
            assert flip["value"] == variant["rows"][flip["rung"]]["scenes"][str(flip["scene"])][flip["metric"]]

from pathlib import Path

import numpy as np
import pytest

from pointtrack.ddcf import FeatureMap
from pointtrack.errors import ConfigError, FormatError, ParseError
from pointtrack.formats import (
    CORRESPONDENCES, DETECTIONS, GT, METADATA, TRACKS,
    CorrespondenceRow, Detection, GtRow, MetadataRow, TrackRow,
    parse_correspondences, parse_detections, parse_gt, parse_kv_text, parse_metadata,
    parse_tracks, read_feature_map, write_correspondences, write_detections,
    write_feature_map, write_gt, write_kv_text, write_metadata, write_tracks,
)
from pointtrack.metrics import INTERCHANGE, parse_interchange

FAMILIES = [
    (write_detections, parse_detections,
     lambda rng, f: Detection(f, rng.uniform(0, 999), rng.uniform(0, 999),
                              rng.uniform(0, 1), rng.uniform(0, 1))),
    (write_detections, parse_detections,
     lambda rng, f: Detection(f, rng.uniform(0, 999), rng.uniform(0, 999), rng.uniform(0, 1))),
    (write_metadata, parse_metadata,
     lambda rng, f: MetadataRow(f, rng.uniform(10, 200))),
    (write_correspondences, parse_correspondences,
     lambda rng, f: CorrespondenceRow(f, *(rng.uniform(-100, 999) for _ in range(4)))),
    (write_gt, parse_gt,
     lambda rng, f: GtRow(f, int(rng.integers(1, 50)), rng.uniform(0, 999), rng.uniform(0, 999))),
    (write_tracks, parse_tracks,
     lambda rng, f: TrackRow(f, int(rng.integers(1, 50)), rng.uniform(0, 999),
                             rng.uniform(0, 999), rng.uniform(0, 1),
                             ("detection", "ddcf", "coasted")[int(rng.integers(0, 3))])),
]

FAMILY_IDS = ["detections", "detections_unscored", "metadata", "correspondences", "gt", "tracks"]

# Every CSV table: its parser and one valid data line under each header.
VALID_LINES = {
    "detections": (parse_detections, "frame,x,y,conf,score", "0,1,2,0.5,0.9"),
    "detections_unscored": (parse_detections, "frame,x,y,conf", "0,1,2,0.5"),
    "metadata": (parse_metadata, "frame,altitude", "0,50"),
    "correspondences": (parse_correspondences, "frame,prev_x,prev_y,cur_x,cur_y", "1,1,2,3,4"),
    "gt": (parse_gt, "frame,id,x,y", "0,1,2,3"),
    "tracks": (parse_tracks, "frame,id,x,y,conf,source", "0,1,2,3,0.5,ddcf"),
    "interchange": (lambda text: parse_interchange(text.splitlines()),
                    "frame,id,left,top,width,height,conf", "0,1,2,3,20,20,0.5"),
}
# Cells each column must reject besides a non-numeric "abc".
BAD_CELLS = {"frame": ["-1"], "id": ["0"], "conf": ["1.5", "-0.1"], "score": ["1.5", "-0.1"],
             "source": []}
BAD_FLOATS = ["nan", "inf"]


def _hostile_lines():
    for table, (parse, header, valid) in VALID_LINES.items():
        cells = valid.split(",")
        yield pytest.param(parse, header, valid, valid + ",1", id=f"{table}-extra-field")
        yield pytest.param(parse, header, valid, ",".join(cells[:-1]), id=f"{table}-missing-field")
        for i, column in enumerate(header.split(",")):
            for bad in ["abc"] + BAD_CELLS.get(column, BAD_FLOATS):
                line = ",".join(cells[:i] + [bad] + cells[i + 1:])
                yield pytest.param(parse, header, valid, line, id=f"{table}-{column}={bad}")


class TestCsvRoundTrips:
    @pytest.mark.parametrize("writer,parser,make", FAMILIES, ids=FAMILY_IDS)
    def test_fuzzed_fixed_point(self, writer, parser, make):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rows = [make(rng, f) for f in range(int(rng.integers(0, 40)))]
            text = writer(rows)
            parsed = parser(text)
            assert writer(parsed) == text  # write . parse is the identity on texts

    @pytest.mark.parametrize("writer,parser,make", FAMILIES, ids=FAMILY_IDS)
    def test_header_permutations_rejected(self, writer, parser, make):
        rng = np.random.default_rng(1)
        text = writer([make(rng, 3)])
        header, rest = text.split("\n", 1)
        cols = header.split(",")
        swapped = ",".join([cols[1], cols[0]] + cols[2:])
        with pytest.raises(ParseError) as err:
            parser(swapped + "\n" + rest)
        assert err.value.line == 1

    def test_empty_file_with_header(self):
        assert parse_detections("frame,x,y,conf\n") == []

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_detections("")

    @pytest.mark.parametrize("parse,header,valid,line", _hostile_lines())
    def test_hostile_row_names_line(self, parse, header, valid, line):
        assert len(parse(f"{header}\n{valid}\n")) == 1
        with pytest.raises(ParseError) as err:
            parse(f"{header}\n{line}\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_readme_headers_match_codec(self):
        tables = {"detections.csv": DETECTIONS, "metadata.csv": METADATA,
                  "correspondences.csv": CORRESPONDENCES, "gt.csv": GT, "tracks.csv": TRACKS,
                  "interchange": INTERCHANGE}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Bundle layout and file formats")[1].split("```")[1]
        documented = {}
        for line in block.splitlines():
            name, _, rest = line.strip().partition(" ")
            header = rest.split()[0] if rest.strip() else ""
            if "," in header:  # "a,b[,c]" documents the headers a,b and a,b,c
                documented[name.rstrip("/")] = {header.replace("[", "").replace("]", ""),
                                                header.split("[")[0]}
        assert set(documented) == set(tables)
        for name, headers in documented.items():
            assert headers == set(tables[name].headers), name

    def test_optional_score_column(self):
        dets = parse_detections("frame,x,y,conf,score\n0,1,2,0.5,0.9\n")
        assert dets[0].score == 0.9
        dets = parse_detections("frame,x,y,conf\n0,1,2,0.5\n")
        assert dets[0].score is None

    def test_six_significant_decimals(self):
        text = write_detections([Detection(0, 123456.789, 0.000123456789, 0.5)])
        assert "123457" in text and "0.000123457" in text


class TestFeatureMapBinary:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 2, 1)).astype(np.float32).astype(float)
        fmap = FeatureMap(data=data, stride=4.0)
        again = read_feature_map(write_feature_map(fmap))
        assert np.array_equal(again.data, fmap.data)
        assert again.stride == 4.0

    def test_round_trip_larger(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(7, 11, 5)).astype(np.float32).astype(float)
        blob = write_feature_map(FeatureMap(data=data, stride=2.5))
        # header: magic + u32 version,h,w,c + f32 stride, then f32 payload
        assert len(blob) == 4 + 16 + 4 + 7 * 11 * 5 * 4
        again = read_feature_map(blob)
        assert np.array_equal(again.data, data)

    def test_truncated_payload(self):
        fmap = FeatureMap(data=np.ones((4, 4, 2)), stride=1.0)
        blob = write_feature_map(fmap)
        with pytest.raises(FormatError):
            read_feature_map(blob[:-8])

    def test_trailing_garbage(self):
        blob = write_feature_map(FeatureMap(data=np.ones((4, 4, 2)), stride=1.0))
        with pytest.raises(FormatError):
            read_feature_map(blob + b"\x00\x00")

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_feature_map(b"JUNK" + b"\x00" * 40)

    def test_bad_version(self):
        blob = bytearray(write_feature_map(FeatureMap(data=np.ones((2, 2, 1)), stride=1.0)))
        blob[4] = 9
        with pytest.raises(FormatError):
            read_feature_map(bytes(blob))

    def test_full_frame_scale_header_arithmetic(self):
        # a 544 x 940 x 16 map implies exactly h*w*c*4 payload bytes
        import struct
        from pointtrack.formats import FMAP_MAGIC, FMAP_VERSION
        header = FMAP_MAGIC + struct.pack("<IIIIf", FMAP_VERSION, 544, 940, 16, 2.0)
        with pytest.raises(FormatError) as err:
            read_feature_map(header)  # empty payload: error names the expectation
        assert "32727040" in str(err.value)


class TestKvText:
    def test_round_trip(self):
        values = {"b_key": "2", "a_key": "hello world", "z": "-1.5"}
        assert parse_kv_text(write_kv_text(values)) == values

    def test_comments_and_blanks(self):
        assert parse_kv_text("# comment\n\nkey = 3\n") == {"key": "3"}

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_kv_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_kv_text("just some text\n")
        assert err.value.line == 1


class TestGlobalConfig:
    def test_defaults_when_empty(self):
        from pointtrack.config import toolkit_config_from_kv
        cfg = toolkit_config_from_kv({})
        assert cfg.tracker.lifecycle.min_hits == 30
        assert cfg.tracker.gating.base_radius == 10.0
        assert cfg.idsw_gate == 10.0

    def test_full_key_set(self):
        from pointtrack.config import toolkit_config_from_kv
        cfg = toolkit_config_from_kv({
            "min_hits": "20", "max_age": "40", "base_radius_px": "8",
            "reference_altitude_m": "80", "cls_lead": "2",
            "cls_confirm_threshold": "0.7", "tentative_miss_tolerance": "2",
            "pending_fail_patience": "5", "dcf_patch_cells": "16",
            "dcf_lambda": "0.1", "dcf_learning_rate": "0.05",
            "dcf_label_sigma": "1.5", "dcf_psr_min": "4.0",
            "ransac_iters": "50", "ransac_inlier_px": "2.0",
            "ransac_min_inliers": "5", "gog_entry_cost": "3",
            "gog_exit_cost": "3", "gog_gap_penalty": "0.1", "gog_max_gap": "30",
            "idsw_gate_px": "12", "emit_coasted": "true",
            "process_noise_pos": "2", "process_noise_vel": "0.5",
            "measurement_noise": "2", "initial_pos_var": "5", "initial_vel_var": "50",
        })
        assert cfg.tracker.lifecycle.min_hits == 20
        assert cfg.tracker.dcf.patch_cells == 16
        assert cfg.tracker.motion.process_noise_pos == 2
        assert cfg.tracker.emit_coasted is True
        assert cfg.gog.max_gap == 30
        assert cfg.idsw_gate == 12

    def test_unknown_key_rejected(self):
        from pointtrack.config import toolkit_config_from_kv
        with pytest.raises(ConfigError):
            toolkit_config_from_kv({"warp_speed": "9"})

    def test_bad_value_type(self):
        from pointtrack.config import toolkit_config_from_kv
        with pytest.raises(ConfigError):
            toolkit_config_from_kv({"min_hits": "many"})

    def test_invariant_violation_surfaces_as_config_error(self):
        from pointtrack.config import toolkit_config_from_kv
        with pytest.raises(ConfigError):
            toolkit_config_from_kv({"min_hits": "2", "cls_lead": "3"})

    def test_readme_table_matches_decoder(self):
        from pointtrack.config import KEYS, toolkit_config_from_kv
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | default | meaning |")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
        documented = {key.strip().strip("`"): default.strip() for key, default in rows}
        assert set(documented) == set(KEYS)
        empty = toolkit_config_from_kv({})
        for key, default in documented.items():
            assert toolkit_config_from_kv({key: default}) == empty, key

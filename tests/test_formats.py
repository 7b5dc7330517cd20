import copy
import dataclasses
import gc
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointtrack import formats
from pointtrack.assignment import GatingPolicy
from pointtrack.cmc import RansacConfig
from pointtrack.config import _KINDS
from pointtrack.ddcf import DcfConfig, FeatureMap
from pointtrack.errors import ConfigError, FormatError, InvalidInputError, ParseError
from pointtrack.formats import (
    CORRESPONDENCES, DETECTIONS, GT, METADATA, TRACK_SOURCES, TRACKS,
    CorrespondenceRow, Table, Detection, GtRow, MetadataRow, TrackRow, _split_lines, format_float,
    parse_correspondences, parse_detections, parse_gt, parse_kv_text, parse_metadata,
    parse_tracks, read_feature_map, save_feature_map, write_correspondences, write_detections,
    write_feature_map, write_gt, write_kv_text, write_metadata, write_tracks,
)
from pointtrack.metrics import INTERCHANGE, TrackPoint, TrajectorySet, parse_interchange

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

    def test_missing_score_beside_a_scored_row_is_refused(self):
        """A scored table scores every row, in both writers as in
        parse_columns and process_frame."""
        rows = [Detection(0, 1.0, 2.0, 0.5, 0.9), Detection(1, 3.0, 4.0, 0.5)]
        with pytest.raises(InvalidInputError, match="^non-finite score$"):
            write_detections(rows)
        with pytest.raises(InvalidInputError, match="^non-finite score$"):
            DETECTIONS.write_columns(DETECTIONS.to_columns(rows))

    def test_six_significant_decimals(self):
        text = write_detections([Detection(0, 123456.789, 0.000123456789, 0.5)])
        assert "123457" in text and "0.000123457" in text


# Cells the row converters accept, mostly, and cells that are odd or that
# they reject: both parsers must agree on every one of them. Among them is
# every kind of cell np.loadtxt reads otherwise than int() and float():
# digits of other scripts, "1_0", "\x1c" to "\x1f" beside a number (loadtxt
# strips them as whitespace), "1.0" in an int column (older numpy releases
# read 1), and a text cell with a trailing "\0" or longer than the loadtxt
# pass's text width.
ODD_CELLS = ["#1", '"1"', "\t1", "1\x0c", "\x0b1", "\x1c1", "1\x1f", "1\x00", "\xa01", "\u06f1",
             "\u0661", "\uff11", "\u0968"]
INT_CELLS = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(
    ["007", "+1", "1_0", " 1", "1 ", "-0", "-1", "1.0", "1e3", "0x1", "", "abc", "9" * 20]
    + ODD_CELLS))
FLOAT_CELLS = st.one_of(st.floats(-1e6, 1e6).map(repr), st.sampled_from(
    ["0", "00.5", "+1", "1_0", " 1", "1e400", "-1e400", "1e-400", "nan", "inf", "-inf",
     "infinity", "nan(1)", "0x10", "1.0000001", "-0.0", ".5", "1.", "", "abc", "\uff11.5"]
    + ODD_CELLS))
UNIT_CELLS = st.one_of(st.floats(0, 1).map(repr), st.sampled_from(
    ["0", "1", "01", "+1", " 0.5", "1.0000001", "-0.0", "-1e-9", "nan", "inf", "", "\t0.5",
     "0.5\x0c", "\x1e0.5", "0\x1d", "\u0660", "0.5\x00"]))
SOURCE_CELLS = st.sampled_from(["detection", "ddcf", "coasted", "Detection", "ddcf ", "", "\tddcf",
                                "ddcf\x00", "ddcf\x1c", '"ddcf"', "#ddcf", "detections",
                                "detection__", "coasted" * 3, "ddcf\xa0"])


def _cells(column: str):
    """Valid cells 19 times in 20, a hostile one otherwise."""
    if column == "source":
        return SOURCE_CELLS
    if column in ("frame", "id"):
        valid, cells = st.integers(1, 10**6).map(str), INT_CELLS
    elif column in ("conf", "score"):
        valid, cells = st.floats(0, 1).map(repr), UNIT_CELLS
    else:
        valid, cells = st.floats(-1e6, 1e6).map(repr), FLOAT_CELLS
    return st.integers(0, 19).flatmap(lambda k: cells if k == 0 else valid)


@st.composite
def table_texts(draw) -> tuple[Table, str]:
    """A text for one table: either of its headers, 0-6 rows of which a few
    are short or long, hold a lone "\r" or follow a blank line, LF or CRLF
    line ends, with or without the last one."""
    table = draw(st.sampled_from([DETECTIONS, CORRESPONDENCES, METADATA, GT, TRACKS]))
    header = draw(st.sampled_from(table.headers))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(_cells(column)) for column in header.split(",")]
        shape = draw(st.integers(0, 19))
        cells = cells[:-1] if shape == 0 else cells + ["1"] if shape == 1 else cells
        line = ",".join(cells)
        if shape == 2:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + "\r" + line[at:]
        if shape == 3:
            lines.append("")
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return table, end.join(lines) + draw(st.sampled_from([end, ""]))


def outcome(parse, text: str) -> list:
    """parse(text), or the ParseError's message and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return [str(exc), exc.line]


def cell_parser(name: str, kind: type):
    """The reference parser of one cell of a column: its text to a checked
    value, or a ValueError naming the column."""
    if kind is str:
        def convert(raw):
            if raw in TRACK_SOURCES:
                return raw
            raise ValueError(f"unknown {name} {raw!r}")
        return convert

    if kind is int:
        minimum, maximum = {"frame": 0, "id": 1}[name], 2**63 - 1

        def convert(raw):
            try:
                v = int(raw)
            except ValueError:
                raise ValueError(f"non-numeric {name} {raw!r}") from None
            if not minimum <= v <= maximum:
                raise ValueError(f"{name} must be >= {minimum}, got {v}" if v < minimum
                                 else f"{name} {v} exceeds {maximum}")
            return v
        return convert

    lo, hi = (0.0, 1.0) if name in ("conf", "score") else (-math.inf, math.inf)

    def convert(raw):
        try:
            v = float(raw)
        except ValueError:
            raise ValueError(f"non-numeric {name} {raw!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"non-finite {name} {raw!r}")
        if not lo <= v <= hi:
            raise ValueError(f"{name} {v} outside [{lo}, {hi}]")
        return v
    return convert


def row_parse(table: Table, text: str) -> list:
    """The reference row parser of parse_columns: the rows of a header
    line plus one line per row, each line split and each cell converted on
    its own, left to right; the first bad line raises a ParseError carrying
    its number."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError(f"empty file, expected header {table.headers[0]!r}", line=1)
    if lines[0] not in table.headers:
        expected = " or ".join(map(repr, table.headers))
        raise ParseError(f"bad header {lines[0]!r}, expected {expected}", line=1)
    n = lines[0].count(",") + 1
    fields = dataclasses.fields(table.row)[:n]
    converters = [cell_parser(column, f.type if f.type in (int, str) else float)
                  for column, f in zip(table.columns, fields)]
    out = []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != n:
                raise ValueError(f"expected {n} fields, got {len(cells)}")
            out.append(table.row(*[convert(cell) for convert, cell in zip(converters, cells)]))
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    return out


def line_rows(table: Table, text: str) -> list:
    """The row parser's rows, or the ParseError's message and line."""
    return outcome(lambda t: row_parse(table, t), text)


def row_columns(table: Table, text: str) -> list:
    """The columns of row_parse's rows, None for an optional column the
    header leaves out; or the ParseError's message and line."""
    rows = line_rows(table, text)
    if rows and isinstance(rows[0], str):
        return rows
    width = text.split("\n")[0].rstrip("\r").count(",") + 1
    kinds = {int: np.int64, str: object}
    return [np.array([getattr(r, f.name) for r in rows], dtype=kinds.get(f.type, np.float64))
            if i < width else None for i, f in enumerate(dataclasses.fields(table.row))]


def same_columns(a: list, b: list) -> bool:
    """Equal messages, or equal columns: dtype, shape and bytes (the list,
    for text columns)."""
    if isinstance(a[0], str) or isinstance(b[0], str):
        return a == b
    return len(a) == len(b) and all(
        x is None and y is None
        or x is not None and y is not None and x.dtype == y.dtype and x.shape == y.shape
        and (x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes())
        for x, y in zip(a, b))


class TestColumnParse:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(case=table_texts())
    @example(case=(DETECTIONS, "frame,x,y,conf,score\r\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf,score\n0,1,2,0.5,0.9\n\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n-1,1,2,0.5\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2,1.0000001\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2\n0,1,2,0.5,0.5\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2,0.5,0.5\n0,1,2\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2,0.5\n0,1,2,0.5,0.5\n"))
    @example(case=(DETECTIONS, ""))
    @example(case=(DETECTIONS, "frame,y,x,conf\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,abc,2,0.5\n0,1,2\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2\n0,abc,2,0.5\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,abc,inf,0.5\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,1,2,1.5\n-1,1,2,0.5\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n-99999999999999999999,1,2,0.5\n"))
    @example(case=(TRACKS, "frame,id,x,y,conf,source\n0,1,2,3,0.5,ddcf\n\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n0,inf,2,0.5\n0,abc,2,0.5\n"))
    @example(case=(GT, "frame,id,x,y\n0,0,2,3\n0,99999999999999999999,2,3\n"))
    @example(case=(GT, "frame,id,x,y\n1.0,1,2,3\n"))
    @example(case=(GT, "frame,id,x,y\n0,1.0,2,3\n"))
    @example(case=(DETECTIONS, "frame,x,y,conf\n1.0,1,2,0.5\n"))
    @example(case=(GT, "frame,id,x,y\n0,1,2,3\n\n1,1,2,3\n"))
    @example(case=(GT, "frame,id,x,y\n0,1,2\r,3\n1,1,2,3\n"))
    @example(case=(GT, "frame,id,x,y\n0,\u0968,2,3\n"))
    @example(case=(GT, "frame,id,x,y\n0,1,\x1c2,3\n"))
    @example(case=(TRACKS, "frame,id,x,y,conf,source\n0,1,2,3,0.5,ddcf\x00\n"))
    @example(case=(TRACKS, "frame,id,x,y,conf,source\n0,1,2,3,0.5,detection__\n"))
    def test_equals_the_row_parser(self, case):
        table, text = case
        assert same_columns(outcome(table.parse_columns, text), row_columns(table, text))
        # repr tells int from float and -0.0 from 0.0, and a float's repr
        # gives back its bits
        assert repr(outcome(table.parse, text)) == repr(line_rows(table, text))

    def test_valid_text_takes_the_column_pass(self):
        text = "frame,x,y,conf,score\r\n007,+1,1_0, 1,0.5\r\n2,1e-3,-0.0,1,0\r\n"
        frame, x, y, conf, score = DETECTIONS.parse_columns(text)
        rows = DETECTIONS.parse(text)
        unscored = DETECTIONS.parse("frame,x,y,conf\n0,1,2,0.5\n")
        assert frame.tolist() == [7, 2] and x.tolist() == [1.0, 0.001]
        assert y.tolist() == [10.0, -0.0] and conf.tolist() == [1.0, 1.0]
        assert score.tolist() == [0.5, 0.0]
        assert repr(rows) == repr([Detection(7, 1.0, 10.0, 1.0, 0.5), Detection(2, 0.001, -0.0, 1.0, 0.0)])
        assert unscored == [Detection(0, 1.0, 2.0, 0.5)]
        assert DETECTIONS.parse_columns("frame,x,y,conf\n0,1,2,0.5\n")[4] is None

    def test_int_beyond_int64_names_its_line(self):
        for parse in (DETECTIONS.parse, DETECTIONS.parse_columns):
            with pytest.raises(ParseError, match="exceeds") as err:
                parse("frame,x,y,conf\n0,1,2,0.5\n9223372036854775808,1,2,0.5\n")
            assert err.value.line == 3


# Texts as write gives them: -0, 1e-07, 1e+06 and 123457 keep their cells
# through parse and write.
CANONICAL = {
    "detections": (DETECTIONS, "frame,x,y,conf,score\n0,1.5,-0,0.5,0.9\n7,123457,1e-07,1,0\n"),
    "detections_unscored": (DETECTIONS, "frame,x,y,conf\n0,1.5,-0,0.5\n"),
    "metadata": (METADATA, "frame,altitude\n0,50\n1,49.5\n"),
    "correspondences": (CORRESPONDENCES, "frame,prev_x,prev_y,cur_x,cur_y\n1,1,2,-3.25,4\n"),
    "gt": (GT, "frame,id,x,y\n0,1,2,3\n0,2,-0,1e+06\n"),
    "tracks": (TRACKS, "frame,id,x,y,conf,source\n0,1,2,3,0.5,ddcf\n1,1,2.5,3,1,detection\n"),
    "interchange": (INTERCHANGE, "frame,id,left,top,width,height,conf\n0,1,-8,3,20,20,0.5\n"),
}


class TestRowRecords:
    """The row records of every table and of TrajectorySet.tracks: slotted,
    with fields in column order, compared by value, and copied, replaced and
    pickled whole."""

    @staticmethod
    def assert_value_records(rows: list):
        assert rows
        for r in rows:
            assert not hasattr(r, "__dict__")
            twin = type(r)(*dataclasses.astuple(r))
            assert twin == r and twin is not r
            assert dataclasses.replace(r) == r
            assert dataclasses.replace(r, frame=r.frame + 1) != r
            assert copy.deepcopy(r) == r
            assert pickle.loads(pickle.dumps(r)) == r

    @pytest.mark.parametrize("table,text", CANONICAL.values(), ids=list(CANONICAL))
    def test_table_rows(self, table, text):
        rows = table.parse(text)
        assert table.write(rows) == text
        assert table.write_columns(table.parse_columns(text)) == text
        assert [{"track_id": "id"}.get(name, name) for name in table.names] == table.columns
        self.assert_value_records(rows)

    def test_track_points(self):
        points = TrajectorySet.from_rows([(0, 1, 1.5, -0.0, 0.5), (1, 1, 2.0, 3.0)]).tracks[1]
        assert [f.name for f in dataclasses.fields(TrackPoint)] == ["frame", "x", "y", "conf"]
        assert points == [TrackPoint(0, 1.5, -0.0, 0.5), TrackPoint(1, 2.0, 3.0)]
        self.assert_value_records(points)


class TestLoadtxtPass:
    """parse_columns converts a table in one np.loadtxt pass where that pass
    reads its cells as the cell pass does."""

    @pytest.mark.parametrize("table,text", CANONICAL.values(), ids=list(CANONICAL))
    def test_valid_text_takes_the_loadtxt_pass(self, table, text, monkeypatch):
        if not formats._LOADTXT_PASS:
            pytest.skip("this numpy reads a float cell in an int64 column")
        passes = []
        loadtxt_columns = Table._loadtxt_columns
        monkeypatch.setattr(Table, "_loadtxt_columns",
                            lambda *args: passes.append(loadtxt_columns(*args)) or passes[-1])
        columns = table.parse_columns(text)
        assert len(passes) == 1 and passes[0] is not None
        monkeypatch.setattr(formats, "_LOADTXT_PASS", False)
        assert same_columns(columns, table.parse_columns(text))
        assert passes[1] is None

    @pytest.mark.parametrize("table,text", CANONICAL.values(), ids=list(CANONICAL))
    def test_crlf_text_takes_the_loadtxt_pass(self, table, text, monkeypatch):
        if not formats._LOADTXT_PASS:
            pytest.skip("this numpy reads a float cell in an int64 column")
        passes = []
        loadtxt_columns = Table._loadtxt_columns
        monkeypatch.setattr(Table, "_loadtxt_columns",
                            lambda *args: passes.append(loadtxt_columns(*args)) or passes[-1])
        columns = table.parse_columns(text.replace("\n", "\r\n"))
        assert len(passes) == 1 and passes[0] is not None
        assert same_columns(columns, table.parse_columns(text))

    @pytest.mark.parametrize("text", ["frame,id,x,y\r\n0,1,2,3\r\n1,1\r2,3\r\n",
                                      "frame,id,x,y\n0,1,2,3\n1,1\r2,3\n"], ids=["crlf", "lf"])
    def test_lone_cr_takes_the_cell_pass(self, text, monkeypatch):
        passes = []
        loadtxt_columns = Table._loadtxt_columns
        monkeypatch.setattr(Table, "_loadtxt_columns",
                            lambda *args: passes.append(loadtxt_columns(*args)) or passes[-1])
        with pytest.raises(ParseError, match="expected 4 fields, got 3") as err:
            GT.parse_columns(text)
        assert err.value.line == 3 and passes == [None]

    def test_pass_only_where_numpy_refuses_float_ints(self, monkeypatch):
        assert formats._LOADTXT_PASS is formats._loadtxt_refuses_float_ints()

        def lenient(lines, dtype, **kwargs):  # as older numpy releases read "1.0"
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return np.ones(len(lines), dtype=dtype)
        monkeypatch.setattr(np, "loadtxt", lenient)
        assert not formats._loadtxt_refuses_float_ints()

        def strict(lines, dtype, **kwargs):
            raise ValueError("could not convert string '1.0' to int64")
        monkeypatch.setattr(np, "loadtxt", strict)
        assert formats._loadtxt_refuses_float_ints()


GT_TEXT = "frame,id,x,y\n0,1,2,3\n1,1,2.5,3\n"


def _tracks():
    return TrajectorySet.from_rows([(0, 1, 2.0, 3.0), (1, 1, 2.5, 3.0)]).tracks


class TestCollectorPaused:
    """The row builders pause the cyclic garbage collector and leave it as
    they found it."""

    @pytest.mark.parametrize("call,error", [
        (lambda: parse_gt(GT_TEXT), None),
        (lambda: parse_tracks(GT_TEXT), ParseError),
        (lambda: GT.parse(GT_TEXT + "0,1,2\n"), ParseError),
        (lambda: TrajectorySet.from_rows([(0, 1, 2.0, 3.0)]), None),
        (lambda: TrajectorySet.from_rows([(0, 1, 2.0)]), InvalidInputError),
        (lambda: TrajectorySet.from_rows([(0, 1, 2.0, 3.0), (0, 1, 2.0, 3.0)]), InvalidInputError),
        (_tracks, None),
    ], ids=["parse", "parse-bad-header", "parse-bad-line", "from_rows", "from_rows-bad-width",
            "from_rows-repeated-frame", "tracks"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, call, error, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_rows_are_read_with_the_collector_paused(self):
        seen = []

        def rows():
            seen.append(gc.isenabled())
            yield 0, 1, 2.0, 3.0
        TrajectorySet.from_rows(rows())
        assert seen == [False] and gc.isenabled()

    def test_no_collection_while_rows_are_built(self):
        """20,000 gt.csv rows through parse_gt, from_rows and .tracks. The
        objects each call leaves alive count towards the next young
        collection, which the first allocation after the call makes once
        the collector is back on; nothing else runs, where building them
        unpaused ran dozens of collections, older generations among them."""
        text = write_gt([GtRow(f, i + 1, 1.5 * i, 2.5 * f) for f in range(100) for i in range(200)])
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])
        gc.collect()
        gc.callbacks.append(count)
        try:
            rows = parse_gt(text)
            tracks = TrajectorySet.from_rows((r.frame, r.track_id, r.x, r.y) for r in rows).tracks
        finally:
            gc.callbacks.remove(count)
        assert len(rows) == 20_000 and len(tracks) == 200
        assert generations == [0] * len(generations) and len(generations) <= 3


# Floats whose cells are easy to get wrong: the sign of zero, exponent
# notation below 1e-4 and at 1e6, and rounding to six digits.
EDGE_FLOATS = [-0.0, 0.0, 1e-07, 123457.0, 123456.5, 999999.5, 1e+16, 0.1]


def _field_values(name: str, kind: type, scored: bool):
    """Values of one row field, by its column name; score is None when
    the table is not scored, and a probability when it is."""
    if kind is str:
        return st.sampled_from(TRACK_SOURCES)
    if kind is int:
        return st.integers(1 if name == "id" else 0, 2**63 - 1)
    unit = st.one_of(st.floats(0, 1), st.sampled_from([-0.0, 1e-07, 1.0]))
    if name == "score":
        return unit if scored else st.none()
    if name == "conf":
        return unit
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def table_rows(draw, table: Table) -> list:
    """0-12 rows of table; a detections table is scored or not."""
    scored = draw(st.booleans())
    kinds = [f.type if f.type in (int, str) else float for f in dataclasses.fields(table.row)]
    values = [_field_values(name, kind, scored) for name, kind in zip(table.columns, kinds)]
    return draw(st.lists(st.builds(table.row, *values), max_size=12))


WRITE_TABLES = [DETECTIONS, METADATA, CORRESPONDENCES, GT, TRACKS, INTERCHANGE]


class TestColumnWrite:
    @pytest.mark.parametrize("table", WRITE_TABLES, ids=lambda t: t.header)
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_rows_and_columns_write_one_text(self, table, data):
        rows = data.draw(table_rows(table))
        text = table.write(rows)
        assert table.write_columns(table.to_columns(rows)) == text
        assert table.write_columns(table.parse_columns(text)) == text
        lines = text.splitlines()
        header = lines[0].split(",")
        assert header in (table.columns[:table.required], table.columns) and len(lines) == len(rows) + 1
        kinds = {f.name: f.type for f in dataclasses.fields(table.row)}
        for row, line in zip(rows, lines[1:]):
            for name, cell in zip(table.names, line.split(",")):
                value = getattr(row, name)
                if kinds[name] in (int, str):
                    assert cell == str(value)
                else:
                    assert cell == format_float(value) == "{:.6g}".format(value)

    @pytest.mark.parametrize("via", ["rows", "columns"])
    @pytest.mark.parametrize("table,rows,expected", [
        pytest.param(DETECTIONS, [Detection(0, 1.0, 2.0, 0.5, math.nan)], "^non-finite score$",
                     id="nan-score"),
        pytest.param(TRACKS, [TrackRow(0, 1, math.inf, 2.0, 0.5, "ddcf")], "^non-finite x$",
                     id="infinite-x"),
        pytest.param(GT, [GtRow(-3, 0, 1.0, 2.0)], "^frame must be >= 0, got -3$",
                     id="frame-minus-3-id-0"),
        pytest.param(TRACKS, [TrackRow(0, 1, 1.0, 2.0, 0.5, "bogus")], "^unknown source 'bogus'$",
                     id="bogus-source"),
        pytest.param(DETECTIONS, [Detection(0.5, 1.0, 2.0, 0.5)], "^frame holds", id="fractional-frame"),
        pytest.param(DETECTIONS, [Detection(None, 1.0, 2.0, 0.5)], "^frame holds", id="none-frame"),
        pytest.param(DETECTIONS, [Detection(0, "x", 2.0, 0.5)], "^x holds", id="text-x"),
        pytest.param(TRACKS, [TrackRow(0.5, 1, 1.0, 2.0, 0.5, "ddcf")], "^frame holds",
                     id="fractional-track-frame"),
        pytest.param(GT, [GtRow(0, 1.5, 1.0, 2.0)], "^id holds", id="fractional-id"),
        pytest.param(GT, [GtRow(0, 2 ** 63, 1.0, 2.0)], "^id holds", id="id-past-int64"),
    ])
    def test_writers_refuse_what_the_parser_rejects(self, table, rows, expected, via):
        """InvalidInputError naming the column, from write and from
        write_columns of to_columns alike."""
        write = table.write if via == "rows" else lambda r: table.write_columns(table.to_columns(r))
        with pytest.raises(InvalidInputError, match=expected):
            write(rows)


class TestFeatureMapBinary:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(2, 2, 1)).astype(np.float32).astype(float)
        fmap = FeatureMap(data=data, stride=4.0)
        again = read_feature_map(write_feature_map(fmap))
        assert np.array_equal(again.data, fmap.data)
        assert again.stride == 4.0

    @pytest.mark.parametrize("layout", ["float32", "float64", "big-endian", "strided"])
    def test_saved_file_holds_the_written_bytes(self, tmp_path, layout):
        data = np.random.default_rng(4).normal(size=(6, 10, 3)).astype(np.float32)
        data = {"float32": data, "float64": data.astype(float), "big-endian": data.astype(">f4"),
                "strided": np.swapaxes(data, 0, 1)}[layout]
        fmap = FeatureMap(data=data, stride=3.0)
        save_feature_map(fmap, tmp_path / "map.fmap")
        assert (tmp_path / "map.fmap").read_bytes() == write_feature_map(fmap)

    def test_round_trip_larger(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(7, 11, 5)).astype(np.float32).astype(float)
        blob = write_feature_map(FeatureMap(data=data, stride=2.5))
        # header: magic + u32 version,h,w,c + f32 stride, then f32 payload
        assert len(blob) == 4 + 16 + 4 + 7 * 11 * 5 * 4
        again = read_feature_map(blob)
        assert np.array_equal(again.data, data)

    def test_payload_of_bytes_is_a_read_only_view(self):
        """The map's array reads the payload where it lies in an immutable
        bytes blob, without a copy."""
        data = np.arange(4 * 3 * 2, dtype=np.float32).reshape(4, 3, 2)
        blob = write_feature_map(FeatureMap(data=data, stride=1.0))
        fmap = read_feature_map(blob)
        assert np.array_equal(fmap.data, data)
        assert not fmap.data.flags.writeable
        assert np.shares_memory(fmap.data, np.frombuffer(blob, dtype=np.uint8))

    def test_payload_of_a_mutable_buffer_is_copied(self):
        """A bytearray blob may be reused or resized after the read: the map
        owns a read-only copy of its payload and does not change with it."""
        data = np.arange(4 * 3 * 2, dtype=np.float32).reshape(4, 3, 2)
        blob = bytearray(write_feature_map(FeatureMap(data=data, stride=1.0)))
        fmap = read_feature_map(blob)
        assert not fmap.data.flags.writeable
        blob[24:] = bytes(len(blob) - 24)
        blob.extend(b"more")  # no BufferError: no view of blob is held
        assert np.array_equal(fmap.data, data)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [key for key, kind in _KINDS.items() if kind is float])
    def test_non_finite_float_rejected(self, key, value):
        from pointtrack.config import toolkit_config_from_kv
        with pytest.raises(ConfigError, match=key):
            toolkit_config_from_kv({key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cls,name", [
        (RansacConfig, "inlier_threshold"), (GatingPolicy, "base_radius"),
        (GatingPolicy, "reference_altitude"), (DcfConfig, "regularization"),
        (DcfConfig, "label_sigma"), (DcfConfig, "psr_min"),
    ])
    def test_non_finite_library_config_rejected(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

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

"""Bit-exact file formats: CSV point tables, the binary feature-map file,
flat key=value texts, and sequence-bundle layout on disk.

All CSV formats are UTF-8, comma-separated, with one exact header line;
floats are serialized with up to 6 significant decimals and parsing is the
exact inverse of writing at that precision.
"""

import dataclasses
import math
import struct
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .ddcf import FeatureMap
from .errors import FormatError, InvalidInputError, ParseError

SOURCE_DETECTION = "detection"  # matched to a detection this frame
SOURCE_DDCF = "ddcf"            # recovered by the correlation filter
SOURCE_COASTED = "coasted"      # predicted only (emit_coasted)
TRACK_SOURCES = (SOURCE_DETECTION, SOURCE_DDCF, SOURCE_COASTED)

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1

DETECTIONS_NAME = "detections.csv"
METADATA_NAME = "metadata.csv"
CORRESPONDENCES_NAME = "correspondences.csv"
GT_NAME = "gt.csv"
FEATURES_DIRNAME = "features"
MANIFEST_NAME = "manifest.txt"


@dataclass(slots=True)
class Detection:
    """A point observation in one frame."""

    frame: int
    x: float
    y: float
    conf: float
    score: float | None = None  # optional external classifier probability


@dataclass(slots=True)
class MetadataRow:
    frame: int
    altitude: float


@dataclass(slots=True)
class CorrespondenceRow:
    """A background keypoint matched from frame-1 to frame."""

    frame: int
    prev_x: float
    prev_y: float
    cur_x: float
    cur_y: float


@dataclass(slots=True)
class TrackRow:
    frame: int
    track_id: int
    x: float
    y: float
    conf: float
    source: str


@dataclass(slots=True)
class GtRow:
    frame: int
    track_id: int
    x: float
    y: float


FLOAT_CELL = "%.6g"  # up to six significant decimals


def format_float(v: float) -> str:
    return FLOAT_CELL % float(v)


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


# --- CSV tables ---

# The checks of a column, by its header name. Every other float column only
# has to be finite.
_INT_MINIMUM = {"frame": 0, "id": 1}
_INT_MAXIMUM = np.iinfo(np.int64).max  # int columns are parsed into int64 arrays
_UNIT_INTERVAL = ("conf", "score")
_VOCABULARY = {"source": TRACK_SOURCES}


def _converter(name: str, kind: type):
    """The parser of one column: cell text to a checked value, or a
    ValueError naming the column."""
    if kind is str:
        vocabulary = _VOCABULARY[name]

        def convert(raw):
            if raw in vocabulary:
                return raw
            raise ValueError(f"unknown {name} {raw!r}")
        return convert

    if kind is int:
        minimum, maximum = _INT_MINIMUM[name], _INT_MAXIMUM

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

    lo, hi = (0.0, 1.0) if name in _UNIT_INTERVAL else (-math.inf, math.inf)

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


def _check_column(name: str, column) -> None:
    """The checks of one column, by its header name, that parse_columns and
    both writers apply: an int64 array against its minimum, a float64 array
    finite (and in [0, 1] for conf and score), text against its vocabulary.
    Raises InvalidInputError naming the column."""
    if name in _VOCABULARY:
        vocabulary = set(_VOCABULARY[name])
        if not vocabulary.issuperset(column):
            bad = next(v for v in column if v not in vocabulary)
            raise InvalidInputError(f"unknown {name} {bad!r}")
    elif name in _INT_MINIMUM:
        if len(column) and column.min() < _INT_MINIMUM[name]:
            raise InvalidInputError(f"{name} must be >= {_INT_MINIMUM[name]}, got {column.min()}")
    elif not np.isfinite(column).all():
        raise InvalidInputError(f"non-finite {name}")
    elif name in _UNIT_INTERVAL and not ((column >= 0.0) & (column <= 1.0)).all():
        raise InvalidInputError(f"{name} outside [0, 1]")


def number_column(name: str, dtype, values) -> np.ndarray:
    """values as a 1-d int64 or float64 array, a float None as NaN. Raises
    InvalidInputError naming the column for a nested cell, text that is no
    number, and any float, None or integer beyond int64 in an int64 column."""
    try:
        column = np.asarray(values, dtype=np.float64 if dtype is np.float64 else None)
        if column.ndim != 1:
            raise TypeError
        # an empty column has no type of its own
        return column.astype(dtype, copy=False, casting="safe" if column.size else "unsafe")
    except (TypeError, ValueError, OverflowError):
        kind = "an int64 integer" if dtype is np.int64 else "a number"
        raise InvalidInputError(f"{name} holds a value that is not {kind}") from None


def _write_column(name: str, dtype, values, optional: bool) -> list:
    """One column's values as the Python scalars its cells show, after
    _check_column: str for text, int for int64 and float for float64. A
    float None becomes NaN, which an optional column writes as 0."""
    if dtype is object:
        column = list(map(str, values))
    else:
        column = number_column(name, dtype, values)
        if optional:
            column = np.where(np.isnan(column), 0.0, column)
    _check_column(name, column)
    return column if dtype is object else column.tolist()


class Table:
    """One CSV format: an exact header line and a row dataclass whose fields
    are the columns in header order. Trailing fields that default to None are
    optional columns: the header without them is accepted too, and its rows
    leave those fields None."""

    def __init__(self, header: str, row: type):
        fields = dataclasses.fields(row)
        kinds = [f.type if f.type in (int, str) else float for f in fields]
        self.row = row
        self.header = header
        self.columns = header.split(",")
        self.names = [f.name for f in fields]
        self.required = sum(f.default is not None for f in fields)
        self.headers = tuple(",".join(self.columns[:n]) for n in sorted({self.required, len(fields)}))
        self._converters = [_converter(c, k) for c, k in zip(self.columns, kinds)]
        self._dtypes = [{int: np.int64, float: np.float64, str: object}[k] for k in kinds]
        self._cells = [{int: "%d", float: FLOAT_CELL, str: "%s"}[k] for k in kinds]

    def parse(self, text: str) -> list:
        """One row per line, built from the arrays of parse_columns: valid
        text takes its column pass, and a ParseError is parse_lines'."""
        return list(map(self.row, *[c.tolist() for c in self.parse_columns(text) if c is not None]))

    def parse_columns(self, text: str) -> list:
        """The table as one array per column, in header order: int64,
        float64, or object for text. An optional column the header leaves
        out is None.

        One vectorised pass splits the text and converts and checks each
        column whole. When any of that fails, parse_lines runs instead, so
        every ParseError is the row parser's, with its message and line, and
        every accepted text gives the row parser's values."""
        lines = _split_lines(text)
        try:
            return self._convert_columns(lines)
        except (ValueError, OverflowError, InvalidInputError):
            return self.to_columns(self.parse_lines(lines), lines[0].count(",") + 1)

    def _convert_columns(self, lines: list[str]) -> list:
        if not lines or lines[0] not in self.headers:
            raise ValueError("bad header")
        n, rows = lines[0].count(",") + 1, len(lines) - 1
        # a "\n" cell between the lines: with the right cell count, a line of
        # the wrong length moves a marker into a column, where no converter
        # accepts it
        cells = ",\n,".join(lines[1:]).split(",") if rows else []
        if len(cells) != max((n + 1) * rows - 1, 0):
            raise ValueError("field count")
        out = []
        for j, (name, dtype) in enumerate(zip(self.columns[:n], self._dtypes)):
            column = np.array(cells[j::n + 1], dtype=dtype)
            _check_column(name, column)
            out.append(column)
        return out + [None] * (len(self.names) - n)

    def to_columns(self, rows: list, width: int | None = None) -> list:
        """rows as parse_columns gives them: one array per column, and None
        for each optional column from width on; by default width leaves out
        the optional columns no row sets."""
        n = self._width(rows) if width is None else width
        return ([np.array([getattr(r, name) for r in rows], dtype=dtype)
                 for name, dtype in zip(self.names[:n], self._dtypes)]
                + [None] * (len(self.names) - n))

    def _width(self, rows: list) -> int:
        """The number of columns rows fill: all of them when any row sets an
        optional column, else the required ones."""
        k = self.required
        return len(self.names) if any(getattr(r, name) is not None
                                      for name in self.names[k:] for r in rows) else k

    def parse_lines(self, lines: list[str]) -> list:
        """Rows of a header line plus one line per row; the first bad line
        raises a ParseError carrying its number."""
        if not lines:
            raise ParseError(f"empty file, expected header {self.headers[0]!r}", line=1)
        if lines[0] not in self.headers:
            expected = " or ".join(map(repr, self.headers))
            raise ParseError(f"bad header {lines[0]!r}, expected {expected}", line=1)
        n = lines[0].count(",") + 1
        converters, row, out = self._converters[:n], self.row, []
        try:
            for lineno, line in enumerate(lines[1:], start=2):
                cells = line.split(",")
                if len(cells) != n:
                    raise ValueError(f"expected {n} fields, got {len(cells)}")
                out.append(row(*[convert(cell) for convert, cell in zip(converters, cells)]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        return out

    def write(self, rows: list) -> str:
        """write_columns of one list per field (to_columns' arrays are slower)."""
        n = self._width(rows)
        return self.write_columns([list(map(attrgetter(name), rows)) for name in self.names[:n]]
                                  + [None] * (len(self.names) - n))

    def write_columns(self, columns: list) -> str:
        """The inverse of parse_columns: the text of one sequence per column
        in header order, None for an absent optional column. Each column gets
        the parser's checks, and InvalidInputError names one that fails; NaN
        or None in a written optional column is written as 0."""
        n = sum(c is not None for c in columns)
        checked = [_write_column(name, dtype, values, j >= self.required)
                   for j, (name, dtype, values) in enumerate(zip(self.columns, self._dtypes, columns[:n]))]
        rows = len(checked[0])
        if len(columns) != len(self.names) or any(len(c) != rows for c in checked):
            raise InvalidInputError(f"expected {len(self.names)} columns of one length")
        # the cells row-major, for one %-format of the whole table
        cells = [None] * (rows * n)
        for j, column in enumerate(checked):
            cells[j::n] = column
        lines = (",".join(self._cells[:n]) + "\n") * rows
        return ",".join(self.columns[:n]) + "\n" + lines % tuple(cells)


DETECTIONS = Table("frame,x,y,conf,score", Detection)
METADATA = Table("frame,altitude", MetadataRow)
CORRESPONDENCES = Table("frame,prev_x,prev_y,cur_x,cur_y", CorrespondenceRow)
GT = Table("frame,id,x,y", GtRow)
TRACKS = Table("frame,id,x,y,conf,source", TrackRow)

parse_detections, write_detections = DETECTIONS.parse, DETECTIONS.write
parse_metadata, write_metadata = METADATA.parse, METADATA.write
parse_correspondences, write_correspondences = CORRESPONDENCES.parse, CORRESPONDENCES.write
parse_gt, write_gt = GT.parse, GT.write
parse_tracks, write_tracks = TRACKS.parse, TRACKS.write


# --- binary feature maps ---

def write_feature_map(fmap: FeatureMap) -> bytes:
    h, w, c = fmap.data.shape
    header = FMAP_MAGIC + struct.pack("<IIIIf", FMAP_VERSION, h, w, c, float(fmap.stride))
    payload = np.ascontiguousarray(fmap.data, dtype="<f4").tobytes()
    return header + payload


def read_feature_map(blob: bytes) -> FeatureMap:
    if len(blob) < 4 or blob[:4] != FMAP_MAGIC:
        raise FormatError("bad magic, not a feature-map file")
    if len(blob) < 4 + 20:
        raise FormatError("truncated header")
    version, h, w, c, stride = struct.unpack("<IIIIf", blob[4:24])
    if version != FMAP_VERSION:
        raise FormatError(f"unsupported version {version}")
    if min(h, w, c) < 1:
        raise FormatError(f"bad dimensions {h}x{w}x{c}")
    expected = h * w * c * 4
    payload = blob[24:]
    if len(payload) != expected:
        raise FormatError(f"payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(h, w, c)
    return FeatureMap(data=data, stride=float(stride))


def feature_file_name(frame: int) -> str:
    return f"{frame:06d}.fmap"


# --- flat key = value text ---

def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        out[key] = value.strip()
    return out


def write_kv_text(values: dict[str, str]) -> str:
    return "".join(f"{k} = {values[k]}\n" for k in sorted(values))


# --- bundle layout ---

@dataclass
class SequenceBundlePaths:
    """Resolved file locations inside one sequence bundle directory."""

    root: Path
    detections: Path
    metadata: Path | None
    correspondences: Path | None
    features_dir: Path | None
    gt: Path | None
    manifest: Path | None

    @classmethod
    def from_dir(cls, root) -> "SequenceBundlePaths":
        root = Path(root)
        if not root.is_dir():
            raise ParseError(f"bundle directory {root} does not exist")
        detections = root / DETECTIONS_NAME
        if not detections.is_file():
            raise ParseError(f"bundle is missing {DETECTIONS_NAME} in {root}")

        def opt(name: str) -> Path | None:
            p = root / name
            return p if p.exists() else None

        features = root / FEATURES_DIRNAME
        return cls(
            root=root,
            detections=detections,
            metadata=opt(METADATA_NAME),
            correspondences=opt(CORRESPONDENCES_NAME),
            features_dir=features if features.is_dir() else None,
            gt=opt(GT_NAME),
            manifest=opt(MANIFEST_NAME),
        )

    def feature_files(self) -> dict[int, Path]:
        """The feature-map file of each frame that has one. Only files named
        exactly feature_file_name(frame) count; any other file is ignored."""
        if self.features_dir is None:
            return {}
        files = {}
        for p in self.features_dir.glob("*.fmap"):
            try:
                frame = int(p.stem)
            except ValueError:
                continue
            if p.name == feature_file_name(frame) and p.is_file():
                files[frame] = p
        return files

"""Bit-exact file formats: CSV point tables, the binary feature-map file,
flat key=value texts, and sequence-bundle layout on disk.

All CSV formats are UTF-8, comma-separated, with one exact header line;
floats are serialized with up to 6 significant decimals and parsing is the
exact inverse of writing at that precision.
"""

import dataclasses
import gc
import struct
import warnings
from contextlib import contextmanager
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


@contextmanager
def collector_paused():
    """Disable the cyclic garbage collector for the block, then restore the
    state it found. Builders of many rows run in it: their rows hold only
    ints, floats and strings, so they form no cycles and reference counting
    frees them, while each collection pass would walk every live object of
    the process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


# --- CSV tables ---

# The rule of a column, by its header name. Every other float column only
# has to be finite.
_INT_MINIMUM = {"frame": 0, "id": 1}
_INT_MAXIMUM = np.iinfo(np.int64).max  # int columns are parsed into int64 arrays
_UNIT_INTERVAL = ("conf", "score")
_VOCABULARY = {"source": frozenset(TRACK_SOURCES)}


def column_fault(name: str, column, cells: list[str] | None = None) -> tuple[int, str] | None:
    """The first cell of column that breaks the column's rule, as its index
    and a message naming the column; None when every cell keeps it. The
    rule of parse_columns, both writers and process_frame: an int64 column
    has its minimum, a float64 column is finite (and in [0, 1] for conf and
    score), text keeps to its vocabulary. cells, the text the column was
    parsed from, puts the bad cell into a float column's message."""
    if name in _VOCABULARY:
        vocabulary = _VOCABULARY[name]
        if vocabulary.issuperset(column):
            return None
        i = next(i for i, v in enumerate(column) if v not in vocabulary)
        return i, f"unknown {name} {column[i]!r}"
    if name in _INT_MINIMUM:
        ok = column >= _INT_MINIMUM[name]
    else:
        ok = finite = np.isfinite(column)
        if name in _UNIT_INTERVAL:
            ok = finite & (column >= 0.0) & (column <= 1.0)
    if ok.all():
        return None
    i = int(ok.argmin())
    if name in _INT_MINIMUM:
        return i, f"{name} must be >= {_INT_MINIMUM[name]}, got {column[i]}"
    if not finite[i]:
        return i, f"non-finite {name}" + ("" if cells is None else f" {cells[i]!r}")
    return i, f"{name} outside [0, 1]" if cells is None else f"{name} {column[i]} outside [0.0, 1.0]"


def _parse_column(name: str, dtype, cells: list[str]) -> tuple[np.ndarray | None, tuple[int, str] | None]:
    """cells as one array, and the column's first fault as column_fault
    gives it (the array is None when np.array refuses a cell). Valid cells
    take one np.array call and one column_fault; only a column that np.array
    refuses is converted cell by cell, to find the cell."""
    try:
        column = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        pass
    else:
        return column, column_fault(name, column, cells)
    for bad, cell in enumerate(cells):
        try:
            np.array(cell, dtype=dtype)
        except ValueError:
            message = f"non-numeric {name} {cell!r}"
            break
        except OverflowError:
            # an integer beyond int64: the minimum rule names one below it
            v = int(cell)
            fault = column_fault(name, np.array([v], dtype=object))
            message = fault[1] if fault else f"{name} {v} exceeds {_INT_MAXIMUM}"
            break
    return None, column_fault(name, np.array(cells[:bad], dtype=dtype), cells) or (bad, message)


def _loadtxt(lines: list[str], dtype) -> np.ndarray:
    """lines as one array of dtype, by the C tokenizer and converters of
    np.loadtxt: fields split at every comma, no comment or quote character,
    and any warning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


def _loadtxt_refuses_float_ints() -> bool:
    """Whether np.loadtxt refuses "1.0" in an int64 column, as int() does.
    Older numpy releases parse it as 1 and only warn; with them, every table
    takes the cell pass."""
    try:
        _loadtxt(["1.0"], np.int64)
    except ValueError:
        return True
    except Warning:  # the warning of a numpy that reads 1
        pass
    return False


_LOADTXT_PASS = _loadtxt_refuses_float_ints()
# ASCII that loadtxt reads otherwise than the cell pass: it cuts a text
# cell's trailing "\0"s, and strips "\x1c" to "\x1f" around a number as
# whitespace, where int() and float() refuse them. Text with any of them,
# or with any non-ASCII character (loadtxt reads some digits of other
# scripts as wrong numbers), takes the cell pass. So does text with a "\r"
# that is not part of a "\r\n", as loadtxt ends a line there; _split_lines
# strips the "\r" of each "\r\n" before loadtxt sees the line.
_LOADTXT_UNSAFE = "\0\x1c\x1d\x1e\x1f"


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


def _write_column(name: str, dtype, values) -> list:
    """One column's values as the Python scalars its cells show, after
    column_fault: str for text, int for int64 and float for float64. A float
    None becomes NaN, which column_fault refuses as non-finite."""
    column = list(map(str, values)) if dtype is object else number_column(name, dtype, values)
    fault = column_fault(name, column)
    if fault:
        raise InvalidInputError(fault[1])
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
        self._dtypes = [{int: np.int64, float: np.float64, str: object}[k] for k in kinds]
        self._cells = [{int: "%d", float: FLOAT_CELL, str: "%s"}[k] for k in kinds]
        # np.loadtxt's record type under each header; a text column is one
        # character wider than its longest word, so a cut longer cell is
        # no word either
        self._records = {
            len(h.split(",")): np.dtype([
                (name, f"U{max(map(len, _VOCABULARY[name])) + 1}" if dtype is object else dtype)
                for name, dtype in zip(h.split(","), self._dtypes)])
            for h in self.headers}

    def parse(self, text: str) -> list:
        """One row per line, built from the arrays of parse_columns with the
        collector paused."""
        with collector_paused():
            return list(map(self.row, *[c.tolist() for c in self.parse_columns(text) if c is not None]))

    def parse_columns(self, text: str) -> list:
        """The table as one array per column, in header order: int64,
        float64, or object for text. An optional column the header leaves
        out is None.

        One np.loadtxt pass converts the body, and each column is checked
        whole. Text that pass refuses, or that it could read otherwise than
        int() and float() (see _loadtxt_columns), takes the cell pass, which
        splits the text and converts and checks each column whole. After a
        failed check, a ParseError names the first bad line as a reader
        going line by line finds it: a wrong header at line 1, else the
        first line of the wrong length or with a bad cell, and its field
        count or its leftmost bad cell."""
        lines = _split_lines(text)
        if not lines:
            raise ParseError(f"empty file, expected header {self.headers[0]!r}", line=1)
        if lines[0] not in self.headers:
            expected = " or ".join(map(repr, self.headers))
            raise ParseError(f"bad header {lines[0]!r}, expected {expected}", line=1)
        n, rows = lines[0].count(",") + 1, len(lines) - 1
        columns = self._loadtxt_columns(text, lines[1:], n)
        if columns is not None:
            return columns + [None] * (len(self.names) - n)
        # a "\n" cell between the lines: a line of the wrong length changes
        # the cell count, or moves a marker into a column, where no rule
        # accepts it
        cells = ",\n,".join(lines[1:]).split(",") if rows else []
        columns, faults = [], []
        for j, (name, dtype) in enumerate(zip(self.columns[:n], self._dtypes)):
            column, fault = _parse_column(name, dtype, cells[j::n + 1])
            columns.append(column)
            if fault:
                faults.append((fault[0], j, fault[1]))
        if not faults and len(cells) == max((n + 1) * rows - 1, 0):
            return columns + [None] * (len(self.names) - n)
        fields = [line.count(",") + 1 for line in lines[1:]]
        wrong = next((i for i, m in enumerate(fields) if m != n), None)
        if wrong is not None:
            # the cells from the first line of the wrong length on are out
            # of their columns: its field count comes before any of them
            faults.append((wrong, -1, f"expected {n} fields, got {fields[wrong]}"))
        index, _, message = min(faults)
        raise ParseError(message, line=index + 2)

    def _loadtxt_columns(self, text: str, body: list[str], n: int) -> list | None:
        """The columns of body, the lines of text under an n-column header,
        by one np.loadtxt pass. None where that pass is off, where text may
        read otherwise (see _LOADTXT_UNSAFE), and where the pass refuses or
        warns, skips a line (a blank one) or gives a column that breaks its
        rule: the cell pass then converts the text, or names its first bad
        line."""
        if not (_LOADTXT_PASS and body and text.isascii()) or any(c in text for c in _LOADTXT_UNSAFE):
            return None
        if "\r" in text and text.count("\r") != text.count("\r\n"):
            return None
        try:
            records = _loadtxt(body, self._records[n])
        except (ValueError, Warning):
            return None
        columns = [records[name].astype(dtype) for name, dtype in zip(self.columns, self._dtypes[:n])]
        if len(records) != len(body) or any(map(column_fault, self.columns, columns)):
            return None
        return columns

    def to_columns(self, rows: list, width: int | None = None) -> list:
        """rows as parse_columns gives them: one array per column, and None
        for each optional column from width on; by default width leaves out
        the optional columns no row sets. Number columns go through
        number_column, so a cell that is not an int64 integer or a number
        raises InvalidInputError."""
        if width is None:
            optional = self.names[self.required:]
            width = len(self.names) if any(getattr(r, name) is not None
                                           for name in optional for r in rows) else self.required
        columns = []
        for column, name, dtype in zip(self.columns[:width], self.names, self._dtypes):
            values = list(map(attrgetter(name), rows))
            columns.append(np.array(values, dtype=object) if dtype is object
                           else number_column(column, dtype, values))
        return columns + [None] * (len(self.names) - width)

    def write(self, rows: list) -> str:
        """write_columns of to_columns(rows)."""
        return self.write_columns(self.to_columns(rows))

    def write_columns(self, columns: list) -> str:
        """The inverse of parse_columns: the text of one sequence per column
        in header order, None for an absent optional column. Each column gets
        the parser's checks, and InvalidInputError names one that fails, so
        a written score column holds a finite score on every row."""
        n = sum(c is not None for c in columns)
        checked = [_write_column(name, dtype, values)
                   for name, dtype, values in zip(self.columns, self._dtypes, columns[:n])]
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

def _feature_map_parts(fmap: FeatureMap) -> tuple[bytes, np.ndarray]:
    """The header bytes and the little-endian f4 payload array of fmap's file."""
    h, w, c = fmap.data.shape
    header = FMAP_MAGIC + struct.pack("<IIIIf", FMAP_VERSION, h, w, c, float(fmap.stride))
    return header, np.ascontiguousarray(fmap.data, dtype="<f4")


def write_feature_map(fmap: FeatureMap) -> bytes:
    header, payload = _feature_map_parts(fmap)
    return header + payload.tobytes()


def save_feature_map(fmap: FeatureMap, path) -> None:
    """Write the bytes of write_feature_map(fmap) to path: the header, then
    the payload array straight from memory rather than through a bytes copy."""
    header, payload = _feature_map_parts(fmap)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


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
    payload = memoryview(blob)[24:]  # a view of immutable bytes, not a copy
    if not isinstance(blob, bytes):  # a buffer its owner may change: copy it
        payload = bytes(payload)
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

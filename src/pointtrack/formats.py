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
from .errors import FormatError, ParseError

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


@dataclass(frozen=True)
class Detection:
    """A point observation in one frame."""

    frame: int
    x: float
    y: float
    conf: float
    score: float | None = None  # optional external classifier probability


@dataclass(frozen=True)
class MetadataRow:
    frame: int
    altitude: float


@dataclass(frozen=True)
class CorrespondenceRow:
    """A background keypoint matched from frame-1 to frame."""

    frame: int
    prev_x: float
    prev_y: float
    cur_x: float
    cur_y: float


@dataclass(frozen=True)
class TrackRow:
    frame: int
    track_id: int
    x: float
    y: float
    conf: float
    source: str


@dataclass(frozen=True)
class GtRow:
    frame: int
    track_id: int
    x: float
    y: float


FLOAT_CELL = "{:.6g}"  # up to six significant decimals


def format_float(v: float) -> str:
    return FLOAT_CELL.format(float(v))


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


# --- CSV tables ---

# The checks of a column, by its header name. Every other float column only
# has to be finite.
_INT_MINIMUM = {"frame": 0, "id": 1}
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
        minimum = _INT_MINIMUM[name]

        def convert(raw):
            try:
                v = int(raw)
            except ValueError:
                raise ValueError(f"non-numeric {name} {raw!r}") from None
            if v < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {v}")
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
        self._cells = [FLOAT_CELL if k is float else "{}" for k in kinds]

    def parse(self, text: str) -> list:
        return self.parse_lines(_split_lines(text))

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
        return "\n".join(self.format_lines(rows)) + "\n"

    def format_lines(self, rows: list) -> list[str]:
        """The header line and one line per row. The optional columns are
        written when any row sets one, as 0 where a row leaves it None."""
        k = self.required
        n = len(self.names) if any(getattr(r, name) is not None
                                   for name in self.names[k:] for r in rows) else k
        get = attrgetter(*self.names[:n])
        line = ",".join(self._cells[:n]).format
        lines = [",".join(self.columns[:n])]
        for r in rows:
            cells = get(r)
            if n > k and None in cells[k:]:
                cells = cells[:k] + tuple(0 if v is None else v for v in cells[k:])
            lines.append(line(*cells))
        return lines


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

    def feature_path(self, frame: int) -> Path | None:
        if self.features_dir is None:
            return None
        p = self.features_dir / feature_file_name(frame)
        return p if p.is_file() else None

"""Deterministic synthetic scenarios: ground truth, corrupted detections,
camera motion, altitude profiles and synthetic feature maps.

Agents walk at constant speed with a small heading random walk and reflect
off the arena bounds; a constant per-frame affine (rotation about the arena
centre plus translation) models drone motion. All randomness comes from one
PCG64 generator seeded from the config, so a bundle is bit-reproducible.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cmc import AffineTransform, warp_points
from .config import decode_kv
from .ddcf import FeatureMap
from .errors import ConfigError
from .formats import (
    CORRESPONDENCES, CORRESPONDENCES_NAME, DETECTIONS, DETECTIONS_NAME, FEATURES_DIRNAME, GT,
    GT_NAME, MANIFEST_NAME, METADATA, METADATA_NAME, feature_file_name, save_feature_map,
    write_kv_text,
)
from .metrics import TrajectorySet
from .pipeline import FrameInput

ALTITUDE_SHAPES = ("constant", "linear", "sine")
N_BACKGROUND_POINTS = 50       # correspondence keypoints per frame pair
CORRESPONDENCE_NOISE = 0.2     # px
FEATURE_NOISE_SIGMA = 0.05
BLOB_SIGMA_CELLS = 2.0
# cells of one feature map, rows x columns x channels: a frame's map is
# painted in float64, 32 MiB at the bound (S20's maps hold 2**17 cells)
MAX_FEATURE_MAP_CELLS = 2 ** 22


@dataclass(frozen=True)
class ScenarioConfig:
    n_agents: int = 10
    frames: int = 100
    arena_width: float = 512.0
    arena_height: float = 512.0
    agent_speed_sigma: float = 1.5   # px/frame, scale of initial velocities
    turn_sigma: float = 0.1          # rad/frame heading random walk
    altitude_start: float = 100.0
    altitude_end: float = 100.0
    altitude_shape: str = "constant"
    camera_rotation_deg: float = 0.0  # per frame, about the arena centre
    camera_translation_x: float = 0.0  # px per frame
    camera_translation_y: float = 0.0
    fn_rate: float = 0.0
    fp_clutter_rate: float = 0.0     # expected clutter detections per frame
    persistent_fp_count: int = 0     # static ghost objects
    jitter_sigma: float = 0.0        # px detection noise
    occlusion_windows: tuple[tuple[int, int, int], ...] = ()  # (agent id, start, end) inclusive
    feature_channels: int = 8        # 0 disables feature maps
    feature_stride: float = 4.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be a finite number")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.frames < 1:
            raise ConfigError("frames must be >= 1")
        if self.n_agents < 0:
            raise ConfigError("n_agents must be >= 0")
        if self.arena_width <= 0 or self.arena_height <= 0:
            raise ConfigError("arena dimensions must be positive")
        if not (0.0 <= self.fn_rate <= 1.0):
            raise ConfigError("fn_rate must be in [0, 1]")
        if self.fp_clutter_rate < 0:
            raise ConfigError("fp_clutter_rate must be >= 0")
        if self.persistent_fp_count < 0:
            raise ConfigError("persistent_fp_count must be >= 0")
        if self.jitter_sigma < 0 or self.agent_speed_sigma < 0 or self.turn_sigma < 0:
            raise ConfigError("sigmas must be >= 0")
        if self.altitude_shape not in ALTITUDE_SHAPES:
            raise ConfigError(f"altitude_shape must be one of {ALTITUDE_SHAPES}")
        if self.altitude_start <= 0 or self.altitude_end <= 0:
            raise ConfigError("altitudes must be > 0")
        if self.feature_channels < 0:
            raise ConfigError("feature_channels must be >= 0")
        if self.feature_stride <= 0:
            raise ConfigError("feature_stride must be > 0")
        if self.feature_channels:
            # each extent within the bound before the exact integer count, so
            # an infinite extent (1e308 / 1e-6) never reaches math.ceil
            extents = (self.arena_height / self.feature_stride,
                       self.arena_width / self.feature_stride, self.feature_channels)
            if not (all(e <= MAX_FEATURE_MAP_CELLS for e in extents)
                    and math.prod(map(math.ceil, extents)) <= MAX_FEATURE_MAP_CELLS):
                raise ConfigError(
                    "a feature map of ceil(arena_height / feature_stride) x ceil(arena_width / "
                    f"feature_stride) x feature_channels cells must hold at most {MAX_FEATURE_MAP_CELLS}")
        for window in self.occlusion_windows:
            agent, start, end = window
            if not (1 <= agent <= self.n_agents) or start < 0 or end < start:
                raise ConfigError(f"bad occlusion window {window}")


@dataclass
class ScenarioBundle:
    config: ScenarioConfig
    gt: TrajectorySet
    frames: list[FrameInput]
    camera_transforms: list[AffineTransform]  # cumulative, index = frame


def _altitude(cfg: ScenarioConfig, t: int) -> float:
    if cfg.altitude_shape == "constant" or cfg.frames == 1:
        return cfg.altitude_start
    if cfg.altitude_shape == "linear":
        return cfg.altitude_start + (cfg.altitude_end - cfg.altitude_start) * t / (cfg.frames - 1)
    mid = (cfg.altitude_start + cfg.altitude_end) / 2.0
    amp = (cfg.altitude_end - cfg.altitude_start) / 2.0
    return mid + amp * math.sin(2.0 * math.pi * t / cfg.frames)


def _camera_step(cfg: ScenarioConfig) -> AffineTransform:
    theta = math.radians(cfg.camera_rotation_deg)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = cfg.arena_width / 2.0, cfg.arena_height / 2.0
    # rotate about the arena centre, then translate
    t1 = cx - (c * cx - s * cy) + cfg.camera_translation_x
    t2 = cy - (s * cx + c * cy) + cfg.camera_translation_y
    return AffineTransform(c, -s, s, c, t1, t2)


def _compose(outer: AffineTransform, inner: AffineTransform) -> AffineTransform:
    m = outer.linear @ inner.linear
    b = outer.linear @ inner.translation + outer.translation
    return AffineTransform(m[0, 0], m[0, 1], m[1, 0], m[1, 1], b[0], b[1])


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return a / norms


def _render_features(rng: np.random.Generator, cfg: ScenarioConfig,
                     centers: np.ndarray, signatures: np.ndarray) -> FeatureMap:
    """Noise plus a Gaussian blob at each row of centers (px), painted with its row of signatures.

    Each blob spans the square of cells within reach of its centre's cell.
    One array pass weighs the squares of all blobs that touch the map; each
    square's in-map part is then painted and added in row order, so
    overlapping blobs sum as they would one blob at a time."""
    h = int(math.ceil(cfg.arena_height / cfg.feature_stride))
    w = int(math.ceil(cfg.arena_width / cfg.feature_stride))
    # the values of normal(0, sigma), which draws 0 + sigma * z: adding 0.0
    # turns -0.0 into 0.0 as that does
    data = rng.standard_normal((h, w, cfg.feature_channels))
    data *= FEATURE_NOISE_SIGMA
    data += 0.0
    reach = int(math.ceil(4 * BLOB_SIGMA_CELLS))
    span = 2 * reach + 1
    cells = centers / cfg.feature_stride
    # each square's first column and row; in floats until the blobs off the
    # map are gone, as a centre far off it may not fit in an int64
    first = np.floor(cells) - reach
    on_map = ((first < [w, h]) & (first + span > 0)).all(axis=1)
    (cx, cy), (x0, y0) = cells[on_map].T, first[on_map].astype(np.int64).T
    yy, xx = y0[:, None] + np.arange(span), x0[:, None] + np.arange(span)
    blobs = np.exp(-(((yy - cy[:, None]) ** 2)[:, :, None] + ((xx - cx[:, None]) ** 2)[:, None, :])
                   / (2.0 * BLOB_SIGMA_CELLS ** 2))
    # painted on the in-map part only: a map of few cells may have many
    # channels, and a whole square of them could dwarf the map
    for blob, sig, top, left in zip(blobs, signatures[on_map], y0.tolist(), x0.tolist()):
        data[max(top, 0):top + span, max(left, 0):left + span] += (
            blob[max(-top, 0):h - top, max(-left, 0):w - left, None] * sig)
    # float32 like the on-disk representation, so memory and file agree
    return FeatureMap(data=data.astype(np.float32), stride=cfg.feature_stride)


def generate(cfg: ScenarioConfig) -> ScenarioBundle:
    """Build a full scenario bundle, deterministically from cfg.seed. Only the
    random draws run per agent, ghost and clutter point, in the order that
    fixes the PCG64 stream; the rest is array work on the frame."""
    rng = np.random.default_rng(cfg.seed)
    bounds = np.array([cfg.arena_width, cfg.arena_height])
    n, n_ghosts = cfg.n_agents, cfg.persistent_fp_count

    world = rng.uniform(0.05, 0.95, size=(n, 2)) * bounds
    vel = rng.normal(0.0, cfg.agent_speed_sigma, size=(n, 2))
    signatures = rng.normal(0.0, 1.0, size=(n, max(cfg.feature_channels, 1)))
    ghosts = rng.uniform(0.05, 0.95, size=(n_ghosts, 2)) * bounds
    ghost_signatures = rng.normal(0.0, 1.0, size=(n_ghosts, max(cfg.feature_channels, 1)))
    background = rng.uniform(0.0, 1.0, size=(N_BACKGROUND_POINTS, 2)) * bounds
    # one blob per agent, then one per ghost
    blob_signatures = np.vstack([_unit_rows(signatures), _unit_rows(ghost_signatures)])
    # agents score 1, ghosts and clutter 0
    blob_score = np.repeat([1.0, 0.0], [n, n_ghosts])
    windows = np.array(cfg.occlusion_windows, dtype=np.int64).reshape(-1, 3)

    step = _camera_step(cfg)
    camera = AffineTransform.identity()
    camera_transforms = [camera]
    agent_points: list[np.ndarray] = []
    frame_inputs: list[FrameInput] = []

    for t in range(cfg.frames):
        if t > 0:
            # heading random walk, then move and reflect
            if n:
                turns = rng.normal(0.0, cfg.turn_sigma, size=n)
                cos_t, sin_t = np.cos(turns), np.sin(turns)
                vel = np.column_stack([cos_t * vel[:, 0] - sin_t * vel[:, 1],
                                       sin_t * vel[:, 0] + cos_t * vel[:, 1]])
                world = world + vel
                for axis in (0, 1):
                    low = world[:, axis] < 0
                    world[low, axis] *= -1.0
                    vel[low, axis] *= -1.0
                    high = world[:, axis] > bounds[axis]
                    world[high, axis] = 2 * bounds[axis] - world[high, axis]
                    vel[high, axis] *= -1.0
            camera = _compose(step, camera)
            camera_transforms.append(camera)

        agents_img = warp_points(camera, world)
        blobs = np.vstack([agents_img, warp_points(camera, ghosts)])
        agent_points.append(agents_img)

        kept = np.ones(n + n_ghosts, dtype=bool)
        noise = np.empty((n + n_ghosts, 2))
        conf = np.empty(n + n_ghosts)
        for a in range(n):
            kept[a] = rng.random() >= cfg.fn_rate
            noise[a] = rng.normal(0.0, 1.0, size=2)
            conf[a] = min(max(rng.normal(0.95, 0.02), 0.55), 0.999)
        for g in range(n, n + n_ghosts):
            noise[g] = rng.normal(0.0, 1.0, size=2)
            conf[g] = min(max(rng.normal(0.7, 0.05), 0.55), 0.9)
        clutter = np.empty((int(rng.poisson(cfg.fp_clutter_rate)), 3))  # x, y, conf
        for row in clutter:
            row[:2] = rng.uniform(0.0, 1.0, size=2)
            row[2] = rng.uniform(0.55, 0.75)
        kept[windows[(windows[:, 1] <= t) & (t <= windows[:, 2]), 0] - 1] = False

        correspondences = np.zeros((0, 4))
        background_img = warp_points(camera, background)
        if t > 0:
            correspondences = (np.c_[prev_background_img, background_img]
                               + rng.normal(0.0, CORRESPONDENCE_NOISE, size=(N_BACKGROUND_POINTS, 4)))
        prev_background_img = background_img
        features = _render_features(rng, cfg, blobs, blob_signatures) if cfg.feature_channels else None

        points = np.vstack([(blobs + noise * cfg.jitter_sigma)[kept], clutter[:, :2] * bounds])
        frame_inputs.append(FrameInput(
            frame=t, points=points, conf=np.concatenate([conf[kept], clutter[:, 2]]),
            score=np.concatenate([blob_score[kept], np.zeros(len(clutter))]),
            altitude=_altitude(cfg, t), correspondences=correspondences, features=features))

    x, y = np.concatenate(agent_points).T
    gt = TrajectorySet(np.repeat(np.arange(cfg.frames), n), np.tile(np.arange(1, n + 1), cfg.frames), x, y)
    return ScenarioBundle(cfg, gt, frame_inputs, camera_transforms)


def _manifest(cfg: ScenarioConfig) -> dict[str, str]:
    """manifest.txt: every scenario key (occlusion windows as
    agent:start:end;...), the format version, the generator and the files."""
    out = {f.name: str(getattr(cfg, f.name)) for f in fields(cfg)}
    out["occlusion_windows"] = ";".join(f"{a}:{s}:{e}" for a, s, e in cfg.occlusion_windows)
    out["format_version"] = "1"
    out["rng"] = "numpy PCG64"
    out["files"] = ",".join([DETECTIONS_NAME, METADATA_NAME, CORRESPONDENCES_NAME, GT_NAME]
                            + ([FEATURES_DIRNAME + "/"] if cfg.feature_channels else []))
    return out


def write_bundle(bundle: ScenarioBundle, out_dir) -> Path:
    """Write every bundle file under out_dir; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    frames = [fi.frame for fi in bundle.frames]
    x, y = np.concatenate([fi.points for fi in bundle.frames]).T
    (out / DETECTIONS_NAME).write_text(DETECTIONS.write_columns(
        [np.repeat(frames, [len(fi.points) for fi in bundle.frames]), x, y,
         np.concatenate([fi.conf for fi in bundle.frames]), np.concatenate([fi.score for fi in bundle.frames])]))
    (out / METADATA_NAME).write_text(METADATA.write_columns([frames, [fi.altitude for fi in bundle.frames]]))
    corr = [fi.correspondences for fi in bundle.frames]
    (out / CORRESPONDENCES_NAME).write_text(CORRESPONDENCES.write_columns(
        [np.repeat(frames, list(map(len, corr))), *np.concatenate(corr).T]))
    (out / GT_NAME).write_text(GT.write_columns(bundle.gt.frame_major()[:4]))

    if bundle.config.feature_channels >= 1:
        fdir = out / FEATURES_DIRNAME
        fdir.mkdir(exist_ok=True)
        for fi in bundle.frames:
            if fi.features is not None:
                save_feature_map(fi.features, fdir / feature_file_name(fi.frame))

    (out / MANIFEST_NAME).write_text(write_kv_text(_manifest(bundle.config)))
    return out


def scenario_from_kv(values: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from flat key=value text (the simulate CLI);
    the keys are its field names."""
    kinds = {f.name: f.type for f in fields(ScenarioConfig)}
    kinds["occlusion_windows"] = _parse_windows
    return ScenarioConfig(**decode_kv(values, kinds, "scenario"))


def _parse_windows(raw: str) -> tuple[tuple[int, int, int], ...]:
    raw = raw.strip()
    if not raw:
        return ()
    windows = []
    for part in raw.split(";"):
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"occlusion window must be agent:start:end, got {part!r}")
        try:
            windows.append(tuple(int(b) for b in bits))
        except ValueError:
            raise ConfigError(f"non-integer occlusion window {part!r}") from None
    return tuple(windows)

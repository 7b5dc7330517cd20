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

from .cmc import AffineTransform, Correspondence
from .config import decode_kv
from .ddcf import FeatureMap
from .errors import ConfigError
from .formats import (
    CORRESPONDENCES_NAME, DETECTIONS_NAME, FEATURES_DIRNAME, GT_NAME, MANIFEST_NAME, METADATA_NAME,
    CorrespondenceRow, Detection, GtRow, MetadataRow,
    feature_file_name, write_correspondences, write_detections, write_feature_map,
    write_gt, write_kv_text, write_metadata,
)
from .metrics import TrajectorySet
from .pipeline import FrameInput

ALTITUDE_SHAPES = ("constant", "linear", "sine")
N_BACKGROUND_POINTS = 50       # correspondence keypoints per frame pair
CORRESPONDENCE_NOISE = 0.2     # px
FEATURE_NOISE_SIGMA = 0.05
BLOB_SIGMA_CELLS = 2.0


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
        for window in self.occlusion_windows:
            agent, start, end = window
            if not (1 <= agent <= self.n_agents) or start < 0 or end < start:
                raise ConfigError(f"bad occlusion window {window}")


@dataclass
class ScenarioBundle:
    config: ScenarioConfig
    gt: TrajectorySet
    frames: list[FrameInput]
    metadata: list[MetadataRow]
    camera_transforms: list[AffineTransform]  # cumulative, index = frame
    manifest: dict[str, str]


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


def _occluded(cfg: ScenarioConfig, agent_id: int, frame: int) -> bool:
    return any(a == agent_id and start <= frame <= end
               for a, start, end in cfg.occlusion_windows)


def _render_features(rng: np.random.Generator, cfg: ScenarioConfig,
                     centers: list[np.ndarray], signatures: list[np.ndarray]) -> FeatureMap:
    h = int(math.ceil(cfg.arena_height / cfg.feature_stride))
    w = int(math.ceil(cfg.arena_width / cfg.feature_stride))
    data = rng.normal(0.0, FEATURE_NOISE_SIGMA, size=(h, w, cfg.feature_channels))
    reach = int(math.ceil(4 * BLOB_SIGMA_CELLS))
    for center, sig in zip(centers, signatures):
        cx = center[0] / cfg.feature_stride
        cy = center[1] / cfg.feature_stride
        x0, x1 = int(math.floor(cx)) - reach, int(math.floor(cx)) + reach + 1
        y0, y1 = int(math.floor(cy)) - reach, int(math.floor(cy)) + reach + 1
        x0, x1 = max(x0, 0), min(x1, w)
        y0, y1 = max(y0, 0), min(y1, h)
        if x0 >= x1 or y0 >= y1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * BLOB_SIGMA_CELLS ** 2))
        data[y0:y1, x0:x1, :] += blob[:, :, None] * sig[None, None, :]
    # float32 like the on-disk representation, so memory and file agree
    return FeatureMap(data=data.astype(np.float32), stride=cfg.feature_stride)


def generate(cfg: ScenarioConfig) -> ScenarioBundle:
    """Build a full scenario bundle, deterministically from cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    bounds = np.array([cfg.arena_width, cfg.arena_height])

    positions = rng.uniform(0.05, 0.95, size=(cfg.n_agents, 2)) * bounds
    velocities = rng.normal(0.0, cfg.agent_speed_sigma, size=(cfg.n_agents, 2))
    signatures = rng.normal(0.0, 1.0, size=(cfg.n_agents, max(cfg.feature_channels, 1)))
    ghosts = rng.uniform(0.05, 0.95, size=(cfg.persistent_fp_count, 2)) * bounds
    ghost_signatures = rng.normal(0.0, 1.0, size=(cfg.persistent_fp_count, max(cfg.feature_channels, 1)))
    background = rng.uniform(0.0, 1.0, size=(N_BACKGROUND_POINTS, 2)) * bounds

    def _unit_rows(a: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return a / norms

    signatures = _unit_rows(signatures)
    ghost_signatures = _unit_rows(ghost_signatures)

    step = _camera_step(cfg)
    camera = AffineTransform.identity()
    camera_transforms = [camera]

    gt_rows: list[tuple] = []
    frame_inputs: list[FrameInput] = []
    metadata: list[MetadataRow] = []

    world = positions.copy()
    vel = velocities.copy()
    prev_background_img = background.copy()

    for t in range(cfg.frames):
        if t > 0:
            # heading random walk, then move and reflect
            if cfg.n_agents:
                turns = rng.normal(0.0, cfg.turn_sigma, size=cfg.n_agents)
                cos_t, sin_t = np.cos(turns), np.sin(turns)
                vx = cos_t * vel[:, 0] - sin_t * vel[:, 1]
                vy = sin_t * vel[:, 0] + cos_t * vel[:, 1]
                vel = np.column_stack([vx, vy])
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

        cam_m = camera.linear
        cam_b = camera.translation

        def project(pts: np.ndarray) -> np.ndarray:
            return pts @ cam_m.T + cam_b

        agents_img = project(world) if cfg.n_agents else np.zeros((0, 2))
        ghosts_img = project(ghosts) if cfg.persistent_fp_count else np.zeros((0, 2))

        detections: list[Detection] = []
        blob_centers: list[np.ndarray] = []
        blob_signatures: list[np.ndarray] = []
        for a in range(cfg.n_agents):
            agent_id = a + 1
            pos = agents_img[a]
            gt_rows.append((t, agent_id, pos[0], pos[1]))
            blob_centers.append(pos)
            blob_signatures.append(signatures[a])
            dropped = rng.random() < cfg.fn_rate
            noise = rng.normal(0.0, 1.0, size=2) * cfg.jitter_sigma
            conf = float(np.clip(rng.normal(0.95, 0.02), 0.55, 0.999))
            if dropped or _occluded(cfg, agent_id, t):
                continue
            p = pos + noise
            detections.append(Detection(frame=t, x=float(p[0]), y=float(p[1]),
                                        conf=conf, score=1.0))
        for g in range(cfg.persistent_fp_count):
            pos = ghosts_img[g]
            noise = rng.normal(0.0, 1.0, size=2) * cfg.jitter_sigma
            conf = float(np.clip(rng.normal(0.7, 0.05), 0.55, 0.9))
            p = pos + noise
            blob_centers.append(pos)
            blob_signatures.append(ghost_signatures[g])
            detections.append(Detection(frame=t, x=float(p[0]), y=float(p[1]),
                                        conf=conf, score=0.0))
        n_clutter = int(rng.poisson(cfg.fp_clutter_rate))
        for _ in range(n_clutter):
            p = rng.uniform(0.0, 1.0, size=2) * bounds
            conf = float(rng.uniform(0.55, 0.75))
            detections.append(Detection(frame=t, x=float(p[0]), y=float(p[1]),
                                        conf=conf, score=0.0))

        correspondences: list[Correspondence] = []
        if t > 0:
            background_img = project(background)
            noise = rng.normal(0.0, CORRESPONDENCE_NOISE, size=(N_BACKGROUND_POINTS, 4))
            for i in range(N_BACKGROUND_POINTS):
                correspondences.append(Correspondence(
                    prev_x=float(prev_background_img[i, 0] + noise[i, 0]),
                    prev_y=float(prev_background_img[i, 1] + noise[i, 1]),
                    cur_x=float(background_img[i, 0] + noise[i, 2]),
                    cur_y=float(background_img[i, 1] + noise[i, 3]),
                ))
            prev_background_img = background_img
        else:
            prev_background_img = project(background)

        features = None
        if cfg.feature_channels >= 1:
            features = _render_features(rng, cfg, blob_centers, blob_signatures)

        altitude = _altitude(cfg, t)
        metadata.append(MetadataRow(frame=t, altitude=altitude))
        frame_inputs.append(FrameInput(
            frame=t, detections=detections, altitude=altitude,
            correspondences=correspondences, features=features))

    gt = TrajectorySet.from_rows(gt_rows)
    manifest = _manifest(cfg)
    return ScenarioBundle(config=cfg, gt=gt, frames=frame_inputs,
                          metadata=metadata, camera_transforms=camera_transforms,
                          manifest=manifest)


def _manifest(cfg: ScenarioConfig) -> dict[str, str]:
    windows = ";".join(f"{a}:{s}:{e}" for a, s, e in cfg.occlusion_windows)
    out = {
        "format_version": "1",
        "rng": "numpy PCG64",
        "n_agents": str(cfg.n_agents),
        "frames": str(cfg.frames),
        "arena_width": repr(cfg.arena_width),
        "arena_height": repr(cfg.arena_height),
        "agent_speed_sigma": repr(cfg.agent_speed_sigma),
        "turn_sigma": repr(cfg.turn_sigma),
        "altitude_start": repr(cfg.altitude_start),
        "altitude_end": repr(cfg.altitude_end),
        "altitude_shape": cfg.altitude_shape,
        "camera_rotation_deg": repr(cfg.camera_rotation_deg),
        "camera_translation_x": repr(cfg.camera_translation_x),
        "camera_translation_y": repr(cfg.camera_translation_y),
        "fn_rate": repr(cfg.fn_rate),
        "fp_clutter_rate": repr(cfg.fp_clutter_rate),
        "persistent_fp_count": str(cfg.persistent_fp_count),
        "jitter_sigma": repr(cfg.jitter_sigma),
        "occlusion_windows": windows,
        "feature_channels": str(cfg.feature_channels),
        "feature_stride": repr(cfg.feature_stride),
        "seed": str(cfg.seed),
        "files": ",".join([DETECTIONS_NAME, METADATA_NAME, CORRESPONDENCES_NAME, GT_NAME]
                          + ([FEATURES_DIRNAME + "/"] if cfg.feature_channels else [])),
    }
    return out


def write_bundle(bundle: ScenarioBundle, out_dir) -> Path:
    """Write every bundle file under out_dir; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    detections = [d for fi in bundle.frames for d in fi.detections]
    (out / DETECTIONS_NAME).write_text(write_detections(detections))
    (out / METADATA_NAME).write_text(write_metadata(bundle.metadata))

    corr_rows = []
    for fi in bundle.frames:
        for c in fi.correspondences:
            corr_rows.append(CorrespondenceRow(fi.frame, c.prev_x, c.prev_y, c.cur_x, c.cur_y))
    (out / CORRESPONDENCES_NAME).write_text(write_correspondences(corr_rows))

    gt_rows = []
    for tid in bundle.gt.ids:
        for p in bundle.gt.tracks[tid]:
            gt_rows.append(GtRow(p.frame, tid, p.x, p.y))
    gt_rows.sort(key=lambda r: (r.frame, r.track_id))
    (out / GT_NAME).write_text(write_gt(gt_rows))

    if bundle.config.feature_channels >= 1:
        fdir = out / FEATURES_DIRNAME
        fdir.mkdir(exist_ok=True)
        for fi in bundle.frames:
            if fi.features is not None:
                (fdir / feature_file_name(fi.frame)).write_bytes(write_feature_map(fi.features))

    (out / MANIFEST_NAME).write_text(write_kv_text(bundle.manifest))
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

import hashlib
import math
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pointtrack.cmc import warp_points
from pointtrack.errors import ConfigError
from pointtrack.formats import SequenceBundlePaths
from pointtrack.pipeline import frame_inputs_from_bundle
from pointtrack.simulate import (
    BLOB_SIGMA_CELLS, MAX_FEATURE_MAP_CELLS, ScenarioConfig, generate, scenario_from_kv, write_bundle,
)

CLEAN = ScenarioConfig(n_agents=4, frames=60, arena_width=256, arena_height=256,
                       jitter_sigma=0.0, fn_rate=0.0, fp_clutter_rate=0.0,
                       feature_channels=4, feature_stride=4.0, seed=5)


def bundle_fingerprint(bundle) -> tuple:
    det = tuple((fi.frame, fi.points.tobytes(), fi.conf.tobytes(), fi.score.tobytes())
                for fi in bundle.frames)
    gt = tuple((tid, p.frame, p.x, p.y)
               for tid in bundle.gt.ids for p in bundle.gt.tracks[tid])
    feats = tuple(fi.features.data.tobytes() for fi in bundle.frames
                  if fi.features is not None)
    corr = tuple((fi.frame, fi.correspondences.tobytes()) for fi in bundle.frames)
    return det, gt, feats, corr


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate(CLEAN)
        b = generate(CLEAN)
        assert bundle_fingerprint(a) == bundle_fingerprint(b)

    def test_different_seed_differs(self):
        from dataclasses import replace
        a = generate(CLEAN)
        b = generate(replace(CLEAN, seed=6))
        assert bundle_fingerprint(a) != bundle_fingerprint(b)

    @staticmethod
    def bundle_digest(cfg, tmp_path) -> str:
        """sha256 over each bundle file's relative path and bytes, in sorted path order."""
        out = write_bundle(generate(cfg), tmp_path / "bundle")
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def test_moving_camera_bundle_bytes_pinned(self, tmp_path):
        """A bundle with camera rotation and drift, misses, clutter, a ghost,
        jitter and features, pinned to its bytes."""
        cfg = ScenarioConfig(n_agents=6, frames=40, camera_rotation_deg=0.3,
                             camera_translation_x=1.0, camera_translation_y=-0.5, fn_rate=0.1,
                             fp_clutter_rate=1.0, persistent_fp_count=1, jitter_sigma=0.3,
                             feature_channels=2, seed=5)
        assert self.bundle_digest(cfg, tmp_path) == (
            "556d700cec230273d56177c89b4aa001abf4aca04aa92974255e1e3c6e41dab4")

    def test_occluded_bundle_bytes_pinned(self, tmp_path):
        """A bundle without feature maps, with overlapping occlusion windows
        on one agent, a window over every frame, a one-frame window, ghosts,
        misses, clutter and a falling altitude, pinned to its bytes."""
        cfg = ScenarioConfig(n_agents=8, frames=60, fn_rate=0.2, fp_clutter_rate=2.0,
                             persistent_fp_count=3, jitter_sigma=0.5,
                             occlusion_windows=((1, 5, 20), (1, 15, 30), (8, 0, 59), (4, 40, 40)),
                             altitude_shape="linear", altitude_start=100.0, altitude_end=40.0,
                             feature_channels=0, seed=11)
        assert self.bundle_digest(cfg, tmp_path) == (
            "dc0a220542ab6921690c6cf435424d97b5f3c250f851a371bce2e4c9c4e51681")

    def test_blob_edge_cases_bundle_bytes_pinned(self, tmp_path):
        """A small map with more blobs than fit apart, and camera drift that
        carries blobs partly and wholly off it, pinned to its bytes. Without
        misses, jitter or clutter the detections are the blob centres."""
        cfg = ScenarioConfig(n_agents=12, frames=40, arena_width=96.0, arena_height=96.0,
                             camera_rotation_deg=1.0, camera_translation_x=3.0,
                             camera_translation_y=-2.0, persistent_fp_count=3, feature_channels=3,
                             feature_stride=4.0, seed=3)
        reach, size = int(np.ceil(4 * BLOB_SIGMA_CELLS)), 24  # the map is 24 x 24 cells
        cases = dict.fromkeys(["overlap", "left", "right", "top", "bottom", "off"], 0)
        for fi in generate(cfg).frames:
            assert len(fi.points) == 15
            x0, y0 = (np.floor(fi.points / cfg.feature_stride).astype(int) - reach).T
            x1, y1 = x0 + 2 * reach + 1, y0 + 2 * reach + 1
            on = (x0 < size) & (x1 > 0) & (y0 < size) & (y1 > 0)
            for case, clipped in (("left", x0 < 0), ("right", x1 > size),
                                  ("top", y0 < 0), ("bottom", y1 > size)):
                cases[case] += np.count_nonzero(on & clipped)
            cases["off"] += np.count_nonzero(~on)
            x0, x1, y0, y1 = (np.clip(a, 0, size) for a in (x0, x1, y0, y1))
            meet = ((np.maximum.outer(x0, x0) < np.minimum.outer(x1, x1))
                    & (np.maximum.outer(y0, y0) < np.minimum.outer(y1, y1)) & on[:, None] & on)
            cases["overlap"] += np.count_nonzero(np.triu(meet, 1))
        assert all(cases.values()), cases
        assert self.bundle_digest(cfg, tmp_path) == (
            "1916f97a55e75fc381b821bc5af9e28990e54acfbf24b254cbb1185b157a2844")


class TestGroundTruth:
    def test_trajectory_count_always_n_agents(self):
        for n in (0, 1, 7):
            cfg = ScenarioConfig(n_agents=n, frames=20, fn_rate=0.3,
                                 fp_clutter_rate=2.0, feature_channels=0, seed=1)
            assert len(generate(cfg).gt) == n

    def test_agents_stay_in_arena_without_camera(self):
        bundle = generate(CLEAN)
        for tid in bundle.gt.ids:
            for p in bundle.gt.tracks[tid]:
                assert -1e-9 <= p.x <= 256 + 1e-9
                assert -1e-9 <= p.y <= 256 + 1e-9

    def test_no_agents_leaves_only_clutter(self):
        cfg = ScenarioConfig(n_agents=0, frames=30, fp_clutter_rate=3.0,
                             feature_channels=0, seed=2)
        bundle = generate(cfg)
        assert len(bundle.gt) == 0
        assert sum(len(fi.points) for fi in bundle.frames) > 0


class TestCorruptionModel:
    def test_zero_corruption_detections_equal_gt(self):
        bundle = generate(CLEAN)
        frame, _, xs, ys, _ = bundle.gt.frame_major()
        for fi in bundle.frames:
            here = frame == fi.frame
            gt_here = {(round(x, 9), round(y, 9)) for x, y in zip(xs[here].tolist(), ys[here].tolist())}
            det_here = {(round(x, 9), round(y, 9)) for x, y in fi.points.tolist()}
            assert det_here == gt_here

    def test_occlusion_window_drops_detections(self):
        from dataclasses import replace
        cfg = replace(CLEAN, occlusion_windows=((1, 10, 20),), feature_channels=0)
        bundle = generate(cfg)
        for fi in bundle.frames:
            n_expected = 4 - (1 if 10 <= fi.frame <= 20 else 0)
            assert len(fi.points) == n_expected

    def test_fn_rate_one_drops_everything(self):
        from dataclasses import replace
        bundle = generate(replace(CLEAN, fn_rate=1.0, feature_channels=0))
        assert all(len(fi.points) == 0 for fi in bundle.frames)

    def test_persistent_ghosts_every_frame(self):
        from dataclasses import replace
        bundle = generate(replace(CLEAN, persistent_fp_count=3, feature_channels=0))
        for fi in bundle.frames:
            scores = fi.score.tolist()
            assert scores.count(0.0) == 3
            assert scores.count(1.0) == 4


class TestFeatures:
    def test_blob_centre_at_agent_position(self):
        # isolated blob: noise-robust centroid of the channel energy sits on
        # the agent within half a cell (the raw argmax flips neighbouring
        # cells because the background noise rivals the near-peak gap)
        from dataclasses import replace
        bundle = generate(replace(CLEAN, n_agents=1))
        stride = CLEAN.feature_stride
        frame, _, xs, ys, _ = bundle.gt.frame_major()
        for fi in bundle.frames[::3]:
            norm = np.linalg.norm(fi.features.data, axis=2)
            floor = np.median(norm)
            (x,), (y,) = xs[frame == fi.frame], ys[frame == fi.frame]
            r0 = int(np.clip(round(y / stride), 3, norm.shape[0] - 4))
            c0 = int(np.clip(round(x / stride), 3, norm.shape[1] - 4))
            window = np.clip(norm[r0 - 3:r0 + 4, c0 - 3:c0 + 4] - floor, 0, None)
            yy, xx = np.mgrid[r0 - 3:r0 + 4, c0 - 3:c0 + 4]
            mass = window.sum()
            centre = np.array([(window * xx).sum(), (window * yy).sum()]) / mass * stride
            assert np.max(np.abs(centre - np.array([x, y]))) <= 0.5 * stride

    def test_channel_count_zero_disables(self):
        from dataclasses import replace
        bundle = generate(replace(CLEAN, feature_channels=0))
        assert all(fi.features is None for fi in bundle.frames)

    def test_blobs_painted_on_their_in_map_cells_only(self):
        """On a one-cell map of 2**16 channels, no blob's whole square of
        17 x 17 cells (151 MB in float64) is allocated."""
        import tracemalloc
        cfg = ScenarioConfig(n_agents=2, frames=1, arena_width=4.0, arena_height=4.0,
                             feature_channels=2 ** 16, seed=1)
        tracemalloc.start()
        try:
            bundle = generate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle.frames[0].features.data.shape == (1, 1, 2 ** 16)
        assert peak < 16 * 2 ** 20


class TestCameraModel:
    def test_composed_affine_matches_background_motion(self):
        cfg = ScenarioConfig(n_agents=2, frames=40, arena_width=300, arena_height=300,
                             camera_rotation_deg=0.3, camera_translation_x=2.0,
                             camera_translation_y=-1.0, feature_channels=0, seed=9)
        bundle = generate(cfg)
        # frame-0 correspondences do not exist; spot-check later frames
        for t in (1, 20, 39):
            fi = bundle.frames[t]
            assert len(fi.correspondences) == 50
            prev, cur = fi.correspondences[:, :2], fi.correspondences[:, 2:]
            # prev/cur follow the recorded cumulative transforms within noise
            mapped = warp_points(bundle.camera_transforms[t],
                                 warp_points(bundle.camera_transforms[t - 1].inverse(), prev))
            assert np.percentile(np.linalg.norm(mapped - cur, axis=1), 90) <= 1.5

    def test_identity_camera_keeps_transforms_identity(self):
        bundle = generate(CLEAN)
        assert all(t.is_identity() for t in bundle.camera_transforms)


class TestMetadata:
    def test_constant_profile(self):
        bundle = generate(CLEAN)
        assert all(fi.altitude == 100.0 for fi in bundle.frames)

    def test_linear_profile(self):
        cfg = ScenarioConfig(n_agents=1, frames=11, altitude_start=50, altitude_end=100,
                             altitude_shape="linear", feature_channels=0, seed=0)
        alts = [fi.altitude for fi in generate(cfg).frames]
        assert alts[0] == 50 and alts[-1] == 100
        assert np.allclose(np.diff(alts), 5.0)

    def test_sine_profile_within_envelope(self):
        cfg = ScenarioConfig(n_agents=1, frames=40, altitude_start=50, altitude_end=100,
                             altitude_shape="sine", feature_channels=0, seed=0)
        alts = [fi.altitude for fi in generate(cfg).frames]
        assert min(alts) >= 50 - 1e-9 and max(alts) <= 100 + 1e-9


class TestConfigParsing:
    def test_kv_round(self):
        cfg = scenario_from_kv({"n_agents": "3", "frames": "10", "fn_rate": "0.25",
                                "occlusion_windows": "1:2:5;2:3:4",
                                "altitude_shape": "linear"})
        assert cfg.n_agents == 3
        assert cfg.occlusion_windows == ((1, 2, 5), (2, 3, 4))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            scenario_from_kv({"gravity": "9.8"})

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(fn_rate=1.5)
        with pytest.raises(ConfigError):
            ScenarioConfig(frames=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(occlusion_windows=((9, 0, 5),), n_agents=2)
        with pytest.raises(ConfigError):
            ScenarioConfig(seed=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if f.type is float])
    def test_non_finite_float_rejected(self, name, value):
        """The library refuses what the kv parser refuses, with its message."""
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number$"):
            ScenarioConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got "):
            scenario_from_kv({name: str(value)})

    @pytest.mark.parametrize("kwargs", [
        dict(feature_stride=1e-6),
        dict(arena_width=1e308, feature_stride=1e-6),  # 1e308 / 1e-6 is inf
        dict(arena_width=1e308, arena_height=1e308),
        dict(feature_channels=10 ** 400),
        dict(arena_width=4.0, arena_height=4.0, feature_stride=1.0,
             feature_channels=MAX_FEATURE_MAP_CELLS // 16 + 1),
    ])
    def test_oversized_feature_map_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="feature map"):
            ScenarioConfig(**kwargs)

    def test_feature_map_bound_counts_whole_cells(self):
        # 2048 x 2048 px at stride 4 with 16 channels is exactly the bound;
        # one more pixel of width adds a column of cells
        ScenarioConfig(arena_width=2048.0, arena_height=2048.0, feature_channels=16)
        with pytest.raises(ConfigError, match="feature map"):
            ScenarioConfig(arena_width=2048.5, arena_height=2048.0, feature_channels=16)
        # without feature maps, no bound applies
        ScenarioConfig(arena_width=1e308, feature_stride=1e-6, feature_channels=0)


class TestBundleWriting:
    def test_written_files_exist_and_parse(self, tmp_path):
        bundle = generate(CLEAN)
        out = write_bundle(bundle, tmp_path / "bundle")
        paths = SequenceBundlePaths.from_dir(out)
        assert paths.metadata is not None
        assert paths.gt is not None
        assert paths.features_dir is not None
        assert paths.manifest is not None
        assert sorted(paths.feature_files()) == list(range(CLEAN.frames))

    def test_round_trip_through_files(self, tmp_path):
        bundle = generate(CLEAN)
        out = write_bundle(bundle, tmp_path / "bundle")
        loaded = list(frame_inputs_from_bundle(SequenceBundlePaths.from_dir(out)))
        assert len(loaded) == len(bundle.frames)
        for mem, disk in zip(bundle.frames, loaded):
            assert len(mem.points) == len(disk.points)
            assert disk.altitude == pytest.approx(mem.altitude, rel=1e-5)
            assert np.array_equal(disk.features.data, mem.features.data)

    def test_stray_feature_file_is_ignored(self, tmp_path):
        cfg = ScenarioConfig(n_agents=2, frames=3, feature_channels=2, seed=1)
        out = write_bundle(generate(cfg), tmp_path / "bundle")
        # a name other than the frame's own file name, e.g. unpadded
        shutil.copy(out / "features" / "000000.fmap", out / "features" / "9.fmap")
        loaded = list(frame_inputs_from_bundle(SequenceBundlePaths.from_dir(out)))
        assert [fi.frame for fi in loaded] == [0, 1, 2]
        assert all(fi.features is not None for fi in loaded)


class TestManifest:
    # every scenario key set, with occlusion windows and an int arena width
    FULL = ScenarioConfig(
        n_agents=3, frames=2, arena_width=64, arena_height=48.5, agent_speed_sigma=1.25,
        turn_sigma=0.05, altitude_start=80.0, altitude_end=120.0, altitude_shape="linear",
        camera_rotation_deg=0.25, camera_translation_x=1.5, camera_translation_y=-0.75,
        fn_rate=0.1, fp_clutter_rate=0.5, persistent_fp_count=1, jitter_sigma=0.3,
        occlusion_windows=((1, 0, 1), (3, 1, 1)), feature_channels=2, feature_stride=4.0,
        seed=42)
    FROZEN = (
        "agent_speed_sigma = 1.25\naltitude_end = 120.0\naltitude_shape = linear\n"
        "altitude_start = 80.0\narena_height = 48.5\narena_width = 64\n"
        "camera_rotation_deg = 0.25\ncamera_translation_x = 1.5\ncamera_translation_y = -0.75\n"
        "feature_channels = 2\nfeature_stride = 4.0\n"
        "files = detections.csv,metadata.csv,correspondences.csv,gt.csv,features/\n"
        "fn_rate = 0.1\nformat_version = 1\nfp_clutter_rate = 0.5\nframes = 2\n"
        "jitter_sigma = 0.3\nn_agents = 3\nocclusion_windows = 1:0:1;3:1:1\n"
        "persistent_fp_count = 1\nrng = numpy PCG64\nseed = 42\nturn_sigma = 0.05\n")

    def test_full_scenario_manifest_bytes(self, tmp_path):
        out = write_bundle(generate(self.FULL), tmp_path / "bundle")
        assert (out / "manifest.txt").read_text() == self.FROZEN

    def test_manifest_reads_back_as_the_scenario(self, tmp_path):
        from pointtrack.formats import parse_kv_text
        out = write_bundle(generate(self.FULL), tmp_path / "bundle")
        values = parse_kv_text((out / "manifest.txt").read_text())
        for key in ("format_version", "rng", "files"):
            del values[key]
        assert scenario_from_kv(values) == self.FULL

    def test_readme_keys_match_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("with their own keys")[1].split("Generation is driven")[0]
        assert re.findall(r"`(\w+)`", text) == [f.name for f in fields(ScenarioConfig)]

import numpy as np
import pytest

from pointtrack.ddcf import (
    DcfConfig, FeatureMap, extract_patch, localize, response, train_filter, update_filter,
)
from pointtrack.errors import ConfigError, InvalidInputError

STRIDE = 4.0
CHANNELS = 8


def blob_map(rng, cx_cell: float, cy_cell: float, h=64, w=64, c=CHANNELS,
             noise=0.05, signature=None) -> FeatureMap:
    if signature is None:
        signature = rng.normal(size=c)
        signature /= np.linalg.norm(signature)
    data = rng.normal(0, noise, (h, w, c))
    yy, xx = np.mgrid[0:h, 0:w]
    blob = np.exp(-(((yy - cy_cell) ** 2 + (xx - cx_cell) ** 2) / (2 * 2.0 ** 2)))
    data += blob[:, :, None] * signature[None, None, :]
    return FeatureMap(data=data, stride=STRIDE)


def center_patch(fmap: FeatureMap, size=32):
    cx = fmap.width // 2 * fmap.stride
    cy = fmap.height // 2 * fmap.stride
    return extract_patch(fmap, (cx, cy), size)


def spatial_xcorr_argmax(train_patch, test_patch) -> tuple[int, int]:
    """Brute-force oracle: circular cross-correlation over all integer
    shifts, computed directly in the spatial domain (no FFT)."""
    win = np.hanning(train_patch.size)
    w2 = np.outer(win, win)[:, :, None]
    x = train_patch.data * w2
    z = test_patch.data * w2
    s = train_patch.size
    best, best_val = (0, 0), -np.inf
    for sy in range(s):
        for sx in range(s):
            val = float(np.sum(x * np.roll(z, (-sy, -sx), axis=(0, 1))))
            if val > best_val:
                best_val, best = val, (sy, sx)
    wrap = lambda v: ((v + s // 2) % s) - s // 2
    return wrap(best[1]), wrap(best[0])  # (dx, dy) cells


class TestExtractPatch:
    def test_interior_is_copy(self):
        rng = np.random.default_rng(0)
        fmap = blob_map(rng, 32, 32)
        p = extract_patch(fmap, (32 * STRIDE, 32 * STRIDE), 32)
        assert np.array_equal(p.data, fmap.data[16:48, 16:48])
        assert np.allclose(p.origin, [128, 128])

    def test_corner_replicates_edges(self):
        rng = np.random.default_rng(1)
        fmap = blob_map(rng, 32, 32)
        p = extract_patch(fmap, (0, 0), 32)
        assert p.data.shape == (32, 32, CHANNELS)
        # the out-of-bounds block repeats the first row/column
        assert np.array_equal(p.data[0], p.data[10])
        assert np.array_equal(p.data[:, 0], p.data[:, 10])

    def test_stride_scaling(self):
        rng = np.random.default_rng(2)
        fmap = FeatureMap(data=rng.normal(size=(20, 20, 2)), stride=2.0)
        p = extract_patch(fmap, (10.0, 10.0), 8)
        # centred on cell (5, 5)
        assert np.array_equal(p.data, fmap.data[1:9, 1:9])
        assert np.allclose(p.origin, [10.0, 10.0])

    def test_invalid_inputs(self):
        rng = np.random.default_rng(3)
        fmap = blob_map(rng, 32, 32)
        with pytest.raises(InvalidInputError):
            extract_patch(fmap, (np.nan, 0), 32)
        with pytest.raises(InvalidInputError):
            extract_patch(fmap, (0, 0), 4)
        with pytest.raises(InvalidInputError, match="overflows"):
            extract_patch(FeatureMap(data=fmap.data, stride=1e-45), (1e300, 0), 32)

    @pytest.mark.parametrize("stride, far", [(STRIDE, 1e300), (1e-45, 1.0)])
    def test_far_centre_is_all_edge_cells(self, stride, far):
        """A centre any number of cells outside the map gives the window of
        the nearest edge cells, whose origin is still the snapped centre."""
        rng = np.random.default_rng(4)
        fmap = FeatureMap(data=rng.normal(size=(20, 30, 2)), stride=stride)
        for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            p = extract_patch(fmap, (sx * far, sy * far), 8)
            corner = fmap.data[0 if sy < 0 else -1, 0 if sx < 0 else -1]
            assert np.array_equal(p.data, np.broadcast_to(corner, (8, 8, 2)))
            assert np.array_equal(p.origin, np.floor(np.array([sx, sy]) * far / stride + 0.5) * stride)
        # just past the clamp the window is the same edge window
        near = extract_patch(fmap, ((30 + 8 + 1) * stride, 0.0), 8)
        assert np.array_equal(near.data, extract_patch(fmap, (far, 0.0), 8).data)


class TestTrainFilter:
    def test_self_localization_at_center(self):
        rng = np.random.default_rng(4)
        p = center_patch(blob_map(rng, 32, 32))
        f = train_filter(p)
        offset, psr = localize(f, p)
        assert np.all(np.abs(offset) <= 0.25 * STRIDE)
        assert psr > 20

    def test_training_response_peaks_exactly_at_center(self):
        rng = np.random.default_rng(5)
        p = center_patch(blob_map(rng, 32, 32))
        f = train_filter(p)
        r = response(f, p)
        py, px = np.unravel_index(np.argmax(r), r.shape)
        assert (py, px) == (16, 16)

    def test_heavy_regularization_flattens_response(self):
        rng = np.random.default_rng(6)
        p = center_patch(blob_map(rng, 32, 32))
        small = np.abs(response(train_filter(p, DcfConfig(regularization=1e9)), p)).max()
        normal = np.abs(response(train_filter(p), p)).max()
        assert small < 1e-6 * normal

    def test_zero_patch_rejected(self):
        fmap = FeatureMap(data=np.zeros((40, 40, 2)), stride=1.0)
        p = extract_patch(fmap, (20, 20), 16)
        with pytest.raises(InvalidInputError):
            train_filter(p)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        p = center_patch(blob_map(rng, 32, 32))
        a = train_filter(p)
        b = train_filter(p)
        assert a.freq.tobytes() == b.freq.tobytes()


class TestLocalize:
    def test_shift_recovery_matches_oracle(self):
        rng = np.random.default_rng(8)
        hits = 0
        trials = 60
        for _ in range(trials):
            sig = rng.normal(size=CHANNELS)
            sig /= np.linalg.norm(sig)
            sx, sy = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
            train_map = blob_map(rng, 32, 32, signature=sig)
            test_map = blob_map(rng, 32 + sx, 32 + sy, signature=sig)
            p_train = center_patch(train_map)
            p_test = center_patch(test_map)
            f = train_filter(p_train)
            offset, _ = localize(f, p_test)
            dx_o, dy_o = spatial_xcorr_argmax(p_train, p_test)
            err = max(abs(offset[0] / STRIDE - dx_o), abs(offset[1] / STRIDE - dy_o))
            hits += err <= 0.5
        assert hits >= 0.95 * trials

    def test_response_is_real(self):
        rng = np.random.default_rng(9)
        p = center_patch(blob_map(rng, 32, 32))
        f = train_filter(p)
        win = np.outer(np.hanning(32), np.hanning(32))[:, :, None]
        raw = np.fft.ifft2(np.sum(f.freq * np.fft.fft2(p.data * win, axes=(0, 1)), axis=2))
        assert np.abs(raw.imag).max() <= 1e-9

    def test_matched_beats_unrelated_psr(self):
        rng = np.random.default_rng(10)
        wins = 0
        trials = 60
        for _ in range(trials):
            sig = rng.normal(size=CHANNELS)
            sig /= np.linalg.norm(sig)
            p = center_patch(blob_map(rng, 32, 32, signature=sig))
            f = train_filter(p)
            _, psr_match = localize(f, p)
            noise = FeatureMap(data=rng.normal(0, 0.05, (64, 64, CHANNELS)), stride=STRIDE)
            _, psr_noise = localize(f, center_patch(noise))
            wins += psr_match > psr_noise
        assert wins >= 0.95 * trials

    def test_noise_psr_calibration_band(self):
        # frozen from the seeded empirical oracle: windowed-response noise
        # PSR sits in the classic failure band, far below matched PSR
        rng = np.random.default_rng(11)
        psrs = []
        for _ in range(100):
            sig = rng.normal(size=CHANNELS)
            sig /= np.linalg.norm(sig)
            f = train_filter(center_patch(blob_map(rng, 32, 32, signature=sig)))
            noise = FeatureMap(data=rng.normal(0, 0.05, (64, 64, CHANNELS)), stride=STRIDE)
            _, psr = localize(f, center_patch(noise))
            psrs.append(psr)
        assert np.median(psrs) < 8.0
        assert np.percentile(psrs, 95) < 13.0

    def test_shape_mismatch(self):
        rng = np.random.default_rng(12)
        f = train_filter(center_patch(blob_map(rng, 32, 32)))
        small = extract_patch(blob_map(rng, 32, 32), (128, 128), 16)
        with pytest.raises(InvalidInputError):
            localize(f, small)


class TestUpdateFilter:
    def test_full_replacement_equals_train(self):
        rng = np.random.default_rng(13)
        p1 = center_patch(blob_map(rng, 32, 32))
        p2 = center_patch(blob_map(rng, 30, 34))
        cfg = DcfConfig(learning_rate=1.0)
        f = train_filter(p1, cfg)
        updated = update_filter(f, p2, cfg)
        fresh = train_filter(p2, cfg)
        assert np.allclose(updated.freq, fresh.freq, atol=1e-12)

    def test_fixed_point_on_identical_patches(self):
        rng = np.random.default_rng(14)
        p = center_patch(blob_map(rng, 32, 32))
        f = train_filter(p)
        f2 = update_filter(update_filter(f, p, DcfConfig()), p, DcfConfig())
        rel = np.max(np.abs(f2.freq - f.freq)) / np.max(np.abs(f.freq))
        assert rel <= 1e-10

    def test_drifting_blob_stays_locked(self):
        rng = np.random.default_rng(15)
        sig = rng.normal(size=CHANNELS)
        sig /= np.linalg.norm(sig)
        cx = cy = 24.0
        start = extract_patch(blob_map(rng, cx, cy, signature=sig),
                              np.array([cx, cy]) * STRIDE, 32)
        f = train_filter(start)
        # track patch centre follows the estimate, blob drifts 1 cell/frame
        center = np.array([24.0, 24.0]) * STRIDE
        for _ in range(20):
            cx += 1.0
            fmap = blob_map(rng, cx, cy, signature=sig)
            patch = extract_patch(fmap, center, 32)
            offset, _ = localize(f, patch)
            estimate = patch.origin + offset
            err = np.max(np.abs(estimate - np.array([cx, cy]) * STRIDE))
            assert err < 1.0 * STRIDE
            center = estimate
            f = update_filter(f, extract_patch(fmap, estimate, 32), DcfConfig())

    def test_learning_rate_validation(self):
        with pytest.raises(ConfigError):
            DcfConfig(learning_rate=0.0)

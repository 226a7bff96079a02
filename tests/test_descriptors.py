import math
import tracemalloc

import numpy as np
import pytest

from visrec.descriptors import (
    _csd_subsample_factor,
    _ehd_block_size,
    _gabor_factors,
    cld,
    csd,
    ehd,
    htd,
    htd_center_frequency,
    mpeg7_all,
    scd,
)
from visrec.errors import SizeError
from visrec.media import FrameBuffer, luma
from visrec.shots import hsv_cell_indices

from conftest import random_frame, solid_frame
from oracles import (
    _gabor_bank_full,
    csd_oracle,
    csd_presence_oracle,
    dct2_oracle,
    ehd_oracle,
    hsv_bin_scalar,
    htd_complex_oracle,
    htd_spectral_oracle,
)


def palette_frame(rng, height, width, colors, block=8):
    """Blocks of ``colors`` random RGB colors, the few-color keyframe shape."""
    palette = rng.integers(0, 256, size=(colors, 3), dtype=np.uint8)
    rows, cols = -(-height // block), -(-width // block)
    idx = rng.integers(0, colors, size=(rows, cols)).repeat(block, 0).repeat(block, 1)
    return FrameBuffer(palette[idx[:height, :width]])


def noise_frame(rng, height, width):
    return FrameBuffer(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


class TestScd:
    def test_black_frame(self):
        v = scd(solid_frame((0, 0, 0))).values
        assert v[0] == 1.0 and v.sum() == pytest.approx(1.0)

    def test_pure_blue_bin(self):
        v = scd(solid_frame((0, 0, 255))).values
        # H=240 -> hIdx=10; S=V=1 -> sIdx=vIdx=3 -> bin 10*16+15=175
        assert v[175] == 1.0

    def test_checkerboard_two_colors(self):
        c1, c2 = (200, 40, 40), (40, 40, 200)
        px = np.empty((8, 8, 3), dtype=np.uint8)
        for y in range(8):
            for x in range(8):
                px[y, x] = c1 if (x + y) % 2 == 0 else c2
        v = scd(FrameBuffer(px)).values
        b1 = hsv_bin_scalar(*c1)
        b2 = hsv_bin_scalar(*c2)
        assert v[b1] == pytest.approx(0.5) and v[b2] == pytest.approx(0.5)

    def test_permutation_invariance(self, rng):
        frame = random_frame(rng, 16, 16)
        flat = frame.pixels.reshape(-1, 3)
        shuffled = FrameBuffer(flat[rng.permutation(len(flat))].reshape(16, 16, 3))
        np.testing.assert_array_equal(scd(frame).values, scd(shuffled).values)


class TestCsd:
    def test_solid_frame_single_cell(self):
        v = csd(solid_frame((255, 0, 0), 32, 32)).values
        assert v[15] == 1.0
        assert v.sum() == 1.0

    def test_split_frame_structure(self):
        px = np.empty((64, 64, 3), dtype=np.uint8)
        px[:, :32] = (255, 0, 0)
        px[:, 32:] = (0, 0, 255)
        v = csd(FrameBuffer(px)).values
        red_bin, blue_bin = 15, 175
        assert 0 < v[red_bin] <= 1.0 and 0 < v[blue_bin] <= 1.0
        assert v[red_bin] + v[blue_bin] >= 1.0  # straddling windows count both
        assert v.sum() == pytest.approx(v[red_bin] + v[blue_bin])

    def test_single_green_pixel_matches_window_enumeration(self):
        px = np.zeros((16, 16, 3), dtype=np.uint8)
        px[5, 9] = (0, 255, 0)
        frame = FrameBuffer(px)
        assert _csd_subsample_factor(16, 16) == 1
        expected = csd_oracle(hsv_cell_indices(frame))
        np.testing.assert_allclose(csd(frame).values, expected, atol=1e-12)

    def test_structure_sensitivity_vs_scd(self, rng):
        px = np.empty((32, 32, 3), dtype=np.uint8)
        px[:16] = (255, 0, 0)
        px[16:] = (0, 0, 255)
        ordered = FrameBuffer(px)
        flat = px.reshape(-1, 3)
        scrambled = FrameBuffer(flat[rng.permutation(len(flat))].reshape(32, 32, 3))
        np.testing.assert_array_equal(scd(ordered).values, scd(scrambled).values)
        assert not np.array_equal(csd(ordered).values, csd(scrambled).values)

    def test_tiny_frame_whole_window_fallback(self):
        v = csd(solid_frame((0, 255, 0), 4, 4)).values
        assert v.max() == 1.0 and v.sum() == 1.0

    @pytest.mark.parametrize("height, width, colors", [
        (240, 320, 6), (97, 131, 3), (64, 97, 40), (8, 8, 2), (256, 512, 12),
    ])
    def test_few_colors_equal_presence_matrix(self, rng, height, width, colors):
        frame = palette_frame(rng, height, width, colors)
        np.testing.assert_array_equal(csd(frame).values, csd_presence_oracle(frame))

    @pytest.mark.parametrize("height, width", [(240, 320), (97, 131), (9, 200)])
    def test_noise_equal_presence_matrix(self, rng, height, width):
        frame = noise_frame(rng, height, width)
        np.testing.assert_array_equal(csd(frame).values, csd_presence_oracle(frame))

    def test_subsampled_lattice_equal_presence_matrix(self, rng):
        frame = noise_frame(rng, 256, 512)
        assert _csd_subsample_factor(512, 256) == 2
        assert len(np.unique(hsv_cell_indices(frame)[::2, ::2])) > 200
        np.testing.assert_array_equal(csd(frame).values, csd_presence_oracle(frame))

    @pytest.mark.parametrize("height, width", [(7, 40), (40, 5), (3, 3)])
    def test_degenerate_lattice_equal_presence_matrix(self, rng, height, width):
        frame = noise_frame(rng, height, width)
        np.testing.assert_array_equal(csd(frame).values, csd_presence_oracle(frame))

    def test_all_colors_frame_allocates_far_less_than_presence_matrix(self, rng):
        frame = noise_frame(rng, 240, 320)
        assert len(np.unique(hsv_cell_indices(frame))) == 256
        csd(frame)  # warm any lazy state outside the measurement
        tracemalloc.start()
        try:
            csd(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        presence_bytes = (240 - 7) * (320 - 7) * 256  # 18.7 MB of bools
        assert peak < presence_bytes / 4


class TestCld:
    def test_constant_frame_has_zero_ac(self):
        v = cld(solid_frame((128, 128, 128), 32, 32)).values
        dc_positions = {0, 40, 80}
        for i, coeff in enumerate(v):
            if i not in dc_positions:
                assert abs(coeff) < 1e-9

    def test_luma_shift_only_moves_dc(self):
        rng = np.random.default_rng(3)
        levels = rng.integers(10, 200, size=(8, 8))
        px1 = np.repeat(np.repeat(levels, 4, axis=0), 4, axis=1)
        px2 = px1 + 30  # uniform gray shift: Y moves, Cb/Cr stay at 128
        f1 = FrameBuffer(np.stack([px1] * 3, axis=-1).astype(np.uint8))
        f2 = FrameBuffer(np.stack([px2] * 3, axis=-1).astype(np.uint8))
        v1, v2 = cld(f1).values, cld(f2).values
        assert abs(v1[0] - v2[0]) > 1.0
        np.testing.assert_allclose(v1[1:40], v2[1:40], atol=1e-9)
        np.testing.assert_allclose(v1[40:], v2[40:], atol=1e-9)

    @staticmethod
    def oracle(cells):
        """CLD of a frame whose 8x8 grid cells have the given RGB colours."""
        rep = cells.astype(np.float64)
        y = 0.299 * rep[..., 0] + 0.587 * rep[..., 1] + 0.114 * rep[..., 2]
        cb = 128.0 + 0.5 / (1 - 0.114) * (rep[..., 2] - y)
        cr = 128.0 + 0.5 / (1 - 0.299) * (rep[..., 0] - y)
        zigzag = [
            0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
            12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
            35, 42, 49, 56, 57, 50, 43, 36,
        ]
        return np.concatenate(
            [dct2_oracle(plane).ravel()[zigzag][:40] for plane in (y, cb, cr)]
        )

    def test_matches_direct_dct_oracle(self):
        rng = np.random.default_rng(11)
        cells = rng.integers(0, 256, size=(8, 8, 3))
        px = np.repeat(np.repeat(cells, 2, axis=0), 2, axis=1).astype(np.uint8)
        frame = FrameBuffer(px)
        np.testing.assert_allclose(cld(frame).values, self.oracle(cells), atol=1e-9)

    @pytest.mark.parametrize("layout", ["solid", "left-right", "top-bottom", "quadrants"])
    def test_flat_and_two_tone_grids_have_exact_zeros(self, layout):
        # the coefficients such a grid cannot have must read exactly 0, not
        # rounding noise, which standardised feature columns would amplify
        colours = np.array([[200, 30, 60], [20, 90, 220], [250, 250, 10], [5, 5, 5]])
        rows, cols = np.indices((8, 8)) // 4
        tone = {"solid": 0 * rows, "left-right": cols, "top-bottom": rows,
                "quadrants": 2 * rows + cols}[layout]
        cells = colours[tone]
        px = np.repeat(np.repeat(cells, 3, axis=0), 3, axis=1).astype(np.uint8)
        expected = self.oracle(cells)
        values = cld(FrameBuffer(px)).values
        zero = np.abs(expected) < 1e-9
        assert zero.sum() >= 60
        np.testing.assert_array_equal(values[zero], 0.0)
        np.testing.assert_allclose(values, expected, atol=1e-9)

    def test_nearest_neighbor_upscale_invariance(self, rng):
        frame = random_frame(rng, 16, 16)
        doubled = FrameBuffer(frame.pixels.repeat(2, axis=0).repeat(2, axis=1))
        np.testing.assert_allclose(cld(frame).values, cld(doubled).values, atol=1e-6)


class TestEhd:
    def test_solid_frame_no_edges(self):
        assert ehd(solid_frame((77, 77, 77), 64, 64)).values.sum() == 0.0

    def test_vertical_stripes_hit_only_vertical_bin(self):
        w = h = 64
        bs = _ehd_block_size(w, h)
        px = np.zeros((h, w, 3), dtype=np.uint8)
        px[:, :] = 50
        # stripes of width bs whose edges bisect every macro-block
        phase = bs // 2
        x = np.arange(w)
        bright = ((x - phase) // bs) % 2 == 0
        px[:, bright] = 200
        v = ehd(FrameBuffer(px)).values.reshape(16, 5)
        assert (v[:, 0] > 0).all()  # vertical
        assert np.abs(v[:, 1:4]).max() == 0.0  # horizontal and diagonals silent
        assert np.abs(v[:, 4]).max() == 0.0

    def test_diagonal_edge_matches_block_oracle(self):
        px = np.zeros((32, 32, 3), dtype=np.uint8)
        for y in range(32):
            px[y, : y + 1] = 220  # lower-left triangle bright
        frame = FrameBuffer(px)
        bs = _ehd_block_size(32, 32)
        expected = ehd_oracle(luma(frame), bs)
        np.testing.assert_allclose(ehd(frame).values, expected, atol=1e-12)

    def test_histogram_bounds(self, rng):
        v = ehd(random_frame(rng, 48, 40)).values.reshape(16, 5)
        assert (v >= 0).all() and (v <= 1).all()
        assert (v.sum(axis=1) <= 1.0 + 1e-12).all()

    def test_too_small_frame(self):
        with pytest.raises(SizeError):
            ehd(solid_frame((0, 0, 0), 6, 6))


def grating(width, height, freq, theta_deg, amplitude=60.0, mean=128.0, windowed=False):
    yy, xx = np.mgrid[0:height, 0:width]
    t = math.radians(theta_deg)
    wave = np.cos(2 * math.pi * freq * (xx * math.cos(t) + yy * math.sin(t)))
    if windowed:
        # Hann taper suppresses spectral leakage for off-grid orientations
        wy = 0.5 - 0.5 * np.cos(2 * math.pi * np.arange(height) / (height - 1))
        wx = 0.5 - 0.5 * np.cos(2 * math.pi * np.arange(width) / (width - 1))
        wave = wave * np.outer(wy, wx)
    levels = np.clip(np.rint(mean + amplitude * wave), 0, 255).astype(np.uint8)
    return FrameBuffer(np.stack([levels] * 3, axis=-1))


class TestHtd:
    def test_constant_frame_all_energies_zero(self):
        v = htd(solid_frame((128, 128, 128), 32, 32)).values
        assert v[0] == pytest.approx(128.0, abs=0.5)
        assert v[1] == 0.0
        assert np.abs(v[2:]).max() < 1e-9

    def test_grating_peaks_at_matching_channel(self):
        # channel (scale 1, orientation 0): horizontal wave vector
        freq = htd_center_frequency(1)
        frame = grating(128, 128, freq, 0.0)
        v = htd(frame).values
        energies = v[2:32]
        assert int(energies.argmax()) == 1 * 6 + 0

    def test_rotation_cycles_orientation_axis(self):
        freq = htd_center_frequency(1)
        e = []
        for theta in (0.0, 30.0):
            v = htd(grating(128, 128, freq, theta, amplitude=80.0, windowed=True)).values
            e.append(v[2:32].reshape(5, 6))
        predicted = np.roll(e[0], 1, axis=1)  # advance orientation one step
        tol = 0.10 * e[0].max()
        assert np.abs(predicted - e[1]).max() <= tol
        assert (int(e[0][1].argmax()) + 1) % 6 == int(e[1][1].argmax())

    def test_too_small_frame(self):
        with pytest.raises(SizeError):
            htd(solid_frame((0, 0, 0), 16, 16))

    @pytest.mark.parametrize("height, width", [(32, 32), (33, 47), (48, 35), (97, 64)])
    def test_gabor_bank_is_the_symmetrised_full_bank(self, height, width):
        # stored as squared radial and angular factors: their product is the
        # square of the symmetrised filter; g(-f) sits at index
        # (-i mod height, -j mod width), and rfft2 keeps the width // 2 + 1
        # non-negative column frequencies
        full = _gabor_bank_full(height, width)
        mirrored = np.roll(full[:, ::-1, ::-1], 1, axis=(1, 2))
        half = width // 2 + 1
        symmetrised = 0.5 * (full[:, :, :half] + mirrored[:, :, :half])
        radial, angular, weights = _gabor_factors(height, width)
        product = (radial[:, None] * angular[None, :]).reshape(symmetrised.shape)
        # below the smallest normal double a value keeps fewer than 53 bits
        np.testing.assert_allclose(product, symmetrised ** 2, rtol=1e-14,
                                   atol=np.finfo(np.float64).tiny)
        # half-plane column j stands for the full plane's columns j and -j
        assert weights.tolist() == [len({j, -j % width}) for j in range(half)]

    @pytest.mark.parametrize("height, width", [(240, 320), (32, 32), (97, 131), (33, 47),
                                               (64, 97), (97, 64)])
    def test_real_fft_matches_complex_fft(self, rng, height, width):
        # the energies, by Parseval, are the spatial filtering's
        for frame in (noise_frame(rng, height, width), palette_frame(rng, height, width, 6)):
            values, expected = htd(frame).values, htd_complex_oracle(frame)
            assert np.array_equal(values[:2], expected[:2])
            np.testing.assert_allclose(values[2:32], expected[2:32], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("height, width", [(240, 320), (32, 32), (97, 131), (33, 47),
                                               (64, 97), (97, 64)])
    def test_deviations_match_the_spectral_definition(self, rng, height, width):
        for frame in (noise_frame(rng, height, width), palette_frame(rng, height, width, 6)):
            values, expected = htd(frame).values, htd_spectral_oracle(frame)
            assert np.array_equal(values[:2], expected[:2])
            np.testing.assert_allclose(values[2:], expected[2:], rtol=0, atol=1e-12)

    def test_factor_cache_keeps_two_sizes(self, rng):
        for height, width in [(32, 32), (40, 48), (56, 36)]:
            htd(noise_frame(rng, height, width))
        assert _gabor_factors.cache_info().currsize <= 2

    def test_memory_is_a_few_planes(self, rng):
        frame = noise_frame(rng, 240, 320)
        htd(frame)  # builds the table
        tracemalloc.start()
        try:
            htd(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 30-plane bank's call peaked at 4.1 MiB
        assert peak <= 4.1 * 2**20
        # 11 half-spectrum planes of 240 x 161 doubles, and the weights
        assert sum(table.nbytes for table in _gabor_factors(240, 320)) <= 3.5 * 2**20


class TestMpeg7All:
    def test_length_774(self, rng):
        assert len(mpeg7_all(random_frame(rng, 40, 36))) == 774

    def test_gray_frame_segments(self):
        v = mpeg7_all(solid_frame((128, 128, 128), 32, 32)).values
        assert v[:256].sum() == pytest.approx(1.0, abs=1e-9)  # SCD mass
        assert v[256:512].sum() == pytest.approx(1.0, abs=1e-9)  # CSD mass
        assert np.abs(v[632:712]).max() == 0.0  # EHD all zero

    def test_distinct_frames_differ(self):
        v1 = mpeg7_all(solid_frame((255, 0, 0), 32, 32)).values
        v2 = mpeg7_all(solid_frame((0, 0, 255), 32, 32)).values
        assert not np.array_equal(v1, v2)

    def test_deterministic(self, rng):
        frame = random_frame(rng, 36, 44)
        np.testing.assert_array_equal(mpeg7_all(frame).values, mpeg7_all(frame).values)

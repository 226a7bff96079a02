import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visrec
from visrec.errors import DimensionError, EmptyInputError
from visrec.media import FrameBuffer, FrameStream
from visrec.shots import (
    Histogram,
    detect_shots,
    frame_histogram,
    histogram_intersection,
    hsv_cell_indices,
)

from conftest import solid_frame
from oracles import histogram_oracle, hsv_cells_float


def normalized_hist(values):
    v = np.asarray(values, dtype=np.float64)
    return Histogram(v / v.sum())


class TestFrameHistogram:
    def test_solid_red_single_bin(self):
        h = frame_histogram(solid_frame((255, 0, 0)))
        # hIdx=0, sIdx=3, vIdx=3 -> bin 15
        assert h.bins[15] == 1.0
        assert h.bins.sum() == pytest.approx(1.0)

    def test_half_red_half_green(self):
        px = np.zeros((4, 4, 3), dtype=np.uint8)
        px[:, :2] = (255, 0, 0)
        px[:, 2:] = (0, 255, 0)
        h = frame_histogram(FrameBuffer(px))
        # green: H=120 -> hIdx=5 -> bin 5*16+15 = 95
        assert h.bins[15] == pytest.approx(0.5)
        assert h.bins[95] == pytest.approx(0.5)

    def test_mixed_frame_matches_per_pixel_oracle(self, rng):
        frame = FrameBuffer(rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8))
        expected = histogram_oracle(frame)
        np.testing.assert_allclose(frame_histogram(frame).bins, expected, atol=1e-12)
        # hues that h / (360 / 16) would floor one bin lower than h * (16 / 360)
        for pixel, hue_bin in (((30, 33, 42), 10), ((33, 47, 31), 5)):
            frame = solid_frame(pixel, width=2, height=2)
            expected = histogram_oracle(frame)
            assert (np.flatnonzero(expected) // 16).tolist() == [hue_bin]
            np.testing.assert_array_equal(frame_histogram(frame).bins, expected)


class TestHsvCellIndices:
    """The integer quantizer against the float hexcone cell rule."""

    def test_every_rgb_triple_matches_float_reference(self):
        gb = np.stack(np.meshgrid(np.arange(256), np.arange(256), indexing="ij"), axis=-1)
        px = np.empty((4, 256, 256, 3), dtype=np.uint8)
        px[..., 1:] = gb
        for r0 in range(0, 256, 4):
            px[..., 0] = np.arange(r0, r0 + 4)[:, None, None]
            chunk = px.reshape(4 * 256, 256, 3)
            cells = hsv_cell_indices(FrameBuffer(chunk))
            expected = hsv_cells_float(chunk)
            assert cells.dtype == expected.dtype
            mismatched = np.flatnonzero(cells != expected)
            assert mismatched.size == 0, chunk.reshape(-1, 3)[mismatched[:5]]

    @pytest.mark.parametrize(
        "rgb, hue_bin",
        [
            ((30, 33, 42), 10),  # hue exactly 225 degrees, a bin edge
            ((33, 47, 31), 5),  # hue exactly 112.5 degrees, a bin edge
            ((255, 0, 0), 0),
            ((0, 255, 0), 5),
            ((0, 0, 255), 10),
            ((255, 0, 1), 15),  # just below 360 degrees
            ((128, 128, 128), 0),  # achromatic
        ],
    )
    def test_pinned_hue_bins(self, rgb, hue_bin):
        px = np.array([[rgb]], dtype=np.uint8)
        cells = hsv_cell_indices(FrameBuffer(px))
        assert cells[0, 0] // 16 == hue_bin
        assert cells[0, 0] == hsv_cells_float(px)[0, 0]

    @pytest.mark.parametrize("bins", [(64, 8, 8), (7, 3, 5), (1, 1, 1), (360, 2, 300)])
    def test_other_lattices_match_float_reference(self, rng, bins):
        px = rng.integers(0, 256, size=(96, 128, 3)).astype(np.uint8)
        np.testing.assert_array_equal(
            hsv_cell_indices(FrameBuffer(px), bins), hsv_cells_float(px, bins)
        )

    def test_importing_the_cli_builds_no_table(self):
        src = str(Path(visrec.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import visrec.cli, visrec.shots; print(visrec.shots._sv_table.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestHistogramIntersection:
    def test_identity_is_one(self):
        h = normalized_hist([0.2, 0.3, 0.5])
        assert histogram_intersection(h, h) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        h1 = normalized_hist([1, 0, 0])
        h2 = normalized_hist([0, 0.5, 0.5])
        assert histogram_intersection(h1, h2) == 0.0

    def test_hand_summed_minima(self):
        h1 = normalized_hist([0.6, 0.4, 0.0])
        h2 = normalized_hist([0.2, 0.5, 0.3])
        # min-sum: 0.2 + 0.4 + 0 = 0.6
        assert histogram_intersection(h1, h2) == pytest.approx(0.6)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            histogram_intersection(normalized_hist([1.0]), normalized_hist([0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=16),
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=16),
    )
    def test_symmetry_and_bounds(self, a, b):
        size = min(len(a), len(b))
        h1 = normalized_hist(a[:size])
        h2 = normalized_hist(b[:size])
        s12 = histogram_intersection(h1, h2)
        s21 = histogram_intersection(h2, h1)
        assert s12 == pytest.approx(s21)
        assert 0.0 <= s12 <= 1.0 + 1e-12


class TestDetectShots:
    def test_two_segment_stream(self, red_blue_stream):
        shots = detect_shots(red_blue_stream, threshold=0.75)
        assert shots.boundaries == (9,)
        assert shots.keyframes == (4, 14)

    def test_constant_stream_single_shot(self):
        stream = FrameStream([solid_frame((10, 200, 30))] * 20)
        shots = detect_shots(stream)
        assert shots.boundaries == ()
        assert shots.keyframes == (9,)

    def test_three_segments(self):
        frames = (
            [solid_frame((255, 0, 0))] * 5
            + [solid_frame((0, 255, 0))] * 5
            + [solid_frame((0, 0, 255))] * 5
        )
        shots = detect_shots(FrameStream(frames))
        assert shots.boundaries == (4, 9)
        assert shots.keyframes == (2, 7, 12)

    def test_threshold_zero_single_shot(self, red_blue_stream):
        shots = detect_shots(red_blue_stream, threshold=0.0)
        assert shots.n_shots == 1

    def test_threshold_near_one_splits_everywhere(self, rng):
        frames = [
            FrameBuffer(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
            for _ in range(6)
        ]
        shots = detect_shots(FrameStream(frames), threshold=0.999999)
        assert shots.n_shots == 6

    def test_concatenation_adds_junction_boundary(self, red_blue_stream):
        a = [solid_frame((255, 0, 0))] * 6
        b = [solid_frame((0, 0, 255))] * 4 + [solid_frame((0, 255, 0))] * 4
        shots_a = detect_shots(FrameStream(a))
        shots_b = detect_shots(FrameStream(b))
        combined = detect_shots(FrameStream(a + b))
        expected = (
            set(shots_a.boundaries)
            | {len(a) - 1}
            | {len(a) + t for t in shots_b.boundaries}
        )
        assert set(combined.boundaries) == expected

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyInputError):
            detect_shots(FrameStream([]))

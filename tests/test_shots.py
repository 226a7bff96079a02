import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import visrec
from visrec.errors import DimensionError, EmptyInputError
from visrec.media import FrameBuffer, FrameStream
from visrec.shots import (
    detect_shots,
    frame_histogram,
    histogram_intersection,
    hsv_cell_indices,
)

from conftest import solid_frame
from oracles import histogram_oracle, hsv_cells_float


def normalized_hist(values):
    v = np.asarray(values, dtype=np.float64)
    return v / v.sum()


class TestFrameHistogram:
    def test_solid_red_single_bin(self):
        h = frame_histogram(solid_frame((255, 0, 0)))
        # hIdx=0, sIdx=3, vIdx=3 -> bin 15
        assert h[15] == 1.0
        assert h.sum() == pytest.approx(1.0)

    def test_half_red_half_green(self):
        px = np.zeros((4, 4, 3), dtype=np.uint8)
        px[:, :2] = (255, 0, 0)
        px[:, 2:] = (0, 255, 0)
        h = frame_histogram(FrameBuffer(px))
        # green: H=120 -> hIdx=5 -> bin 5*16+15 = 95
        assert h[15] == pytest.approx(0.5)
        assert h[95] == pytest.approx(0.5)

    def test_mixed_frame_matches_per_pixel_oracle(self, rng):
        frame = FrameBuffer(rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8))
        expected = histogram_oracle(frame)
        np.testing.assert_allclose(frame_histogram(frame), expected, atol=1e-12)
        # hues that h / (360 / 16) would floor one bin lower than h * (16 / 360)
        for pixel, hue_bin in (((30, 33, 42), 10), ((33, 47, 31), 5)):
            frame = solid_frame(pixel, width=2, height=2)
            expected = histogram_oracle(frame)
            assert (np.flatnonzero(expected) // 16).tolist() == [hue_bin]
            np.testing.assert_array_equal(frame_histogram(frame), expected)


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
        assert shots.boundaries == ()
        assert shots.keyframes == (9,)

    def test_threshold_near_one_splits_everywhere(self, rng):
        frames = [
            FrameBuffer(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
            for _ in range(6)
        ]
        shots = detect_shots(FrameStream(frames), threshold=0.999999)
        assert shots.boundaries == (0, 1, 2, 3, 4)
        assert shots.keyframes == (0, 1, 2, 3, 4, 5)

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
        for frames in (FrameStream([]), iter(())):
            with pytest.raises(EmptyInputError):
                detect_shots(frames)

    def test_generator_matches_frame_stream(self):
        colours = [(255, 0, 0)] * 4 + [(0, 0, 255)] * 7 + [(0, 255, 0)] * 3
        frames = [solid_frame(c) for c in colours]
        shots = detect_shots(solid_frame(c) for c in colours)
        assert shots == detect_shots(FrameStream(frames))
        assert shots == ((3, 10), (1, 7, 12), 14)


def _shot_frames(n):
    """n generated 320x240 frames, a new random colour every 8 frames plus noise."""
    rng = np.random.default_rng(5)
    for t in range(n):
        if t % 8 == 0:
            base = rng.integers(0, 200, size=3)
        noise = rng.integers(0, 56, size=(240, 320, 3), dtype=np.uint8)
        yield FrameBuffer(noise + base.astype(np.uint8))


def _traced_peak(n):
    tracemalloc.start()
    try:
        shots = detect_shots(_shot_frames(n))
        return shots, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_a_few_frames():
    """Segmenting 100 streamed frames peaks within a few frames of 25."""
    detect_shots(_shot_frames(2))  # builds the lazily cached S/V table outside the trace
    short, peak_25 = _traced_peak(25)
    long, peak_100 = _traced_peak(100)
    assert short.n_frames == 25 and long.n_frames == 100
    assert len(long.keyframes) > len(short.keyframes) > 1
    frame_bytes = 320 * 240 * 3
    assert peak_100 - peak_25 < 3 * frame_bytes, (peak_25, peak_100)

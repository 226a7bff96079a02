"""Shot segmentation by thresholded histogram intersection, plus keyframe picking.

``frame_histogram`` is the one implementation of the normalized 16x4x4 HSV
histogram; the SCD descriptor is that histogram of the keyframe.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError
from .media import FrameBuffer, FrameStream, rgb_image_to_hsv

HSV_BINS = (16, 4, 4)
N_CELLS = HSV_BINS[0] * HSV_BINS[1] * HSV_BINS[2]

DEFAULT_THRESHOLD = 0.75


@dataclass(frozen=True)
class Histogram:
    bins: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 1:
            raise DimensionError(f"histogram bins must be a vector, got shape {b.shape}")
        if (b < 0).any():
            raise ValueError("histogram bins must be nonnegative")
        if self.normalized and abs(b.sum() - 1.0) > 1e-9:
            raise ValueError(f"normalized histogram sums to {b.sum()!r}, not 1")
        b.setflags(write=False)
        object.__setattr__(self, "bins", b)

    def __len__(self):
        return len(self.bins)


def hsv_cell_indices(frame: FrameBuffer, bins: tuple[int, int, int] = HSV_BINS) -> np.ndarray:
    """Quantize every pixel into the uniform HSV lattice; H-major cell ids.
    The hexcone is ``media.rgb_image_to_hsv``."""
    hb, sb, vb = bins
    hsv = rgb_image_to_hsv(frame.pixels)
    hi = np.minimum((hsv[..., 0] * (hb / 360.0)).astype(np.int32), hb - 1)
    si = np.minimum((hsv[..., 1] * sb).astype(np.int32), sb - 1)
    vi = np.minimum((hsv[..., 2] * vb).astype(np.int32), vb - 1)
    return hi * (sb * vb) + si * vb + vi


def frame_histogram(frame: FrameBuffer, bins: tuple[int, int, int] = HSV_BINS) -> Histogram:
    """Normalized HSV color histogram of one frame (the per-frame signature
    compared across consecutive frames during segmentation)."""
    cells = hsv_cell_indices(frame, bins)
    if cells.size == 0:
        raise EmptyInputError("cannot build a histogram from a zero-pixel frame")
    n_cells = bins[0] * bins[1] * bins[2]
    counts = np.bincount(cells.ravel(), minlength=n_cells).astype(np.float64)
    return Histogram(bins=counts / cells.size, normalized=True)


def histogram_intersection(h1: Histogram, h2: Histogram) -> float:
    """Sum of per-bin minima; 1.0 only for identical normalized histograms."""
    if len(h1) != len(h2):
        raise DimensionError(f"histogram lengths differ: {len(h1)} vs {len(h2)}")
    return float(np.minimum(h1.bins, h2.bins).sum())


@dataclass(frozen=True)
class ShotBoundaryList:
    """Boundary at t means frames t and t+1 belong to different shots."""

    boundaries: tuple[int, ...]
    keyframes: tuple[int, ...]
    n_frames: int

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.boundaries)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "keyframes", tuple(int(k) for k in self.keyframes))
        if len(self.keyframes) != len(bounds) + 1:
            raise ValueError("need exactly one keyframe per shot")
        for (start, end), kf in zip(self.shot_ranges(), self.keyframes):
            if not start <= kf <= end:
                raise ValueError(f"keyframe {kf} outside its shot range [{start}, {end}]")

    @property
    def n_shots(self) -> int:
        return len(self.boundaries) + 1

    def shot_ranges(self) -> list[tuple[int, int]]:
        """Inclusive (start, end) frame range per shot."""
        starts = [0] + [b + 1 for b in self.boundaries]
        ends = [b for b in self.boundaries] + [self.n_frames - 1]
        return list(zip(starts, ends))


def detect_shots(stream: FrameStream, threshold: float = DEFAULT_THRESHOLD) -> ShotBoundaryList:
    """Cut wherever consecutive-frame histogram intersection drops below the
    threshold; the representative keyframe is each shot's middle frame."""
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {threshold}")
    if len(stream) == 0:
        raise EmptyInputError("cannot segment an empty stream")
    hists = [frame_histogram(f) for f in stream.frames]
    boundaries = [
        t
        for t in range(len(hists) - 1)
        if histogram_intersection(hists[t], hists[t + 1]) < threshold
    ]
    starts = [0] + [b + 1 for b in boundaries]
    ends = boundaries + [len(stream) - 1]
    keyframes = [(s + e) // 2 for s, e in zip(starts, ends)]
    return ShotBoundaryList(
        boundaries=tuple(boundaries), keyframes=tuple(keyframes), n_frames=len(stream)
    )


SHOT_CSV_HEADER = ["shot_id", "start_frame", "end_frame", "keyframe"]


def shots_to_csv(shots: ShotBoundaryList) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SHOT_CSV_HEADER)
    for shot_id, ((start, end), kf) in enumerate(zip(shots.shot_ranges(), shots.keyframes)):
        writer.writerow([shot_id, start, end, kf])
    return buf.getvalue()


def shots_from_csv(text: str) -> ShotBoundaryList:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SHOT_CSV_HEADER:
        raise ValueError(f"unexpected shot CSV header: {rows[0] if rows else 'empty file'}")
    starts, ends, keyframes = [], [], []
    for row in rows[1:]:
        _, start, end, kf = (int(v) for v in row)
        starts.append(start)
        ends.append(end)
        keyframes.append(kf)
    boundaries = [e for e in ends[:-1]]
    return ShotBoundaryList(
        boundaries=tuple(boundaries), keyframes=tuple(keyframes), n_frames=ends[-1] + 1
    )

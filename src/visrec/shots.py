"""Shot segmentation by thresholded histogram intersection, plus keyframe picking.

``frame_histogram`` is the one implementation of the normalized 16x4x4 HSV
histogram; the SCD descriptor is that histogram of the keyframe.
``hsv_cell_indices`` is the one HSV quantizer, which the histogram and the
CSD descriptor share. Its cell ids are those of the float hexcone
``media.rgb_image_to_hsv`` binned uniformly, but it computes them in integer
arithmetic on the 8-bit planes: S and V from a table built by the hexcone
itself, the hue from its exact rational form, and the float hexcone only for
the few pixels whose exact hue lies on a bin edge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError
from .media import FrameBuffer, FrameStream, rgb_image_to_hsv

HSV_BINS = (16, 4, 4)
N_CELLS = HSV_BINS[0] * HSV_BINS[1] * HSV_BINS[2]

DEFAULT_THRESHOLD = 0.75


@dataclass(frozen=True)
class Histogram:
    """Bins of a normalized histogram: nonnegative and summing to 1."""

    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 1:
            raise DimensionError(f"histogram bins must be a vector, got shape {b.shape}")
        if (b < 0).any():
            raise ValueError("histogram bins must be nonnegative")
        if abs(b.sum() - 1.0) > 1e-9:
            raise ValueError(f"normalized histogram sums to {b.sum()!r}, not 1")
        b.setflags(write=False)
        object.__setattr__(self, "bins", b)

    def __len__(self):
        return len(self.bins)


@functools.lru_cache(maxsize=None)
def _sv_table(sb: int, vb: int) -> np.ndarray:
    """The S and V part ``si * vb + vi`` of the cell id, indexed ``[mx, mn]``
    by a pixel's largest and smallest channel (entries with mn > mx are unused).

    The hexcone's V is ``mx / 255`` and its S depends on (mx, mn) alone, so
    the table is ``rgb_image_to_hsv`` itself run over the triples
    (mx, mn, mn) and binned as the float cell rule bins them. It is built on
    first use, so importing the package builds none.
    """
    mx, mn = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    hsv = rgb_image_to_hsv(np.stack([mx, mn, mn], axis=-1))
    si = np.minimum((hsv[..., 1] * sb).astype(np.int32), sb - 1)
    vi = np.minimum((hsv[..., 2] * vb).astype(np.int32), vb - 1)
    return (si * vb + vi).astype(np.min_scalar_type(sb * vb - 1))


def hsv_cell_indices(frame: FrameBuffer, bins: tuple[int, int, int] = HSV_BINS) -> np.ndarray:
    """Quantize every pixel into the uniform HSV lattice; H-major int32 cell ids.

    The ids are those of the float hexcone ``media.rgb_image_to_hsv`` binned
    as ``min(int(h * (hb / 360)), hb - 1)``, and S and V likewise, but they
    are computed in integers on the 8-bit planes. S and V come from
    ``_sv_table``. With ``d = max - min``, the hue bin is the floor of the
    exact rational ``hb * n / (6 * d)``, where ``n`` is the hexcone's sector
    offset plus numerator: ``g - b`` (plus 6d when negative) where r is the
    maximum, ``2d + b - r`` where g is, ``4d + r - g`` where b is; ties for
    the maximum go to r, then g. Where that quotient is a positive integer
    the exact hue lies on a bin edge and the float rounding decided the bin,
    so those pixels alone take their hue bin from the float hexcone.
    """
    hb, sb, vb = bins
    px = frame.pixels
    # int16 holds every intermediate below 6 * 255; the product with hb is
    # int32, exact while hb * 6 * 255 fits (up to 1,403,584 hue bins)
    r, g, b = (px[..., c].astype(np.int16) for c in range(3))
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    d = mx - mn
    use_r = mx == r
    use_g = ~use_r & (mx == g)
    use_b = ~(use_r | use_g)
    # masks as 0/1 factors: a per-pixel np.where select runs several times slower
    num = use_r * (g - b) + use_g * (b - r + 2 * d) + use_b * (r - g + 4 * d)
    num += (num < 0) * (6 * d)  # the r sector's hue wraps modulo 360 degrees
    # achromatic pixels have num == 0, so any positive divisor gives hue bin 0
    hi, rem = np.divmod(hb * num.astype(np.int32), 6 * np.maximum(d, 1))
    np.minimum(hi, hb - 1, out=hi)
    tie = (rem == 0) & (num > 0)
    if tie.any():
        h = rgb_image_to_hsv(px[tie])[:, 0]
        hi[tie] = np.minimum((h * (hb / 360.0)).astype(np.int32), hb - 1)
    sv = _sv_table(sb, vb).ravel().take((mx.astype(np.int32) << 8) | mn)
    return hi * (sb * vb) + sv


def frame_histogram(frame: FrameBuffer, bins: tuple[int, int, int] = HSV_BINS) -> Histogram:
    """Normalized HSV color histogram of one frame (the per-frame signature
    compared across consecutive frames during segmentation)."""
    cells = hsv_cell_indices(frame, bins)
    if cells.size == 0:
        raise EmptyInputError("cannot build a histogram from a zero-pixel frame")
    n_cells = bins[0] * bins[1] * bins[2]
    counts = np.bincount(cells.ravel(), minlength=n_cells).astype(np.float64)
    return Histogram(bins=counts / cells.size)


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

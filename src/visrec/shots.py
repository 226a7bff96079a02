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
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError
from .media import FrameBuffer, rgb_image_to_hsv

HSV_BINS = (16, 4, 4)
N_CELLS = HSV_BINS[0] * HSV_BINS[1] * HSV_BINS[2]

DEFAULT_THRESHOLD = 0.75


@functools.lru_cache(maxsize=None)
def _sv_table() -> np.ndarray:
    """The S and V part ``si * vb + vi`` of the cell id, indexed ``[mx, mn]``
    by a pixel's largest and smallest channel (entries with mn > mx are unused).

    The hexcone's V is ``mx / 255`` and its S depends on (mx, mn) alone, so
    the table is ``rgb_image_to_hsv`` itself run over the triples
    (mx, mn, mn) and binned as the float cell rule bins them. It is built on
    first use, so importing the package builds none.
    """
    _, sb, vb = HSV_BINS
    mx, mn = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    hsv = rgb_image_to_hsv(np.stack([mx, mn, mn], axis=-1))
    si = np.minimum((hsv[..., 1] * sb).astype(np.int32), sb - 1)
    vi = np.minimum((hsv[..., 2] * vb).astype(np.int32), vb - 1)
    return (si * vb + vi).astype(np.uint8)


def hsv_cell_indices(frame: FrameBuffer) -> np.ndarray:
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
    hb, sb, vb = HSV_BINS
    px = frame.pixels
    # int16 holds every intermediate below 6 * 255; the product with hb is int32
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
    sv = _sv_table().ravel().take((mx.astype(np.int32) << 8) | mn)
    return hi * (sb * vb) + sv


def frame_histogram(frame: FrameBuffer) -> np.ndarray:
    """Normalized HSV color histogram of one frame, ``N_CELLS`` float64 bins
    summing to 1 (the per-frame signature compared across consecutive frames
    during segmentation)."""
    cells = hsv_cell_indices(frame)
    return np.bincount(cells.ravel(), minlength=N_CELLS) / cells.size


def histogram_intersection(h1: np.ndarray, h2: np.ndarray) -> float:
    """Sum of per-bin minima; 1.0 only for identical normalized histograms."""
    if len(h1) != len(h2):
        raise DimensionError(f"histogram lengths differ: {len(h1)} vs {len(h2)}")
    return float(np.minimum(h1, h2).sum())


class ShotBoundaryList(NamedTuple):
    """Boundary at t means frames t and t+1 belong to different shots; one
    keyframe, the shot's middle frame, per shot."""

    boundaries: tuple[int, ...]
    keyframes: tuple[int, ...]
    n_frames: int


def detect_shots(frames: Iterable[FrameBuffer],
                 threshold: float = DEFAULT_THRESHOLD) -> ShotBoundaryList:
    """Cut wherever consecutive-frame histogram intersection drops below the
    threshold; the representative keyframe is each shot's middle frame. The
    frames are read once, in order, and only the previous one's histogram is
    kept, so a generator of frames is segmented in the memory of a few."""
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {threshold}")
    boundaries = []
    prev = None
    n_frames = 0
    for frame in frames:
        hist = frame_histogram(frame)
        if prev is not None and histogram_intersection(prev, hist) < threshold:
            boundaries.append(n_frames - 1)
        prev = hist
        n_frames += 1
    if n_frames == 0:
        raise EmptyInputError("cannot segment an empty stream")
    starts = [0] + [b + 1 for b in boundaries]
    ends = boundaries + [n_frames - 1]
    keyframes = tuple((s + e) // 2 for s, e in zip(starts, ends))
    return ShotBoundaryList(tuple(boundaries), keyframes, n_frames)

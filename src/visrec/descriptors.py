"""Per-keyframe color and texture descriptors.

Five descriptors with fixed output lengths (256, 256, 120, 80, 62) and their
774-element concatenation. All are deterministic pure functions of the frame.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SizeError
from .featureio import FeatureVector
from .media import FrameBuffer, luma, rgb_to_ycbcr_planes
from .shots import N_CELLS, frame_histogram, hsv_cell_indices

# The descriptors' revision, part of extract's cache key: raise it whenever a
# descriptor's output changes, so a cache of the old vectors is stale.
VERSION = 1


# ---------------------------------------------------------------------------
# SCD: normalized HSV histogram, 16x4x4 cells, H-major
# ---------------------------------------------------------------------------

def scd(frame: FrameBuffer) -> FeatureVector:
    """The frame's shot-detection histogram (``shots.frame_histogram``)."""
    return FeatureVector("SCD", frame_histogram(frame))


# ---------------------------------------------------------------------------
# CSD: color presence inside a sliding 8x8-sample structuring window
# ---------------------------------------------------------------------------

def _csd_subsample_factor(width: int, height: int) -> int:
    # half-up rounding; banker's rounding would be size-dependent noise
    p = max(0, int(math.floor(0.5 * math.log2(width * height) - 8.0 + 0.5)))
    return 2 ** p


# colors are dilated 8 to a byte plane and 8 planes at a time, so the work
# memory stays a few bytes per lattice sample whatever the color count
_CSD_PLANES_PER_CHUNK = 8


def _window_or(planes: np.ndarray) -> np.ndarray:
    """OR of every 8x8 window over the last two axes, indexed by the window's
    top-left sample: shifts by 1, 2 and 4 along the columns, then the rows,
    each doubling the span covered (7 shorter along both axes)."""
    for shift in (1, 2, 4):
        planes = planes[..., :-shift] | planes[..., shift:]
    for shift in (1, 2, 4):
        planes = planes[..., :-shift, :] | planes[..., shift:, :]
    return planes


def _bit_counts(plane: np.ndarray) -> list[int]:
    """How many entries of a uint8 array have each bit set, bit 0 first."""
    hist = np.bincount(plane.ravel(), minlength=256)
    # value = high * 2^(b+1) + bit_b * 2^b + low
    return [int(hist.reshape(-1, 2, 1 << b)[:, 1].sum()) for b in range(8)]


def csd(frame: FrameBuffer) -> FeatureVector:
    """Counts, per HSV cell, the fraction of window placements in which the
    color occurs at least once. The window covers 8x8 samples spaced K pixels
    apart and slides with stride K, K growing with frame area.

    A window holds color c exactly when the 8x8 dilation of the mask
    ``lattice == c`` covers its position, so the counts are those of the
    dilated masks, computed by shifted ORs. The masks of the colors present
    are packed 8 to a byte, bit ``i % 8`` of plane ``i // 8`` for the i-th.
    """
    cells = hsv_cell_indices(frame)
    k = _csd_subsample_factor(frame.width, frame.height)
    lattice = cells[::k, ::k]
    hs, ws = lattice.shape
    present = np.flatnonzero(np.bincount(lattice.ravel(), minlength=N_CELLS))
    out = np.zeros(N_CELLS)
    if hs < 8 or ws < 8:
        # degenerate frame: one whole-frame window
        out[present] = 1.0
        return FeatureVector("CSD", out)
    slot = np.arange(len(present))
    bit_of = np.zeros((-(-len(present) // 8), N_CELLS), dtype=np.uint8)
    bit_of[slot >> 3, present] = 1 << (slot & 7)
    counts: list[int] = []
    for start in range(0, len(bit_of), _CSD_PLANES_PER_CHUNK):
        planes = bit_of[start : start + _CSD_PLANES_PER_CHUNK].take(lattice, axis=1)
        for plane in _window_or(planes):
            counts.extend(_bit_counts(plane))
    n_windows = (hs - 7) * (ws - 7)
    out[present] = np.array(counts[: len(present)]) / n_windows
    return FeatureVector("CSD", out)


# ---------------------------------------------------------------------------
# CLD: DCT of an 8x8 grid of representative colors in YCbCr
# ---------------------------------------------------------------------------

# JPEG zigzag order: output position -> flat index into the 8x8 block.
_ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
])

_CLD_COEFFS_PER_CHANNEL = 40

# cos(pi (2m + 1)(2j + 1) / 2n) for m, j < n/2: the odd frequencies of an
# n-point DCT-II, applied to x[j] - x[n-1-j]
_DCT_ODD = {
    n: np.cos(np.pi / (2 * n) * np.outer(2 * np.arange(n // 2) + 1, 2 * np.arange(n // 2) + 1))
    for n in (2, 4, 8)
}
# orthonormal scaling of the 8-point transform
_DCT8_SCALE = np.r_[np.sqrt(1 / 8), np.full(7, np.sqrt(2 / 8))]


def _dct_ii(x: np.ndarray) -> np.ndarray:
    """Unscaled DCT-II along the last axis (length 1, 2, 4 or 8), by even/odd
    butterflies: the even frequencies are the half-length transform of
    x[j] + x[n-1-j], the odd ones a cosine matrix times x[j] - x[n-1-j].

    The butterflies give a symmetric or antisymmetric input, such as a flat
    or two-tone grid row, exact zeros where scipy.fft.dctn gives exact
    zeros. A single basis-matrix product leaves ~1e-13 there instead, which
    training's column standardisation would scale up to unit variance.
    """
    n = x.shape[-1]
    if n == 1:
        return x
    head, tail = x[..., : n // 2], x[..., ::-1][..., : n // 2]
    out = np.empty_like(x)
    out[..., 0::2] = _dct_ii(head + tail)
    out[..., 1::2] = (head - tail) @ _DCT_ODD[n].T
    return out


def _grid_means(pixels: np.ndarray, grid: int) -> np.ndarray:
    """Channel-wise mean color of each cell in a grid x grid partition."""
    h, w = pixels.shape[:2]
    rows = (np.arange(grid + 1) * h) // grid
    cols = (np.arange(grid + 1) * w) // grid
    out = np.empty((grid, grid, 3))
    for i in range(grid):
        for j in range(grid):
            cell = pixels[rows[i] : rows[i + 1], cols[j] : cols[j + 1]]
            out[i, j] = cell.reshape(-1, 3).mean(axis=0)
    return out


def cld(frame: FrameBuffer) -> FeatureVector:
    px = frame.pixels
    if frame.height < 8 or frame.width < 8:
        ry = -(-8 // frame.height)
        rx = -(-8 // frame.width)
        px = px.repeat(ry, axis=0).repeat(rx, axis=1)
    rep = _grid_means(px.astype(np.float64), 8)
    planes = np.stack(rgb_to_ycbcr_planes(rep))
    # orthonormal 2-D DCT of each plane: rows, then columns
    coeffs = _dct_ii(_dct_ii(planes).swapaxes(1, 2)).swapaxes(1, 2)
    coeffs *= np.outer(_DCT8_SCALE, _DCT8_SCALE)
    zigzagged = coeffs.reshape(3, 64)[:, _ZIGZAG[:_CLD_COEFFS_PER_CHANNEL]]
    return FeatureVector("CLD", zigzagged.ravel())


# ---------------------------------------------------------------------------
# EHD: 5 edge categories x 4x4 subimages
# ---------------------------------------------------------------------------

EDGE_THRESHOLD = 11.0
_TARGET_BLOCKS = 1100.0
_SQRT2 = math.sqrt(2.0)


def _ehd_block_size(width: int, height: int) -> int:
    x = math.sqrt(width * height / _TARGET_BLOCKS)
    return max(2, 2 * int(x / 2.0 + 0.5))


def _block_edge_responses(quads: np.ndarray) -> np.ndarray:
    """Five filter magnitudes per block from its 2x2 quadrant means.

    quads[..., 0..3] = top-left, top-right, bottom-left, bottom-right.
    Order: vertical, horizontal, 45-degree, 135-degree, non-directional.
    """
    a0, a1, a2, a3 = (quads[..., i] for i in range(4))
    return np.stack(
        [
            np.abs(a0 - a1 + a2 - a3),
            np.abs(a0 + a1 - a2 - a3),
            _SQRT2 * np.abs(a0 - a3),
            _SQRT2 * np.abs(a1 - a2),
            np.abs(2 * a0 - 2 * a1 - 2 * a2 + 2 * a3),
        ],
        axis=-1,
    )


def ehd(frame: FrameBuffer) -> FeatureVector:
    if frame.width < 8 or frame.height < 8:
        raise SizeError(f"EHD needs at least 8x8 pixels, got {frame.width}x{frame.height}")
    y = luma(frame)
    bs = _ehd_block_size(frame.width, frame.height)
    half = bs // 2
    rows = (np.arange(5) * frame.height) // 4
    cols = (np.arange(5) * frame.width) // 4
    hist = np.zeros((4, 4, 5))
    for si in range(4):
        for sj in range(4):
            sub = y[rows[si] : rows[si + 1], cols[sj] : cols[sj + 1]]
            nby, nbx = sub.shape[0] // bs, sub.shape[1] // bs
            if nby < 1 or nbx < 1:
                raise SizeError(
                    f"subimage ({si},{sj}) of {sub.shape[1]}x{sub.shape[0]} cannot hold "
                    f"one {bs}x{bs} macro-block"
                )
            crop = sub[: nby * bs, : nbx * bs]
            # per-block 2x2 quadrant means
            q = crop.reshape(nby, 2, half, nbx, 2, half).mean(axis=(2, 5))
            quads = q.transpose(0, 2, 1, 3).reshape(nby, nbx, 4)
            resp = _block_edge_responses(quads)
            best = resp.argmax(axis=-1)
            has_edge = resp.max(axis=-1) >= EDGE_THRESHOLD
            counts = np.bincount(best[has_edge].ravel(), minlength=5)
            hist[si, sj] = counts / (nby * nbx)
    return FeatureVector("EHD", hist.reshape(80))


# ---------------------------------------------------------------------------
# HTD: Gabor bank energies, 6 orientations x 5 octave-spaced scales
# ---------------------------------------------------------------------------

HTD_ORIENTATIONS = 6
HTD_SCALES = 5
_TOP_FREQ = 0.375  # cycles/pixel; highest center frequency of the bank
_HALF_PEAK = math.sqrt(2.0 * math.log(2.0))


def htd_center_frequency(scale: int) -> float:
    return _TOP_FREQ / (2.0 ** scale)


@lru_cache(maxsize=8)
def _gabor_bank(height: int, width: int) -> np.ndarray:
    """Polar-separable Gaussian frequency responses, DC forced to zero, on
    the ``width // 2 + 1`` non-negative column frequencies of ``rfft2``.

    Radial sigma puts neighboring octave-spaced filters at half-peak overlap;
    angular sigma does the same for the 30-degree orientation step. Each
    filter g is stored symmetrised, ``(g(f) + g(-f)) / 2``: for a real image
    the real part of the complex inverse transform of ``spectrum * g`` is
    the real inverse transform of ``spectrum`` times that filter. g is
    symmetric under point reflection except on the Nyquist row or column of
    an even size, where ``fftfreq`` gives -0.5 at both ends.
    """
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    omega = np.hypot(fx, fy)
    theta = np.arctan2(fy, fx)
    sigma_theta = (math.pi / 12.0) / _HALF_PEAK
    angular = []  # each orientation's factor, shared by the scales
    for r in range(HTD_ORIENTATIONS):
        theta0 = math.pi * r / HTD_ORIENTATIONS
        dtheta = (theta - theta0 + math.pi / 2.0) % math.pi - math.pi / 2.0
        angular.append(np.exp(-0.5 * (dtheta / sigma_theta) ** 2))
    half = width // 2 + 1
    bank = np.empty((HTD_SCALES * HTD_ORIENTATIONS, height, half))
    for s in range(HTD_SCALES):
        f0 = htd_center_frequency(s)
        sigma_f = f0 / (3.0 * _HALF_PEAK)
        radial = np.exp(-0.5 * ((omega - f0) / sigma_f) ** 2)
        for r in range(HTD_ORIENTATIONS):
            g = radial * angular[r]
            g[0, 0] = 0.0
            # g at -f: index (-i mod height, -j mod width)
            mirrored = np.roll(g[::-1, ::-1], 1, axis=(0, 1))
            bank[s * HTD_ORIENTATIONS + r] = 0.5 * (g[:, :half] + mirrored[:, :half])
    bank.setflags(write=False)
    return bank


def htd(frame: FrameBuffer) -> FeatureVector:
    if frame.width < 32 or frame.height < 32:
        raise SizeError(f"HTD needs at least 32x32 pixels, got {frame.width}x{frame.height}")
    y = luma(frame)
    spectrum = np.fft.rfft2(y)
    bank = _gabor_bank(frame.height, frame.width)
    energies = np.empty(HTD_SCALES * HTD_ORIENTATIONS)
    deviations = np.empty_like(energies)
    for idx in range(bank.shape[0]):
        response = np.fft.irfft2(spectrum * bank[idx], s=y.shape)
        power = response ** 2
        energies[idx] = math.log1p(power.mean())
        deviations[idx] = math.log1p(power.std())
    out = np.concatenate([[y.mean(), y.std()], energies, deviations])
    return FeatureVector("HTD", out)


# ---------------------------------------------------------------------------
# Concatenation
# ---------------------------------------------------------------------------

def mpeg7_all(frame: FrameBuffer) -> FeatureVector:
    """SCD, CSD, CLD, EHD and HTD concatenated: 256+256+120+80+62 = 774."""
    parts = [scd(frame), csd(frame), cld(frame), ehd(frame), htd(frame)]
    return FeatureVector("MPEG7_ALL", np.concatenate([p.values for p in parts]))

"""Per-keyframe color and texture descriptors.

Five descriptors with fixed output lengths (256, 256, 120, 80, 62) and their
774-element concatenation. All are deterministic pure functions of the frame.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import SizeError
from .featureio import FeatureVector
from .media import FrameBuffer, luma, rgb_to_ycbcr_planes
from .shots import N_CELLS, frame_histogram, hsv_cell_indices


# ---------------------------------------------------------------------------
# SCD: normalized HSV histogram, 16x4x4 cells, H-major
# ---------------------------------------------------------------------------

def scd(frame: FrameBuffer) -> FeatureVector:
    """The frame's shot-detection histogram (``shots.frame_histogram``)."""
    return FeatureVector("SCD", frame_histogram(frame).bins)


# ---------------------------------------------------------------------------
# CSD: color presence inside a sliding 8x8-sample structuring window
# ---------------------------------------------------------------------------

def _csd_subsample_factor(width: int, height: int) -> int:
    # half-up rounding; banker's rounding would be size-dependent noise
    p = max(0, int(math.floor(0.5 * math.log2(width * height) - 8.0 + 0.5)))
    return 2 ** p


def csd(frame: FrameBuffer) -> FeatureVector:
    """Counts, per HSV cell, the fraction of window placements in which the
    color occurs at least once. The window covers 8x8 samples spaced K pixels
    apart and slides with stride K, K growing with frame area."""
    cells = hsv_cell_indices(frame)
    k = _csd_subsample_factor(frame.width, frame.height)
    lattice = cells[::k, ::k]
    hs, ws = lattice.shape
    if hs < 8 or ws < 8:
        # degenerate frame: one whole-frame window
        present = np.unique(lattice)
        out = np.zeros(N_CELLS)
        out[present] = 1.0
        return FeatureVector("CSD", out)
    windows = np.lib.stride_tricks.sliding_window_view(lattice, (8, 8))
    flat = windows.reshape(-1, 64)
    n_windows = flat.shape[0]
    presence = np.zeros((n_windows, N_CELLS), dtype=bool)
    presence[np.arange(n_windows)[:, None], flat] = True
    return FeatureVector("CSD", presence.sum(axis=0) / n_windows)


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
    parts = []
    for plane in rgb_to_ycbcr_planes(rep):
        coeffs = scipy.fft.dctn(plane, norm="ortho").ravel()
        parts.append(coeffs[_ZIGZAG][:_CLD_COEFFS_PER_CHANNEL])
    return FeatureVector("CLD", np.concatenate(parts))


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
    """Polar-separable Gaussian frequency responses, DC forced to zero.

    Radial sigma puts neighboring octave-spaced filters at half-peak overlap;
    angular sigma does the same for the 30-degree orientation step. Filters
    are symmetric under point reflection so spatial responses stay real.
    """
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    omega = np.hypot(fx, fy)
    theta = np.arctan2(fy, fx)
    sigma_theta = (math.pi / 12.0) / _HALF_PEAK
    bank = np.empty((HTD_SCALES * HTD_ORIENTATIONS, height, width))
    for s in range(HTD_SCALES):
        f0 = htd_center_frequency(s)
        sigma_f = f0 / (3.0 * _HALF_PEAK)
        radial = np.exp(-0.5 * ((omega - f0) / sigma_f) ** 2)
        for r in range(HTD_ORIENTATIONS):
            theta0 = math.pi * r / HTD_ORIENTATIONS
            dtheta = (theta - theta0 + math.pi / 2.0) % math.pi - math.pi / 2.0
            g = radial * np.exp(-0.5 * (dtheta / sigma_theta) ** 2)
            g[0, 0] = 0.0
            bank[s * HTD_ORIENTATIONS + r] = g
    bank.setflags(write=False)
    return bank


def htd(frame: FrameBuffer) -> FeatureVector:
    if frame.width < 32 or frame.height < 32:
        raise SizeError(f"HTD needs at least 32x32 pixels, got {frame.width}x{frame.height}")
    y = luma(frame)
    spectrum = np.fft.fft2(y)
    bank = _gabor_bank(frame.height, frame.width)
    energies = np.empty(HTD_SCALES * HTD_ORIENTATIONS)
    deviations = np.empty_like(energies)
    for idx in range(bank.shape[0]):
        response = np.fft.ifft2(spectrum * bank[idx]).real
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

"""Frame-stream parsing (Y4M, binary PPM) and the color conversions used downstream.

All YCbCr math is BT.601 full range (the MPEG-7-era convention): Y, Cb, Cr
each span the full 0..255 interval, no studio-swing headroom.

Each color rule has one vectorized implementation over ``(..., 3)`` RGB
arrays: ``rgb_to_ycbcr_planes`` (whose Y is ``_luma``, the one place the
BT.601 weights are applied) and ``rgb_image_to_hsv`` (the hexcone). The
scalar ``rgb_to_ycbcr`` and ``rgb_to_hsv``, ``luma``, ``write_y4m`` and the
descriptors all call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyInputError,
    FormatError,
    TruncationError,
    UnsupportedDepthError,
)

# BT.601 luma weights.
_KR, _KG, _KB = 0.299, 0.587, 0.114


@dataclass(frozen=True)
class FrameBuffer:
    """One decoded frame: row-major interleaved 8-bit RGB."""

    pixels: np.ndarray  # shape (height, width, 3), dtype uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"pixels must have shape (h, w, 3), got {px.shape}")
        if px.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {px.dtype}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise EmptyInputError("frame must contain at least one pixel")
        px = px.copy()
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class FrameStream:
    """Ordered frames of one video; the frame rate is informational only."""

    frames: list[FrameBuffer] = field(default_factory=list)
    frame_rate: float = 25.0

    def __post_init__(self):
        sizes = {(f.width, f.height) for f in self.frames}
        if len(sizes) > 1:
            raise ValueError(f"frames disagree on dimensions: {sorted(sizes)}")

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# Color conversions
# ---------------------------------------------------------------------------

def _luma(rgb: np.ndarray) -> np.ndarray:
    """BT.601 Y of a float (..., 3) RGB array."""
    return _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]


def rgb_to_ycbcr_planes(pixels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BT.601 full-range (Y, Cb, Cr) planes of a (..., 3) RGB array,
    real-valued (no rounding)."""
    rgb = np.asarray(pixels, dtype=np.float64)
    y = _luma(rgb)
    cb = 128.0 + 0.5 / (1.0 - _KB) * (rgb[..., 2] - y)
    cr = 128.0 + 0.5 / (1.0 - _KR) * (rgb[..., 0] - y)
    return y, cb, cr


def rgb_to_ycbcr(pixel) -> tuple[float, float, float]:
    """BT.601 full-range YCbCr of one RGB triple, real-valued (no rounding)."""
    return tuple(float(c) for c in rgb_to_ycbcr_planes(pixel))


def ycbcr_planes_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Invert the full-range BT.601 transform on full-resolution planes."""
    y = y.astype(np.float64)
    db = (cb.astype(np.float64) - 128.0) * (2.0 * (1.0 - _KB))
    dr = (cr.astype(np.float64) - 128.0) * (2.0 * (1.0 - _KR))
    r = y + dr
    b = y + db
    g = (y - _KR * r - _KB * b) / _KG
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def rgb_to_hsv(pixel) -> tuple[float, float, float]:
    """Hexcone HSV (``rgb_image_to_hsv``) of one RGB triple."""
    return tuple(float(c) for c in rgb_image_to_hsv(pixel))


def hsv_to_rgb(h: float, s: float, v: float) -> tuple[int, int, int]:
    """Inverse hexcone map back to 8-bit RGB."""
    c = v * s
    hp = (h % 360.0) / 60.0
    x = c * (1.0 - abs(hp % 2.0 - 1.0))
    if hp < 1:
        r, g, b = c, x, 0.0
    elif hp < 2:
        r, g, b = x, c, 0.0
    elif hp < 3:
        r, g, b = 0.0, c, x
    elif hp < 4:
        r, g, b = 0.0, x, c
    elif hp < 5:
        r, g, b = x, 0.0, c
    else:
        r, g, b = c, 0.0, x
    m = v - c
    return tuple(int(round((ch + m) * 255.0)) for ch in (r, g, b))


def rgb_image_to_hsv(pixels) -> np.ndarray:
    """Hexcone HSV of a (..., 3) array of 0..255 RGB values, stacked on the
    last axis: H in [0, 360) and S, V in [0, 1]; achromatic H is 0."""
    rgb = np.asarray(pixels, dtype=np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    d = mx - mn

    with np.errstate(divide="ignore", invalid="ignore"):
        hr = ((g - b) / d) % 6.0
        hg = (b - r) / d + 2.0
        hb = (r - g) / d + 4.0
        chromatic = d > 0
        h = np.zeros_like(mx)
        use_r = chromatic & (mx == r)
        use_g = chromatic & ~use_r & (mx == g)
        use_b = chromatic & ~use_r & ~use_g
        h[use_r] = hr[use_r]
        h[use_g] = hg[use_g]
        h[use_b] = hb[use_b]
        h *= 60.0
        h[h >= 360.0] -= 360.0
        s = np.where(mx > 0, d / np.where(mx > 0, mx, 1.0), 0.0)
    return np.stack([h, s, mx], axis=-1)


def luma(frame: FrameBuffer) -> np.ndarray:
    """BT.601 Y plane of a frame as float64 in [0, 255]."""
    return _luma(frame.pixels.astype(np.float64))


# ---------------------------------------------------------------------------
# YUV4MPEG2
# ---------------------------------------------------------------------------

_Y4M_SIGNATURE = b"YUV4MPEG2"
_CHROMA_MODES = {
    "420": "420", "420jpeg": "420", "420mpeg2": "420", "420paldv": "420",
    "422": "422",
    "444": "444",
}


def _chroma_shape(mode: str, width: int, height: int) -> tuple[int, int]:
    if mode == "420":
        return height // 2, width // 2
    if mode == "422":
        return height, width // 2
    return height, width


def parse_y4m(data: bytes) -> FrameStream:
    """Decode a YUV4MPEG2 byte stream into RGB frames.

    Supports 4:2:0, 4:2:2 and 4:4:4 chroma; payloads are converted with the
    full-range BT.601 matrix, chroma upsampled by sample replication.
    """
    nl = data.find(b"\n")
    if nl < 0 or not data.startswith(_Y4M_SIGNATURE):
        raise FormatError("missing YUV4MPEG2 signature", offset=0)
    header = data[:nl].decode("ascii", errors="replace")
    width = height = None
    frame_rate = 25.0
    chroma = "420"
    tags = header.split(" ")
    # decoding maps each header byte to one character, so this is a byte offset
    offset = len(tags[0]) + 1
    for tag in tags[1:]:
        key, val = tag[:1], tag[1:]
        try:
            if key == "W":
                width = int(val)
            elif key == "H":
                height = int(val)
            elif key == "F":
                num, den = val.split(":")
                frame_rate = int(num) / int(den)
            elif key == "C":
                if val not in _CHROMA_MODES:
                    raise FormatError(f"unsupported chroma mode C{val}", offset=len(_Y4M_SIGNATURE))
                chroma = _CHROMA_MODES[val]
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"malformed stream header tag {tag!r}", offset=offset) from None
        offset += len(tag) + 1
    if width is None or height is None or width < 1 or height < 1:
        raise FormatError("stream header lacks valid W/H tags", offset=0)
    if chroma in ("420", "422") and width % 2:
        raise FormatError(f"C{chroma} requires even width, got {width}", offset=0)
    if chroma == "420" and height % 2:
        raise FormatError(f"C420 requires even height, got {height}", offset=0)

    ch, cw = _chroma_shape(chroma, width, height)
    y_size = width * height
    c_size = ch * cw
    frames: list[FrameBuffer] = []
    pos = nl + 1
    while pos < len(data):
        marker_end = data.find(b"\n", pos)
        if marker_end < 0 or not data[pos:].startswith(b"FRAME"):
            raise FormatError("expected FRAME marker", offset=pos)
        pos = marker_end + 1
        payload = data[pos : pos + y_size + 2 * c_size]
        if len(payload) < y_size + 2 * c_size:
            raise TruncationError(
                f"frame {len(frames)} payload truncated "
                f"(need {y_size + 2 * c_size} bytes, got {len(payload)})",
                offset=pos,
            )
        y = np.frombuffer(payload, dtype=np.uint8, count=y_size).reshape(height, width)
        cb = np.frombuffer(payload, dtype=np.uint8, count=c_size, offset=y_size).reshape(ch, cw)
        cr = np.frombuffer(payload, dtype=np.uint8, count=c_size, offset=y_size + c_size).reshape(ch, cw)
        if chroma == "420":
            cb = cb.repeat(2, axis=0).repeat(2, axis=1)
            cr = cr.repeat(2, axis=0).repeat(2, axis=1)
        elif chroma == "422":
            cb = cb.repeat(2, axis=1)
            cr = cr.repeat(2, axis=1)
        frames.append(FrameBuffer(ycbcr_planes_to_rgb(y, cb, cr)))
        pos += y_size + 2 * c_size
    return FrameStream(frames=frames, frame_rate=frame_rate)


def write_y4m(stream: FrameStream, chroma: str = "420") -> bytes:
    """Encode a FrameStream as YUV4MPEG2 bytes (inverse of parse_y4m)."""
    if chroma not in ("420", "422", "444"):
        raise ValueError(f"unsupported chroma mode {chroma!r}")
    if not stream.frames:
        raise EmptyInputError("cannot serialize an empty stream")
    w, h = stream.frames[0].width, stream.frames[0].height
    if chroma in ("420", "422") and w % 2:
        raise ValueError(f"C{chroma} needs even width, got {w}")
    if chroma == "420" and h % 2:
        raise ValueError(f"C420 needs even height, got {h}")
    fps = Fraction(stream.frame_rate).limit_denominator(1001)
    tag = {"420": "420jpeg", "422": "422", "444": "444"}[chroma]
    out = bytearray()
    out += f"YUV4MPEG2 W{w} H{h} F{fps.numerator}:{fps.denominator} Ip A1:1 C{tag}\n".encode()
    for frame in stream.frames:
        y, cb, cr = rgb_to_ycbcr_planes(frame.pixels)
        if chroma == "420":
            cb = cb.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            cr = cr.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
        elif chroma == "422":
            cb = cb.reshape(h, w // 2, 2).mean(axis=2)
            cr = cr.reshape(h, w // 2, 2).mean(axis=2)
        out += b"FRAME\n"
        for plane in (y, cb, cr):
            out += np.clip(np.rint(plane), 0, 255).astype(np.uint8).tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# Binary PPM (P6)
# ---------------------------------------------------------------------------

def _ppm_tokens(data: bytes, count: int, start: int):
    """Yield `count` whitespace-separated header tokens, honoring # comments."""
    pos = start
    tokens = []
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            if eol < 0:
                raise FormatError("unterminated comment in PPM header", offset=pos)
            pos = eol + 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        if end == pos:
            raise TruncationError("PPM header ended early", offset=pos)
        tokens.append((data[pos:end], pos))
        pos = end
    return tokens, pos


def parse_ppm(data: bytes) -> FrameBuffer:
    """Decode a binary (P6) PPM image with maxval 255."""
    if not data.startswith(b"P6"):
        raise FormatError("not a binary P6 PPM", offset=0)
    tokens, pos = _ppm_tokens(data, 3, 2)
    try:
        width, height, maxval = (int(tok) for tok, _ in tokens)
    except ValueError:
        raise FormatError("non-numeric PPM header field", offset=tokens[0][1]) from None
    if maxval != 255:
        raise UnsupportedDepthError(f"only maxval 255 supported, got {maxval}", offset=tokens[2][1])
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}", offset=tokens[0][1])
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height * 3]
    if len(payload) != width * height * 3:
        raise TruncationError(
            f"PPM payload holds {len(payload)} bytes, expected {width * height * 3}",
            offset=pos,
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return FrameBuffer(pixels)


def write_ppm(frame: FrameBuffer) -> bytes:
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode()
    return header + frame.pixels.tobytes()

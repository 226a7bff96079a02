"""Frame-stream parsing (Y4M) and the color conversions used downstream.

All YCbCr math is BT.601 full range (the MPEG-7-era convention): Y, Cb, Cr
each span the full 0..255 interval, no studio-swing headroom.

Each color rule has one vectorized implementation over ``(..., 3)`` RGB
arrays: ``rgb_to_ycbcr_planes`` (whose Y is ``_luma``, the one place the
BT.601 weights are applied) and ``rgb_image_to_hsv`` (the hexcone).
``luma``, ``write_y4m`` and the descriptors all call them. The HSV cell ids
of ``shots.hsv_cell_indices`` are defined by this hexcone: that quantizer
runs in integer arithmetic, but it builds its S and V tables with
``rgb_image_to_hsv`` and calls it for the pixels whose exact hue lies on a
bin edge, so its ids equal the binned float hexcone's. The BT.601 inverse
is ``_ycbcr_to_rgb_float``; ``ycbcr_planes_to_rgb`` decodes from tables
built by it and calls it for the pixels whose G lies on a rounding tie, so
its pixels equal the rounded float rule's.

``Y4mFrames`` is the one Y4M frame walker, over the one header parse and
the one decode: ``parse_y4m`` lists it over bytes, and ``iter_y4m`` runs it
over a memory map of a file, holding a few frames whatever its length.
"""

from __future__ import annotations

import functools
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .errors import EmptyInputError, FormatError, TruncationError

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

    def __iter__(self):
        return iter(self.frames)


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


def _ycbcr_to_rgb_float(y, cb, cr) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full-range BT.601 inverse of (Y, Cb, Cr) values, unrounded."""
    y = np.asarray(y, dtype=np.float64)
    db = (np.asarray(cb, dtype=np.float64) - 128.0) * (2.0 * (1.0 - _KB))
    dr = (np.asarray(cr, dtype=np.float64) - 128.0) * (2.0 * (1.0 - _KR))
    r = y + dr
    b = y + db
    g = (y - _KR * r - _KB * b) / _KG
    return r, g, b


def _to_uint8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


@functools.lru_cache(maxsize=None)
def _decode_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables of ``_ycbcr_to_rgb_float`` over every pair of 8-bit values,
    built on first use, so importing the package builds none.

    R depends on (Y, Cr) alone and B on (Y, Cb) alone: their 8-bit values,
    indexed ``[y, cr]`` and ``[y, cb]``. G is Y plus a term in (Cb, Cr),
    tabulated rounded, indexed ``[cb, cr]``: ``rint(y + t) == y + rint(t)``
    for integer y unless t lies on a half-integer, where the float rule's
    own rounding error decides. ``G - Y`` is a multiple of 1/587000 (the
    BT.601 weights are exact thousandths), so it is either on a half-integer
    or at least 3e-5 from one, far outside the float rule's ~1e-13 error:
    the ``[cb, cr]`` tie mask is the pairs within 1e-6 of a half-integer.
    """
    a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    r, _, blue = _ycbcr_to_rgb_float(a, b, b)
    _, g_minus_y, _ = _ycbcr_to_rgb_float(0, a, b)
    tie = np.abs(g_minus_y - np.floor(g_minus_y) - 0.5) < 1e-6
    tables = (_to_uint8(r), _to_uint8(blue), np.rint(g_minus_y).astype(np.int16), tie)
    for table in tables:
        table.setflags(write=False)  # every caller shares them
    return tables


def ycbcr_planes_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Invert the full-range BT.601 transform of 8-bit planes, rounding and
    clipping each channel to 8 bits. ``cb`` and ``cr`` may be subsampled by
    a whole factor along each axis; each chroma sample then covers a block
    of luma samples (upsampling by sample replication).

    Every pixel equals ``_ycbcr_to_rgb_float`` rounded and clipped, but it
    is computed from ``_decode_tables``: R and B by table lookup, G as Y
    plus its rounded chroma term, looked up at chroma resolution. The few
    (Cb, Cr) pairs whose chroma term lies on a half-integer take G from the
    float rule.
    """
    table_r, table_b, table_g, tie = _decode_tables()
    h, w = y.shape
    fy, fx = h // cb.shape[0], w // cb.shape[1]

    def upsample(plane: np.ndarray) -> np.ndarray:
        return plane.repeat(fy, axis=0).repeat(fx, axis=1)

    chroma = (cb.astype(np.intp) << 8) | cr
    y_hi = y.astype(np.intp) << 8
    cb_up, cr_up = upsample(cb), upsample(cr)
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    rgb[..., 0] = table_r.ravel().take(y_hi | cr_up)
    rgb[..., 2] = table_b.ravel().take(y_hi | cb_up)
    g = upsample(table_g.ravel().take(chroma)) + y
    np.clip(g, 0, 255, out=g)
    rgb[..., 1] = g
    on_tie = tie.ravel().take(chroma)
    if on_tie.any():
        at = upsample(on_tie)
        rgb[..., 1][at] = _to_uint8(_ycbcr_to_rgb_float(y[at], cb_up[at], cr_up[at])[1])
    return rgb


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
_FRAME_MARKER = b"FRAME\n"
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


def _header_number(text: str) -> int:
    """A stream header number: ASCII digits only, which ``int`` alone does not
    require (it also takes a sign, '_' and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a number of ASCII digits")
    return int(text)


class Y4mHeader(NamedTuple):
    """A YUV4MPEG2 stream header, and the byte offset ``start`` of the first
    FRAME marker after it; ``chroma`` is ``"420"``, ``"422"`` or ``"444"``."""

    width: int
    height: int
    chroma: str
    frame_rate: float
    start: int

    @property
    def chroma_shape(self) -> tuple[int, int]:
        return _chroma_shape(self.chroma, self.width, self.height)

    @property
    def frame_size(self) -> int:
        """Payload bytes per frame: the Y plane and the two chroma planes."""
        ch, cw = self.chroma_shape
        return self.width * self.height + 2 * ch * cw


def _read_y4m_header(data) -> Y4mHeader:
    """Parse and check the stream header at the start of a Y4M buffer."""
    nl = data.find(b"\n")
    if nl < 0 or data[:len(_Y4M_SIGNATURE)] != _Y4M_SIGNATURE:
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
                width = _header_number(val)
            elif key == "H":
                height = _header_number(val)
            elif key == "F":
                num, den = map(_header_number, val.split(":"))
                frame_rate = num / den
                if not frame_rate:
                    raise ValueError("the frame rate must be positive")
            elif key == "C":
                if val not in _CHROMA_MODES:
                    raise FormatError(f"unsupported chroma mode C{val}", offset=len(_Y4M_SIGNATURE))
                chroma = _CHROMA_MODES[val]
        except (ValueError, ZeroDivisionError, OverflowError):
            raise FormatError(f"malformed stream header tag {tag!r}", offset=offset) from None
        offset += len(tag) + 1
    if width is None or height is None or width < 1 or height < 1:
        raise FormatError("stream header lacks valid W/H tags", offset=0)
    if chroma in ("420", "422") and width % 2:
        raise FormatError(f"C{chroma} requires even width, got {width}", offset=0)
    if chroma == "420" and height % 2:
        raise FormatError(f"C420 requires even height, got {height}", offset=0)
    return Y4mHeader(width, height, chroma, frame_rate, nl + 1)


class Y4mFrames:
    """The frames of one Y4M buffer (``bytes`` or a memory map), decoded one
    at a time. Iterating walks the FRAME markers in order, records each
    frame's payload offset in ``offsets`` and yields the frame decoded;
    ``decode(index)`` decodes a frame already walked again from its offset.
    Only the buffer, the offsets and the frame being decoded are held.

    Each frame's payload is copied out of the buffer before it is decoded, so
    no array is a view of the buffer and a memory map can close under any
    frame this returned.
    """

    def __init__(self, data):
        self.data = data
        self.header = _read_y4m_header(data)
        self.offsets: list[int] = []

    def __iter__(self) -> Iterator[FrameBuffer]:
        data, size = self.data, self.header.frame_size
        self.offsets = []
        pos = self.header.start
        released = 0
        unmap = isinstance(data, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")
        while pos < len(data):
            # a FRAME line may carry parameters, so its end is searched for;
            # each search and check starts at pos, so a walk is linear in the
            # stream (a memory map has no startswith, hence the 5-byte slice)
            marker_end = data.find(b"\n", pos)
            if marker_end < 0 or data[pos:pos + 5] != b"FRAME":
                raise FormatError("expected FRAME marker", offset=pos)
            pos = marker_end + 1
            if len(data) - pos < size:
                raise TruncationError(
                    f"frame {len(self.offsets)} payload truncated "
                    f"(need {size} bytes, got {len(data) - pos})",
                    offset=pos,
                )
            self.offsets.append(pos)
            yield self._decode_at(pos)
            pos += size
            if unmap:
                # unmap the pages walked, which a later decode maps again, so
                # the process holds a few frames of the file, not all it read
                end = pos - pos % mmap.PAGESIZE
                if end > released:
                    data.madvise(mmap.MADV_DONTNEED, released, end - released)
                    released = end

    def decode(self, index: int) -> FrameBuffer:
        """Frame ``index`` of those walked so far, decoded again."""
        return self._decode_at(self.offsets[index])

    def _decode_at(self, pos: int) -> FrameBuffer:
        width, height = self.header.width, self.header.height
        (ch, cw), y_end = self.header.chroma_shape, width * height
        payload = np.frombuffer(self.data[pos:pos + self.header.frame_size], dtype=np.uint8)
        y = payload[:y_end].reshape(height, width)
        cb = payload[y_end:y_end + ch * cw].reshape(ch, cw)
        cr = payload[y_end + ch * cw:].reshape(ch, cw)
        return FrameBuffer(ycbcr_planes_to_rgb(y, cb, cr))


def parse_y4m(data: bytes) -> FrameStream:
    """Decode a YUV4MPEG2 byte stream into RGB frames.

    Supports 4:2:0, 4:2:2 and 4:4:4 chroma; payloads are converted with the
    full-range BT.601 matrix, chroma upsampled by sample replication.
    """
    frames = Y4mFrames(data)
    return FrameStream(frames=list(frames), frame_rate=frames.header.frame_rate)


@contextmanager
def iter_y4m(path) -> Iterator[Y4mFrames]:
    """The ``Y4mFrames`` of a Y4M file, over a read-only memory map of it that
    is closed on exit: a walk holds a few frames, whatever the file's length."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:  # which mmap refuses
            raise FormatError("missing YUV4MPEG2 signature", offset=0)
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            yield Y4mFrames(data)


def _y4m_rate(frame_rate: float) -> Fraction:
    """The frame rate as the fraction a stream header writes, which must be
    positive and finite for ``parse_y4m`` to read it back."""
    try:
        fps = Fraction(frame_rate).limit_denominator(1001)
    except (ValueError, OverflowError):  # nan, inf
        fps = Fraction(0)
    if fps <= 0:
        raise ValueError(f"frame rate must be positive and finite, got {frame_rate!r}")
    return fps


def write_y4m(stream: FrameStream, chroma: str = "420") -> bytes:
    """Encode a FrameStream as YUV4MPEG2 bytes (inverse of parse_y4m).

    Each frame is encoded straight into one preallocated output. 4:2:0 chroma
    is the mean of each 2x2 block, added as ``((a00 + a01) + (a10 + a11)) / 4``,
    and 4:2:2 chroma the mean of each horizontal pair, ``(a0 + a1) / 2``:
    written out, those adds cost a ninth of numpy's reduction over two
    2-long strided axes, in the order it adds them on all but the narrowest
    frames, and round to the same bytes on those too.
    """
    if chroma not in ("420", "422", "444"):
        raise ValueError(f"unsupported chroma mode {chroma!r}")
    if not stream.frames:
        raise EmptyInputError("cannot serialize an empty stream")
    w, h = stream.frames[0].width, stream.frames[0].height
    if chroma in ("420", "422") and w % 2:
        raise ValueError(f"C{chroma} needs even width, got {w}")
    if chroma == "420" and h % 2:
        raise ValueError(f"C420 needs even height, got {h}")
    fps = _y4m_rate(stream.frame_rate)
    tag = {"420": "420jpeg", "422": "422", "444": "444"}[chroma]
    header = f"YUV4MPEG2 W{w} H{h} F{fps.numerator}:{fps.denominator} Ip A1:1 C{tag}\n".encode()
    ch, cw = _chroma_shape(chroma, w, h)
    frame_size = len(_FRAME_MARKER) + w * h + 2 * ch * cw
    out = bytearray(len(header) + frame_size * len(stream.frames))
    out[:len(header)] = header
    frames = np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(-1, frame_size)
    frames[:, :len(_FRAME_MARKER)] = np.frombuffer(_FRAME_MARKER, dtype=np.uint8)
    for frame, dst in zip(stream.frames, frames):
        y, cb, cr = rgb_to_ycbcr_planes(frame.pixels)
        if chroma == "420":
            cb, cr = (((p[0::2, 0::2] + p[0::2, 1::2]) + (p[1::2, 0::2] + p[1::2, 1::2])) / 4
                      for p in (cb, cr))
        elif chroma == "422":
            cb, cr = ((p[:, 0::2] + p[:, 1::2]) / 2 for p in (cb, cr))
        at = len(_FRAME_MARKER)
        for plane in (y, cb, cr):
            np.rint(plane, out=plane)
            np.clip(plane, 0, 255, out=plane)
            dst[at:at + plane.size] = plane.ravel()
            at += plane.size
    return bytes(out)

import numpy as np
import pytest

from visrec.errors import EmptyInputError, FormatError, TruncationError
from visrec.media import (
    FrameBuffer,
    FrameStream,
    hsv_to_rgb,
    parse_y4m,
    rgb_image_to_hsv,
    rgb_to_ycbcr_planes,
    write_y4m,
    ycbcr_planes_to_rgb,
)

from conftest import solid_frame
from oracles import ycbcr_planes_to_rgb_oracle


def y4m_bytes(header: str, frames: list[bytes]) -> bytes:
    out = header.encode() + b"\n"
    for payload in frames:
        out += b"FRAME\n" + payload
    return out


class TestParseY4m:
    def test_two_frame_420_stream(self):
        # 4x4 4:2:0: 16 Y bytes + 4 Cb + 4 Cr per frame
        payload = bytes([128] * 16 + [128] * 4 + [128] * 4)
        data = y4m_bytes("YUV4MPEG2 W4 H4 F25:1 C420", [payload, payload])
        stream = parse_y4m(data)
        assert len(stream) == 2
        assert stream.frames[0].width == 4 and stream.frames[0].height == 4

    def test_header_only_zero_frames(self):
        stream = parse_y4m(b"YUV4MPEG2 W4 H4 F30:1\n")
        assert len(stream) == 0
        assert stream.frame_rate == 30.0

    def test_neutral_gray_converts_to_rgb_128(self):
        # hand-applied BT.601: Y=128, Cb=Cr=128 -> R=G=B=128 exactly
        payload = bytes([128] * 16 + [128] * 4 + [128] * 4)
        stream = parse_y4m(y4m_bytes("YUV4MPEG2 W4 H4", [payload]))
        px = stream.frames[0].pixels.astype(int)
        assert np.abs(px - 128).max() <= 1

    def test_bad_signature_reports_offset(self):
        with pytest.raises(FormatError) as err:
            parse_y4m(b"YUVWRONG W4 H4\nFRAME\n" + bytes(24))
        assert "offset 0" in str(err.value)

    def test_truncated_frame_names_index(self):
        payload = bytes([128] * 24)
        data = y4m_bytes("YUV4MPEG2 W4 H4", [payload]) + b"FRAME\n" + bytes(10)
        with pytest.raises(TruncationError) as err:
            parse_y4m(data)
        assert "frame 1" in str(err.value)

    @pytest.mark.parametrize("header, offset", [
        ("YUV4MPEG2 Wx H4", 10),
        ("YUV4MPEG2 W4 H4 F30", 16),
        ("YUV4MPEG2 W4 H4 F30:0", 16),
        ("YUV4MPEG2 W1_6 H4", 10),
        ("YUV4MPEG2 W+4 H4", 10),
        ("YUV4MPEG2 W4 H4 F-24:1", 16),
        ("YUV4MPEG2 W4 H4 F24:-1", 16),
        ("YUV4MPEG2 W4 H4 F0:1", 16),
    ])
    def test_malformed_header_tag_reports_offset(self, header, offset):
        with pytest.raises(FormatError) as err:
            parse_y4m(y4m_bytes(header, []))
        assert err.value.offset == offset

    def test_422_and_444_chroma(self):
        p422 = bytes([100] * 16 + [128] * 8 + [128] * 8)
        s422 = parse_y4m(y4m_bytes("YUV4MPEG2 W4 H4 C422", [p422]))
        assert np.abs(s422.frames[0].pixels.astype(int) - 100).max() <= 1
        p444 = bytes([200] * 16 + [128] * 16 + [128] * 16)
        s444 = parse_y4m(y4m_bytes("YUV4MPEG2 W4 H4 C444", [p444]))
        assert np.abs(s444.frames[0].pixels.astype(int) - 200).max() <= 1

    def test_writer_roundtrip_solid_colors(self):
        frames = [solid_frame((200, 30, 60), 8, 6), solid_frame((10, 250, 90), 8, 6)]
        stream = FrameStream(frames, frame_rate=24.0)
        back = parse_y4m(write_y4m(stream, chroma="444"))
        for orig, rt in zip(frames, back.frames):
            assert np.abs(orig.pixels.astype(int) - rt.pixels.astype(int)).max() <= 1


class TestYcbcrDecode:
    """The table decode equals the float BT.601 inverse on every pixel."""

    def test_every_triple_matches_float_rule(self):
        cb, cr = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8),
                             indexing="ij")
        rows = 8  # luma values per chunk: 8 * 65,536 triples
        cb, cr = np.tile(cb, (rows, 1)), np.tile(cr, (rows, 1))
        for first in range(0, 256, rows):
            y = np.arange(first, first + rows, dtype=np.uint8).repeat(256 * 256).reshape(cb.shape)
            np.testing.assert_array_equal(ycbcr_planes_to_rgb(y, cb, cr),
                                          ycbcr_planes_to_rgb_oracle(y, cb, cr))

    @pytest.mark.parametrize("chroma, fy, fx", [("420", 2, 2), ("422", 1, 2), ("444", 1, 1)])
    def test_stream_matches_float_rule(self, rng, chroma, fy, fx):
        h, w = 12, 16
        planes = []
        for _ in range(3):
            y = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            cb, cr = rng.integers(0, 256, size=(2, h // fy, w // fx), dtype=np.uint8)
            # the (Cb, Cr) pairs whose G - Y lies on a half-integer
            cb[0, :2], cr[0, :2] = (78, 178), (178, 78)
            planes.append((y, cb, cr))
        data = y4m_bytes(f"YUV4MPEG2 W{w} H{h} C{chroma}",
                         [b"".join(p.tobytes() for p in frame) for frame in planes])
        stream = parse_y4m(data)
        for (y, cb, cr), frame in zip(planes, stream.frames, strict=True):
            full = [c.repeat(fy, axis=0).repeat(fx, axis=1) for c in (cb, cr)]
            np.testing.assert_array_equal(frame.pixels, ycbcr_planes_to_rgb_oracle(y, *full))


class TestColorConversions:
    def test_hsv_black(self):
        assert tuple(rgb_image_to_hsv((0, 0, 0))) == (0.0, 0.0, 0.0)

    def test_hsv_pure_red(self):
        assert tuple(rgb_image_to_hsv((255, 0, 0))) == (0.0, 1.0, 1.0)

    def test_hsv_mixed_pixel_matches_hand_evaluation(self):
        # max=128/255, min=32/255, delta=96/255 -> S=0.75, H=60*(32/96)=20
        h, s, v = rgb_image_to_hsv((128, 64, 32))
        assert h == pytest.approx(20.0, abs=1e-6)
        assert s == pytest.approx(0.75, abs=1e-6)
        assert v == pytest.approx(128 / 255, abs=1e-6)

    def test_ycbcr_black_and_white(self):
        assert rgb_to_ycbcr_planes((0, 0, 0)) == pytest.approx((0.0, 128.0, 128.0))
        assert rgb_to_ycbcr_planes((255, 255, 255)) == pytest.approx((255.0, 128.0, 128.0))

    def test_ycbcr_red_matches_hand_matrix(self):
        # Y=0.299*255=76.245, Cb=128-0.168736*255, Cr=128+0.5*255
        y, cb, cr = rgb_to_ycbcr_planes((255, 0, 0))
        assert y == pytest.approx(76.245, abs=1e-3)
        assert cb == pytest.approx(84.9723, abs=1e-3)
        assert cr == pytest.approx(255.5, abs=1e-3)

    def test_hsv_inverse_recovers_rgb_on_lattice(self):
        levels = np.linspace(0, 255, 17).astype(int)
        lattice = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), axis=-1)
        hsv = rgb_image_to_hsv(lattice).reshape(-1, 3)
        for (r, g, b), (h, s, v) in zip(lattice.reshape(-1, 3), hsv):
            rr, gg, bb = hsv_to_rgb(h, s, v)
            assert abs(rr - r) <= 1 and abs(gg - g) <= 1 and abs(bb - b) <= 1

    def test_gray_pixels_are_achromatic(self):
        for level in (0, 31, 128, 255):
            _, s, _ = rgb_image_to_hsv((level, level, level))
            assert s == 0.0
            _, cb, cr = rgb_to_ycbcr_planes((level, level, level))
            assert cb == pytest.approx(128.0) and cr == pytest.approx(128.0)


class TestFrameTypes:
    def test_zero_sized_frame_rejected(self):
        with pytest.raises(EmptyInputError):
            FrameBuffer(np.zeros((0, 4, 3), dtype=np.uint8))

    def test_mismatched_stream_rejected(self):
        with pytest.raises(ValueError):
            FrameStream([solid_frame((0, 0, 0), 4, 4), solid_frame((0, 0, 0), 8, 8)])

    def test_pixel_length_invariant(self):
        frame = solid_frame((1, 2, 3), 5, 7)
        assert frame.pixels.size == frame.width * frame.height * 3

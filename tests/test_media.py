import math
import os
import tracemalloc

import numpy as np
import pytest

from visrec import media, pipeline, shots
from visrec.errors import EmptyInputError, FormatError, TruncationError
from visrec.media import (
    FrameBuffer,
    FrameStream,
    hsv_to_rgb,
    iter_y4m,
    parse_y4m,
    rgb_image_to_hsv,
    rgb_to_ycbcr_planes,
    write_y4m,
    ycbcr_planes_to_rgb,
)
from visrec.minidata import generate
from visrec.shots import detect_shots

from conftest import solid_frame
from oracles import write_y4m_oracle, ycbcr_planes_to_rgb_oracle


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


def y4m_stream(header: bytes, payloads: list[bytes], markers=(b"FRAME",)) -> tuple[bytes, list[int]]:
    """A Y4M stream and each frame's payload offset; frame i's FRAME line is
    ``markers[i % len(markers)]``."""
    out = bytearray(header + b"\n")
    offsets = []
    for i, payload in enumerate(payloads):
        out += markers[i % len(markers)] + b"\n"
        offsets.append(len(out))
        out += payload
    return bytes(out), offsets


def shot_payloads(rng, chroma: str, shots=3, per_shot=5, h=8, w=12) -> tuple[bytes, list[bytes]]:
    """The header and frame payloads ``write_y4m`` writes for shots of noisy
    solid colours."""
    frames = []
    for _ in range(shots):
        base = rng.integers(0, 256, size=3)
        for _ in range(per_shot):
            noise = rng.integers(-6, 7, size=(h, w, 3))
            frames.append(FrameBuffer(np.clip(base + noise, 0, 255).astype(np.uint8)))
    header, rest = write_y4m(FrameStream(frames), chroma=chroma).split(b"\n", 1)
    size = len(rest) // len(frames)
    assert all(rest[i * size:].startswith(b"FRAME\n") for i in range(len(frames)))
    return header, [rest[i * size + 6:(i + 1) * size] for i in range(len(frames))]


def assert_streamed_matches_parsed(path, offsets: list[int]) -> None:
    """iter_y4m yields parse_y4m's frames, at the given payload offsets, and
    cutting the stream from it gives detect_shots' shots of parse_y4m, with
    each keyframe decoded again by index equal to the parsed one."""
    parsed = parse_y4m(path.read_bytes())
    with iter_y4m(path) as frames:
        assert frames.header.frame_rate == parsed.frame_rate
        for streamed, frame in zip(frames, parsed.frames, strict=True):
            np.testing.assert_array_equal(streamed.pixels, frame.pixels)
        assert frames.offsets == offsets
        cut = detect_shots(frames)
        keyframes = [frames.decode(kf) for kf in cut.keyframes]
    assert cut == detect_shots(parsed)
    assert len(cut.keyframes) > 1
    # decoded frames are copies, so they outlive the map
    for kf, keyframe in zip(cut.keyframes, keyframes, strict=True):
        np.testing.assert_array_equal(keyframe.pixels, parsed.frames[kf].pixels)


class TestStreamedY4m:
    """``iter_y4m`` walks a memory-mapped file one frame at a time; it reads
    what ``parse_y4m`` reads and fails as it fails."""

    @pytest.mark.parametrize("markers", [
        (b"FRAME",),
        (b"FRAME Ip", b"FRAME", b"FRAME Xparam=1 A1:1"),
    ], ids=["plain", "with-parameters"])
    @pytest.mark.parametrize("chroma", ["420", "422", "444"])
    def test_matches_parse_y4m(self, rng, tmp_path, chroma, markers):
        header, payloads = shot_payloads(rng, chroma)
        data, offsets = y4m_stream(header, payloads, markers)
        path = tmp_path / "video.y4m"
        path.write_bytes(data)
        assert_streamed_matches_parsed(path, offsets)

    def test_matches_parse_y4m_on_the_mini_corpus(self, tmp_path):
        generate(tmp_path / "mini")
        videos = sorted((tmp_path / "mini" / "videos").glob("*.y4m"))
        assert len(videos) == 8
        for path in videos:
            data = path.read_bytes()
            start = data.index(b"\n") + 1
            tags = dict((tag[:1], tag[1:]) for tag in data[:start - 1].split(b" "))
            assert tags[b"C"] == b"420jpeg"
            frame_size = 6 + int(tags[b"W"]) * int(tags[b"H"]) * 3 // 2
            offsets = list(range(start + 6, len(data), frame_size))
            assert start + len(offsets) * frame_size == len(data)
            assert_streamed_matches_parsed(path, offsets)

    def test_empty_file_lacks_the_signature(self, tmp_path):
        path = tmp_path / "empty.y4m"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="missing YUV4MPEG2 signature") as err:
            with iter_y4m(path):
                pass
        assert type(err.value) is FormatError and err.value.offset == 0

    @pytest.mark.parametrize("header, bad", [
        (b"YUV4MPEG2 W4 H4", 1),
        (b"YUV4MPEG2 W99999999998 H99999999998", 0),  # W x H overruns the file
    ])
    def test_frame_past_the_end_is_truncation(self, tmp_path, header, bad):
        data, offsets = y4m_stream(header, [bytes(24), bytes(10)])
        path = tmp_path / "video.y4m"
        path.write_bytes(data)
        with pytest.raises(TruncationError) as err:
            with iter_y4m(path) as frames:
                list(frames)
        assert err.value.offset == offsets[bad] and f"frame {bad} payload truncated" in str(err.value)
        with pytest.raises(TruncationError) as parsed:
            parse_y4m(data)
        assert str(parsed.value) == str(err.value)

    def test_missing_marker_reports_offset(self, tmp_path):
        data, offsets = y4m_stream(b"YUV4MPEG2 W4 H4", [bytes(24), bytes(24)])
        path = tmp_path / "video.y4m"
        path.write_bytes(data[:offsets[1] - 6] + b"FRAMX\n" + data[offsets[1]:])
        with pytest.raises(FormatError, match="expected FRAME marker") as err:
            with iter_y4m(path) as frames:
                list(frames)
        assert err.value.offset == offsets[1] - 6


def write_shot_video(path, n: int, h: int = 120, w: int = 160) -> None:
    """A 4:2:0 video of n frames in shots of 20, cycling through three colours."""
    frames = [solid_frame(color, w, h) for color in ((250, 10, 10), (10, 10, 250), (10, 250, 10))]
    header, rest = write_y4m(FrameStream(frames)).split(b"\n", 1)
    size = len(rest) // len(frames)
    path.write_bytes(header + b"\n" + b"".join(
        rest[(i // 20 % 3) * size:(i // 20 % 3 + 1) * size] for i in range(n)))


def test_segment_memory_is_bounded_by_a_few_frames(tmp_path):
    """Cutting 400 frames peaks within two frames of cutting 25: segment holds
    a few frames, not the decoded trailer or copies of the stream's rest."""
    media._decode_tables()  # the lazily built tables, outside the trace
    shots._sv_table()
    peaks = {}
    for n in (25, 400):
        path = tmp_path / f"{n}.y4m"
        write_shot_video(path, n)
        tracemalloc.start()
        keyframes = pipeline._segment_video(0.75, tmp_path / f"cache{n}", (1, path))
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert [kf for _, kf, _ in keyframes] == [(s + min(s + 19, n - 1)) // 2
                                                  for s in range(0, n, 20)]
    assert peaks[400] < peaks[25] + 2 * 120 * 160 * 3, peaks


def _resident_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmRSS")
def test_walked_pages_of_the_map_are_let_go(tmp_path):
    """A walk unmaps the pages behind it: the process does not keep the
    11.5 MB file resident (tracemalloc does not see mapped pages)."""
    path = tmp_path / "400.y4m"
    write_shot_video(path, 400)
    with iter_y4m(path) as frames:
        next(iter(frames))  # the tables and the first frame's buffers
        before = _resident_kb()
        detect_shots(frames)
        grown = _resident_kb() - before
    assert path.stat().st_size > 11_000_000
    assert grown < 3_000, f"{grown} kB stayed resident"


class TestWriteY4m:
    """The encoder writes its oracle's bytes (numpy's ``mean`` over reshaped
    chroma blocks), and only frame rates its reader reads back."""

    @pytest.mark.parametrize("chroma", ["420", "422", "444"])
    def test_bytes_equal_the_mean_oracle(self, rng, chroma):
        sizes = [(h, w) for h in range(2, 65, 2) for w in range(2, 65, 2)] + [(240, 320)]
        for h, w in sizes:
            frames = rng.integers(0, 256, size=(2, h, w, 3), dtype=np.uint8)
            stream = FrameStream([FrameBuffer(f) for f in frames], frame_rate=24.0)
            assert write_y4m(stream, chroma) == write_y4m_oracle(frames, "24:1", chroma), (h, w)

    @pytest.mark.parametrize("rate", [0.0, -24.0, 1e-9, math.inf, math.nan])
    def test_rate_the_reader_refuses_is_a_value_error(self, rate):
        stream = FrameStream([solid_frame((1, 2, 3), 4, 4)], frame_rate=rate)
        with pytest.raises(ValueError, match="frame rate must be positive and finite"):
            write_y4m(stream)

    @pytest.mark.parametrize("rate, tag", [
        (24.0, b"F24:1"), (29.97, b"F2997:100"), (30000 / 1001, b"F30000:1001"), (0.5, b"F1:2"),
    ])
    def test_valid_rate_round_trips(self, rate, tag):
        data = write_y4m(FrameStream([solid_frame((1, 2, 3), 4, 4)], frame_rate=rate))
        assert tag in data[:data.index(b"\n")].split(b" ")
        assert parse_y4m(data).frame_rate == pytest.approx(rate, rel=1e-12)


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

import struct

import numpy as np
import pytest

from visrec.errors import DimensionError, EmptyInputError, FormatError, KindMismatchError
from visrec.featureio import (
    FeatureRecord,
    FeatureTable,
    FeatureVector,
    parse_int64,
    read_arrays,
    read_feature_csv,
    read_feature_file,
    read_features,
    read_keyframe_manifest,
    write_arrays,
    write_feature_bin,
    write_features,
    write_keyframe_manifest,
)

from datasets import write_feature_csv


def records_of(kind, length, keys):
    rng = np.random.default_rng(1)
    out = []
    for movie_id, kf in keys:
        values = rng.random(length)
        out.append(FeatureRecord(movie_id, kf, FeatureVector(kind, values)))
    return out


class TestFeatureVector:
    def test_fixed_length_enforced(self):
        with pytest.raises(DimensionError):
            FeatureVector("SCD", np.zeros(100))

    def test_unknown_kind(self):
        with pytest.raises(KindMismatchError):
            FeatureVector("BOGUS", np.zeros(4))

    def test_nonnegative_kinds(self):
        with pytest.raises(ValueError):
            FeatureVector("EHD", np.full(80, -0.5))
        FeatureVector("CLD", np.full(120, -0.5))  # signed kind is fine

    def test_variable_kinds(self):
        assert len(FeatureVector("FUSED", np.zeros(6))) == 6
        assert len(FeatureVector("TAG_LSA", np.zeros(17))) == 17

    def test_freezes_a_view_not_the_callers_array(self):
        values = np.zeros(4)
        vector = FeatureVector("FUSED", values)
        values[0] = 1.0
        assert not vector.values.flags.writeable


class TestCsvFormat:
    def test_movie_level_roundtrip(self, tmp_path):
        records = records_of("EHD", 80, [(1, None), (2, None), (7, None)])
        path = tmp_path / "feat.csv"
        write_feature_csv(path, records)
        header = path.read_text().splitlines()[0]
        assert header.startswith("movie_id,kind,v0,") and header.endswith(",v79")
        back = read_feature_csv(path)
        assert back.kind == "EHD"
        assert back.movie_id.tolist() == [1, 2, 7] and back.keyframe_index.tolist() == [-1] * 3
        np.testing.assert_array_equal(back.values, [r.vector.values for r in records])

    def test_keyframe_level_roundtrip(self, tmp_path):
        records = records_of("DNN", 1024, [(1, 0), (1, 4), (2, 9)])
        path = tmp_path / "feat.csv"
        write_feature_csv(path, records)
        assert path.read_text().startswith("movie_id,keyframe_index,kind,")
        back = read_feature_csv(path)
        assert back.movie_id.tolist() == [1, 1, 2] and back.keyframe_index.tolist() == [0, 4, 9]

    def test_values_exact_through_csv(self, tmp_path):
        vec = FeatureVector("FUSED", np.array([1 / 3, 1e-17, -2.5000000000000004]))
        path = tmp_path / "one.csv"
        write_feature_csv(path, [FeatureRecord(5, None, vec)])
        back = read_feature_csv(path)
        np.testing.assert_array_equal(back.values[0], vec.values)

    def test_mixed_kinds_rejected(self, tmp_path):
        records = [
            FeatureRecord(1, None, FeatureVector("EHD", np.zeros(80))),
            FeatureRecord(2, None, FeatureVector("HTD", np.zeros(62))),
        ]
        with pytest.raises(KindMismatchError):
            write_feature_bin(tmp_path / "bad.bin", records)
        fused = [FeatureRecord(1, None, FeatureVector("FUSED", np.zeros(n))) for n in (3, 3, 4)]
        with pytest.raises(DimensionError, match="record 2 has length 4, file is 3"):
            write_feature_bin(tmp_path / "bad.bin", fused)
        assert not (tmp_path / "bad.bin").exists()

    @pytest.mark.parametrize("row", ["abc,CLD", "1.5,CLD", "100000000000000000000,CLD",
                                     "1_0,CLD", "+7,CLD"])
    def test_non_integer_movie_id_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        write_feature_csv(path, records_of("CLD", 120, [(1, None)]))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [row + lines[1][len("1,CLD"):]]) + "\n")
        with pytest.raises(FormatError) as err:
            read_feature_csv(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("kind, length, value", [
        ("CLD", 120, "abc"),
        ("CLD", 120, "nan"),
        ("EHD", 80, "-1"),
    ])
    def test_bad_value_names_line(self, tmp_path, kind, length, value):
        path = tmp_path / "bad.csv"
        write_feature_csv(path, records_of(kind, length, [(1, None), (2, None)]))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("kind, length, value", [("CLD", 120, "inf"), ("EHD", 80, "-1")])
    def test_blank_lines_count_in_the_line_named(self, tmp_path, kind, length, value):
        path = tmp_path / "bad.csv"
        write_feature_csv(path, records_of(kind, length, [(1, None), (2, None), (3, None)]))
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + value
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"  # after a blank line, still first
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert f"{path} line 4: " in str(err.value)

    def test_bad_value_above_a_bad_id_is_named_first(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_feature_csv(path, records_of("CLD", 120, [(1, None), (2, None), (3, None)]))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan"
        lines[3] = "x" + lines[3][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3: CLD vector contains non-finite"):
            read_features(path)

    @pytest.mark.parametrize("data", [
        np.random.default_rng(5).bytes(300),
        # a file in the binary feature format that preceded the container
        struct.pack("<8s16sIQqq", b"VRFEAT1\n", b"DNN".ljust(16), 2, 1, 4, 0)
        + np.array([0.5, 0.25]).tobytes(),
    ], ids=["random", "VRFEAT1"])
    def test_binary_without_magic_names_file(self, tmp_path, data):
        path = tmp_path / "old.bin"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert str(path) in str(err.value)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        records = records_of("HTD", 62, [(3, 1), (3, 8), (9, None)])
        path = tmp_path / "feat.bin"
        write_feature_bin(path, records)
        back = read_feature_file(path)
        for a, b in zip(records, back):
            assert (a.movie_id, a.keyframe_index) == (b.movie_id, b.keyframe_index)
            np.testing.assert_array_equal(a.vector.values, b.vector.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFORMAT" + bytes(64))
        with pytest.raises(FormatError):
            read_features(path)

    def test_size_mismatch(self, tmp_path):
        records = records_of("EHD", 80, [(1, None)])
        path = tmp_path / "feat.bin"
        write_feature_bin(path, records)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_features(path)

    def test_bad_vector_length_names_record(self, tmp_path):
        # hand-build a DNN file whose vectors are 1000 long
        path = tmp_path / "short.bin"
        write_arrays(path, "features", {"kind": "DNN"}, movie_id=[4], keyframe_index=[0],
                     values=np.zeros((1, 1000)))
        with pytest.raises(DimensionError) as err:
            read_features(path)
        assert "record 0" in str(err.value)

    @pytest.mark.parametrize("kind, length, bad, fault", [
        ("FUSED", 3, {2: np.nan, 3: np.inf}, "FUSED vector contains non-finite values"),
        ("EHD", 80, {1: -0.5, 3: np.nan}, "EHD values must be nonnegative"),
        ("CLD", 120, {2: -np.inf}, "CLD vector contains non-finite values"),
    ])
    def test_bad_value_names_the_first_bad_record(self, tmp_path, kind, length, bad, fault):
        values = np.random.default_rng(2).random((5, length))
        for row, value in bad.items():
            values[row, -1] = value
        path = tmp_path / "bad.bin"
        write_arrays(path, "features", {"kind": kind}, movie_id=np.arange(5),
                     keyframe_index=np.zeros(5, dtype=np.int64), values=values)
        with pytest.raises(FormatError) as err:
            read_features(path)
        assert str(err.value) == f"{path} record {min(bad)}: {fault}"
        with pytest.raises(FormatError, match=f"record {min(bad)}: {fault}"):
            write_features(tmp_path / "out.bin", FeatureTable(
                kind, np.arange(5), np.zeros(5, dtype=np.int64), values))
        assert not (tmp_path / "out.bin").exists()

    def test_empty_table_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "empty.bin"
        with pytest.raises(EmptyInputError, match="cannot write an empty feature file"):
            write_features(path, FeatureTable("FUSED", np.zeros(0, dtype=np.int64),
                                              np.zeros(0, dtype=np.int64), np.zeros((0, 3))))
        with pytest.raises(EmptyInputError):
            write_feature_bin(path, [])
        assert not path.exists()

    def test_writing_leaves_the_callers_arrays_writable(self, tmp_path):
        table = FeatureTable("FUSED", np.array([4, 2]), np.array([-1, -1]), np.zeros((2, 3)))
        write_features(tmp_path / "f.bin", table)
        table.values[0, 0] = 1.0
        back = read_features(tmp_path / "f.bin")
        assert (back.kind, back.movie_id.tolist(), back.keyframe_index.tolist()) == (
            "FUSED", [4, 2], [-1, -1])

    def test_id_outside_int64_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "big.bin"
        with pytest.raises(FormatError, match="'movie_id' of dtype object"):
            write_feature_bin(path, records_of("CLD", 120, [(10**20, None)]))
        assert not path.exists()

    def test_uint8_array_is_stored_one_byte_per_value(self, tmp_path):
        path = tmp_path / "frame.bin"
        pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        write_arrays(path, "frame", {}, pixels=pixels)
        data = path.read_bytes()
        assert len(data) == 12 + int.from_bytes(data[8:12], "little") + pixels.size
        _, arrays = read_arrays(path, "frame", {}, {"pixels": "|u1 h w 3"})
        assert arrays["pixels"].dtype == np.uint8
        np.testing.assert_array_equal(arrays["pixels"], pixels)
        with pytest.raises(FormatError, match="not a 'frame' file"):
            read_arrays(path, "frame", {}, {"pixels": "<i8 h w 3"})

    def test_digit_symbol_must_equal_its_dimension(self, tmp_path):
        path = tmp_path / "frame.bin"
        write_arrays(path, "frame", {}, pixels=np.zeros((2, 2, 4), dtype=np.uint8))
        read_arrays(path, "frame", {}, {"pixels": "|u1 h w 4"})
        with pytest.raises(FormatError, match="not a 'frame' file"):
            read_arrays(path, "frame", {}, {"pixels": "|u1 h w 3"})

    def test_dispatch_by_content(self, tmp_path):
        records = records_of("CLD", 120, [(1, None)])
        write_feature_bin(tmp_path / "a.bin", records)
        write_feature_csv(tmp_path / "a.csv", records)
        for name in ("a.bin", "a.csv"):
            back = read_feature_file(tmp_path / name)
            np.testing.assert_array_equal(back[0].vector.values, records[0].vector.values)


class TestKeyframeManifest:
    def test_roundtrip(self, tmp_path):
        entries = [(1, 0), (1, 12), (2, 3)]
        path = tmp_path / "kf.csv"
        write_keyframe_manifest(path, entries)
        assert read_keyframe_manifest(path) == entries

    @pytest.mark.parametrize("row", ["1,x", "1", "1,2,3"])
    def test_bad_row_names_line(self, tmp_path, row):
        path = tmp_path / "kf.csv"
        path.write_text(f"movie_id,keyframe_index\n1,0\n{row}\n")
        with pytest.raises(FormatError) as err:
            read_keyframe_manifest(path)
        assert "line 3" in str(err.value)


class TestParseInt64:
    @pytest.mark.parametrize("text, value", [
        ("7", 7), ("-5", -5), ("0", 0), ("007", 7),
        ("9223372036854775807", 2**63 - 1), ("-9223372036854775808", -2**63),
    ])
    def test_ascii_digits_with_optional_minus_parse(self, text, value):
        assert parse_int64(text) == value

    @pytest.mark.parametrize("text", [
        "+7", " 7 ", "7\n", "\u0667", "1_0", "-", "", "--5", "7.0", "\u00b2",
        "9223372036854775808", "-9223372036854775809",
    ])
    def test_anything_else_is_value_error(self, text):
        with pytest.raises(ValueError):
            parse_int64(text)

import numpy as np
import pytest

from visrec.embeddings import load_embeddings
from visrec.errors import CoverageError, DimensionError, DuplicateKeyError, FormatError
from visrec.featureio import (
    FeatureRecord,
    FeatureVector,
    write_arrays,
    write_feature_bin,
)

from datasets import write_feature_csv


def write_dnn_file(path, keys, rng):
    records = [
        FeatureRecord(m, kf, FeatureVector("DNN", rng.random(1024))) for m, kf in keys
    ]
    write_feature_bin(path, records)
    return records


def test_structural_load(tmp_path, rng):
    keys = [(1, 0), (1, 4), (2, 9)]
    write_dnn_file(tmp_path / "e.bin", keys, rng)
    table = load_embeddings(tmp_path / "e.bin")
    assert table.kind == "DNN" and table.values.shape == (3, 1024)
    assert list(zip(table.movie_id.tolist(), table.keyframe_index.tolist())) == keys


def test_wrong_length_names_row(tmp_path):
    write_arrays(tmp_path / "short.bin", "features", {"kind": "DNN"}, movie_id=[3],
                 keyframe_index=[0], values=np.zeros((1, 1000)))
    with pytest.raises(DimensionError) as err:
        load_embeddings(tmp_path / "short.bin")
    assert "record 0" in str(err.value) or "row 0" in str(err.value)


def test_manifest_coverage_missing(tmp_path, rng):
    write_dnn_file(tmp_path / "e.bin", [(1, 0), (1, 4)], rng)
    with pytest.raises(CoverageError) as err:
        load_embeddings(tmp_path / "e.bin", expected=[(1, 0), (1, 4), (1, 9)])
    assert "(1, 9)" in str(err.value)


def test_manifest_coverage_extra(tmp_path, rng):
    write_dnn_file(tmp_path / "e.bin", [(1, 0), (1, 4), (3, 2)], rng)
    with pytest.raises(CoverageError) as err:
        load_embeddings(tmp_path / "e.bin", expected=[(1, 0), (1, 4)])
    assert "(3, 2)" in str(err.value)


def test_exact_coverage_passes(tmp_path, rng):
    keys = [(1, 0), (2, 7)]
    write_dnn_file(tmp_path / "e.bin", keys, rng)
    table = load_embeddings(tmp_path / "e.bin", expected=keys)
    assert len(table.values) == 2


def test_order_independence(tmp_path, rng):
    records = [
        FeatureRecord(m, kf, FeatureVector("DNN", rng.random(1024)))
        for m, kf in [(1, 0), (2, 3), (5, 1)]
    ]
    write_feature_csv(tmp_path / "fwd.csv", records)
    write_feature_csv(tmp_path / "rev.csv", records[::-1])
    t1 = load_embeddings(tmp_path / "fwd.csv")
    t2 = load_embeddings(tmp_path / "rev.csv")
    assert t1.movie_id.tolist() == t2.movie_id.tolist()[::-1]
    np.testing.assert_array_equal(t1.values, t2.values[::-1])


def test_duplicates_rejected(tmp_path, rng):
    records = [
        FeatureRecord(1, 0, FeatureVector("DNN", rng.random(1024))),
        FeatureRecord(1, 0, FeatureVector("DNN", rng.random(1024))),
    ]
    write_feature_csv(tmp_path / "dup.csv", records)
    with pytest.raises(DuplicateKeyError):
        load_embeddings(tmp_path / "dup.csv")


@pytest.mark.parametrize("keys, error, row", [
    ([(2, 5), (1, 0), (3, 3), (1, 0), (2, 5)], DuplicateKeyError, 3),
    ([(1, 0), (1, None), (1, 0)], FormatError, 1),
    ([(1, 0), (1, 0), (1, None)], DuplicateKeyError, 1),
    ([(1, None), (2, 0), (1, None)], FormatError, 0),
])
def test_first_bad_row_is_named(tmp_path, rng, keys, error, row):
    write_dnn_file(tmp_path / "e.bin", keys, rng)
    with pytest.raises(error, match=f"e.bin row {row}: "):
        load_embeddings(tmp_path / "e.bin")


def test_movie_level_record_rejected(tmp_path, rng):
    records = [FeatureRecord(1, None, FeatureVector("DNN", rng.random(1024)))]
    write_feature_bin(tmp_path / "nokf.bin", records)
    with pytest.raises(FormatError):
        load_embeddings(tmp_path / "nokf.bin")


def test_wrong_kind_rejected(tmp_path, rng):
    records = [FeatureRecord(1, 0, FeatureVector("EHD", rng.random(80)))]
    write_feature_bin(tmp_path / "ehd.bin", records)
    with pytest.raises(FormatError, match="row 0: expected kind DNN, got EHD"):
        load_embeddings(tmp_path / "ehd.bin")


def test_header_only_file_covers_nothing(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("movie_id,keyframe_index,kind," + ",".join(f"v{i}" for i in range(1024)) + "\n")
    assert len(load_embeddings(path).values) == 0
    with pytest.raises(CoverageError, match=r"missing keyframes \[\(1, 0\)\]"):
        load_embeddings(path, expected=[(1, 0)])

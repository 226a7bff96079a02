import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import visrec
from visrec import descriptors, pipeline, recsys
from visrec.aggregate import AggregationKind
from visrec.cli import main
from visrec.evaluation import make_splits
from visrec.errors import (
    ConfigError,
    DependencyError,
    DivergenceError,
    DuplicateKeyError,
    EmptyInputError,
    FormatError,
    MissingUserError,
    ParameterError,
    StaleCacheError,
    TruncationError,
)
from visrec.featureio import (
    FeatureRecord,
    FeatureTable,
    FeatureVector,
    read_feature_file,
    read_features,
    read_keyframe_manifest,
    write_arrays,
    write_feature_bin,
    write_features,
)
from visrec.media import parse_y4m
from visrec.minidata import generate
from visrec.pipeline import PipelineConfig, recommend_items, run_stage
from visrec.recsys import load_model, load_ratings_csv, recommend

from conftest import random_frame


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    config_path = generate(root, seed=7)
    return config_path


def load_cfg(config_path):
    return PipelineConfig.from_json(config_path)


def cli_config(mini, tmp_path):
    """A copy of the mini config with absolute paths and a cache under tmp_path."""
    cfg_data = json.loads(mini.read_text())
    for key in ("videos_dir", "ratings", "tags", "movies", "embeddings"):
        cfg_data[key] = str(mini.parent / cfg_data[key])
    cfg_data["cache_dir"] = str(tmp_path / "cache")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_data))
    return cfg_path


def one_epoch_config(mini, tmp_path):
    """``cli_config`` training one epoch."""
    cfg_path = cli_config(mini, tmp_path)
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "epochs": 1}))
    return cfg_path


def invoke(cfg_path, *args):
    result = CliRunner().invoke(main, ["--config", str(cfg_path), *args])
    assert result.exit_code == 0, result.output
    return result


def served_items(cfg, family, user, n):
    """The top-n list of the cached ``family`` model, computed in process."""
    model = load_model(cfg.cache_dir / "train" / f"model_{family}.bin")
    R = load_ratings_csv(cfg.ratings, item_ids=list(model.item_ids))
    return recommend(model, R, user, n)


class TestStageOrdering:
    def test_extract_requires_segment(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        with pytest.raises(DependencyError) as err:
            run_stage("extract", cfg)
        assert err.value.required_stage == "segment"

    def test_family_requires_upstream(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        with pytest.raises(DependencyError):
            run_stage("train", cfg, family="mpeg7")

    def test_fuse_requires_dnn_features(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        cfg.embeddings = None
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        with pytest.raises(DependencyError, match="'dnn'") as err:
            run_stage("fuse", cfg)
        assert err.value.required_stage == "aggregate"
        assert not (cfg.cache_dir / "fuse").exists()

    @pytest.mark.parametrize("families, stages", [
        (PipelineConfig.families, ["segment", "extract", "aggregate", "fuse", "textfeat"]),
        (("fused",), ["segment", "extract", "aggregate", "fuse"]),
        (("tag-lsa", "dnn"), ["segment", "extract", "aggregate", "textfeat"]),
        (("genre",), ["textfeat"]),
    ], ids=["default", "fused", "tag-lsa-dnn", "genre"])
    def test_stages_for_follows_needs_in_table_order(self, families, stages):
        assert pipeline.stages_for(families) == stages

    def test_video_name_must_be_movie_id(self, mini, tmp_path):
        # (added file, its source, the files the error names)
        for name, source, names in [
            ("abc.y4m", "1.y4m", ["abc.y4m"]),
            ("99999999999999999999.y4m", "1.y4m", ["99999999999999999999.y4m"]),
            ("07.y4m", "7.y4m", ["07.y4m", "7.y4m"]),  # both are movie 7
        ]:
            videos = tmp_path / name / "videos"
            shutil.copytree(mini.parent / "videos", videos)
            shutil.copy(videos / source, videos / name)
            cfg = load_cfg(mini)
            cfg.videos_dir = videos
            cfg.cache_dir = tmp_path / name / "cache"
            with pytest.raises(ConfigError) as err:
                run_stage("segment", cfg)
            assert all(str(videos / named) in str(err.value) for named in names), name
            assert not (cfg.cache_dir / "segment").exists()


class TestDigests:
    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200_001])
    def test_digest_file_is_the_sha256_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "data.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert pipeline._digest_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_file_pinned_value(self, tmp_path):
        path = tmp_path / "abc"
        path.write_bytes(b"abc")
        assert pipeline._digest_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_digest_files_in_input_order(self, tmp_path, jobs):
        rng = np.random.default_rng(5)
        paths = []
        for i, size in enumerate([150_000, 3, 0, 65_536, 70_001]):
            paths.append(tmp_path / f"{i}.bin")
            paths[-1].write_bytes(rng.bytes(size))
        expected = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
        assert pipeline._digest_files(paths, jobs) == expected

    def test_missing_path_raises_the_same_error_at_any_jobs(self, tmp_path):
        present = tmp_path / "present.bin"
        present.write_bytes(b"x" * 100_000)
        paths = [present, tmp_path / "missing-1.bin", present, tmp_path / "missing-2.bin"]
        raised = []
        for jobs in (1, 2):
            with pytest.raises(FileNotFoundError) as err:
                pipeline._digest_files(paths, jobs)
            raised.append((type(err.value), err.value.errno, err.value.filename))
        assert raised[0] == raised[1]
        assert raised[0][2] == str(tmp_path / "missing-1.bin")


class TestCacheSemantics:
    def test_segment_idempotent(self, mini):
        cfg = load_cfg(mini)
        first = run_stage("segment", cfg)
        manifest = (cfg.cache_dir / "segment" / "manifest.json").read_bytes()
        second = run_stage("segment", cfg)
        assert first and second == []
        assert (cfg.cache_dir / "segment" / "manifest.json").read_bytes() == manifest

    def test_param_change_is_stale_until_forced(self, mini):
        cfg = load_cfg(mini)
        run_stage("segment", cfg)
        cfg.threshold = 0.5
        with pytest.raises(StaleCacheError):
            run_stage("segment", cfg)
        outputs = run_stage("segment", cfg, force=True)
        assert outputs
        cfg.threshold = 0.75
        run_stage("segment", cfg, force=True)  # restore for other tests

    def test_interrupted_forced_rebuild_is_not_up_to_date(self, mini, tmp_path, monkeypatch):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        run_stage("segment", cfg)
        calls = []
        write_arrays = pipeline.write_arrays

        def failing_write_arrays(path, *args, **arrays):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            return write_arrays(path, *args, **arrays)

        monkeypatch.setattr(pipeline, "write_arrays", failing_write_arrays)
        with pytest.raises(OSError):
            run_stage("segment", cfg, force=True)
        monkeypatch.undo()
        assert run_stage("segment", cfg)

    def test_forced_rebuild_removes_the_old_outputs(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.videos_dir = tmp_path / "videos"
        cfg.cache_dir = tmp_path / "cache"
        shutil.copytree(mini.parent / "videos", cfg.videos_dir)
        segment = cfg.cache_dir / "segment"

        def files():
            return {str(p.relative_to(segment)) for p in segment.rglob("*") if p.is_file()}

        run_stage("segment", cfg)
        old = files()
        (cfg.videos_dir / "8.y4m").unlink()
        cfg.threshold = 0.0
        run_stage("segment", cfg, force=True)
        listed = json.loads((segment / "manifest.json").read_text())["outputs"]
        assert len(listed) == 8  # one keyframe for each of 7 movies, and the keyframe manifest
        assert files() == set(listed) | {"manifest.json"}
        assert not (segment / "keyframes" / "8").exists()  # emptied, so removed
        # an unreadable manifest lists nothing, so nothing is removed
        (segment / "manifest.json").write_text('{"key": ')
        cfg.threshold = 0.75
        run_stage("segment", cfg, force=True)
        assert files() == set(listed) | old - {p for p in old if p.startswith("keyframes/8/")}

    def test_forced_rebuild_keeps_what_the_old_manifest_does_not_own(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        cfg.epochs = 1
        run_stage("textfeat", cfg)
        for family in ("genre", "tag-lsa"):
            run_stage("train", cfg, family=family)
        train = cfg.cache_dir / "train"
        other = (train / "model_tag-lsa.bin").read_bytes()
        outside = tmp_path / "outside.txt"
        outside.write_text("keep")
        manifest = train / "manifest_genre.json"
        data = json.loads(manifest.read_text())
        data["outputs"].update({"../../outside.txt": "", str(outside): ""})
        manifest.write_text(json.dumps(data))
        assert run_stage("train", cfg, family="genre", force=True)
        assert outside.read_text() == "keep"
        assert (train / "model_tag-lsa.bin").read_bytes() == other
        assert run_stage("train", cfg, family="tag-lsa") == []

    @pytest.mark.parametrize("stage, module, name, value", [
        ("segment", pipeline, "_KEYFRAME_PATH", "keyframes/{movie_id}/{kf}.ppm"),
        ("extract", descriptors, "VERSION", descriptors.VERSION + 1),
        ("train", recsys, "VERSION", recsys.VERSION + 1),
        ("evaluate", recsys, "VERSION", recsys.VERSION + 1),
    ], ids=["segment", "extract", "train", "evaluate"])
    def test_code_revision_makes_the_cache_stale(self, mini, tmp_path, monkeypatch,
                                                 stage, module, name, value):
        # the keyframe layout and the descriptors' and training's revisions
        # are in the key
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        cfg.epochs = 1
        trains = stage in ("train", "evaluate")
        args = {"family": "genre"} if trains else {}
        run_stage("textfeat" if trains else "segment", cfg)
        run_stage(stage, cfg, **args)
        monkeypatch.setattr(module, name, value)
        with pytest.raises(StaleCacheError) as err:
            run_stage(stage, cfg, **args)
        assert err.value.exit_code == 5

    def test_force_rebuilds_over_unreadable_manifest(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        run_stage("textfeat", cfg)
        manifest = cfg.cache_dir / "textfeat" / "manifest.json"
        good = manifest.read_bytes()
        manifest.write_text('{"key": ')
        assert run_stage("textfeat", cfg, force=True)
        assert manifest.read_bytes() == good

    def test_eval_on_validation_ranks_the_validation_entries(self, mini, tmp_path, monkeypatch):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        cfg.epochs = 1
        run_stage("textfeat", cfg)
        run_stage("evaluate", cfg, family="genre")
        cfg.eval_on = "validation"
        with pytest.raises(StaleCacheError):
            run_stage("evaluate", cfg, family="genre")
        ranked = []
        collect = pipeline.collect_observations

        def recording_collect(model, R_train, held_out, **kwargs):
            ranked.append(held_out)
            return collect(model, R_train, held_out, **kwargs)

        monkeypatch.setattr(pipeline, "collect_observations", recording_collect)
        assert run_stage("evaluate", cfg, family="genre", force=True)
        assert run_stage("evaluate", cfg, family="genre") == []
        R, _ = pipeline.load_family_matrix(cfg, "genre")

        def entries(idx):  # R's entries at idx, as positions and ratings
            return [R.entry_users[idx].tolist(), R.entry_items[idx].tolist(),
                    R.entry_ratings[idx].tolist()]

        recorded = [[h["user"].tolist(), h["item"].tolist(), h["rating"].tolist()] for h in ranked]
        splits = make_splits(R, folds=cfg.folds, seed=cfg.seed)
        assert recorded == [entries(split.val_idx) for split in splits]
        assert recorded != [entries(split.test_idx) for split in splits]

    def test_unknown_stage(self, mini):
        with pytest.raises(ConfigError):
            run_stage("transmogrify", load_cfg(mini))


class TestStageOutputs:
    def test_segment_outputs(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache"
        run_stage("segment", cfg)
        segment = cfg.cache_dir / "segment"
        assert sorted(p.name for p in segment.iterdir()) == [
            "keyframe_manifest.csv", "keyframes", "manifest.json"]
        manifest = read_keyframe_manifest(segment / "keyframe_manifest.csv")
        assert sum(movie_id == 1 for movie_id, _ in manifest) >= 2  # movie 1 has 2+ shots
        files = sorted(p.relative_to(segment) for p in segment.glob("keyframes/*/*"))
        assert files == sorted(Path(f"keyframes/{m}/{kf}.bin") for m, kf in manifest)
        frames = parse_y4m((cfg.videos_dir / "1.y4m").read_bytes()).frames
        for kf in (kf for movie_id, kf in manifest if movie_id == 1):
            keyframe = pipeline._read_keyframe(segment / f"keyframes/1/{kf}.bin")
            np.testing.assert_array_equal(keyframe.pixels, frames[kf].pixels)

    def test_extract_and_aggregate(self, mini):
        cfg = load_cfg(mini)
        run_stage("segment", cfg)
        run_stage("extract", cfg)
        records = read_feature_file(
            cfg.cache_dir / "extract" / "features" / "MPEG7_ALL.keyframes.bin"
        )
        assert all(len(r.vector) == 774 for r in records)
        features = cfg.cache_dir / "extract" / "features"
        assert [p.name for p in features.iterdir()] == ["MPEG7_ALL.keyframes.bin"]
        run_stage("aggregate", cfg)
        movie_level = read_feature_file(
            cfg.cache_dir / "aggregate" / "features" / "MPEG7_ALL.movies.bin"
        )
        assert sorted(r.movie_id for r in movie_level) == list(range(1, 9))
        assert all(r.keyframe_index is None for r in movie_level)
        dnn = read_feature_file(
            cfg.cache_dir / "aggregate" / "features" / "DNN.movies.bin"
        )
        assert all(len(r.vector) == 1024 for r in dnn)

    def test_extract_pool_writes_the_same_bytes(self, mini, tmp_path):
        cfg = load_cfg(mini)
        cfg.cache_dir = tmp_path / "cache1"
        run_stage("segment", cfg)
        shutil.copytree(cfg.cache_dir, tmp_path / "cache2")
        features = []
        for jobs, cache in ((1, "cache1"), (2, "cache2")):
            cfg.cache_dir = tmp_path / cache
            run_stage("extract", cfg, jobs=jobs)
            features.append((cfg.cache_dir / "extract" / "features"
                             / "MPEG7_ALL.keyframes.bin").read_bytes())
        assert features[0] == features[1]

    def test_movie_level_reads_the_keyframe_file_without_copying_it(self, tmp_path):
        # 20 movies x 30 keyframes x 774 values, rows in no movie order
        rng = np.random.default_rng(4)
        movie_ids = rng.permutation(np.repeat(np.arange(1, 21), 30))
        path = tmp_path / "MPEG7_ALL.keyframes.bin"
        write_features(path, FeatureTable("MPEG7_ALL", movie_ids, np.zeros(600, dtype=np.int64),
                                          rng.random((600, 774))))
        tracemalloc.start()
        try:
            table = pipeline._movie_level(read_features(path), AggregationKind.AVERAGE, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.movie_id.tolist() == list(range(1, 21))
        assert peak < 1.5 * path.stat().st_size

    def test_fuse_and_textfeat_and_train(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate", "fuse", "textfeat"):
            run_stage(stage, cfg)
        fused = read_feature_file(cfg.cache_dir / "fuse" / "features" / "FUSED.movies.bin")
        assert len({len(r.vector) for r in fused}) == 1
        genre = read_feature_file(cfg.cache_dir / "textfeat" / "features" / "GENRE.movies.bin")
        assert all(len(r.vector) == 19 for r in genre)
        outputs = run_stage("train", cfg, family="genre")
        assert outputs and outputs[0].name == "model_genre.bin"

    def test_recommend_items_serves_trained_model(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        run_stage("train", cfg, family="mpeg7")
        items = recommend_items(cfg, "mpeg7", 1, 3)
        assert items == served_items(cfg, "mpeg7", 1, 3) and len(items) == 3
        assert "recommend" not in pipeline.STAGES
        assert not (cfg.cache_dir / "recommend").exists()

    def test_evaluation_pool_gives_the_serial_report(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        cfg.epochs = 2
        reports = [pipeline.run_evaluation(cfg, "mpeg7", jobs=jobs) for jobs in (1, 2)]
        assert reports[0] == reports[1] and reports[0].to_csv() == reports[1].to_csv()
        assert len(reports[0].skipped) == cfg.folds

    def test_evaluate_report_deterministic(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        run_stage("evaluate", cfg, family="dnn")
        report = cfg.cache_dir / "evaluate" / "report_dnn.csv"
        first = report.read_bytes()
        run_stage("evaluate", cfg, family="dnn", force=True)
        assert report.read_bytes() == first


def write_frame(path, pixels):
    write_arrays(path, "frame", {}, pixels=pixels)
    return path


class TestKeyframeFile:
    """Segment writes each keyframe as a "frame" container; extract reads it
    back with ``_read_keyframe``."""

    def test_single_red_pixel(self, tmp_path):
        path = write_frame(tmp_path / "kf.bin", np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert pipeline._read_keyframe(path).pixels.tolist() == [[[255, 0, 0]]]

    def test_gradient_payload_exact(self, tmp_path):
        # hand-written 12-byte payload for a 2x2 gradient, stored as it is
        payload = bytes([0, 0, 0, 85, 85, 85, 170, 170, 170, 255, 255, 255])
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(2, 2, 3)
        path = write_frame(tmp_path / "kf.bin", pixels)
        assert path.read_bytes().endswith(payload)
        assert pipeline._read_keyframe(path).pixels.tobytes() == payload

    def test_wrong_depth_rejected(self, tmp_path):
        # 16-bit pixels are stored as <i8, and a keyframe's must be |u1
        path = write_frame(tmp_path / "kf.bin", np.zeros((1, 1, 3), dtype=np.uint16))
        with pytest.raises(FormatError, match="not a 'frame' file"):
            pipeline._read_keyframe(path)

    def test_short_payload_rejected(self, tmp_path):
        path = write_frame(tmp_path / "kf.bin", np.zeros((2, 2, 3), dtype=np.uint8))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="file holds"):
            pipeline._read_keyframe(path)

    def test_roundtrip_identity(self, tmp_path, rng):
        for _ in range(5):
            frame = random_frame(rng, width=int(rng.integers(1, 9)),
                                 height=int(rng.integers(1, 9)))
            again = pipeline._read_keyframe(write_frame(tmp_path / "kf.bin", frame.pixels))
            np.testing.assert_array_equal(frame.pixels, again.pixels)

    def test_empty_frame_names_the_file(self, tmp_path):
        path = write_frame(tmp_path / "kf.bin", np.zeros((0, 2, 3), dtype=np.uint8))
        with pytest.raises(FormatError, match="kf.bin: frame must contain"):
            pipeline._read_keyframe(path)

    def test_missing_keyframe_is_a_segment_dependency(self, tmp_path):
        with pytest.raises(DependencyError) as err:
            pipeline._read_keyframe(str(tmp_path / "kf.bin"))
        assert err.value.required_stage == "segment"


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rating_file": "x.csv"}))
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(path)

    def test_relative_paths_resolve_against_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        (tmp_path / "ratings.csv").write_text("userId,movieId,rating,timestamp\n")
        path.write_text(json.dumps({"ratings": "ratings.csv"}))
        cfg = PipelineConfig.from_json(path)
        assert cfg.ratings == tmp_path / "ratings.csv"

    def test_bad_family_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"families": ["mpeg7", "bogus"]}))
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(path)


# config text -> the key whose value has the wrong type
WRONG_TYPE_CONFIGS = {
    json.dumps({"threshold": "abc"}): "threshold",
    json.dumps({"videos_dir": 5}): "videos_dir",
}


class TestCli:
    def test_exit_codes_distinguish_errors(self, mini, tmp_path):
        runner = CliRunner()
        empty_cache = tmp_path / "cachex"
        cfg_data = json.loads(mini.read_text())
        cfg_data["cache_dir"] = str(empty_cache)
        cfg_path = mini.parent / "config_alt.json"
        cfg_path.write_text(json.dumps(cfg_data))
        result = runner.invoke(main, ["--config", str(cfg_path), "extract"])
        assert result.exit_code == DependencyError.exit_code

    def test_segment_then_noop(self, mini, tmp_path):
        runner = CliRunner()
        cfg_data = json.loads(mini.read_text())
        for key in ("videos_dir", "ratings", "tags", "movies", "embeddings"):
            cfg_data[key] = str(mini.parent / cfg_data[key])
        cfg_data["cache_dir"] = str(tmp_path / "cache2")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_data))
        r1 = runner.invoke(main, ["--config", str(cfg_path), "segment"])
        assert r1.exit_code == 0, r1.output
        r2 = runner.invoke(main, ["--config", str(cfg_path), "segment"])
        assert r2.exit_code == 0
        assert "up to date" in r2.output

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"rating_file": "x.csv"}),
        json.dumps({"families": ["bogus"]}),
        "5",
        *WRONG_TYPE_CONFIGS,
    ])
    def test_config_errors_exit_with_config_code(self, tmp_path, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "segment"])
        assert result.exit_code == ConfigError.exit_code
        assert type(result.exception) is SystemExit
        assert "error:" in result.output
        if text in WRONG_TYPE_CONFIGS:
            assert repr(WRONG_TYPE_CONFIGS[text]) in result.output

    def test_malformed_tags_exit_with_format_code(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        tags = tmp_path / "tags.csv"
        tags.write_text("userId,movieId,tag,timestamp\n3,abc,car chase,100\n")
        cfg_data["tags"] = str(tags)
        cfg_path.write_text(json.dumps(cfg_data))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "textfeat"])
        assert result.exit_code == FormatError.exit_code
        assert type(result.exception) is SystemExit
        assert f"error: {tags} line 2" in result.output

    @pytest.mark.parametrize("key, text, setup, command", [
        ("movies", "movieId,title,genres\n100000000000000000000,Big,Comedy\n",
         [], ["textfeat"]),
        ("ratings", "userId,movieId,rating,timestamp\n1,1,4.0,99999999999999999999\n",
         [["textfeat"]], ["train", "--features", "genre"]),
    ], ids=["movie-id", "timestamp"])
    def test_out_of_int64_range_field_exits_with_format_code(
            self, mini, tmp_path, key, text, setup, command):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        bad = tmp_path / f"{key}.csv"
        bad.write_text(text)
        cfg_data[key] = str(bad)
        cfg_path.write_text(json.dumps(cfg_data))
        for args in setup:
            invoke(cfg_path, *args)
        result = CliRunner().invoke(main, ["--config", str(cfg_path), *command])
        assert result.exit_code == FormatError.exit_code
        assert type(result.exception) is SystemExit
        assert f"error: {bad} line 2" in result.output and "int64" in result.output

    def test_repeated_movie_id_exits_with_duplicate_code(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        movies = tmp_path / "movies.csv"
        movies.write_text(Path(cfg_data["movies"]).read_text()
                          + '1,"Crimson Pursuit again",Comedy\n')
        cfg_data.update(movies=str(movies), families=["genre"])
        cfg_path.write_text(json.dumps(cfg_data))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "run-all"])
        assert result.exit_code == DuplicateKeyError.exit_code == 15
        assert type(result.exception) is SystemExit
        assert f"error: {movies}: movieId 1 is listed more than once" in result.output
        textfeat = tmp_path / "cache" / "textfeat"
        assert not textfeat.exists() or not any(textfeat.rglob("*"))

    @pytest.mark.parametrize("name", ["+7.y4m", "1_0.y4m"])
    def test_video_name_int_would_take_exits_with_config_code(self, mini, tmp_path, name):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        videos = tmp_path / "videos"
        videos.mkdir()
        shutil.copy(mini.parent / cfg_data["videos_dir"] / "1.y4m", videos / name)
        cfg_data["videos_dir"] = str(videos)
        cfg_path.write_text(json.dumps(cfg_data))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "segment"])
        assert result.exit_code == ConfigError.exit_code
        assert type(result.exception) is SystemExit
        assert f"not a movie id: {videos / name}" in result.output
        assert not (tmp_path / "cache" / "segment").exists()

    def test_ratings_id_int_would_take_exits_with_format_code(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        bad = tmp_path / "ratings.csv"
        bad.write_text("userId,movieId,rating,timestamp\n1,1_0,4.0,100\n")
        cfg_data["ratings"] = str(bad)
        cfg_path.write_text(json.dumps(cfg_data))
        invoke(cfg_path, "textfeat")
        result = CliRunner().invoke(main, ["--config", str(cfg_path),
                                           "train", "--features", "genre"])
        assert result.exit_code == FormatError.exit_code
        assert type(result.exception) is SystemExit
        assert f"error: {bad} line 2" in result.output and "'1_0'" in result.output
        assert not any((tmp_path / "cache" / "train").iterdir())

    @pytest.mark.parametrize("folds", [0, -1])
    def test_folds_below_one_exit_with_parameter_code(self, mini, tmp_path, folds):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "folds": folds}))
        invoke(cfg_path, "textfeat")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "evaluate",
                                           "--features", "genre"])
        assert result.exit_code == ParameterError.exit_code
        assert type(result.exception) is SystemExit
        assert "error: folds must be >= 1" in result.output
        stage_dir = tmp_path / "cache" / "evaluate"
        assert not (stage_dir / "report_genre.csv").exists()
        assert not (stage_dir / "manifest_genre.json").exists()

    @pytest.mark.parametrize("config_seed, flags, command", [
        (-1, [], ["train", "--features", "genre"]),
        (-1, [], ["evaluate", "--features", "genre"]),
        (7, ["--seed", "-3"], ["train", "--features", "genre"]),
    ], ids=["config-train", "config-evaluate", "flag-train"])
    def test_negative_seed_exits_with_parameter_code(
            self, mini, tmp_path, config_seed, flags, command):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        invoke(cfg_path, "textfeat")  # a negative seed would stop textfeat too
        cfg_path.write_text(json.dumps({**cfg_data, "seed": config_seed}))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), *flags, *command])
        assert result.exit_code == ParameterError.exit_code
        assert type(result.exception) is SystemExit
        assert "error: seed must be nonnegative" in result.output
        assert not list((tmp_path / "cache").glob(f"{command[0]}/manifest_*.json"))

    @pytest.mark.parametrize("flags, command", [
        ([], ["run-all"]),
        (["--seed", "-1"], ["segment"]),
    ], ids=["config-run-all", "flag-segment"])
    def test_negative_seed_stops_before_any_stage(self, mini, tmp_path, flags, command):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        if not flags:
            cfg_path.write_text(json.dumps({**cfg_data, "seed": -1}))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), *flags, *command])
        assert result.exit_code == ParameterError.exit_code
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1
        assert "error: seed must be nonnegative" in result.output
        assert "wrote" not in result.output
        assert not list((tmp_path / "cache").glob("**/manifest*.json"))

    @pytest.mark.parametrize("key", ["agg_mpeg7", "agg_dnn"])
    def test_unknown_aggregation_exits_with_config_code(self, mini, tmp_path, key):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, key: "bogus"}))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "run-all"])
        assert result.exit_code == ConfigError.exit_code
        assert type(result.exception) is SystemExit
        assert f"error: {key} must be one of" in result.output and "'bogus'" in result.output
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("cutoffs", [[], [0], [10, 0]], ids=["empty", "zero", "ten-zero"])
    def test_bad_cutoffs_exit_with_parameter_code(self, mini, tmp_path, cutoffs):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "cutoffs": cutoffs}))
        invoke(cfg_path, "textfeat")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "evaluate",
                                           "--features", "genre"])
        assert result.exit_code == ParameterError.exit_code
        assert type(result.exception) is SystemExit
        assert "error: cutoffs must be" in result.output
        stage_dir = tmp_path / "cache" / "evaluate"
        assert not (stage_dir / "report_genre.csv").exists()
        assert not (stage_dir / "manifest_genre.json").exists()

    @pytest.mark.parametrize("scale, stage", [
        (None, "aggregate"),  # every value 1e308: the DNN average overflows
        (1e200, "fuse"),  # the DNN covariance overflows
        (1e200, "train"),  # the DNN columns' standard deviation overflows
    ], ids=["average", "covariance", "standardize"])
    def test_oversized_embeddings_exit_with_format_code(self, mini, tmp_path, scale, stage):
        cfg_path = cli_config(mini, tmp_path)
        embeddings = tmp_path / "embeddings.bin"
        write_feature_bin(embeddings, [
            FeatureRecord(r.movie_id, r.keyframe_index, FeatureVector(
                "DNN", np.full(1024, 1e308) if scale is None else r.vector.values * scale))
            for r in read_feature_file(mini.parent / "embeddings.bin")
        ])
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "embeddings": str(embeddings)}))
        for before in ("segment", "extract", "aggregate"):
            if before == stage:
                break
            invoke(cfg_path, before)
        family = ["--features", "dnn"] if stage == "train" else []
        result = CliRunner().invoke(main, ["--config", str(cfg_path), stage, *family])
        assert result.exit_code == FormatError.exit_code
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1
        source = embeddings
        if stage == "train":  # training reads the movie-level DNN feature file
            source = tmp_path / "cache" / "aggregate" / "features" / "DNN.movies.bin"
        assert f"error: {source}: " in result.output and "overflows float64" in result.output
        if stage == "aggregate":
            assert "movie 1: " in result.output
        manifest = "manifest_dnn.json" if stage == "train" else "manifest.json"
        assert not (tmp_path / "cache" / stage / manifest).exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_truncated_keyframe_exits_naming_the_file(self, mini, tmp_path, jobs):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "segment")
        keyframe = sorted((tmp_path / "cache" / "segment" / "keyframes" / "3").glob("*.bin"))[0]
        data = keyframe.read_bytes()
        keyframe.write_bytes(data[:-100])  # the pixels end the file
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", jobs, "extract"])
        assert result.exit_code == FormatError.exit_code == 6
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert (f"error: {keyframe}: file holds {len(data) - 100} bytes, header implies "
                f"{len(data)}") in result.output
        assert not (tmp_path / "cache" / "extract" / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_truncated_video_exits_naming_the_file(self, mini, tmp_path, jobs):
        cfg_path = cli_config(mini, tmp_path)
        videos = shutil.copytree(mini.parent / "videos", tmp_path / "videos")
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "videos_dir": str(videos)}))
        invoke(cfg_path, "segment")
        video = videos / "2.y4m"
        video.write_bytes(video.read_bytes()[:-10])
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", jobs,
                                           "--force", "segment"])
        assert result.exit_code == TruncationError.exit_code
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert f"error: {video}: frame " in result.output and "payload truncated" in result.output
        assert not (tmp_path / "cache" / "segment" / "manifest.json").exists()

    _HUGE = b"YUV4MPEG2 W99999999998 H99999999998 C420jpeg\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("content, error, message", [
        (b"", FormatError, "missing YUV4MPEG2 signature (at byte offset 0)"),
        # W x H overruns the file: the frame is truncated, not a bare ValueError
        (_HUGE + b"FRAME\n" + bytes(100), TruncationError,
         f"frame 0 payload truncated (need {99999999998 ** 2 * 3 // 2} bytes, got 100) "
         f"(at byte offset {len(_HUGE) + 6})"),
    ], ids=["empty", "frame-past-the-end"])
    def test_malformed_video_exits_with_its_format_code(self, mini, tmp_path, jobs, content,
                                                        error, message):
        cfg_path = cli_config(mini, tmp_path)
        videos = shutil.copytree(mini.parent / "videos", tmp_path / "videos")
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "videos_dir": str(videos)}))
        video = videos / "2.y4m"
        video.write_bytes(content)
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", jobs, "segment"])
        assert result.exit_code == error.exit_code
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert f"error: {video}: {message}" in result.output
        assert not (tmp_path / "cache" / "segment" / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_video_entry_that_is_no_file_exits_with_config_code(self, mini, tmp_path, jobs):
        cfg_path = cli_config(mini, tmp_path)
        videos = shutil.copytree(mini.parent / "videos", tmp_path / "videos")
        (videos / "99.y4m").mkdir()
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "videos_dir": str(videos)}))
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", jobs, "segment"])
        assert result.exit_code == ConfigError.exit_code == 2
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert f"error: video entry is not a regular file: {videos / '99.y4m'}" in result.output
        assert not (tmp_path / "cache" / "segment").exists()

    def test_cache_built_under_one_job_is_up_to_date_under_two(self, mini, tmp_path):
        cfg_path = one_epoch_config(mini, tmp_path)
        invoke(cfg_path, "--jobs", "1", "run-all")
        lines = invoke(cfg_path, "--jobs", "2", "run-all").output.splitlines()
        assert lines and all(line.endswith(": up to date") for line in lines), lines

    def test_header_only_keyframe_manifest_exits_naming_it(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "segment")
        kf_manifest = tmp_path / "cache" / "segment" / "keyframe_manifest.csv"
        kf_manifest.write_text(kf_manifest.read_text().splitlines()[0] + "\n")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--force", "extract"])
        assert result.exit_code == EmptyInputError.exit_code == 9
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1
        assert f"error: {kf_manifest} lists no keyframes" in result.output
        assert not (tmp_path / "cache" / "extract" / "manifest.json").exists()

    def test_diverging_fold_under_jobs_exits_with_divergence_code(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**cfg_data, "learning_rate": 1e6, "alpha": 1}))
        invoke(cfg_path, "textfeat")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", "2", "evaluate",
                                           "--features", "genre"])
        assert result.exit_code == DivergenceError.exit_code == 19
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert "error: similarity matrix diverged at epoch" in result.output
        stage_dir = tmp_path / "cache" / "evaluate"
        assert not (stage_dir / "report_genre.csv").exists()
        assert not (stage_dir / "manifest_genre.json").exists()

    @pytest.mark.parametrize("text", ['{"key": ', "[]"], ids=["truncated", "not-an-object"])
    def test_unreadable_manifest_exits_with_stale_code(self, mini, tmp_path, text):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        manifest = tmp_path / "cache" / "textfeat" / "manifest.json"
        manifest.write_text(text)
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "textfeat"])
        assert result.exit_code == StaleCacheError.exit_code == 5
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1
        assert "unreadable manifest.json" in result.output and "--force" in result.output
        assert manifest.read_text() == text

    def test_aggregate_override(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                        "agg_mpeg7": "average"}))
        invoke(cfg_path, "segment")
        invoke(cfg_path, "extract")
        invoke(cfg_path, "aggregate")
        manifest = json.loads((tmp_path / "cache" / "aggregate" / "manifest.json").read_text())
        assert manifest["params"]["agg_mpeg7"] == "average"
        assert sorted(manifest["inputs"]) == ["embeddings", "extract", "segment"]

    def test_train_hyper_flags(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()),
                                        "epochs": 1, "alpha": 0.6}))
        invoke(cfg_path, "textfeat")
        invoke(cfg_path, "train", "--features", "genre")
        manifest = json.loads(
            (tmp_path / "cache" / "train" / "manifest_genre.json").read_text()
        )
        assert manifest["params"]["epochs"] == 1
        assert manifest["params"]["alpha"] == 0.6
        assert (tmp_path / "cache" / "train" / "model_genre.bin").exists()

    @pytest.mark.parametrize("args, needs", [
        (["train", "--features", "genre", "--epochs", "1"], ["textfeat"]),
        (["train", "--features", "genre", "--alpha", "0.6"], ["textfeat"]),
        (["train", "--features", "genre", "--gamma", "0"], ["textfeat"]),
        (["train", "--features", "genre", "--lr", "0.1"], ["textfeat"]),
        (["evaluate", "--features", "genre", "--epochs", "1"], ["textfeat"]),
        (["aggregate", "--agg-mpeg7", "average"], ["segment", "extract"]),
        (["aggregate", "--agg-dnn", "median"], ["segment", "extract"]),
    ], ids=["train-epochs", "train-alpha", "train-gamma", "train-lr", "evaluate-epochs",
            "aggregate-agg-mpeg7", "aggregate-agg-dnn"])
    def test_stage_parameters_come_only_from_the_config(self, mini, tmp_path, args, needs):
        cfg_path = cli_config(mini, tmp_path)
        for stage in needs:
            invoke(cfg_path, stage)
        result = CliRunner().invoke(main, ["--config", str(cfg_path), *args])
        assert result.exit_code == 2
        assert "No such option" in result.output and args[-2] in result.output
        assert not list((tmp_path / "cache" / args[0]).glob("manifest*.json"))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_with_usage_code(self, mini, tmp_path, jobs):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), "--jobs", jobs,
                                           "evaluate", "--features", "genre"])
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output
        assert not (tmp_path / "cache" / "evaluate").exists()

    @pytest.mark.parametrize("families, dropped, stages", [
        (["genre", "tag-lsa"], ["videos_dir", "embeddings"], ["textfeat"]),
        (["mpeg7", "genre"], ["embeddings"], ["segment", "extract", "aggregate", "textfeat"]),
    ], ids=["genre-tag-lsa", "mpeg7-genre"])
    def test_run_all_builds_what_the_families_need(self, mini, tmp_path, families, dropped,
                                                   stages):
        cfg_path = cli_config(mini, tmp_path)
        cfg_data = json.loads(cfg_path.read_text())
        for key in dropped:
            del cfg_data[key]
        cfg_path.write_text(json.dumps({**cfg_data, "families": families, "epochs": 1}))
        result = invoke(cfg_path, "run-all")
        ran = [line.split(":")[0] for line in result.output.splitlines() if ": wrote " in line]
        assert ran == stages + [f"evaluate {family}" for family in families]
        built = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert built == sorted(stages + ["evaluate"])

    def test_record_api_rewrites_every_feature_file_byte_for_byte(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "epochs": 1}))
        invoke(cfg_path, "run-all")
        cache = tmp_path / "cache"
        written = sorted(p.relative_to(cache).as_posix() for p in cache.glob("*/features/*.bin"))
        assert written == [
            "aggregate/features/DNN.movies.bin", "aggregate/features/MPEG7_ALL.movies.bin",
            "extract/features/MPEG7_ALL.keyframes.bin", "fuse/features/FUSED.movies.bin",
            "textfeat/features/GENRE.movies.bin", "textfeat/features/TAG_LSA.movies.bin"]
        for name in written:
            copy = tmp_path / "copy.bin"
            write_feature_bin(copy, read_feature_file(cache / name))
            assert copy.read_bytes() == (cache / name).read_bytes(), name

    def test_evaluate_every_configured_family(self, mini, tmp_path):
        cfg_path = one_epoch_config(mini, tmp_path)
        for stage in ("segment", "extract", "aggregate", "fuse", "textfeat"):
            invoke(cfg_path, stage)
        invoke(cfg_path, "evaluate")
        reports = sorted(p.name for p in (tmp_path / "cache" / "evaluate").glob("report_*.csv"))
        families = load_cfg(mini).families
        assert reports == sorted(f"report_{family}.csv" for family in families)

    def test_mini_dataset_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "gen"
        result = runner.invoke(main, ["make-mini-dataset", "--out", str(out), "--seed", "3"])
        assert result.exit_code == 0
        assert (out / "config.json").exists()
        assert len(list((out / "videos").glob("*.y4m"))) == 8

    def test_mini_dataset_rejects_negative_seed(self, tmp_path):
        out = tmp_path / "gen"
        result = CliRunner().invoke(main, ["make-mini-dataset", "--out", str(out),
                                           "--seed", "-1"])
        assert result.exit_code == 2
        assert type(result.exception) is SystemExit
        assert "--seed" in result.output
        assert not out.exists()


class TestRecommendCli:
    """recommend is a query on the trained model, outside the stage cache."""

    ARGS = ("recommend", "--features", "genre", "--user", "3")

    @pytest.fixture
    def trained(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        invoke(cfg_path, "train", "--features", "genre")
        return cfg_path

    @staticmethod
    def expected(cfg_path, n, user=3):
        items = served_items(load_cfg(cfg_path), "genre", user, n)
        return "".join(f"{line}\n" for line in
                       ["rank,movie_id", *(f"{r},{m}" for r, m in enumerate(items, 1))])

    def test_repeated_call_prints_the_same_list(self, trained):
        first = invoke(trained, *self.ARGS, "-n", "3").output
        assert first == self.expected(trained, 3)
        assert invoke(trained, *self.ARGS, "-n", "3").output == first
        assert not (trained.parent / "cache" / "recommend").exists()

    def test_retrained_model_is_served_without_force(self, trained):
        invoke(trained, *self.ARGS, "-n", "3")
        # recommend checks the model against the config, so the new alpha goes there
        trained.write_text(json.dumps({**json.loads(trained.read_text()), "alpha": 0.7}))
        invoke(trained, "--force", "train", "--features", "genre")
        model = load_model(trained.parent / "cache" / "train" / "model_genre.bin")
        assert model.config.alpha == 0.7
        assert invoke(trained, *self.ARGS, "-n", "3").output == self.expected(trained, 3)

    def test_model_trained_under_other_parameters_exits_stale(self, trained):
        trained.write_text(json.dumps({**json.loads(trained.read_text()), "alpha": 0.1}))
        result = CliRunner().invoke(main, ["--config", str(trained), *self.ARGS])
        assert result.exit_code == StaleCacheError.exit_code == 5
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "rank,movie_id" not in result.output
        assert ("error: stage 'train' has cached artifacts built from different inputs or "
                "parameters; re-run with --force to rebuild") in result.output

    def test_longer_list_after_shorter(self, trained):
        # user 2 rated 4 of the corpus's 8 movies, so -n 5 lists all 4 others
        args = ("recommend", "--features", "genre", "--user", "2")
        invoke(trained, *args, "-n", "3")
        output = invoke(trained, *args, "-n", "5").output
        assert output == self.expected(trained, 5, user=2) and len(output.splitlines()) == 5
        assert not (trained.parent / "cache" / "recommend").exists()

    @pytest.mark.parametrize("train, args, error", [
        (False, [], DependencyError),
        (True, ["--user", "999"], MissingUserError),
        (True, ["-n", "0"], ParameterError),
    ], ids=["no-train", "unknown-user", "zero-n"])
    def test_errors_exit_with_their_codes(self, mini, tmp_path, train, args, error):
        cfg_path = one_epoch_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        if train:
            invoke(cfg_path, "train", "--features", "genre")
        result = CliRunner().invoke(main, ["--config", str(cfg_path), *self.ARGS, *args])
        assert result.exit_code == error.exit_code
        assert type(result.exception) is SystemExit
        assert result.output.count("error:") == 1 and "rank,movie_id" not in result.output
        assert not (tmp_path / "cache" / "recommend").exists()


# Runs the CLI on its arguments, if any, in a fresh interpreter, then prints
# the scipy modules that interpreter has loaded.
_LIST_SCIPY = """
import sys
from visrec.cli import main
if sys.argv[1:]:
    main(sys.argv[1:], standalone_mode=False)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


# Imports the CLI in a fresh interpreter, then prints the size of each table
# cache that is filled on first use.
_COUNT_TABLES = """
import visrec.cli
from visrec import descriptors, media, shots
print([f.cache_info().currsize
       for f in (media._decode_tables, descriptors._gabor_factors, shots._sv_table)])
"""


def fresh_cli_lines(*cli_args, script=_LIST_SCIPY) -> list[str]:
    src = str(Path(visrec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *cli_args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestColdPath:
    """Serving loads numpy and click but no scipy module, and builds no
    decode, Gabor or HSV table."""

    def test_import_cli_loads_no_scipy(self):
        assert fresh_cli_lines()[-1] == "[]"

    def test_import_cli_builds_no_table(self):
        assert fresh_cli_lines(script=_COUNT_TABLES) == ["[0, 0, 0]"]

    def test_recommend_run_loads_no_scipy(self, mini, tmp_path):
        cfg_path = one_epoch_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        invoke(cfg_path, "train", "--features", "genre")
        lines = fresh_cli_lines("--config", str(cfg_path), "recommend",
                                "--features", "genre", "--user", "1", "-n", "3")
        assert lines[0] == "rank,movie_id" and len(lines) == 5
        assert lines[-1] == "[]"

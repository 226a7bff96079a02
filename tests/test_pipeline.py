import json
import shutil

import pytest
from click.testing import CliRunner

from visrec import pipeline
from visrec.cli import main
from visrec.errors import ConfigError, DependencyError, FormatError, StaleCacheError
from visrec.featureio import read_feature_file
from visrec.minidata import generate
from visrec.pipeline import PipelineConfig, run_stage
from visrec.shots import shots_from_csv


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


def invoke(cfg_path, *args):
    result = CliRunner().invoke(main, ["--config", str(cfg_path), *args])
    assert result.exit_code == 0, result.output
    return result


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

    def test_video_name_must_be_movie_id(self, mini, tmp_path):
        videos = tmp_path / "videos"
        shutil.copytree(mini.parent / "videos", videos)
        shutil.copy(videos / "1.y4m", videos / "abc.y4m")
        cfg = load_cfg(mini)
        cfg.videos_dir = videos
        cfg.cache_dir = tmp_path / "cache"
        with pytest.raises(ConfigError, match="abc.y4m"):
            run_stage("segment", cfg)
        assert not (cfg.cache_dir / "segment").exists()


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
        write_ppm = pipeline.write_ppm

        def failing_write_ppm(frame):
            calls.append(frame)
            if len(calls) == 3:
                raise OSError("disk full")
            return write_ppm(frame)

        monkeypatch.setattr(pipeline, "write_ppm", failing_write_ppm)
        with pytest.raises(OSError):
            run_stage("segment", cfg, force=True)
        monkeypatch.undo()
        assert run_stage("segment", cfg)

    def test_unknown_stage(self, mini):
        with pytest.raises(ConfigError):
            run_stage("transmogrify", load_cfg(mini))


class TestStageOutputs:
    def test_segment_outputs(self, mini):
        cfg = load_cfg(mini)
        run_stage("segment", cfg)
        shots_csv = cfg.cache_dir / "segment" / "shots" / "1.csv"
        shots = shots_from_csv(shots_csv.read_text())
        assert shots.n_shots >= 2
        manifest = cfg.cache_dir / "segment" / "keyframe_manifest.csv"
        assert manifest.exists()

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

    def test_recommend_writes_csv(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        run_stage("train", cfg, family="mpeg7")
        outputs = run_stage("recommend", cfg, family="mpeg7", user=1, top_n=3)
        text = outputs[0].read_text().splitlines()
        assert text[0] == "rank,movie_id"
        assert len(text) == 4

    def test_evaluate_report_deterministic(self, mini):
        cfg = load_cfg(mini)
        for stage in ("segment", "extract", "aggregate"):
            run_stage(stage, cfg)
        run_stage("evaluate", cfg, family="dnn")
        report = cfg.cache_dir / "evaluate" / "report_dnn.csv"
        first = report.read_bytes()
        run_stage("evaluate", cfg, family="dnn", force=True)
        assert report.read_bytes() == first


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

    def test_aggregate_override(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "segment")
        invoke(cfg_path, "extract")
        invoke(cfg_path, "aggregate", "--agg-mpeg7", "average")
        manifest = json.loads((tmp_path / "cache" / "aggregate" / "manifest.json").read_text())
        assert manifest["params"]["agg_mpeg7"] == "average"

    def test_train_hyper_flags(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        invoke(cfg_path, "textfeat")
        invoke(cfg_path, "train", "--features", "genre", "--epochs", "1", "--alpha", "0.6")
        manifest = json.loads(
            (tmp_path / "cache" / "train" / "manifest_genre.json").read_text()
        )
        assert manifest["params"]["epochs"] == 1
        assert manifest["params"]["alpha"] == 0.6
        assert (tmp_path / "cache" / "train" / "model_genre.bin").exists()

    def test_evaluate_every_configured_family(self, mini, tmp_path):
        cfg_path = cli_config(mini, tmp_path)
        for stage in ("segment", "extract", "aggregate", "fuse", "textfeat"):
            invoke(cfg_path, stage)
        invoke(cfg_path, "evaluate", "--epochs", "1")
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

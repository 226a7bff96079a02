"""Batch pipeline stages over a persistent, digest-keyed feature cache.

``STAGES`` maps each stage name to a ``Stage`` of two plain functions:
``key(cfg, args)`` checks the stage's preconditions and returns the inputs,
parameters and variant its cache key hashes, and ``build(cfg, args,
stage_dir)`` writes the artifacts and returns their paths. ``run_stage`` is
the one runner: it builds the cache key, returns early when the stage's
``manifest_*.json`` matches, drops that manifest, calls ``build`` and then
writes a fresh manifest recording input digests, parameters, seed and output
digests. A mismatch is an error unless forced, so cached features are never
silently rebuilt or silently reused across input changes, and a build that
stops midway leaves no manifest to report it up to date.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import UnionType
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import descriptors
from .aggregate import AggregationKind, aggregate
from .embeddings import load_embeddings
from .errors import (
    AlignmentError,
    ConfigError,
    DependencyError,
    ParameterError,
    StaleCacheError,
)
from .evaluation import EvalReport, collect_observations, compute_metrics, make_splits
from .featureio import (
    CONTAINER_MAGIC,
    FeatureRecord,
    FeatureVector,
    read_feature_file,
    read_keyframe_manifest,
    write_feature_bin,
    write_keyframe_manifest,
)
from .fusion import fit_cca, fuse_matrix, save_cca
from .media import parse_ppm, parse_y4m, write_ppm
from .recsys import (
    FeatureMatrix,
    TrainConfig,
    load_model,
    load_ratings_csv,
    recommend,
    save_model,
    train_collective_slim,
)
from .shots import detect_shots, shots_to_csv
from .textfeat import build_genre_matrix, fit_tag_lsa, load_movies_csv, load_tags_csv

FAMILIES = {
    "mpeg7": "MPEG7_ALL",
    "dnn": "DNN",
    "fused": "FUSED",
    "genre": "GENRE",
    "tag-lsa": "TAG_LSA",
}

# the stage that writes each family's movie-level feature file
_FAMILY_STAGE = {
    "mpeg7": "aggregate",
    "dnn": "aggregate",
    "fused": "fuse",
    "genre": "textfeat",
    "tag-lsa": "textfeat",
}


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a config field's type: paths are strings, an
    int is a valid float, and a bool is no number."""
    if get_origin(hint) is UnionType:
        return any(_json_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is tuple:
        return type(value) is list and all(_json_fits(v, get_args(hint)[0]) for v in value)
    return type(value) in {Path: (str,), float: (int, float)}.get(hint, (hint,))


@dataclass
class PipelineConfig:
    videos_dir: Path | None = None
    ratings: Path | None = None
    tags: Path | None = None
    movies: Path | None = None
    embeddings: Path | None = None
    cache_dir: Path = Path("cache")
    seed: int = 0
    threshold: float = 0.75
    agg_mpeg7: str = "intersection"
    agg_dnn: str = "average"
    cca_k: int | None = None
    cca_ridge: float | None = None
    lsa_rank: int = 100
    alpha: float = TrainConfig.alpha
    gamma: float = TrainConfig.gamma
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    relevance_threshold: float = TrainConfig.relevance_threshold
    folds: int = 5
    cutoffs: tuple[int, ...] = (1, 10, 20)
    families: tuple[str, ...] = ("mpeg7", "dnn", "fused", "genre", "tag-lsa")
    eval_on: str = "test"

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        hints = get_type_hints(cls)
        for name, value in raw.items():
            if not _json_fits(value, hints[name]):
                raise ConfigError(f"{path}: config key {name!r} has the wrong type: {value!r}")
        cfg = cls(**raw)
        # relative paths resolve against the config file location
        base = path.parent
        for name in ("videos_dir", "ratings", "tags", "movies", "embeddings", "cache_dir"):
            value = getattr(cfg, name)
            if value is not None:
                cfg_path = Path(value)
                setattr(cfg, name, cfg_path if cfg_path.is_absolute() else base / cfg_path)
        cfg.families = tuple(cfg.families)
        cfg.cutoffs = tuple(cfg.cutoffs)
        for fam in cfg.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown feature family {fam!r}")
        if cfg.eval_on not in ("test", "validation"):
            raise ConfigError(f"eval_on must be 'test' or 'validation', got {cfg.eval_on!r}")
        return cfg

    def require(self, *names: str):
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"config field {name!r} is required for this stage")
            if name != "cache_dir" and not Path(value).exists():
                raise ConfigError(f"{name} path does not exist: {value}")


# ---------------------------------------------------------------------------
# Cache plumbing
# ---------------------------------------------------------------------------

def _digest_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cache_key(inputs: dict, params: dict, seed: int) -> str:
    # the binary format is part of every key, so a cache written in another
    # format is stale rather than silently reused
    canon = json.dumps(
        {"format": CONTAINER_MAGIC.hex(), "inputs": inputs, "params": params, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest_path(stage_dir: Path, variant: str | None = None) -> Path:
    name = "manifest.json" if variant is None else f"manifest_{variant}.json"
    return stage_dir / name


class _StageCache:
    """Decides between no-op, fresh run, and stale-cache error."""

    def __init__(self, cache_dir: Path, stage: str, inputs: dict, params: dict,
                 seed: int, force: bool, variant: str | None = None):
        self.stage_dir = cache_dir / stage
        self.stage = stage
        self.inputs = inputs
        self.params = params
        self.seed = seed
        self.key = _cache_key(inputs, params, seed)
        self.manifest_file = _manifest_path(self.stage_dir, variant)
        self.force = force

    def up_to_date(self) -> bool:
        if not self.manifest_file.exists():
            return False
        manifest = json.loads(self.manifest_file.read_text())
        if manifest.get("key") == self.key:
            return not self.force
        if self.force:
            return False
        raise StaleCacheError(
            f"stage {self.stage!r} has cached artifacts built from different "
            f"inputs or parameters; re-run with --force to rebuild"
        )

    def commit(self, outputs: list[Path]):
        manifest = {
            "stage": self.stage,
            "key": self.key,
            "inputs": self.inputs,
            "params": self.params,
            "seed": self.seed,
            "outputs": {
                str(p.relative_to(self.stage_dir)): _digest_file(p) for p in outputs
            },
        }
        self.manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _require_stage(cfg: PipelineConfig, stage: str, variant: str | None = None) -> Path:
    stage_dir = cfg.cache_dir / stage
    if not _manifest_path(stage_dir, variant).exists():
        raise DependencyError(
            f"stage {stage!r} must run first", required_stage=stage
        )
    return stage_dir


def _manifest_digest(cfg: PipelineConfig, stage: str) -> str:
    return _digest_file(_manifest_path(_require_stage(cfg, stage)))


def _config_inputs(cfg: PipelineConfig, *names: str) -> dict[str, str]:
    """Digests of the named config input files, which must be set and exist."""
    cfg.require(*names)
    return {name: _digest_file(Path(getattr(cfg, name))) for name in names}


# ---------------------------------------------------------------------------
# Stages: key(cfg, args) checks preconditions and returns what the cache key
# hashes; build(cfg, args, stage_dir) writes the artifacts.
# ---------------------------------------------------------------------------

class StageArgs(NamedTuple):
    family: str
    user: int | None
    top_n: int
    jobs: int


class Stage(NamedTuple):
    key: Callable[[PipelineConfig, StageArgs], tuple[dict, dict, str | None]]
    build: Callable[[PipelineConfig, StageArgs, Path], list[Path]]


def _videos(cfg: PipelineConfig) -> list[tuple[int, Path]]:
    videos = sorted(Path(cfg.videos_dir).glob("*.y4m"))
    if not videos:
        raise ConfigError(f"no .y4m files under {cfg.videos_dir}")
    out = []
    for video in videos:
        try:
            out.append((int(video.stem), video))
        except ValueError:
            raise ConfigError(f"video file name is not a movie id: {video}") from None
    return out


def _segment_key(cfg: PipelineConfig, args: StageArgs):
    cfg.require("videos_dir")
    videos = {video.name: _digest_file(video) for _, video in _videos(cfg)}
    return {"videos": videos}, {"threshold": cfg.threshold}, None


def _segment_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    shots_dir = stage_dir / "shots"
    kf_dir = stage_dir / "keyframes"
    shots_dir.mkdir(exist_ok=True)
    kf_dir.mkdir(exist_ok=True)
    outputs = []
    manifest_entries = []
    for movie_id, video in _videos(cfg):
        stream = parse_y4m(video.read_bytes())
        shots = detect_shots(stream, threshold=cfg.threshold)
        shots_csv = shots_dir / f"{movie_id}.csv"
        shots_csv.write_text(shots_to_csv(shots))
        outputs.append(shots_csv)
        movie_kf_dir = kf_dir / str(movie_id)
        movie_kf_dir.mkdir(exist_ok=True)
        for kf in shots.keyframes:
            ppm = movie_kf_dir / f"{kf}.ppm"
            ppm.write_bytes(write_ppm(stream.frames[kf]))
            outputs.append(ppm)
            manifest_entries.append((movie_id, kf))
    kf_manifest = stage_dir / "keyframe_manifest.csv"
    write_keyframe_manifest(kf_manifest, manifest_entries)
    outputs.append(kf_manifest)
    return outputs


def _extract_movie(args: tuple[int, list[tuple[int, str]]]) -> tuple[int, list]:
    """Worker: the 774-element MPEG-7 vector of every keyframe of one movie."""
    movie_id, keyframes = args
    return movie_id, [
        (kf, descriptors.mpeg7_all(parse_ppm(Path(ppm_path).read_bytes())))
        for kf, ppm_path in keyframes
    ]


def _extract_key(cfg: PipelineConfig, args: StageArgs):
    return {"segment": _manifest_digest(cfg, "segment")}, {}, None


def _extract_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    segment_dir = cfg.cache_dir / "segment"
    by_movie: dict[int, list[tuple[int, str]]] = {}
    for movie_id, kf in read_keyframe_manifest(segment_dir / "keyframe_manifest.csv"):
        ppm = segment_dir / "keyframes" / str(movie_id) / f"{kf}.ppm"
        by_movie.setdefault(movie_id, []).append((kf, str(ppm)))
    work = sorted(by_movie.items())
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_extract_movie, work))
    else:
        results = [_extract_movie(item) for item in work]
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    path = feat_dir / "MPEG7_ALL.keyframes.bin"
    write_feature_bin(path, [
        FeatureRecord(movie_id, kf, vector)
        for movie_id, vectors in results
        for kf, vector in vectors
    ])
    return [path]


def _movie_level(records: list[FeatureRecord], kind: AggregationKind) -> list[FeatureRecord]:
    by_movie: dict[int, list[FeatureVector]] = {}
    for rec in records:
        by_movie.setdefault(rec.movie_id, []).append(rec.vector)
    return [
        FeatureRecord(movie_id, None, aggregate(vectors, kind))
        for movie_id, vectors in sorted(by_movie.items())
    ]


def _aggregate_key(cfg: PipelineConfig, args: StageArgs):
    _require_stage(cfg, "segment")
    inputs = {"extract": _manifest_digest(cfg, "extract")}
    if cfg.embeddings is not None:
        inputs.update(_config_inputs(cfg, "embeddings"))
    return inputs, {"agg_mpeg7": cfg.agg_mpeg7, "agg_dnn": cfg.agg_dnn}, None


def _aggregate_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    outputs = []

    mpeg7_records = read_feature_file(
        cfg.cache_dir / "extract" / "features" / "MPEG7_ALL.keyframes.bin"
    )
    agg_kind = AggregationKind(cfg.agg_mpeg7)
    path = feat_dir / "MPEG7_ALL.movies.bin"
    write_feature_bin(path, _movie_level(mpeg7_records, agg_kind))
    outputs.append(path)

    if cfg.embeddings is not None:
        manifest = read_keyframe_manifest(cfg.cache_dir / "segment" / "keyframe_manifest.csv")
        table = load_embeddings(cfg.embeddings, expected=manifest)
        dnn_records = [
            FeatureRecord(movie_id, kf, FeatureVector("DNN", table[(movie_id, kf)]))
            for movie_id, kf in manifest
        ]
        path = feat_dir / "DNN.movies.bin"
        write_feature_bin(path, _movie_level(dnn_records, AggregationKind(cfg.agg_dnn)))
        outputs.append(path)
    return outputs


def _records_to_matrix(records: list[FeatureRecord]) -> tuple[list[int], np.ndarray]:
    ids = [r.movie_id for r in records]
    return ids, np.vstack([r.vector.values for r in records])


def _fuse_key(cfg: PipelineConfig, args: StageArgs):
    inputs = _config_inputs(cfg, "ratings")
    inputs["aggregate"] = _manifest_digest(cfg, "aggregate")
    if not (cfg.cache_dir / "aggregate" / "features" / "DNN.movies.bin").exists():
        raise DependencyError(
            "fuse needs movie-level DNN features; run 'aggregate' with an "
            "embeddings file configured",
            required_stage="aggregate",
        )
    return inputs, {"cca_k": cfg.cca_k, "cca_ridge": cfg.cca_ridge}, None


def _fuse_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    features = cfg.cache_dir / "aggregate" / "features"
    m_ids, m_values = _records_to_matrix(read_feature_file(features / "MPEG7_ALL.movies.bin"))
    d_ids, d_values = _records_to_matrix(read_feature_file(features / "DNN.movies.bin"))
    if m_ids != d_ids:
        raise AlignmentError("MPEG-7 and DNN movie-level files cover different movies")

    # fit on movies that actually carry training ratings; everything else
    # (cold items) is projected with the frozen model
    rated_ids = set(load_ratings_csv(cfg.ratings).item_ids)
    fit_rows = [i for i, movie_id in enumerate(m_ids) if movie_id in rated_ids]
    if len(fit_rows) < 2:
        raise ParameterError("CCA needs at least 2 movies with ratings")
    model = fit_cca(
        m_values[fit_rows], d_values[fit_rows], k=cfg.cca_k, ridge=cfg.cca_ridge
    )
    fused = fuse_matrix(model, m_values, d_values)

    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    model_path = stage_dir / "cca_model.bin"
    save_cca(model_path, model)
    records = [
        FeatureRecord(movie_id, None, FeatureVector("FUSED", row))
        for movie_id, row in zip(m_ids, fused)
    ]
    fused_path = feat_dir / "FUSED.movies.bin"
    write_feature_bin(fused_path, records)
    return [model_path, fused_path]


def _textfeat_key(cfg: PipelineConfig, args: StageArgs):
    return _config_inputs(cfg, "movies", "tags"), {"lsa_rank": cfg.lsa_rank}, None


def _textfeat_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    catalog = load_movies_csv(cfg.movies)
    genre_matrix, genre_ids = build_genre_matrix([(m, g) for m, _, g in catalog])
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    genre_path = feat_dir / "GENRE.movies.bin"
    write_feature_bin(
        genre_path,
        [
            FeatureRecord(movie_id, None, FeatureVector("GENRE", row))
            for movie_id, row in zip(genre_ids, genre_matrix)
        ],
    )

    lsa = fit_tag_lsa(load_tags_csv(cfg.tags), k=cfg.lsa_rank)
    factor_of = {m: lsa.item_factors[i] for i, m in enumerate(lsa.item_ids)}
    zero = np.zeros(lsa.k)
    lsa_path = feat_dir / "TAG_LSA.movies.bin"
    write_feature_bin(
        lsa_path,
        [
            FeatureRecord(movie_id, None, FeatureVector("TAG_LSA", factor_of.get(movie_id, zero)))
            for movie_id, _, _ in catalog
        ],
    )
    return [genre_path, lsa_path]


def _family_feature_path(cfg: PipelineConfig, family: str) -> Path:
    stage_dir = _require_stage(cfg, _FAMILY_STAGE[family])
    path = stage_dir / "features" / f"{FAMILIES[family]}.movies.bin"
    if not path.exists():
        raise DependencyError(
            f"feature file for family {family!r} missing: {path}",
            required_stage=stage_dir.name,
        )
    return path


def load_family_matrix(cfg: PipelineConfig, family: str):
    """(InteractionMatrix, FeatureMatrix) aligned on the union item universe."""
    cfg.require("ratings")
    records = read_feature_file(_family_feature_path(cfg, family))
    feat_ids, values = _records_to_matrix(records)
    R = load_ratings_csv(cfg.ratings, item_ids=None)
    universe = sorted(set(R.item_ids) | set(feat_ids))
    missing = sorted(set(universe) - set(feat_ids))
    if missing:
        raise AlignmentError(
            f"family {family!r} lacks feature vectors for rated movies {missing[:10]}"
        )
    R = R.with_items(universe)
    row_of = {m: i for i, m in enumerate(feat_ids)}
    aligned = values[[row_of[m] for m in universe]]
    F = FeatureMatrix(family=FAMILIES[family], item_ids=tuple(universe), values=aligned)
    return R, F


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    """The TrainConfig of the config's fields of the same names."""
    return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})


def _train_key(cfg: PipelineConfig, args: StageArgs):
    inputs = _config_inputs(cfg, "ratings")
    inputs["features"] = _digest_file(_family_feature_path(cfg, args.family))
    hypers = asdict(_train_config(cfg))
    del hypers["seed"]  # every cache key hashes the seed already
    return inputs, {"family": args.family, **hypers}, args.family


def _train_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    R, F = load_family_matrix(cfg, args.family)
    model = train_collective_slim(R, F, _train_config(cfg))
    path = stage_dir / f"model_{args.family}.bin"
    save_model(path, model, feature_dim=F.d)
    return [path]


def run_evaluation(cfg: PipelineConfig, family: str) -> EvalReport:
    R, F = load_family_matrix(cfg, family)
    splits = make_splits(R, folds=cfg.folds, seed=cfg.seed)
    report = EvalReport(cutoffs=cfg.cutoffs)
    train_cfg = _train_config(cfg)
    for split in splits:
        R_train = R.restrict(split.train_idx)
        model = train_collective_slim(R_train, F, train_cfg)
        eval_idx = split.test_idx if cfg.eval_on == "test" else split.val_idx
        entries = [
            (
                R.user_ids[R.entry_users[i]],
                R.item_ids[R.entry_items[i]],
                R.entry_ratings[i],
            )
            for i in eval_idx
        ]
        obs, skipped = collect_observations(
            model, R_train, entries, relevance_threshold=cfg.relevance_threshold
        )
        report.add_fold(compute_metrics(obs, cutoffs=cfg.cutoffs), skipped)
    return report


def _evaluate_key(cfg: PipelineConfig, args: StageArgs):
    inputs, params, variant = _train_key(cfg, args)
    params.update(folds=cfg.folds, cutoffs=list(cfg.cutoffs), eval_on=cfg.eval_on)
    return inputs, params, variant


def _evaluate_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    report = run_evaluation(cfg, args.family)
    path = stage_dir / f"report_{args.family}.csv"
    path.write_text(report.to_csv())
    print(f"== {args.family} ==")
    print(report.table())
    return [path]


def _recommend_key(cfg: PipelineConfig, args: StageArgs):
    if args.user is None:
        raise ConfigError("recommend needs --user")
    inputs = _config_inputs(cfg, "ratings")
    train_dir = _require_stage(cfg, "train", variant=args.family)
    inputs["model"] = _digest_file(train_dir / f"model_{args.family}.bin")
    params = {"family": args.family, "user": args.user, "top_n": args.top_n}
    return inputs, params, f"{args.family}_u{args.user}"


def _recommend_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    model = load_model(cfg.cache_dir / "train" / f"model_{args.family}.bin")
    R = load_ratings_csv(cfg.ratings, item_ids=list(model.item_ids))
    items = recommend(model, R, args.user, args.top_n)
    path = stage_dir / f"recommendations_{args.family}_u{args.user}.csv"
    lines = ["rank,movie_id"] + [f"{i + 1},{m}" for i, m in enumerate(items)]
    path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return [path]


STAGES: dict[str, Stage] = {
    "segment": Stage(_segment_key, _segment_build),
    "extract": Stage(_extract_key, _extract_build),
    "aggregate": Stage(_aggregate_key, _aggregate_build),
    "fuse": Stage(_fuse_key, _fuse_build),
    "textfeat": Stage(_textfeat_key, _textfeat_build),
    "train": Stage(_train_key, _train_build),
    "evaluate": Stage(_evaluate_key, _evaluate_build),
    "recommend": Stage(_recommend_key, _recommend_build),
}


def run_stage(stage: str, cfg: PipelineConfig, family: str = "mpeg7",
              user: int | None = None, top_n: int = 10, force: bool = False,
              jobs: int = 1) -> list[Path]:
    """Run one stage through the cache; returns its outputs, or [] if up to date.

    The old manifest is removed before the build and the new one written
    after it, so a build that stops midway leaves no manifest behind.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {tuple(STAGES)}")
    cfg.cache_dir = Path(cfg.cache_dir)
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    args = StageArgs(family=family, user=user, top_n=top_n, jobs=jobs)
    inputs, params, variant = STAGES[stage].key(cfg, args)
    cache = _StageCache(cfg.cache_dir, stage, inputs, params, cfg.seed, force, variant)
    if cache.up_to_date():
        return []
    cache.manifest_file.unlink(missing_ok=True)
    cache.stage_dir.mkdir(exist_ok=True)
    outputs = STAGES[stage].build(cfg, args, cache.stage_dir)
    cache.commit(outputs)
    return outputs

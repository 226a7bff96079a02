"""Batch pipeline stages over a persistent, digest-keyed feature cache.

Each stage writes its artifacts plus a ``manifest_*.json`` recording input
digests, parameters and seed. Re-running a stage whose manifest matches the
current inputs is a no-op; a mismatch is an error unless forced, so cached
features are never silently rebuilt or silently reused across input changes.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

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
    FeatureRecord,
    FeatureVector,
    read_feature_file,
    read_keyframe_manifest,
    write_feature_bin,
    write_keyframe_manifest,
)
from .fusion import fit_cca, fuse_matrix, save_cca
from .media import parse_y4m, write_ppm
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

STAGES = (
    "segment",
    "extract",
    "aggregate",
    "fuse",
    "textfeat",
    "train",
    "evaluate",
    "recommend",
)

FAMILIES = {
    "mpeg7": "MPEG7_ALL",
    "dnn": "DNN",
    "fused": "FUSED",
    "genre": "GENRE",
    "tag-lsa": "TAG_LSA",
}

_DESCRIPTOR_FUNCS = {
    "SCD": descriptors.scd,
    "CSD": descriptors.csd,
    "CLD": descriptors.cld,
    "EHD": descriptors.ehd,
    "HTD": descriptors.htd,
    "MPEG7_ALL": descriptors.mpeg7_all,
}


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
    alpha: float = 0.5
    gamma: float = 1e-4
    learning_rate: float = 0.05
    epochs: int = 30
    relevance_threshold: float = 4.0
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
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
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


def _digest_tree(root: Path, pattern: str) -> dict[str, str]:
    return {p.name: _digest_file(p) for p in sorted(root.glob(pattern))}


def _cache_key(inputs: dict, params: dict, seed: int) -> str:
    canon = json.dumps(
        {"inputs": inputs, "params": params, "seed": seed},
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


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_segment(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> list[Path]:
    cfg.require("videos_dir")
    videos = sorted(Path(cfg.videos_dir).glob("*.y4m"))
    if not videos:
        raise ConfigError(f"no .y4m files under {cfg.videos_dir}")
    cache = _StageCache(
        cfg.cache_dir,
        "segment",
        inputs={"videos": _digest_tree(Path(cfg.videos_dir), "*.y4m")},
        params={"threshold": cfg.threshold},
        seed=cfg.seed,
        force=force,
    )
    if cache.up_to_date():
        return []
    shots_dir = cache.stage_dir / "shots"
    kf_dir = cache.stage_dir / "keyframes"
    shots_dir.mkdir(parents=True, exist_ok=True)
    kf_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    manifest_entries = []
    for video in videos:
        movie_id = int(video.stem)
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
    kf_manifest = cache.stage_dir / "keyframe_manifest.csv"
    write_keyframe_manifest(kf_manifest, manifest_entries)
    outputs.append(kf_manifest)
    cache.commit(outputs)
    return outputs


def _extract_movie(args: tuple[int, list[tuple[int, str]]]) -> tuple[int, dict]:
    """Worker: descriptor vectors for every keyframe of one movie."""
    from .media import parse_ppm  # local import keeps workers light

    movie_id, keyframes = args
    out: dict[str, list[tuple[int, np.ndarray]]] = {k: [] for k in _DESCRIPTOR_FUNCS}
    for kf, ppm_path in keyframes:
        frame = parse_ppm(Path(ppm_path).read_bytes())
        for kind, func in _DESCRIPTOR_FUNCS.items():
            out[kind].append((kf, func(frame).values))
    return movie_id, out


def stage_extract(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> list[Path]:
    segment_dir = _require_stage(cfg, "segment")
    cache = _StageCache(
        cfg.cache_dir,
        "extract",
        inputs={"segment": _digest_file(_manifest_path(segment_dir))},
        params={},
        seed=cfg.seed,
        force=force,
    )
    if cache.up_to_date():
        return []
    manifest = read_keyframe_manifest(segment_dir / "keyframe_manifest.csv")
    by_movie: dict[int, list[tuple[int, str]]] = {}
    for movie_id, kf in manifest:
        ppm = segment_dir / "keyframes" / str(movie_id) / f"{kf}.ppm"
        by_movie.setdefault(movie_id, []).append((kf, str(ppm)))
    work = sorted(by_movie.items())
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_extract_movie, work))
    else:
        results = [_extract_movie(item) for item in work]
    feat_dir = cache.stage_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for kind in _DESCRIPTOR_FUNCS:
        records = [
            FeatureRecord(movie_id, kf, FeatureVector(kind, values))
            for movie_id, per_kind in results
            for kf, values in per_kind[kind]
        ]
        path = feat_dir / f"{kind}.keyframes.bin"
        write_feature_bin(path, records)
        outputs.append(path)
    cache.commit(outputs)
    return outputs


def _movie_level(records: list[FeatureRecord], kind: AggregationKind) -> list[FeatureRecord]:
    by_movie: dict[int, list[FeatureVector]] = {}
    for rec in records:
        by_movie.setdefault(rec.movie_id, []).append(rec.vector)
    return [
        FeatureRecord(movie_id, None, aggregate(vectors, kind))
        for movie_id, vectors in sorted(by_movie.items())
    ]


def stage_aggregate(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> list[Path]:
    segment_dir = _require_stage(cfg, "segment")
    extract_dir = _require_stage(cfg, "extract")
    inputs = {"extract": _digest_file(_manifest_path(extract_dir))}
    if cfg.embeddings is not None:
        cfg.require("embeddings")
        inputs["embeddings"] = _digest_file(Path(cfg.embeddings))
    cache = _StageCache(
        cfg.cache_dir,
        "aggregate",
        inputs=inputs,
        params={"agg_mpeg7": cfg.agg_mpeg7, "agg_dnn": cfg.agg_dnn},
        seed=cfg.seed,
        force=force,
    )
    if cache.up_to_date():
        return []
    feat_dir = cache.stage_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    mpeg7_records = read_feature_file(extract_dir / "features" / "MPEG7_ALL.keyframes.bin")
    agg_kind = AggregationKind(cfg.agg_mpeg7)
    path = feat_dir / "MPEG7_ALL.movies.bin"
    write_feature_bin(path, _movie_level(mpeg7_records, agg_kind))
    outputs.append(path)

    if cfg.embeddings is not None:
        manifest = read_keyframe_manifest(segment_dir / "keyframe_manifest.csv")
        table = load_embeddings(cfg.embeddings, expected=manifest)
        dnn_records = [
            FeatureRecord(movie_id, kf, FeatureVector("DNN", table[(movie_id, kf)]))
            for movie_id, kf in manifest
        ]
        path = feat_dir / "DNN.movies.bin"
        write_feature_bin(path, _movie_level(dnn_records, AggregationKind(cfg.agg_dnn)))
        outputs.append(path)
    cache.commit(outputs)
    return outputs


def _records_to_matrix(records: list[FeatureRecord]) -> tuple[list[int], np.ndarray]:
    ids = [r.movie_id for r in records]
    return ids, np.vstack([r.vector.values for r in records])


def stage_fuse(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> list[Path]:
    cfg.require("ratings")
    aggregate_dir = _require_stage(cfg, "aggregate")
    dnn_path = aggregate_dir / "features" / "DNN.movies.bin"
    if not dnn_path.exists():
        raise DependencyError(
            "fuse needs movie-level DNN features; run 'aggregate' with an "
            "embeddings file configured",
            required_stage="aggregate",
        )
    cache = _StageCache(
        cfg.cache_dir,
        "fuse",
        inputs={
            "aggregate": _digest_file(_manifest_path(aggregate_dir)),
            "ratings": _digest_file(Path(cfg.ratings)),
        },
        params={"cca_k": cfg.cca_k, "cca_ridge": cfg.cca_ridge},
        seed=cfg.seed,
        force=force,
    )
    if cache.up_to_date():
        return []
    m_ids, m_values = _records_to_matrix(
        read_feature_file(aggregate_dir / "features" / "MPEG7_ALL.movies.bin")
    )
    d_ids, d_values = _records_to_matrix(read_feature_file(dnn_path))
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

    feat_dir = cache.stage_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    model_path = cache.stage_dir / "cca_model.bin"
    save_cca(model_path, model)
    records = [
        FeatureRecord(movie_id, None, FeatureVector("FUSED", row))
        for movie_id, row in zip(m_ids, fused)
    ]
    fused_path = feat_dir / "FUSED.movies.bin"
    write_feature_bin(fused_path, records)
    cache.commit([model_path, fused_path])
    return [model_path, fused_path]


def stage_textfeat(cfg: PipelineConfig, force: bool = False, jobs: int = 1) -> list[Path]:
    cfg.require("movies", "tags")
    cache = _StageCache(
        cfg.cache_dir,
        "textfeat",
        inputs={
            "movies": _digest_file(Path(cfg.movies)),
            "tags": _digest_file(Path(cfg.tags)),
        },
        params={"lsa_rank": cfg.lsa_rank},
        seed=cfg.seed,
        force=force,
    )
    if cache.up_to_date():
        return []
    catalog = load_movies_csv(cfg.movies)
    genre_matrix, genre_ids = build_genre_matrix([(m, g) for m, _, g in catalog])
    feat_dir = cache.stage_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
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
    cache.commit([genre_path, lsa_path])
    return [genre_path, lsa_path]


def _family_feature_path(cfg: PipelineConfig, family: str) -> Path:
    kind = FAMILIES[family]
    if family in ("mpeg7", "dnn"):
        stage_dir = _require_stage(cfg, "aggregate")
    elif family == "fused":
        stage_dir = _require_stage(cfg, "fuse")
    else:
        stage_dir = _require_stage(cfg, "textfeat")
    path = stage_dir / "features" / f"{kind}.movies.bin"
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
    return TrainConfig(
        alpha=cfg.alpha,
        gamma=cfg.gamma,
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        seed=cfg.seed,
        relevance_threshold=cfg.relevance_threshold,
    )


def stage_train(cfg: PipelineConfig, family: str = "mpeg7", force: bool = False,
                jobs: int = 1) -> list[Path]:
    cfg.require("ratings")
    feature_path = _family_feature_path(cfg, family)
    cache = _StageCache(
        cfg.cache_dir,
        "train",
        inputs={
            "ratings": _digest_file(Path(cfg.ratings)),
            "features": _digest_file(feature_path),
        },
        params={
            "family": family,
            "alpha": cfg.alpha,
            "gamma": cfg.gamma,
            "learning_rate": cfg.learning_rate,
            "epochs": cfg.epochs,
            "relevance_threshold": cfg.relevance_threshold,
        },
        seed=cfg.seed,
        force=force,
        variant=family,
    )
    if cache.up_to_date():
        return []
    R, F = load_family_matrix(cfg, family)
    model = train_collective_slim(R, F, _train_config(cfg))
    cache.stage_dir.mkdir(parents=True, exist_ok=True)
    path = cache.stage_dir / f"model_{family}.bin"
    save_model(path, model, feature_dim=F.d)
    cache.commit([path])
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


def stage_evaluate(cfg: PipelineConfig, family: str = "mpeg7", force: bool = False,
                   jobs: int = 1) -> list[Path]:
    cfg.require("ratings")
    feature_path = _family_feature_path(cfg, family)
    cache = _StageCache(
        cfg.cache_dir,
        "evaluate",
        inputs={
            "ratings": _digest_file(Path(cfg.ratings)),
            "features": _digest_file(feature_path),
        },
        params={
            "family": family,
            "alpha": cfg.alpha,
            "gamma": cfg.gamma,
            "learning_rate": cfg.learning_rate,
            "epochs": cfg.epochs,
            "relevance_threshold": cfg.relevance_threshold,
            "folds": cfg.folds,
            "cutoffs": list(cfg.cutoffs),
            "eval_on": cfg.eval_on,
        },
        seed=cfg.seed,
        force=force,
        variant=family,
    )
    if cache.up_to_date():
        return []
    report = run_evaluation(cfg, family)
    cache.stage_dir.mkdir(parents=True, exist_ok=True)
    path = cache.stage_dir / f"report_{family}.csv"
    path.write_text(report.to_csv())
    print(f"== {family} ==")
    print(report.table())
    cache.commit([path])
    return [path]


def stage_recommend(cfg: PipelineConfig, family: str = "mpeg7", user: int | None = None,
                    top_n: int = 10, force: bool = False, jobs: int = 1) -> list[Path]:
    if user is None:
        raise ConfigError("recommend needs --user")
    cfg.require("ratings")
    train_dir = _require_stage(cfg, "train", variant=family)
    model_path = train_dir / f"model_{family}.bin"
    cache = _StageCache(
        cfg.cache_dir,
        "recommend",
        inputs={
            "ratings": _digest_file(Path(cfg.ratings)),
            "model": _digest_file(model_path),
        },
        params={"family": family, "user": user, "top_n": top_n},
        seed=cfg.seed,
        force=force,
        variant=f"{family}_u{user}",
    )
    if cache.up_to_date():
        return []
    model = load_model(model_path)
    R = load_ratings_csv(cfg.ratings, item_ids=list(model.item_ids))
    items = recommend(model, R, user, top_n)
    cache.stage_dir.mkdir(parents=True, exist_ok=True)
    path = cache.stage_dir / f"recommendations_{family}_u{user}.csv"
    lines = ["rank,movie_id"] + [f"{i + 1},{m}" for i, m in enumerate(items)]
    path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    cache.commit([path])
    return [path]


def run_stage(stage: str, cfg: PipelineConfig, family: str = "mpeg7",
              user: int | None = None, top_n: int = 10, force: bool = False,
              jobs: int = 1) -> list[Path]:
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {STAGES}")
    cfg.cache_dir = Path(cfg.cache_dir)
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    if stage == "segment":
        return stage_segment(cfg, force=force, jobs=jobs)
    if stage == "extract":
        return stage_extract(cfg, force=force, jobs=jobs)
    if stage == "aggregate":
        return stage_aggregate(cfg, force=force, jobs=jobs)
    if stage == "fuse":
        return stage_fuse(cfg, force=force, jobs=jobs)
    if stage == "textfeat":
        return stage_textfeat(cfg, force=force, jobs=jobs)
    if stage == "train":
        return stage_train(cfg, family=family, force=force, jobs=jobs)
    if stage == "evaluate":
        return stage_evaluate(cfg, family=family, force=force, jobs=jobs)
    return stage_recommend(cfg, family=family, user=user, top_n=top_n,
                           force=force, jobs=jobs)

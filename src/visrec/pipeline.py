"""Batch pipeline stages over a persistent, digest-keyed feature cache.

``STAGES`` is the stage graph, declared once: each ``Stage`` holds
``key(cfg, args)``, which checks preconditions and returns the inputs,
parameters and variant its cache key hashes, ``build(cfg, args,
stage_dir)``, which writes the artifacts and returns their paths, and
``needs``, the stages whose artifacts ``build`` reads. ``stages_for`` plans
a run by following ``needs`` from the stages that write the families'
features (``FAMILIES``). ``run_stage`` is the one runner and the whole
cache: it hashes the needed stages' manifests with the key, returns early
when the stage's ``manifest_*.json`` matches, drops that manifest and the
outputs it lists, calls ``build`` and writes a fresh manifest of input
digests, parameters, seed and output digests. A mismatch is an error unless
forced, so cached features are never silently rebuilt or reused across
input changes, and a build that stops midway leaves no manifest.
Segment's videos, extract's keyframes and evaluate's folds are independent
tasks, which ``_map`` runs in worker processes under ``--jobs``; segment's
videos are digested on up to ``--jobs`` threads.
``recommend_items`` is a query, not a stage; it serves a model only while
train's manifest holds the key ``run_stage`` would compute now.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import descriptors, media, recsys, shots
from .aggregate import AggregationKind, aggregate
from .embeddings import load_embeddings
from .errors import (
    AlignmentError,
    ConfigError,
    DependencyError,
    EmptyInputError,
    FormatError,
    ParameterError,
    StaleCacheError,
)
from .evaluation import CUTOFFS, EvalReport, collect_observations, compute_metrics, make_splits
from .featureio import (
    CONTAINER_MAGIC,
    FeatureTable,
    parse_int64,
    read_arrays,
    read_features,
    read_keyframe_manifest,
    write_arrays,
    write_features,
    write_keyframe_manifest,
)
from .fusion import fit_cca, fuse_matrix
from .media import FrameBuffer, iter_y4m
from .recsys import (
    FeatureMatrix,
    TrainConfig,
    feature_spectrum,
    load_model,
    load_ratings_csv,
    recommend,
    save_model,
    train_collective_slim,
)
from .shots import DEFAULT_THRESHOLD, detect_shots
from .textfeat import build_genre_matrix, fit_tag_lsa, load_movies_csv, load_tags_csv

# each family's feature kind and the stage that writes its movie-level file
FAMILIES = {
    "mpeg7": ("MPEG7_ALL", "aggregate"),
    "dnn": ("DNN", "aggregate"),
    "fused": ("FUSED", "fuse"),
    "genre": ("GENRE", "textfeat"),
    "tag-lsa": ("TAG_LSA", "textfeat"),
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
    threshold: float = DEFAULT_THRESHOLD
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
    cutoffs: tuple[int, ...] = CUTOFFS
    families: tuple[str, ...] = tuple(FAMILIES)
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
        kinds = [kind.value for kind in AggregationKind]
        for name in ("agg_mpeg7", "agg_dnn"):
            value = getattr(cfg, name)
            if value not in kinds:
                raise ConfigError(f"{name} must be one of {kinds}, got {value!r}")
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
    """The file's SHA-256, read unbuffered into one reused 64 KiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            h.update(view[:size])
    return h.hexdigest()


def _digest_files(paths, jobs: int) -> list[str]:
    """``[_digest_file(path) for path in paths]``, in input order: on up to
    ``jobs`` threads when ``jobs > 1`` and there is more than one path, else
    in this thread. Reading and hashing release the GIL, and threads start
    in microseconds where a process pool takes milliseconds. A path's error
    is raised here, as the serial loop would raise it."""
    paths = list(paths)
    if jobs <= 1 or len(paths) <= 1:
        return [_digest_file(path) for path in paths]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(jobs, len(paths))) as pool:
        return list(pool.map(_digest_file, paths))


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


def _require_stage(cfg: PipelineConfig, stage: str, variant: str | None = None) -> Path:
    stage_dir = cfg.cache_dir / stage
    if not _manifest_path(stage_dir, variant).exists():
        raise DependencyError(
            f"stage {stage!r} must run first", required_stage=stage
        )
    return stage_dir


def _config_inputs(cfg: PipelineConfig, *names: str) -> dict[str, str]:
    """Digests of the named config input files, which must be set and exist."""
    cfg.require(*names)
    return {name: _digest_file(Path(getattr(cfg, name))) for name in names}


_task = None  # in a pool worker, the function _map applies


def _set_task(fn) -> None:
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def _map(jobs: int, fn, items) -> list:
    """``[fn(item) for item in items]``, in input order: in a pool of up to
    ``jobs`` worker processes when ``jobs > 1`` and there is more than one
    item, else in this process. ``fn``, with whatever it binds, reaches each
    worker once, through the pool's initializer, and each task carries only
    its item. A task's error is raised here, and the tasks still queued are
    cancelled."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items)), initializer=_set_task,
                             initargs=(fn,)) as pool:
        return list(pool.map(_run_task, items))


# ---------------------------------------------------------------------------
# Stages: key(cfg, args) checks preconditions and returns what the cache key
# hashes; build(cfg, args, stage_dir) writes the artifacts.
# ---------------------------------------------------------------------------

class StageArgs(NamedTuple):
    family: str
    jobs: int


class Stage(NamedTuple):
    key: Callable[[PipelineConfig, StageArgs], tuple[dict, dict, str | None]]
    build: Callable[[PipelineConfig, StageArgs, Path], list[Path]]
    needs: tuple[str, ...] = ()


def _in_file(exc: FormatError, path) -> FormatError:
    """The same error class, its message prefixed with the file it is about."""
    return type(exc)(f"{path}: {exc}")


def _videos(cfg: PipelineConfig) -> list[tuple[int, Path]]:
    videos = sorted(Path(cfg.videos_dir).glob("*.y4m"))
    if not videos:
        raise ConfigError(f"no .y4m files under {cfg.videos_dir}")
    by_id: dict[int, Path] = {}
    for video in videos:
        if not video.is_file():
            raise ConfigError(f"video entry is not a regular file: {video}")
        try:
            movie_id = parse_int64(video.stem)
        except ValueError:
            raise ConfigError(f"video file name is not a movie id: {video}") from None
        if movie_id in by_id:
            raise ConfigError(f"video files {by_id[movie_id]} and {video} name the same "
                              f"movie {movie_id}")
        by_id[movie_id] = video
    return list(by_id.items())


# Where segment stores each keyframe, as a "frame" container of its pixels.
# Segment's cache key hashes it, so a cache in another layout is stale.
_KEYFRAME_PATH = "keyframes/{movie_id}/{kf}.bin"


def _segment_key(cfg: PipelineConfig, args: StageArgs):
    cfg.require("videos_dir")
    paths = [video for _, video in _videos(cfg)]
    videos = {video.name: digest for video, digest in zip(paths, _digest_files(paths, args.jobs))}
    return {"videos": videos}, {"threshold": cfg.threshold, "keyframes": _KEYFRAME_PATH}, None


def _segment_video(threshold: float, stage_dir: Path, video: tuple[int, Path]) -> list:
    """Task: cut one video from its frames streamed one at a time, then write
    its keyframes, each decoded again from its offset; returns (movie, frame,
    path) for each keyframe."""
    movie_id, path = video
    keyframes = []
    try:
        with iter_y4m(path) as frames:
            for kf in detect_shots(frames, threshold=threshold).keyframes:
                out = stage_dir / _KEYFRAME_PATH.format(movie_id=movie_id, kf=kf)
                out.parent.mkdir(parents=True, exist_ok=True)
                write_arrays(out, "frame", {}, pixels=frames.decode(kf).pixels)
                keyframes.append((movie_id, kf, out))
    except FormatError as exc:
        raise _in_file(exc, path) from None
    return keyframes


def _segment_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    # built here, before _map forks, so no worker builds its own; no later
    # stage decodes video, so the decode tables are dropped after the pool
    # rather than held, at about 0.3 MB of peak RSS, for the rest of the run
    media._decode_tables()
    shots._sv_table()
    cut = partial(_segment_video, cfg.threshold, stage_dir)
    keyframes = [entry for video in _map(args.jobs, cut, _videos(cfg)) for entry in video]
    media._decode_tables.cache_clear()
    kf_manifest = stage_dir / "keyframe_manifest.csv"
    write_keyframe_manifest(kf_manifest, [(movie_id, kf) for movie_id, kf, _ in keyframes])
    return [path for _, _, path in keyframes] + [kf_manifest]


def _read_keyframe(path: str | Path) -> FrameBuffer:
    """A keyframe segment wrote. A file without pixels is a FormatError, and
    a missing one, whose artifacts are gone or in another layout, a
    DependencyError on segment."""
    try:
        _, arrays = read_arrays(path, "frame", {}, {"pixels": "|u1 h w 3"})
    except FileNotFoundError:
        raise DependencyError(f"keyframe {path} is missing: run segment with --force",
                              required_stage="segment") from None
    try:
        return FrameBuffer(arrays["pixels"])
    except EmptyInputError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _extract_keyframe(path: str) -> np.ndarray:
    """Task: the 774-element MPEG-7 vector of one keyframe."""
    return descriptors.mpeg7_all(_read_keyframe(path)).values


def _extract_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    segment_dir = cfg.cache_dir / "segment"
    kf_manifest = segment_dir / "keyframe_manifest.csv"
    # movie by movie, each movie's keyframes in manifest order
    keys = sorted(read_keyframe_manifest(kf_manifest), key=lambda key: key[0])
    if not keys:
        raise EmptyInputError(f"{kf_manifest} lists no keyframes")
    paths = [str(segment_dir / _KEYFRAME_PATH.format(movie_id=movie_id, kf=kf))
             for movie_id, kf in keys]
    shots._sv_table()  # built here, before _map forks, so no worker builds its own
    values = _map(args.jobs, _extract_keyframe, paths)
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    path = feat_dir / "MPEG7_ALL.keyframes.bin"
    movie_ids, keyframes = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    write_features(path, FeatureTable("MPEG7_ALL", movie_ids, keyframes, np.array(values)))
    return [path]


def _movie_level(table: FeatureTable, how: AggregationKind, source: Path) -> FeatureTable:
    """Each movie's aggregate row, in id order, from rows one stable sort
    groups; an overflow is a FormatError naming source, movie and kind."""
    order = np.argsort(table.movie_id, kind="stable")
    movie_ids, starts = np.unique(table.movie_id[order], return_index=True)
    values = np.empty((len(movie_ids), table.values.shape[1]))
    for j, rows in enumerate(np.split(order, starts[1:])):
        try:
            values[j] = aggregate(table.values[rows], how)
        except FormatError as exc:
            raise _in_file(exc, f"{source}: movie {movie_ids[j]}: {table.kind}") from None
    return FeatureTable(table.kind, movie_ids, np.full(len(movie_ids), -1), values)


def _aggregate_key(cfg: PipelineConfig, args: StageArgs):
    inputs = {} if cfg.embeddings is None else _config_inputs(cfg, "embeddings")
    return inputs, {"agg_mpeg7": cfg.agg_mpeg7, "agg_dnn": cfg.agg_dnn}, None


def _aggregate_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    outputs = []

    keyframes = cfg.cache_dir / "extract" / "features" / "MPEG7_ALL.keyframes.bin"
    agg_kind = AggregationKind(cfg.agg_mpeg7)
    path = feat_dir / "MPEG7_ALL.movies.bin"
    write_features(path, _movie_level(read_features(keyframes), agg_kind, keyframes))
    outputs.append(path)

    if cfg.embeddings is not None:
        manifest = read_keyframe_manifest(cfg.cache_dir / "segment" / "keyframe_manifest.csv")
        table = load_embeddings(cfg.embeddings, expected=manifest)
        path = feat_dir / "DNN.movies.bin"
        write_features(path, _movie_level(table, AggregationKind(cfg.agg_dnn), cfg.embeddings))
        outputs.append(path)
    return outputs


def _fuse_key(cfg: PipelineConfig, args: StageArgs):
    _family_feature_path(cfg, "dnn")  # aggregate writes it only with embeddings
    return _config_inputs(cfg, "ratings"), {"cca_k": cfg.cca_k, "cca_ridge": cfg.cca_ridge}, None


def _fuse_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    mpeg7 = read_features(_family_feature_path(cfg, "mpeg7"))
    dnn = read_features(_family_feature_path(cfg, "dnn"))
    if not np.array_equal(mpeg7.movie_id, dnn.movie_id):
        raise AlignmentError("MPEG-7 and DNN movie-level files cover different movies")

    # fit on movies that actually carry training ratings; everything else
    # (cold items) is projected with the frozen model
    fit_rows = np.isin(mpeg7.movie_id, load_ratings_csv(cfg.ratings).item_ids)
    if fit_rows.sum() < 2:
        raise ParameterError("CCA needs at least 2 movies with ratings")
    try:
        model = fit_cca(
            mpeg7.values[fit_rows], dnn.values[fit_rows], k=cfg.cca_k, ridge=cfg.cca_ridge
        )
        fused = fuse_matrix(model, mpeg7.values, dnn.values)
    except FormatError as exc:  # MPEG-7 values are bounded; the DNN view overflowed
        raise FormatError(f"{cfg.embeddings}: cannot fuse the DNN embeddings: {exc}") from None

    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    fused_path = feat_dir / "FUSED.movies.bin"
    write_features(fused_path, FeatureTable("FUSED", mpeg7.movie_id, mpeg7.keyframe_index, fused))
    return [fused_path]


def _textfeat_key(cfg: PipelineConfig, args: StageArgs):
    return _config_inputs(cfg, "movies", "tags"), {"lsa_rank": cfg.lsa_rank}, None


def _textfeat_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    catalog = load_movies_csv(cfg.movies)
    genre_matrix, genre_ids = build_genre_matrix([(m, g) for m, _, g in catalog])
    feat_dir = stage_dir / "features"
    feat_dir.mkdir(exist_ok=True)
    genre_path = feat_dir / "GENRE.movies.bin"
    movie_level = np.full(len(genre_ids), -1)  # both files list the catalog's movies
    write_features(genre_path, FeatureTable("GENRE", genre_ids, movie_level, genre_matrix))

    lsa = fit_tag_lsa(load_tags_csv(cfg.tags), k=cfg.lsa_rank)
    # a movie without tags takes the zero row appended last
    factors = np.vstack([lsa.item_factors, np.zeros(lsa.k)])
    row_of = {m: i for i, m in enumerate(lsa.item_ids)}
    lsa_path = feat_dir / "TAG_LSA.movies.bin"
    write_features(lsa_path, FeatureTable("TAG_LSA", genre_ids, movie_level,
                                          factors[[row_of.get(m, -1) for m in genre_ids]]))
    return [genre_path, lsa_path]


def _family_feature_path(cfg: PipelineConfig, family: str) -> Path:
    kind, stage = FAMILIES[family]
    stage_dir = _require_stage(cfg, stage)
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
    table = read_features(_family_feature_path(cfg, family))
    feat_ids, values = table.movie_id.tolist(), table.values
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
    F = FeatureMatrix(family=FAMILIES[family][0], item_ids=tuple(universe), values=aligned)
    return R, F


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    """The TrainConfig of the config's fields of the same names."""
    return TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})


@contextmanager
def _naming_features(cfg: PipelineConfig, family: str):
    """Features too large to standardize are a FormatError naming the
    family's file."""
    try:
        yield
    except FormatError as exc:
        raise _in_file(exc, _family_feature_path(cfg, family)) from None


def _train(cfg: PipelineConfig, family: str, R, F, spectrum=None):
    """``train_collective_slim`` under the config's hyper-parameters."""
    with _naming_features(cfg, family):
        return train_collective_slim(R, F, _train_config(cfg), spectrum)


def _train_key(cfg: PipelineConfig, args: StageArgs):
    inputs = _config_inputs(cfg, "ratings")
    inputs["features"] = _digest_file(_family_feature_path(cfg, args.family))
    hypers = asdict(_train_config(cfg))
    del hypers["seed"]  # every cache key hashes the seed already
    return inputs, {"family": args.family, "recsys": recsys.VERSION, **hypers}, args.family


def _train_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    R, F = load_family_matrix(cfg, args.family)
    model = _train(cfg, args.family, R, F)
    path = stage_dir / f"model_{args.family}.bin"
    save_model(path, model, feature_dim=F.d)
    return [path]


def _evaluate_fold(cfg: PipelineConfig, family: str, R, F, spectrum, split):
    """Task: train on one fold's training entries and score its held-out
    ones; returns the fold's metrics and skipped count."""
    R_train = R.restrict(split.train_idx)
    model = _train(cfg, family, R_train, F, spectrum)
    at = split.test_idx if cfg.eval_on == "test" else split.val_idx
    # restrict keeps R's universes, so R's user and item positions index R_train
    held_out = np.rec.fromarrays((R.entry_users[at], R.entry_items[at], R.entry_ratings[at]),
                                 names="user,item,rating")
    ranked, skipped = collect_observations(
        model, R_train, held_out, relevance_threshold=cfg.relevance_threshold
    )
    return compute_metrics(ranked["user"], ranked["rank"], cutoffs=cfg.cutoffs), skipped


def run_evaluation(cfg: PipelineConfig, family: str, jobs: int = 1) -> EvalReport:
    """The folds' report. The feature spectrum, which every fold's training
    shares, is built once, here; the folds run as ``_map`` tasks and are
    added in fold order."""
    import scipy.special  # noqa: F401  (training's; imported once, before workers fork)

    R, F = load_family_matrix(cfg, family)
    splits = make_splits(R, folds=cfg.folds, seed=cfg.seed)
    with _naming_features(cfg, family):
        spectrum = feature_spectrum(F) if cfg.alpha < 1.0 else None
    report = EvalReport(cutoffs=cfg.cutoffs)
    for metrics, skipped in _map(jobs, partial(_evaluate_fold, cfg, family, R, F, spectrum),
                                 splits):
        report.add_fold(metrics, skipped)
    return report


def _evaluate_key(cfg: PipelineConfig, args: StageArgs):
    if not cfg.cutoffs or min(cfg.cutoffs) < 1:
        raise ParameterError(f"cutoffs must be one or more values >= 1, got {list(cfg.cutoffs)}")
    inputs, params, variant = _train_key(cfg, args)
    params.update(folds=cfg.folds, cutoffs=list(cfg.cutoffs), eval_on=cfg.eval_on)
    return inputs, params, variant


def _evaluate_build(cfg: PipelineConfig, args: StageArgs, stage_dir: Path) -> list[Path]:
    report = run_evaluation(cfg, args.family, args.jobs)
    path = stage_dir / f"report_{args.family}.csv"
    path.write_text(report.to_csv())
    print(f"== {args.family} ==")
    print(report.table())
    return [path]


# A stage needs only stages above it, so table order is a run order. train and
# evaluate hash their family's feature file, not its stage's manifest, so
# another family's parameters (lsa_rank for genre) leave them up to date.
STAGES: dict[str, Stage] = {
    "segment": Stage(_segment_key, _segment_build),
    "extract": Stage(lambda cfg, args: ({}, {"descriptors": descriptors.VERSION}, None),
                     _extract_build, needs=("segment",)),
    # aggregate reads segment's keyframe manifest as well as extract's features
    "aggregate": Stage(_aggregate_key, _aggregate_build, needs=("segment", "extract")),
    "fuse": Stage(_fuse_key, _fuse_build, needs=("aggregate",)),
    "textfeat": Stage(_textfeat_key, _textfeat_build),
    "train": Stage(_train_key, _train_build),
    "evaluate": Stage(_evaluate_key, _evaluate_build),
}


def stages_for(families: tuple[str, ...]) -> list[str]:
    """The stages that build the families' feature files, in table order."""
    needed = {FAMILIES[family][1] for family in families}
    for name in reversed(STAGES):
        if name in needed:
            needed.update(STAGES[name].needs)
    return [name for name in STAGES if name in needed]


def _remove_outputs(stage_dir: Path, outputs) -> None:
    """Delete the files an old manifest lists as outputs, then the directories
    that leaves empty. A name that leads out of the stage directory is not
    the stage's output and stays."""
    if not isinstance(outputs, dict):
        return
    for name in outputs:
        rel = Path(name)
        path = stage_dir / rel
        if rel.is_absolute() or ".." in rel.parts or not path.is_file():
            continue
        path.unlink()
        parent = path.parent
        while parent != stage_dir and not any(parent.iterdir()):
            parent.rmdir()
            parent = parent.parent


def _stage_key(stage: str, cfg: PipelineConfig, args: StageArgs):
    """What ``stage``'s cache key hashes (the needed stages' manifests and
    its own key's inputs, then its parameters), the key, and the manifest
    file that records it."""
    inputs = {need: _digest_file(_manifest_path(_require_stage(cfg, need)))
              for need in STAGES[stage].needs}
    own_inputs, params, variant = STAGES[stage].key(cfg, args)
    inputs.update(own_inputs)
    key = _cache_key(inputs, params, cfg.seed)
    return inputs, params, key, _manifest_path(cfg.cache_dir / stage, variant)


def _read_manifest(manifest_file: Path):
    """The manifest's JSON value, or None if it does not parse."""
    try:
        return json.loads(manifest_file.read_text())
    except (ValueError, RecursionError):
        return None


def _check_fresh(stage: str, manifest_file: Path, cached, key: str) -> None:
    """A StaleCacheError unless the manifest read as ``cached`` records ``key``."""
    if isinstance(cached, dict) and cached.get("key") == key:
        return
    why = ("cached artifacts built from different inputs or parameters"
           if isinstance(cached, dict) else f"an unreadable {manifest_file.name}")
    raise StaleCacheError(f"stage {stage!r} has {why}; re-run with --force to rebuild")


def run_stage(stage: str, cfg: PipelineConfig, family: str = "mpeg7",
              force: bool = False, jobs: int = 1) -> list[Path]:
    """Run one stage through the cache; returns its outputs, or [] if up to date.

    A needed stage without a manifest is a DependencyError. The old
    manifest is removed before the build, then the outputs it lists, and
    the new manifest is written after the build, so a build that stops
    midway leaves no manifest behind and a rebuild leaves no stale
    artifact. A manifest that is not a JSON object counts as stale and
    lists no outputs. Every cache key hashes the seed, so a negative seed
    is rejected here, before any stage runs.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; expected one of {tuple(STAGES)}")
    if cfg.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {cfg.seed}")
    cfg.cache_dir = Path(cfg.cache_dir)
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    args = StageArgs(family=family, jobs=jobs)
    inputs, params, key, manifest_file = _stage_key(stage, cfg, args)
    stage_dir = manifest_file.parent
    exists = manifest_file.exists()
    cached = _read_manifest(manifest_file) if exists else None
    if exists and not force:
        _check_fresh(stage, manifest_file, cached, key)
        return []
    manifest_file.unlink(missing_ok=True)
    if isinstance(cached, dict):
        _remove_outputs(stage_dir, cached.get("outputs"))
    stage_dir.mkdir(exist_ok=True)
    outputs = STAGES[stage].build(cfg, args, stage_dir)
    manifest = {
        "stage": stage,
        "key": key,
        "inputs": inputs,
        "params": params,
        "seed": cfg.seed,
        "outputs": {str(p.relative_to(stage_dir)): _digest_file(p) for p in outputs},
    }
    manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return outputs


def recommend_items(cfg: PipelineConfig, family: str, user: int, n: int) -> list[int]:
    """Top-n unrated items for ``user`` from the trained ``family`` model: a
    query outside the stage cache that writes nothing. The model must be the
    one ``train`` would build now: its manifest must hold the key
    ``run_stage`` computes, or the query is a StaleCacheError."""
    cfg.require("ratings")
    train_dir = _require_stage(cfg, "train", variant=family)
    _, _, key, manifest_file = _stage_key("train", cfg, StageArgs(family=family, jobs=1))
    _check_fresh("train", manifest_file, _read_manifest(manifest_file), key)
    model = load_model(train_dir / f"model_{family}.bin")
    R = load_ratings_csv(cfg.ratings, item_ids=list(model.item_ids))
    return recommend(model, R, user, n)

"""Span tracing around visrec's layer entry points, from outside the package.

``Tracer.install`` replaces each target function with a wrapper and rebinds
every reference to it held by a loaded ``visrec.*`` module: module globals
(so ``mpeg7_all`` reaches the wrapped descriptors), ``from x import y``
copies (so ``pipeline`` and ``evaluation`` reach the wrapped ``recsys``
functions) and values of module-level dicts (``pipeline._DESCRIPTOR_FUNCS``).
``uninstall`` puts the originals back, so one process can time the same work
untraced and traced.

A span records name, start, end, parent span and operation id; counts the
layer metrics need are attached to it after the timed call returns. Spans are
kept in memory. Forked workers (the extract pool) inherit the wrappers and
append their spans to a per-process file when they return to the depth they
were forked at; ``collect`` merges those files in.

A target that a later refactor removes is skipped, so its layer reports zero
calls instead of crashing the run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path


def _frames(args, kwargs, result):
    return {"frames": len(result)}


def _cuts(args, kwargs, result):
    return {"frames": result.n_frames, "cuts": len(result.boundaries)}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _train_counts(args, kwargs, result):
    """Positive pairs as ``train_collective_slim`` builds them; counted after
    the span closes so the count costs the training span nothing."""
    R, _F, cfg = args[:3]
    n = R.n_items
    pairs = 0
    for u in range(R.n_users):
        idx, val = R.user_ratings(u)
        if 0 < len(idx) < n:
            pairs += int((val >= cfg.relevance_threshold).sum())
    return {"epochs": cfg.epochs, "pairs": pairs}


def _observed(args, kwargs, result):
    entries = args[2] if len(args) > 2 else kwargs["test_entries"]
    threshold = args[3] if len(args) > 3 else kwargs.get("relevance_threshold", 4.0)
    observations, skipped = result
    relevant = sum(1 for entry in entries if entry[2] >= threshold)
    return {"relevant": relevant, "observed": len(observations), "skipped": skipped}


def _stage(args, kwargs, result):
    stage = args[0] if args else kwargs["stage"]
    return {"stage": stage, "noop": not result}


# (module, attribute path, annotate(args, kwargs, result) -> counts or None)
TARGETS = (
    ("visrec.media", "parse_y4m", _frames),
    ("visrec.media", "parse_ppm", None),
    ("visrec.shots", "detect_shots", _cuts),
    ("visrec.descriptors", "scd", None),
    ("visrec.descriptors", "csd", None),
    ("visrec.descriptors", "cld", None),
    ("visrec.descriptors", "ehd", None),
    ("visrec.descriptors", "htd", None),
    ("visrec.descriptors", "mpeg7_all", None),
    ("visrec.featureio", "write_feature_bin", _file_bytes),
    ("visrec.featureio", "read_feature_file", None),
    ("visrec.aggregate", "aggregate", None),
    ("visrec.embeddings", "load_embeddings", None),
    ("visrec.fusion", "fit_cca", None),
    ("visrec.fusion", "fuse_matrix", None),
    ("visrec.textfeat", "fit_tag_lsa", None),
    ("visrec.textfeat", "build_genre_matrix", None),
    ("visrec.recsys", "train_collective_slim", _train_counts),
    ("visrec.recsys", "InteractionMatrix.restrict", None),
    ("visrec.recsys", "load_ratings_csv", None),
    ("visrec.recsys", "save_model", _file_bytes),
    ("visrec.recsys", "load_model", None),
    ("visrec.recsys", "score", None),
    ("visrec.recsys", "recommend", None),
    ("visrec.evaluation", "make_splits", None),
    ("visrec.evaluation", "collect_observations", _observed),
    ("visrec.pipeline", "run_stage", _stage),
)


class Tracer:
    """Collects spans for the functions in ``TARGETS`` while installed."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[str] = []
        self._next = 0
        self._pid = os.getpid()
        self._spill_depth = None  # set in forked children
        self._swaps: list[tuple[object, str, object, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self._pid = os.getpid()
        self.spans = []
        self._spill_depth = len(self._stack)

    def _wrap(self, name, func, annotate):
        tracer = self

        def traced(*args, **kwargs):
            tracer._next += 1
            span_id = f"{tracer._pid}.{tracer._next}"
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            span = {"name": name, "id": span_id, "parent": parent, "op": tracer.op,
                    "start": start, "end": end}
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            tracer.spans.append(span)
            if tracer._spill_depth == len(tracer._stack):
                tracer.flush()
            return result

        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__module__ = func.__module__
        traced.__doc__ = func.__doc__
        traced.__wrapped__ = func
        return traced

    def flush(self):
        """Append this process's spans to its spill file."""
        with open(self.spill_dir / f"spans-{self._pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def install(self):
        if self._swaps:
            return
        for module_name, path, annotate in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None)
            if func is None:
                continue
            name = f"{module_name.split('.', 1)[1]}.{path}"
            self._swaps.append((owner, attr, func, self._wrap(name, func, annotate)))
        self._rebind(forward=True)

    def uninstall(self):
        self._rebind(forward=False)
        self._swaps = []

    def _rebind(self, forward: bool):
        mapping = {}
        for owner, attr, func, traced in self._swaps:
            old, new = (func, traced) if forward else (traced, func)
            mapping[id(old)] = new
            if not isinstance(owner, type(sys)):
                setattr(owner, attr, new)  # a class attribute, e.g. a method
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "visrec" or module_name.startswith("visrec.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in mapping:
                    namespace[key] = mapping[id(value)]
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if id(dvalue) in mapping:
                            value[dkey] = mapping[id(dvalue)]

    def collect(self) -> list[dict]:
        """Spans of this process plus everything forked workers spilled."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh)
        return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> its duration minus the union of its children's intervals
    (children of a pool run in parallel and may overlap)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


STAGES = ("segment", "extract", "aggregate", "fuse", "textfeat", "train", "evaluate")
DESCRIPTORS = ("scd", "csd", "cld", "ehd", "htd", "mpeg7_all")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], keyframes: int, cuts: int) -> dict[str, float]:
    """Per-layer metrics from the spans of traced operations.

    ``keyframes`` and ``cuts`` are the generated totals summed over the cold
    builds the spans cover (0 where the workload has no video). A layer that
    was never called reads 0.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def dur(span):
        return span["end"] - span["start"]

    def ms(name):
        return 1000.0 * _median(dur(s) for s in named(name))

    def total(name, key):
        return sum(s[key] for s in named(name))

    def under_stage(span, stage):
        parent = span["parent"]
        while parent in by_id:
            span = by_id[parent]
            if span["name"] == "pipeline.run_stage" and span["stage"] == stage:
                return not span["noop"]
            parent = span["parent"]
        return False

    m: dict[str, float] = {}
    m["media.parse_y4m.ms_per_frame"] = 1000.0 * _ratio(
        sum(dur(s) for s in named("media.parse_y4m")), total("media.parse_y4m", "frames"))
    m["media.parse_ppm.ms"] = ms("media.parse_ppm")
    m["shots.detect_shots.ms_per_frame"] = 1000.0 * _ratio(
        sum(dur(s) for s in named("shots.detect_shots")), total("shots.detect_shots", "frames"))
    m["shots.recovered_ratio"] = _ratio(total("shots.detect_shots", "cuts"), cuts)
    for name in DESCRIPTORS:
        m[f"descriptors.{name}.self_ms"] = 1000.0 * _median(
            own[s["id"]] for s in named(f"descriptors.{name}"))
    # the five part descriptors, whether called directly or from mpeg7_all
    m["descriptors.calls_per_keyframe"] = _ratio(
        sum(len(named(f"descriptors.{name}")) for name in DESCRIPTORS[:5]), keyframes)

    m["featureio.write_feature_bin.ms"] = ms("featureio.write_feature_bin")
    m["featureio.read_feature_file.ms"] = ms("featureio.read_feature_file")
    writers = {s["op"] for s in named("featureio.write_feature_bin")}
    m["featureio.bytes_written"] = _ratio(total("featureio.write_feature_bin", "bytes"), len(writers))
    m["aggregate.aggregate.ms"] = ms("aggregate.aggregate")
    m["embeddings.load_embeddings.ms"] = ms("embeddings.load_embeddings")
    m["fusion.fit_cca.ms"] = ms("fusion.fit_cca")
    m["fusion.fuse_matrix.ms"] = ms("fusion.fuse_matrix")
    m["textfeat.fit_tag_lsa.ms"] = ms("textfeat.fit_tag_lsa")
    m["textfeat.build_genre_matrix.ms"] = ms("textfeat.build_genre_matrix")

    train_s = sum(dur(s) for s in named("recsys.train_collective_slim"))
    m["recsys.train_collective_slim.ms_per_epoch"] = 1000.0 * _ratio(
        train_s, total("recsys.train_collective_slim", "epochs"))
    m["recsys.train_pairs_per_s"] = _ratio(
        sum(s["pairs"] * s["epochs"] for s in named("recsys.train_collective_slim")), train_s)
    m["recsys.InteractionMatrix.restrict.ms"] = ms("recsys.InteractionMatrix.restrict")
    evaluates = [s for s in named("pipeline.run_stage") if s["stage"] == "evaluate" and not s["noop"]]
    m["recsys.load_ratings_csv.calls"] = _ratio(
        sum(under_stage(s, "evaluate") for s in named("recsys.load_ratings_csv")), len(evaluates))
    m["recsys.save_model.ms"] = ms("recsys.save_model")
    m["recsys.checkpoint_bytes"] = _median(s["bytes"] for s in named("recsys.save_model"))
    m["recsys.load_model.ms"] = ms("recsys.load_model")
    m["recsys.score.self_us"] = 1e6 * _median(own[s["id"]] for s in named("recsys.score"))
    m["recsys.recommend.self_us"] = 1e6 * _median(own[s["id"]] for s in named("recsys.recommend"))

    m["evaluation.make_splits.ms"] = ms("evaluation.make_splits")
    m["evaluation.collect_observations.ms"] = ms("evaluation.collect_observations")
    m["evaluation.observed_ratio"] = _ratio(
        total("evaluation.collect_observations", "observed"),
        total("evaluation.collect_observations", "relevant"))

    for stage in STAGES:
        runs = [s for s in named("pipeline.run_stage") if s["stage"] == stage]
        m[f"pipeline.run_stage.{stage}.self_ms"] = 1000.0 * _median(
            own[s["id"]] for s in runs if not s["noop"])
        if stage != "train":
            m[f"pipeline.run_stage.{stage}.noop_ms"] = 1000.0 * _median(
                dur(s) for s in runs if s["noop"])
    return m

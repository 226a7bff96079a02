"""The three benchmark workloads: ``trailers``, ``ratings`` and ``serve``.

Each workload drives visrec only through its public functions and its command
line, and reports every end-to-end metric. The timed phase is a series of
rounds, repeated until the budget is spent; each round is

* set-up: a fresh corpus from the seed (``setup_s``); on ``serve`` it also
  builds the model it serves;
* the workload's stage sequence on that cold cache (``build_s``);
* serving the trained model, in slices that alternate warm re-runs of the
  stage sequence, where every stage is up to date (``rerun_s``), a closed
  loop with one client making in-process ``recommend`` calls
  (``recommend_p50_us``, ``recommend_p99_us``), and one cold
  ``python -m visrec.cli recommend`` process (``cold_recommend_ms``).

Rounds and slices spread every metric's samples over the whole run: the
machine's speed drifts over seconds, and a metric sampled in one stretch of
the run spreads far more between runs.

``recommend`` calls and CLI processes are timed on CPU clocks (the calling
thread's, and the child's user + system time). Both are single-threaded pure
compute with BLAS pinned to one thread, so on an idle machine the CPU clock
reads the same as the wall clock; on a shared host it leaves out the time the
work sat descheduled, which otherwise dominates a 100 us call's tail and a
0.6 s process's spread.

``trailers`` builds from raw video (segment ... evaluate(fused), train) and
serves a 4-item catalogue; ``ratings`` builds textfeat, evaluate(tag-lsa) and
train, where training is nearly all the time; ``serve`` builds textfeat and
train(tag-lsa) inside set-up and spends its rounds serving.

Every stage run, ``recommend`` call, CLI process and output check is one
operation in the ``Ledger``; a ``ToolkitError``, a non-zero exit or a failed
check is one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import corpus
from visrec import pipeline, recsys
from visrec.errors import ToolkitError
from visrec.pipeline import PipelineConfig

# Names imported here are not rebound by the tracer, so output checks call
# these untraced; timed work goes through ``pipeline.`` and ``recsys.``.
from visrec.featureio import read_feature_file, read_keyframe_manifest
from visrec.recsys import recommend as untraced_recommend

SRC = Path.cwd() / "src"
TRACE_CLI = Path(__file__).resolve().parent / "tracecli.py"

TOP_N = 10
# recommend_p99_us is the median over windows of this many consecutive calls
# of each window's p99, so that every window has 10 samples above its p99
# and one burst of interference moves one window, not the run's figure
P99_WINDOW = 1000


def children_cpu_s() -> float:
    """User + system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fail(self, what: str):
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)

    def stage(self, stage: str, cfg: PipelineConfig, **kwargs):
        """run_stage counted as one operation; its console output is dropped."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outputs = pipeline.run_stage(stage, cfg, **kwargs)
        except ToolkitError as exc:
            self.fail(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += 1
        return outputs


class Workload:
    """Rounds of set-up, cold build, warm re-runs and serving; subclasses set
    the stage sequence, the feature family and the corpus."""

    stages: tuple[tuple[str, str | None], ...] = ()
    family = "tag-lsa"
    build_in_setup = False  # serve: the build is the model its set-up trains
    calls_per_round = 6000
    cli_per_round = 3
    warm_reruns = 12  # per round; each is cheap, so many give a steady median

    def __init__(self, work: Path, seed: int, jobs: int, ledger: Ledger):
        self.work, self.seed, self.jobs, self.ledger = work, seed, jobs, ledger
        self.tracer = None  # set by the harness for a traced round
        self.setups: list[float] = []
        self.builds: list[float] = []
        self.reruns: list[float] = []
        self.latencies_ns: list[int] = []
        self.cli_ms: list[float] = []
        self.report: bytes | None = None

    def _op(self, name: str):
        if self.tracer is not None:
            self.tracer.op = name

    def round(self, i: int):
        """One round of the timed phase: set-up, cold build, then serving
        interleaved with warm re-runs. Rounds repeat until the budget is
        spent, so every metric samples the whole run rather than one
        stretch of it."""
        self._op(f"setup-{i}")
        t0 = time.perf_counter()
        self.setup()
        self.setups.append(time.perf_counter() - t0)
        if not self.build_in_setup:
            self._op(f"build-{i}")
            self._build()
        self._serve(i)

    def setup(self):
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        self.truth = self.make_corpus(self.work / "corpus")
        self.config = self.truth["config"]
        if self.build_in_setup:
            self._build()

    def _sequence(self, cfg: PipelineConfig) -> list:
        return [self.ledger.stage(stage, cfg, jobs=self.jobs, **({"family": fam} if fam else {}))
                for stage, fam in self.stages]

    def _build(self):
        cfg = PipelineConfig.from_json(self.config)
        t0 = time.perf_counter()
        results = self._sequence(cfg)
        self.builds.append(time.perf_counter() - t0)
        self.ledger.check(all(results), "cold build left a stage up to date")
        self.check_outputs(cfg)

    def _rerun(self, cfg: PipelineConfig, times: int):
        for _ in range(times):
            t0 = time.perf_counter()
            results = self._sequence(cfg)
            self.reruns.append(time.perf_counter() - t0)
            self.ledger.check(results == [[]] * len(results), "warm re-run rebuilt a stage")

    def check_outputs(self, cfg: PipelineConfig):
        path = cfg.cache_dir / "evaluate" / f"report_{self.family}.csv"
        report = path.read_bytes() if path.exists() else b""
        if self.report is None:
            self.report = report
        # every build of one seed's corpus, untraced or traced, writes the same bytes
        self.ledger.check(bool(report) and report == self.report,
                          "evaluate report differs between builds of one corpus")

    def _serve(self, i: int):
        """Warm re-runs, in-process calls and CLI processes, in slices that
        alternate so that each kind of sample spreads over the round."""
        cfg = PipelineConfig.from_json(self.config)
        self._op(f"load-{i}")
        model = recsys.load_model(cfg.cache_dir / "train" / f"model_{self.family}.bin")
        R = recsys.load_ratings_csv(cfg.ratings, item_ids=list(model.item_ids))
        self.model, self.R = model, R
        users = R.user_ids
        rated = {user: {R.item_ids[k] for k in R.user_ratings(R.user_index(user))[0]}
                 for user in users}
        # round i draws the same users whether it runs untraced or traced
        rng = np.random.default_rng([self.seed, 4, i])
        # distinct CLI users, so that no call is a no-op on this round's fresh cache
        cli_users = [users[k] for k in rng.choice(len(users), self.cli_per_round, replace=False)]
        slices = self.cli_per_round + 1
        for s in range(slices):
            self._op(f"rerun-{i}-{s}")
            self._rerun(cfg, self.warm_reruns // slices)
            for call in range(self.calls_per_round // slices):
                user = users[int(rng.integers(len(users)))]
                self._op(f"call-{i}-{s}-{call}")
                t0 = time.thread_time_ns()
                try:
                    items = recsys.recommend(model, R, user, TOP_N)
                except ToolkitError as exc:
                    self.ledger.fail(f"recommend({user}): {exc}")
                    continue
                self.latencies_ns.append(time.thread_time_ns() - t0)
                self.ledger.attempted += 1
                want = min(TOP_N, len(model.item_ids) - len(rated[user]))
                self.ledger.check(len(items) == want and len(set(items)) == want
                                  and not rated[user] & set(items),
                                  f"recommend({user}) is not {want} distinct unrated ids")
            if s < len(cli_users):
                self._op(f"cli-{i}-{s}")
                self._cli_check(model, R, cli_users[s])

    def _cli_check(self, model, R, user):
        t0 = children_cpu_s()
        proc = self._cli(user)
        self.cli_ms.append(1000.0 * (children_cpu_s() - t0))
        if proc.returncode != 0:
            self.ledger.fail(f"cli recommend --user {user}: exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}")
            return
        self.ledger.attempted += 1
        rows = [line.split(",") for line in proc.stdout.splitlines()]
        got = [int(row[1]) for row in rows if len(row) == 2 and row[0].isdigit()]
        self.ledger.check(got == untraced_recommend(model, R, user, TOP_N),
                          f"cli recommend --user {user} differs from the in-process result")

    def _cli(self, user) -> subprocess.CompletedProcess:
        args = ["--config", self.config, "recommend", "--features", self.family,
                "--user", str(user), "-n", str(TOP_N)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "visrec.cli", *args]
        else:
            cmd = [sys.executable, str(TRACE_CLI), str(self.tracer.spill_dir), self.tracer.op, *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=150)

    def video_truth(self, rounds: int) -> tuple[int, int]:
        """Generated keyframes and cuts summed over the cold builds of
        ``rounds`` rounds."""
        return (self.truth.get("keyframes_total", 0) * rounds,
                self.truth.get("cuts_total", 0) * rounds)

    def quality(self) -> tuple[float, float]:
        """Protocol recall@10 and MAP@10 means from the evaluate report."""
        found = {}
        for line in self.report.decode().splitlines():
            family, metric, cutoff, fold, value = line.split(",")
            if (family, cutoff, fold) == ("protocol", str(TOP_N), "mean"):
                found[metric] = float(value)
        return found["recall"], found["map"]

    def metrics(self) -> dict:
        """name -> (value, sample count)."""
        lat_us = [ns / 1000.0 for ns in self.latencies_ns]
        windows = range(0, len(lat_us) - P99_WINDOW + 1, P99_WINDOW)
        p99s = [statistics.quantiles(lat_us[w : w + P99_WINDOW], n=100)[98] for w in windows]
        recall, ap = self.quality()
        return {
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "build_s": (statistics.median(self.builds), len(self.builds)),
            "rerun_s": (statistics.median(self.reruns), len(self.reruns)),
            "recall_at_10": (recall, 1),
            "map_at_10": (ap, 1),
            "recommend_p50_us": (statistics.median(lat_us), len(lat_us)),
            "recommend_p99_us": (statistics.median(p99s), len(lat_us)),
            "cold_recommend_ms": (statistics.median(self.cli_ms), len(self.cli_ms)),
        }


class Trailers(Workload):
    """Raw video to a report: media, shots and descriptors do the work."""

    stages = (("segment", None), ("extract", None), ("aggregate", None),
              ("fuse", None), ("textfeat", None), ("evaluate", "fused"), ("train", "fused"))
    family = "fused"
    cli_per_round = 6  # its rounds are long, so more CLI samples per round

    def make_corpus(self, out: Path) -> dict:
        return corpus.make_trailers(out, self.seed)

    def check_outputs(self, cfg: PipelineConfig):
        super().check_outputs(cfg)
        expected = sorted((m, kf) for m, kfs in self.truth["keyframes"].items() for kf in kfs)
        try:
            manifest = sorted(read_keyframe_manifest(cfg.cache_dir / "segment" / "keyframe_manifest.csv"))
        except (OSError, ToolkitError):
            manifest = None
        self.ledger.check(manifest == expected, "keyframe manifest differs from the generated middle frames")
        try:
            widths = [len(r.vector) for r in read_feature_file(
                cfg.cache_dir / "aggregate" / "features" / "MPEG7_ALL.movies.bin")]
        except (OSError, ToolkitError):
            widths = []
        self.ledger.check(widths == [774] * corpus.TRAILERS,
                          f"MPEG7_ALL movie vectors are not {corpus.TRAILERS} x 774: {widths}")


class Ratings(Workload):
    """A recommender from ratings and tags; training is nearly the whole build."""

    stages = (("textfeat", None), ("evaluate", "tag-lsa"), ("train", "tag-lsa"))
    EPOCHS = 1

    def make_corpus(self, out: Path) -> dict:
        return corpus.make_ratings(out, self.seed, epochs=self.EPOCHS)


class Serve(Ratings):
    """Reading a trained S: set-up trains one model on a ratings-shaped
    corpus, and the rest of each round serves it."""

    stages = (("textfeat", None), ("train", "tag-lsa"))
    build_in_setup = True
    calls_per_round = 8000
    cli_per_round = 3

    def check_outputs(self, cfg: PipelineConfig):
        model = cfg.cache_dir / "train" / f"model_{self.family}.bin"
        self.ledger.check(model.is_file(), "train wrote no model")

    def quality(self) -> tuple[float, float]:
        """Recall@10 and MAP@10 of every user's served list, against the
        unrated items of the user's generated taste cluster."""
        recalls, aps = [], []
        for user in self.R.user_ids:
            items = untraced_recommend(self.model, self.R, user, TOP_N)
            rated = {self.R.item_ids[i] for i in self.R.user_ratings(self.R.user_index(user))[0]}
            relevant = set(self.truth["taste"][user]) - rated
            hits = [item in relevant for item in items]
            denom = min(TOP_N, len(relevant))
            recalls.append(sum(hits) / denom)
            aps.append(sum(sum(hits[: k + 1]) / (k + 1) for k, hit in enumerate(hits) if hit) / denom)
        return float(np.mean(recalls)), float(np.mean(aps))


WORKLOADS = {"trailers": Trailers, "ratings": Ratings, "serve": Serve}

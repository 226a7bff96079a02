#!/usr/bin/env python3
"""visrec benchmark: one workload per process, from the root of a checkout.

    python3 perfbench/run.py --workload trailers --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every round
untraced and traced, and prints the per-layer metrics and the tracing
overhead. ``--workload all`` runs every workload, each in its own
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and each metric's sample count. The exit code is 0 only
when every operation and output check succeeded.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy loads; the values found are reported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
INHERITED_THREAD_ENV = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
os.environ.update({k: "1" for k in THREAD_VARS})

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("trailers", "ratings", "serve")
MIN_ROUNDS = 2
CLI_IMPORT_RUNS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a plain export that has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(jobs: int, seed: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "usable_cores": jobs,
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {"inherited": INHERITED_THREAD_ENV,
                       "pinned": {k: os.environ[k] for k in THREAD_VARS}},
        "jobs": jobs,
        "seed": seed,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cli_import_ms() -> float:
    """Median CPU time (user + system) of a cold ``python -c "import
    visrec.cli"``, on the same clock as ``cold_recommend_ms``."""
    from workloads import children_cpu_s

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_IMPORT_RUNS):
        t0 = children_cpu_s()
        subprocess.run([sys.executable, "-c", "import visrec.cli"], env=env, check=True, timeout=120)
        times.append(1000.0 * (children_cpu_s() - t0))
    return statistics.median(times)


def emit(result: dict, samples: dict) -> None:
    for name, metric in result["metrics"].items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}{count}")
    print(json.dumps(result), flush=True)


def run_rounds(budget_s: float, step) -> int:
    """Calls ``step(i)`` for i = 0, 1, ... while at least half of the next
    call, as long as the last, fits in the budget, and at least MIN_ROUNDS
    times; returns the count. Rounding to the nearest count rather than down
    keeps a workload whose rounds take about a third of the budget at the
    same count over a wide band of machine speeds, where flooring would
    flip it between two and three rounds."""
    begin = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - begin + last / 2 <= budget_s:
        t0 = time.perf_counter()
        step(rounds)
        last = time.perf_counter() - t0
        rounds += 1
    return rounds


def traced_layers(args, workload, work: Path) -> dict[str, float]:
    """Each round runs twice, untraced and traced, close together in time;
    the order alternates between rounds, as the second pass of a pair runs
    warmer. The per-layer metrics come from the traced rounds' spans."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer(work / "spans")
    seconds = {False: 0.0, True: 0.0}

    def pair(i):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                workload.tracer = tracer
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.round(i)
            finally:
                seconds[traced] += time.perf_counter() - t0
                tracer.uninstall()
                workload.tracer = None

    rounds = run_rounds(args.seconds, pair)
    print(f"# {rounds} round pairs: untraced {seconds[False]:.3f} s, traced {seconds[True]:.3f} s")
    spans = tracer.collect()
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in spans)
    layers = layer_metrics(spans, *workload.video_truth(rounds))
    layers["cli.import_ms"] = cli_import_ms() if args.workload == "serve" else 0.0
    layers["trace.overhead_ratio"] = seconds[True] / seconds[False]
    return layers


def run_workload(args) -> int:
    if not (SRC / "visrec" / "__init__.py").is_file():
        print(f"error: no visrec sources under {SRC}; run from the root of a visrec checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import visrec

    if not Path(visrec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: visrec imported from {visrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Ledger

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    jobs = len(os.sched_getaffinity(0))
    print("# environment " + json.dumps(environment(jobs, args.seed)))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    ledger = Ledger()
    workload = WORKLOADS[args.workload](work, args.seed, jobs, ledger)
    try:
        if args.trace:
            measured = {name: (value, None) for name, value in traced_layers(args, workload, work).items()}
        else:
            run_rounds(args.seconds, workload.round)
            measured = workload.metrics()
            measured["peak_rss_mb"] = (peak_rss_mb(), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for problem in ledger.problems[:20]:
            print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        # a layer this workload never calls reads 0
        "metrics": {m["name"]: {"value": measured.get(m["name"], (0.0, None))[0], "unit": m["unit"]}
                    for m in wanted},
    }
    emit(result, {name: n for name, (_, n) in measured.items() if n})
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"# workload {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            if not lines or not lines[-1].startswith("{"):
                continue
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    if status and not combined["metrics"]:
        return status
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    arguments = parse_args(sys.argv[1:])
    sys.exit(run_all(arguments) if arguments.workload == "all" else run_workload(arguments))

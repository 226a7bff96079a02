#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workloads trailers,ratings,serve --seeds 1-10 \
        [--seconds 20] [--out perfbench/results/baseline.json]

Runs ``run.py`` once per workload and seed, one run at a time, from the root
of a checkout. For each metric it reports the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of that median, next to the metric's bound and a third of
it. With ``--out`` it writes every run's result and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="trailers,ratings,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, status = [], {}, 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "wall_s": wall, "result": result})
            if result is None or not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            print(f"{workload} seed {seed}: {wall:.1f} s, {result['attempted']} ops", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                q1 = q3 = spread = None
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {workload:<9} {name:<44} median {med:<12.6g} spread {shown:<8} "
                  f"bound {bound if bound is not None else '-'} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": seconds, "summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

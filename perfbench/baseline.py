"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

Each run is its own process (``run.py``), one after another, with the run
length from ``BENCHMARK.json``.  For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the environment line of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to record the summary in, under "
                        "\"end_to_end\" or \"per_layer\" (other keys are kept)")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {}
    env = None
    for workload in names:
        runs = []
        for seed in seed_list(args.seeds):
            result, env = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(result)
        failed = sum(r["failed"] for r in runs)
        rows = {}
        for metric, first in runs[0]["metrics"].items():
            rows[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            rows[metric]["unit"] = first["unit"]
        summary[workload] = {"failed": failed,
                             "attempted": sum(r["attempted"] for r in runs),
                             "metrics": rows}
        print(f"{workload}: {len(runs)} runs, {failed} failed operations")
        for metric, row in rows.items():
            bound = bounds.get(metric)
            mark = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER BOUND" if row["spread"] > bound
                else "  over 1/3 bound" if row["spread"] > bound / 3 else "")
            print(f"  {metric:<32} median {row['median']:>12.6g} {row['unit']:<6} "
                  f"q1 {row['q1']:>12.6g} q3 {row['q3']:>12.6g} "
                  f"spread {100 * row['spread']:6.2f}%{mark}", flush=True)
    if args.out:
        record = {}
        if os.path.isfile(args.out):
            with open(args.out, encoding="utf-8") as f:
                record = json.load(f)
        record["per_layer" if args.trace else "end_to_end"] = {
            "run_seconds": bench["run_seconds"], "seeds": args.seeds, "env": env,
            "workloads": summary}
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

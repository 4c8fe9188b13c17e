"""Smoke test of the benchmark.

    python3 perfbench/smoke.py [--workload NAME ...]

Runs every workload at its shortest length (``--seconds 0``: the minimum
number of units), untraced and traced, each in its own process, and checks
that the result line holds every metric named in ``BENCHMARK.json`` with
its unit, that the checks passed, and that every metric is also printed by
name with its unit on the lines before.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"checks failed: {result.get('failed')} of {result.get('attempted')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metrics missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{name}: value {got.get('value')!r}")
        printed = any(line.split()[1:2] == [name] and line.split()[-1] == unit
                      for line in lines[:-1] if len(line.split()) >= 4)
        if not printed:
            errors.append(f"{name} is not printed with its unit")
    return errors


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    bad = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            t0 = time.perf_counter()
            errors = check_run(workload, trace, expected[trace])
            status = "ok" if not errors else "FAIL"
            print(f"{status:<4} {workload} --trace {trace} ({time.perf_counter() - t0:.0f} s)")
            for error in errors:
                print(f"     {error}")
            bad += bool(errors)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

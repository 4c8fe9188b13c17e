"""sydes benchmark: one workload per process.

    python3 perfbench/run.py --workload desk-pretrain --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped but the
closed-loop clocks; ``--trace 1`` is a separate run that wraps the public
entry points of each ``sydes`` module and reports the per-layer metrics,
including its own overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it record the environment and every metric with its unit.

See ``perfbench/README.md`` for the workloads, the metrics and the mapping
from per-layer to end-to-end metrics.
"""

from __future__ import annotations

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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS thread (at most nproc): steadier timings on a shared 2-core
# machine, and the same thread count for every commit compared.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SYDES_THREADS")

# Set-up, and the program's start (a fresh interpreter importing numpy,
# scipy and sydes, in a child process), are timed this many times and their
# medians reported: once before the first unit, the rest spread over the
# measuring time.  A shared host's speed can drift over seconds; set-up timed
# in one burst would see one moment of it, the units see the whole run.
SETUPS = 5

WORKLOADS = ("desk-pretrain", "desk-finetune", "gradcheck", "fullscale-pretrain")


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def start_time(modules) -> float:
    """Seconds for a fresh interpreter to start and import numpy, scipy and
    the sydes ``modules`` from ``src/``."""
    code = "; ".join(["import sys", f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})",
                      "import numpy, scipy", *(f"import sydes.{m}" for m in modules)])
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def run(args) -> dict:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np
    import scipy

    import tracer as tracing
    import workloads

    sy = workloads.load_sydes(ROOT)
    env = environment(np, scipy)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, sy)
    tracer = tracing.Tracer() if args.trace else None
    try:
        return measure(args, sy, wl, tracer, work, env)
    finally:
        if tracer is not None:
            tracer.remove()
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, sy, wl, tracer, work, env) -> dict:
    from workloads import SYDES_MODULES, UnitResult

    starts, setups = [], []

    def sample_set_up() -> None:
        """Time one program start and one set-up; the set-up replaces the
        previous one, with the same seed, so the units that follow do the
        same work as before."""
        if tracer is None:
            starts.append(start_time(SYDES_MODULES))
        t0 = time.perf_counter()
        wl.setup(args.seed, os.path.join(work, f"setup{len(setups)}"))
        setups.append(time.perf_counter() - t0)
        shutil.rmtree(os.path.join(work, f"setup{len(setups) - 2}"), ignore_errors=True)

    if tracer is not None:
        tracer.install(sy)
    sample_set_up()
    if tracer is not None:
        arrays_s = tracer.total["data.arrays"]
        tracer.remove()
        tracer.reset()
        tracer.clear_spans()
        if wl.model is not None:
            tracer.watch_model(wl.model)

    # Units alternate untraced / traced in a traced run; the untraced ones
    # give the wall time the tracing overhead is measured against.
    plain, traced = [], []
    results, digests, census = [], [], []
    tally = UnitResult()
    # A unit is started while the measured time would end nearer to
    # ``--seconds`` with it than without it, so that long units do not
    # overshoot by most of a unit.
    while (len(plain) < 2 or (tracer is not None and len(traced) < 2)
           or sum(plain) + sum(traced) + statistics.mean(plain) / 2 < args.seconds):
        if tracer is None and args.seconds > 0:
            measured = sum(plain) / args.seconds
            while len(setups) < SETUPS and len(setups) <= measured * (SETUPS - 1):
                sample_set_up()
        trace_this = tracer is not None and len(traced) < len(plain)
        wl.reset()
        ops_before = len(wl.ops.times)
        if trace_this:
            counts_before = dict(tracer.counts)
            fd_before = tracer.calls["gradcheck.fd"]
            tracer.install(sy)
        t0 = time.perf_counter()
        try:
            result = wl.attempt(os.path.join(work, "unit"))
        finally:
            if trace_this:
                tracer.remove()
        wall = time.perf_counter() - t0
        if trace_this:
            traced.append(wall)
            census.append({k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
                          | {"fd_calls": tracer.calls["gradcheck.fd"] - fd_before})
        else:
            plain.append(wall)
            if not result.failed:
                results.append((result, wall, wl.ops.times[ops_before:]))
                digests.append(result.digest())
        tally.merge(result)
    if not results:
        raise RuntimeError("no unit completed: " + "; ".join(tally.notes[:3]))
    while tracer is None and len(setups) < SETUPS:
        sample_set_up()

    # Equal seeds inside one invocation: equal final loss and equal
    # checkpoint bytes (or gradcheck results), and an exactly repeating tape.
    for digest in digests[1:]:
        tally.check(digest == digests[0],
                    "equal-seed units differ in final loss or checkpoint bytes")
    for counts in census[1:]:
        tally.check(counts == census[0], "tape census differs between equal-seed units")

    extras = {}
    if tracer is None:
        metrics, extras = end_to_end(wl, results, setups, starts)
    else:
        # Each traced unit against the untraced unit just before it.
        overhead = statistics.median(t / p - 1 for p, t in zip(plain, traced))
        metrics = tracer.layer_metrics(len(traced), arrays_s, overhead)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.json"),
                     {"workload": args.workload, "seed": args.seed, "env": env,
                      "traced_units": len(traced)})
    for note in tally.notes[:10]:
        print(f"FAILED: {note}")
    for name, (value, unit) in (metrics | extras).items():
        print(f"{args.workload:<20} {name:<32} {value:>14.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end(wl, results, setups, starts) -> tuple[dict, dict]:
    """The end-to-end metrics, and the workload-specific figures printed
    for reading only."""
    import numpy as np

    ops = [t for _, _, times in results for t in times]
    step_s = sum(ops)
    unit_s = sum(wall for _, wall, _ in results)
    train = sum(r.train_samples for r, _, _ in results)
    coords = sum(r.coords for r, _, _ in results)
    metrics = {
        "setup_s": (statistics.median(starts) + statistics.median(setups), "s"),
        "wall_s": (unit_s / len(results), "s"),
        "step_ms_p50": (1e3 * float(np.percentile(ops, 50)), "ms"),
        "step_ms_p90": (1e3 * float(np.percentile(ops, 90)), "ms"),
        "items_per_s": (train / step_s if train else coords / unit_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "final_loss": (results[-1][0].final_loss, "loss"),
    }
    extras = {"timed_ops": (len(ops), "count"), "timed_units": (len(results), "count"),
              "start_s": (statistics.median(starts), "s"),
              "setup_only_s": (statistics.median(setups), "s")}
    if train:
        extras["train_samples_per_s"] = (train / step_s, "1/s")
    if coords:
        extras["gradcheck_coords_per_s"] = (coords / unit_s, "1/s")
    if wl.eval is not None and wl.eval.times:
        extras["eval_samples_per_s"] = (wl.eval_samples / sum(wl.eval.times), "1/s")
    return metrics, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least two units always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (FileNotFoundError, ImportError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

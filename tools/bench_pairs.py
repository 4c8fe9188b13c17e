"""Paired benchmark runs of two commits, written to ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload W \\
        --pairs N --seconds S --label L

Checks out each REV with ``git worktree add --detach`` in a temporary
directory (an omitted ``--change`` means this checkout, as it is on disk),
then runs ``perfbench/run.py --workload W --seconds S --trace 0`` N times
on each side.  Pair i uses seed ``SEED_BASE + i`` on both sides, and the
side that runs first alternates from pair to pair, so a drift in the
host's speed falls on both sides alike.  The worktrees are removed when the tool ends, also
after an error.

``BENCH_<label>.json`` in this checkout holds the two commits, the output
lines of ``tools/artifact_digest.py --root`` and the ``src/`` line count
(``src_lines``) of each checkout (both taken once per file, before the
first workload's pairs) and, per workload, every run's result line and
``env`` line and, per end-to-end metric of ``BENCHMARK.json``, both sides'
medians and quartiles, the change's wins per pair and the verdicts of
``resolved`` and ``regression``.  Each workload also records, and the
printed summary shows, each side's failed and attempted operations.  The
printed summary ends with both sides' ``src/`` line counts and their
difference.
Running the tool again with the same label and commits adds or replaces
that workload's entry, so one file can hold every workload of one change.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1101


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, interpolated linearly between order
    statistics (numpy's default percentile rule)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the parent; ties count
    for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)


def resolved(parent: list[float], change: list[float], better: str) -> bool:
    """True when the change is better: at least 10 pairs were run, it wins
    at least 9 pairs in 10, and its median is better than the parent's by
    more than the parent's interquartile range."""
    q1, q3 = quartiles(parent)
    gap = statistics.median(parent) - statistics.median(change)
    if better != "lower":
        gap = -gap
    return (len(parent) >= 10 and 10 * wins(parent, change, better) >= 9 * len(parent)
            and gap > q3 - q1)


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change is worse, with ``bound`` taken relative to the
    parent's median: "worse" when the change's median is worse than the
    parent's by more than the bound; "unresolved" when the parent's
    interquartile range is wider than the bound and not every change run
    beats every parent run; "within" otherwise."""
    limit = bound * abs(statistics.median(parent))
    loss = statistics.median(change) - statistics.median(parent)
    beats_all = max(change) < min(parent)
    if better != "lower":
        loss, beats_all = -loss, min(change) > max(parent)
    if loss > limit:
        return "worse"
    q1, q3 = quartiles(parent)
    if q3 - q1 > limit and not beats_all:
        return "unresolved"
    return "within"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric (``BENCHMARK.json`` entries with ``name``,
    ``unit``, ``better`` and ``bound``): each side's median and quartiles
    over ``runs``, the ratio of medians, the change's wins and the verdicts
    of ``resolved`` and ``regression``.
    Each run is ``{"pair", "side", "result"}`` with ``side`` "parent" or
    "change" and ``result`` the result line of ``perfbench/run.py``."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["side"]][run["pair"]] = run["result"]
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [sides[side][i]["metrics"][name]["value"] for i in pairs]
                  for side in sides}
        entry = {"unit": metric["unit"], "better": better, "pairs": len(pairs)}
        for side, vals in values.items():
            q1, q3 = quartiles(vals)
            entry |= {f"{side}_median": statistics.median(vals),
                      f"{side}_q1": q1, f"{side}_q3": q3}
        entry["parent_iqr"] = entry["parent_q3"] - entry["parent_q1"]
        entry["ratio"] = (entry["change_median"] / entry["parent_median"]
                          if entry["parent_median"] else None)
        entry["wins"] = wins(values["parent"], values["change"], better)
        entry["resolved"] = resolved(values["parent"], values["change"], better)
        entry["regression"] = regression(values["parent"], values["change"], better,
                                         metric["bound"])
        summary[name] = entry
    for side in sides:
        summary[f"{side}_failed"] = sum(sides[side][i]["failed"] for i in pairs)
        summary[f"{side}_attempted"] = sum(sides[side][i]["attempted"] for i in pairs)
    return summary


def summary_lines(workload: str, summary: dict, metrics: list[dict]) -> list[str]:
    """The printed summary of one workload: a line per end-to-end metric,
    then each side's failed and attempted operations."""
    lines = []
    for metric in metrics:
        e = summary[metric["name"]]
        lines.append(f"{workload:<20} {metric['name']:<12} parent {e['parent_median']:.6g} "
                     f"(IQR {e['parent_iqr']:.3g}) change {e['change_median']:.6g} "
                     f"wins {e['wins']}/{e['pairs']} resolved {e['resolved']} "
                     f"regression {e['regression']}")
    lines.append(f"{workload:<20} failed       "
                 f"parent {summary['parent_failed']}/{summary['parent_attempted']} "
                 f"change {summary['change_failed']}/{summary['change_attempted']}")
    return lines


def git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def src_lines(checkout: str) -> int:
    """The line count ``wc -l src/sydes/*.py`` gives in ``checkout``: the
    newlines of every module of the package."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "sydes", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its ``env``
    line and its result line, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600 + 10 * seconds)
    lines = proc.stdout.strip().splitlines()
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    if proc.returncode != 0 or not env or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return {"env": env[0], "result": json.loads(lines[-1])}


def digest_lines(checkout: str) -> list[str]:
    """The output lines of this checkout's ``tools/artifact_digest.py``
    run on the sources of ``checkout``."""
    cmd = [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py"), "--root", checkout]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n" + proc.stderr[-2000:])
    return proc.stdout.strip().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit compared against")
    parser.add_argument("--change", help="the changed commit (default: this checkout)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"--label {args.label!r}: use letters, digits, '.', '_' and '-'")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"--workload {args.workload!r} is not a workload of BENCHMARK.json")
    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": git("rev-parse", "--verify", (args.change or "HEAD") + "^{commit}")}
    if args.change is None:
        commits["change_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    report = {"commits": commits, "workloads": {}}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as f:
            report = json.load(f)
        if report["commits"] != commits:
            raise SystemExit(f"{out_path} holds other commits {report['commits']}; "
                             "use another --label")

    tmp = tempfile.mkdtemp(prefix="bench_pairs-")
    checkouts, added = {"change": ROOT}, []
    try:
        for side in ("parent",) if args.change is None else ("parent", "change"):
            path = os.path.join(tmp, side)
            git("worktree", "add", "--detach", path, commits[side])
            added.append(path)
            checkouts[side] = path
        if "digests" not in report:
            report["digests"] = {side: digest_lines(checkouts[side])
                                 for side in ("parent", "change")}
        if "src_lines" not in report:
            report["src_lines"] = {side: src_lines(checkouts[side])
                                   for side in ("parent", "change")}
        runs = []
        for i in range(args.pairs):
            seed = SEED_BASE + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = {"pair": i, "side": side, "seed": seed}
                run |= run_once(checkouts[side], args.workload, seed, args.seconds)
                runs.append(run)
                step = run["result"]["metrics"]["step_ms_p50"]["value"]
                print(f"pair {i} seed {seed} {side:<6} step_ms_p50 {step:.2f}", flush=True)
    finally:
        for path in added:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path],
                           capture_output=True, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True,
                       check=False)

    summary = summarize(runs, metrics)
    report["workloads"][args.workload] = {
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": [SEED_BASE + i for i in range(args.pairs)],
        "summary": summary, "runs": runs}
    with open(out_path + ".tmp", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(out_path + ".tmp", out_path)
    for line in summary_lines(args.workload, summary, metrics):
        print(line)
    lines = report["src_lines"]
    print(f"src lines parent {lines['parent']} change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

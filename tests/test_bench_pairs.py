"""``tools/bench_pairs.py``: the pairing verdict, the per-metric summary and
the recorded digests, on canned ``perfbench/run.py`` result lines and
``tools/artifact_digest.py`` output (no subprocess is run)."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(step, items, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"step_ms_p50": {"value": step, "unit": "ms"},
                        "items_per_s": {"value": items, "unit": "1/s"}}}


def canned_runs(parent_steps, change_steps):
    """Runs in the tool's order: the side that runs first alternates."""
    runs = []
    for i, (p, c) in enumerate(zip(parent_steps, change_steps)):
        pair = [{"pair": i, "side": "parent", "result": result(p, 1000.0 / p)},
                {"pair": i, "side": "change", "result": result(c, 1000.0 / c, failed=i % 2)}]
        runs += pair if i % 2 == 0 else pair[::-1]
    return runs


class TestResolved:
    PARENT = [100.0, 104.0, 98.0, 110.0, 102.0, 101.0, 99.0, 105.0, 103.0, 100.0]

    def test_nine_of_ten_wins_and_gap_above_iqr(self):
        change = [p - 10.0 for p in self.PARENT]
        change[3] = 111.0  # one lost pair of ten
        assert bench_pairs.wins(self.PARENT, change, "lower") == 9
        assert bench_pairs.resolved(self.PARENT, change, "lower")

    def test_eight_wins_are_not_enough(self):
        change = [p - 10.0 for p in self.PARENT]
        change[3], change[5] = 111.0, 120.0
        assert bench_pairs.wins(self.PARENT, change, "lower") == 8
        assert not bench_pairs.resolved(self.PARENT, change, "lower")

    def test_every_win_but_gap_inside_iqr(self):
        change = [p - 0.5 for p in self.PARENT]
        assert bench_pairs.wins(self.PARENT, change, "lower") == 10
        q1, q3 = bench_pairs.quartiles(self.PARENT)
        assert q3 - q1 > 0.5
        assert not bench_pairs.resolved(self.PARENT, change, "lower")

    def test_ties_count_for_neither_side(self):
        assert bench_pairs.wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower") == 1
        assert bench_pairs.wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher") == 1

    def test_higher_is_better(self):
        parent = [1.0, 1.1, 0.9, 1.0] * 2 + [1.0, 1.1]
        faster = [2.0, 2.1, 1.9, 2.0] * 2 + [2.0, 2.1]
        assert bench_pairs.resolved(parent, faster, "higher")
        assert not bench_pairs.resolved(parent, faster, "lower")
        assert bench_pairs.resolved(faster, parent, "lower")

    def test_fewer_than_ten_pairs_never_resolve(self):
        assert not bench_pairs.resolved([10.0, 10.0, 10.0], [5.0, 5.0, 5.0], "lower")
        assert not bench_pairs.resolved([10.0], [5.0], "lower")
        assert not bench_pairs.resolved(self.PARENT[:9], [p - 10.0 for p in self.PARENT[:9]],
                                        "lower")
        assert bench_pairs.resolved(self.PARENT, [p - 10.0 for p in self.PARENT], "lower")


class TestRegression:
    """The regression verdict, its bound (25% here) taken relative to the
    parent's median of 100."""

    PARENT = [100.0, 104.0, 98.0, 110.0, 102.0, 101.0, 99.0, 105.0, 103.0, 100.0]
    NOISY = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 100.0, 100.0]

    def test_median_worse_by_more_than_the_bound(self):
        slower = [p * 1.3 for p in self.PARENT]
        assert bench_pairs.regression(self.PARENT, slower, "lower", 0.25) == "worse"
        items = [1000.0 / p for p in self.PARENT]
        assert bench_pairs.regression(items, [0.7 * v for v in items], "higher", 0.25) == "worse"

    def test_median_worse_by_less_than_the_bound_is_within(self):
        slower = [p * 1.2 for p in self.PARENT]
        assert bench_pairs.regression(self.PARENT, slower, "lower", 0.25) == "within"
        assert bench_pairs.regression(self.PARENT, self.PARENT, "lower", 0.25) == "within"
        assert bench_pairs.regression(self.PARENT, slower, "higher", 0.25) == "within"

    def test_parent_iqr_wider_than_the_bound_is_unresolved(self):
        q1, q3 = bench_pairs.quartiles(self.NOISY)
        assert q3 - q1 > 25.0
        assert bench_pairs.regression(self.NOISY, [95.0] * 10, "lower", 0.25) == "unresolved"
        assert bench_pairs.regression(self.NOISY, [105.0] * 10, "higher", 0.25) == "unresolved"

    def test_wide_parent_iqr_with_every_run_beaten_is_within(self):
        assert bench_pairs.regression(self.NOISY, [50.0] * 10, "lower", 0.25) == "within"
        assert bench_pairs.regression(self.NOISY, [150.0] * 10, "higher", 0.25) == "within"
        one_not_beating = [50.0] * 9 + [60.0]
        assert bench_pairs.regression(self.NOISY, one_not_beating, "lower", 0.25) == "unresolved"


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0)


def test_summary_per_metric():
    parent = [100.0, 104.0, 98.0, 110.0]
    change = [90.0, 95.0, 99.0, 97.0]
    summary = bench_pairs.summarize(canned_runs(parent, change), METRICS)
    step = summary["step_ms_p50"]
    assert step["pairs"] == 4 and step["unit"] == "ms" and step["better"] == "lower"
    assert step["parent_median"] == 102.0 and step["change_median"] == 96.0
    assert (step["parent_q1"], step["parent_q3"]) == (99.5, 105.5)
    assert step["parent_iqr"] == 6.0
    assert step["ratio"] == pytest.approx(96.0 / 102.0)
    assert step["wins"] == 3 and step["resolved"] is False
    assert step["regression"] == "within"
    items = summary["items_per_s"]
    assert items["better"] == "higher" and items["wins"] == 3
    assert items["change_median"] > items["parent_median"]
    assert summary["parent_failed"] == 0 and summary["change_failed"] == 2
    assert summary["parent_attempted"] == summary["change_attempted"] == 40


def test_summary_lines_print_failed_operations():
    parent = [100.0, 104.0, 98.0, 110.0]
    change = [90.0, 95.0, 99.0, 97.0]
    summary = bench_pairs.summarize(canned_runs(parent, change), METRICS)
    lines = bench_pairs.summary_lines("gradcheck", summary, METRICS)
    assert len(lines) == len(METRICS) + 1
    assert lines[0].split()[:2] == ["gradcheck", "step_ms_p50"]
    assert lines[0].split()[-2:] == ["regression", "within"]
    assert lines[-1].split() == ["gradcheck", "failed", "parent", "0/40", "change", "2/40"]


def test_summary_resolves_a_clear_gain():
    parent = [100.0 + i % 3 for i in range(10)]
    change = [90.0 + i % 3 for i in range(10)]
    summary = bench_pairs.summarize(canned_runs(parent, change), METRICS)
    assert summary["step_ms_p50"]["wins"] == 10 and summary["step_ms_p50"]["resolved"]
    assert summary["items_per_s"]["wins"] == 10 and summary["items_per_s"]["resolved"]
    assert summary["step_ms_p50"]["regression"] == summary["items_per_s"]["regression"] == "within"


def test_summary_flags_a_regression():
    parent = [100.0 + i % 3 for i in range(10)]
    change = [130.0 + i % 3 for i in range(10)]
    summary = bench_pairs.summarize(canned_runs(parent, change), METRICS)
    assert summary["step_ms_p50"]["regression"] == "worse"
    assert summary["items_per_s"]["regression"] == "within"  # 1000/p is 23% lower
    assert "regression worse" in bench_pairs.summary_lines("gradcheck", summary, METRICS)[0]


def test_digests_recorded_once_per_file(tmp_path, monkeypatch):
    """Both checkouts' ``artifact_digest.py`` lines land in the BENCH file on
    its first workload and are not rerun for the next; the subprocess and
    the perfbench runs are stubbed."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "gradcheck"}, {"name": "desk-pretrain"}],
         "end_to_end": METRICS}))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    digests = []

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[1].endswith("artifact_digest.py"):
            assert cmd[1] == os.path.join(str(tmp_path), "tools", "artifact_digest.py")
            assert cmd[2:] == ["--root", cwd]
            digests.append(cwd)
            out = f"{len(digests)}a  ALL\n{len(digests)}b  FULLSCALE\n"
        else:
            out = "c0ffee\n" if "rev-parse" in cmd else ""
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, out, "")

    def fake_run_once(checkout, workload, seed, seconds):
        return {"env": {}, "result": result(100.0, 10.0)}

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    argv = ["--parent", "p", "--change", "c", "--pairs", "2", "--seconds", "1",
            "--label", "t"]
    for workload in ("gradcheck", "desk-pretrain"):
        assert bench_pairs.main(argv + ["--workload", workload]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert len(digests) == 2 and digests[0].endswith("parent") and digests[1].endswith("change")
    assert report["digests"] == {"parent": ["1a  ALL", "1b  FULLSCALE"],
                                 "change": ["2a  ALL", "2b  FULLSCALE"]}
    assert sorted(report["workloads"]) == ["desk-pretrain", "gradcheck"]
    assert sorted(report["src_lines"]) == ["change", "parent"]


def test_src_lines_counts_newlines_of_the_package_modules(tmp_path):
    """``wc -l src/sydes/*.py``: every newline of each module, a last line
    without one not counted, and nothing outside the package's top level."""
    pkg = tmp_path / "src" / "sydes"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nno_newline = 4")
    (pkg / "notes.txt").write_text("1\n2\n")
    (pkg / "sub" / "c.py").write_text("1\n")
    (tmp_path / "src" / "setup.py").write_text("1\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 4


def test_failed_digest_names_the_command(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs:
                        bench_pairs.subprocess.CompletedProcess(cmd, 1, "", "boom"))
    with pytest.raises(SystemExit, match="artifact_digest.py --root /x exited 1:\nboom"):
        bench_pairs.digest_lines("/x")

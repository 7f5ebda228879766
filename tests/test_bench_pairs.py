"""tools/bench_pairs.py: each end-to-end metric's verdict against its bound, when
a gain is claimable, the summary lines it prints, and what a SIGTERM leaves
behind."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = {"end_to_end": [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def runs(metric, parent, change):
    """Synthetic complete pairs: seed i holds parent[i] and change[i]."""
    return [{"seed": seed, "side": side, "ok": True, "metrics": {metric: value}}
            for seed, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


def verdict(metric, parent, change):
    summary = bench_pairs.summarize(runs(metric, parent, change), DECLARED, trace=0)
    return summary["metrics"][metric]["verdict"]


TIGHT = [100.0, 101.0, 99.0, 100.0, 102.0]  # interquartile range 1, median 100
WIDE = [50.0, 100.0, 150.0, 80.0, 120.0]  # interquartile range 40 > 0.25 * 100


@pytest.mark.parametrize("metric,parent,change,expected", [
    ("rate", TIGHT, [98.0, 100.0, 99.0, 101.0, 97.0], "within"),
    ("rate", TIGHT, [80.0, 79.0, 81.0, 78.0, 80.0], "within"),  # 20% worse, bound 25%
    ("rate", TIGHT, [60.0, 61.0, 59.0, 62.0, 60.0], "outside"),
    ("latency", TIGHT, [140.0, 139.0, 141.0, 138.0, 140.0], "outside"),
    ("latency", TIGHT, [60.0, 61.0, 59.0, 62.0, 60.0], "within"),
    ("rate", WIDE, [90.0, 100.0, 110.0, 95.0, 105.0], "unresolved"),
    ("rate", WIDE, [20.0, 30.0, 25.0, 35.0, 28.0], "unresolved"),
    ("latency", WIDE, [90.0, 100.0, 110.0, 95.0, 105.0], "unresolved"),
    # a wide parent spread is no obstacle when every change run beats every parent run
    ("rate", WIDE, [160.0, 170.0, 155.0, 165.0, 158.0], "within"),
    ("latency", WIDE, [40.0, 45.0, 30.0, 42.0, 48.0], "within"),
])
def test_verdict(metric, parent, change, expected):
    assert verdict(metric, parent, change) == expected


@pytest.mark.parametrize("parent_failed,change_failed,claimable", [
    (0, 0, True), (2, 2, True), (2, 1, True), (0, 1, False), (1, 2, False)])
def test_gain_claimable_only_without_a_larger_failed_share(parent_failed, change_failed,
                                                           claimable):
    records = runs("rate", TIGHT, [150.0, 151.0, 149.0, 152.0, 150.0])
    for r in records:
        r.update(attempted=100, failed=parent_failed if r["side"] == "parent" else change_failed)
    row = bench_pairs.summarize(records, DECLARED, trace=0)["metrics"]["rate"]
    assert (row["change_wins"], row["verdict"]) == (5, "within")
    assert row["gain_claimable"] is claimable


@pytest.mark.parametrize("change,ending", [
    ([150.0, 151.0, 149.0, 152.0, 150.0], "  within  claimable"),
    ([98.0, 100.0, 99.0, 101.0, 97.0], "  within"),
])
def test_summary_line_marks_a_claimable_gain_beside_the_verdict(change, ending):
    row = bench_pairs.summarize(runs("rate", TIGHT, change), DECLARED, trace=0)["metrics"]["rate"]
    line = bench_pairs.metric_line("rate", row, 5)
    assert line.startswith("  rate ") and line.endswith(ending)


def test_metrics_without_a_bound_get_no_verdict():
    declared = {"per_layer": [{"name": "calls", "unit": "count", "better": "lower"}]}
    summary = bench_pairs.summarize(runs("calls", TIGHT, TIGHT), declared, trace=1)
    assert "verdict" not in summary["metrics"]["calls"]


def test_src_lines_summary_reads_both_sides_of_the_series():
    series = {"parent": {"rev": "HEAD", "src_lines": 3320}, "change": {"src_lines": 3301}}
    assert bench_pairs.src_lines_summary(series) == "src lines: parent 3320 → change 3301"


def _alive(pid: int) -> bool:
    """True while `pid` runs; a zombie awaiting its reaper counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# writes its own pid and a sleeping child's to $BENCH_PIDS, then sleeps
SLEEPER = ("import os, subprocess, sys, time; "
           "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
           "open(os.environ['BENCH_PIDS'], 'w').write(f'{os.getpid()} {child.pid}'); "
           "time.sleep(60)")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process state from /proc")
def test_sigterm_stops_the_run_in_flight_and_removes_the_temporary_directory(tmp_path):
    repo, scratch, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    (repo / "bench").mkdir(parents=True)
    scratch.mkdir()
    (repo / "bench" / "x.txt").write_text("x\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", SLEEPER], "paths": ["bench"], "run_seconds": 1,
        "workloads": [{"name": "w"}], "end_to_end": []}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "bench"], cwd=repo, check=True)
    env = dict(os.environ, TMPDIR=str(scratch), BENCH_PIDS=str(pids))
    proc = subprocess.Popen([sys.executable, str(_PATH), "--workloads", "w", "--seeds", "1",
                             "--out", str(tmp_path / "out.json")], cwd=repo, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    started = []
    try:
        deadline = time.monotonic() + 30
        while not (pids.exists() and len(pids.read_text().split()) == 2):
            assert time.monotonic() < deadline and proc.poll() is None, "no run started"
            time.sleep(0.05)
        started = [int(pid) for pid in pids.read_text().split()]
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in started) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in started)
        assert list(scratch.iterdir()) == []
        assert code == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        for pid in started:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)

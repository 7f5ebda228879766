"""tools/bench_pairs.py: each end-to-end metric's verdict against its bound, and
the source line counts it prints."""

import importlib.util
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


def test_metrics_without_a_bound_get_no_verdict():
    declared = {"per_layer": [{"name": "calls", "unit": "count", "better": "lower"}]}
    summary = bench_pairs.summarize(runs("calls", TIGHT, TIGHT), declared, trace=1)
    assert "verdict" not in summary["metrics"]["calls"]


def test_src_lines_summary_reads_both_sides_of_the_series():
    series = {"parent": {"rev": "HEAD", "src_lines": 3320}, "change": {"src_lines": 3301}}
    assert bench_pairs.src_lines_summary(series) == "src lines: parent 3320 → change 3301"

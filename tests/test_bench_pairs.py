"""Unit tests for scripts/bench_pairs.py's summary of paired benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
DECLARED = bench_pairs.declared(json.loads((ROOT / "BENCHMARK.json").read_text()))


def paired_runs(parent, change, name="w.setup_s"):
    """Runs as bench_pairs records them: pair i reads parent[i] and change[i] of one metric."""
    return [
        {
            "pair": i + 1,
            "parent": {"metrics": {name: {"value": p, "unit": "s"}}},
            "change": {"metrics": {name: {"value": c, "unit": "s"}}},
        }
        for i, (p, c) in enumerate(zip(parent, change, strict=True))
    ]


def test_ties_count_for_neither_side():
    runs = paired_runs([1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 3.5])
    entry = bench_pairs.summarise(runs, DECLARED)["w.setup_s"]
    assert (entry["pairs"], entry["change_lower"], entry["change_higher"]) == (4, 1, 1)
    assert entry["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}


def test_a_metric_missing_from_one_side_is_skipped():
    """A metric only one side reports is left out, and so is a pair that lacks it on one side."""
    runs = paired_runs([1.0] * 3, [0.5] * 3)
    for run in runs:
        run["parent"]["metrics"]["w.only_parent"] = {"value": 1.0, "unit": "s"}
    del runs[1]["change"]["metrics"]["w.setup_s"]
    out = bench_pairs.summarise(runs, DECLARED)
    assert set(out) == {"w.setup_s"}
    assert (out["w.setup_s"]["pairs"], out["w.setup_s"]["change_lower"]) == (2, 2)


@pytest.mark.parametrize(
    "parent, change, meets",
    [
        # Lower in 10 of 10, but the medians are 0.5 apart and the parent's IQR is 4.5.
        (list(range(1, 11)), [v - 0.5 for v in range(1, 11)], False),
        # The medians are 5 apart against an IQR of 0, but lower in only 8 of 10.
        ([10.0] * 10, [5.0] * 8 + [11.0] * 2, False),
        # Both halves: lower in 9 of 10, medians 5 apart.
        ([10.0] * 10, [5.0] * 9 + [11.0], True),
        # A gap equal to the IQR (6.75 - 2.25) is not larger than it.
        (list(range(10)), [v - 4.5 for v in range(10)], False),
        (list(range(10)), [v - 5.0 for v in range(10)], True),
    ],
)
def test_meets_lower_rule_needs_both_halves(parent, change, meets):
    entry = bench_pairs.summarise(paired_runs(parent, change), DECLARED)["w.setup_s"]
    assert entry["meets_lower_rule"] is meets


@pytest.mark.parametrize(
    "name, pairs",
    [("w.trace.coverage", 10), ("w.setup_s", 9), ("w.setup_s", 3)],
    ids=["higher-is-better", "9-pairs", "3-pairs"],
)
def test_the_rule_is_null_unless_lower_is_better_over_10_pairs(name, pairs):
    """A gain a rule for lower-is-better metrics finds in 10 pairs is not read into others."""
    entry = bench_pairs.summarise(paired_runs([10.0] * pairs, [5.0] * pairs, name), DECLARED)[name]
    assert entry["change_lower"] == pairs
    assert entry["meets_lower_rule"] is None


@pytest.mark.parametrize(
    "name, change, within",
    [
        # setup_s is bounded at 0.25: a median 25% above the parent's is still within.
        ("w.setup_s", 1.25, True),
        ("w.setup_s", 1.2501, False),
        ("w.setup_s", 0.5, True),
        # peak_rss_mb is bounded at 0.15.
        ("w.peak_rss_mb", 1.15, True),
        ("w.peak_rss_mb", 1.16, False),
        # No bound is declared for a per-layer metric or an unknown one.
        ("w.trace.coverage", 5.0, None),
        ("w.unknown", 1.0, None),
    ],
)
def test_within_bound_compares_medians_with_the_declared_bound(name, change, within):
    entry = bench_pairs.summarise(paired_runs([1.0] * 3, [change] * 3, name), DECLARED)[name]
    assert entry["within_bound"] is within

"""The summary that tests/ab.py writes, on fixed numbers; perfbench is
not started."""
from __future__ import annotations

import pytest

from . import ab


def run(op_ms: float, setup_s: float, correct: bool = True) -> dict:
    metrics = {"op_ms": {"value": op_ms, "unit": "ms"}, "setup_s": {"value": setup_s, "unit": "s"}}
    return {"correct": correct, "attempted": 10, "failed": 1, "metrics": metrics}


def test_summary_fields_and_wins():
    parent = [run(100.0, 1.0), run(104.0, 1.6), run(96.0, 0.7), run(102.0, 1.2)]
    change = [run(99.0, 1.1), run(103.0, 1.0), run(97.0, 1.3), run(101.0, 0.9, correct=False)]
    metrics = {"op_ms": {"better": "lower", "bound": 0.25}, "setup_s": {"better": "lower", "bound": 0.25}}
    entry = ab.summarize(parent, change, metrics)
    assert entry["pairs"] == 4
    assert entry["attempted"] == {"parent": 40, "change": 40}
    assert entry["failed"] == {"parent": 4, "change": 4}
    assert entry["correct"] == {"parent": True, "change": False}
    op = entry["metrics"]["op_ms"]
    assert op["parent_median"] == 101.0
    # exclusive quartiles of 96, 100, 102, 104
    assert op["parent_quartiles"] == [97.0, 103.5]
    assert op["change_median"] == 100.0
    assert op["change_vs_parent_pct"] == pytest.approx(-0.99)
    assert op["change_better_pairs"] == 3
    assert op["verdict"] == "within bound"
    assert op["parent_runs"] == [100.0, 104.0, 96.0, 102.0]
    assert op["change_runs"] == [99.0, 103.0, 97.0, 101.0]
    # quartiles 0.775 and 1.5 around a median of 1.1: a spread of 66%
    assert entry["metrics"]["setup_s"]["verdict"] == "unresolved"


def test_verdicts_against_the_bound():
    parent = [100.0, 101.0, 99.0, 100.0]
    assert ab.summarize_metric("lower", 0.25, parent, [130.0] * 4)["verdict"] == "regression"
    assert ab.summarize_metric("lower", 0.25, parent, [120.0] * 4)["verdict"] == "within bound"
    higher = ab.summarize_metric("higher", 0.1, parent, [80.0] * 4)
    assert (higher["verdict"], higher["change_better_pairs"]) == ("regression", 0)
    # a spread wider than the bound is unresolved unless every change run is better
    noisy = [1.0, 2.0, 1.0, 2.0]
    assert ab.summarize_metric("lower", 0.25, noisy, [1.5] * 4)["verdict"] == "unresolved"
    assert ab.summarize_metric("lower", 0.25, noisy, [0.5] * 4)["verdict"] == "within bound"


def test_metrics_come_from_the_benchmark_file():
    metrics = ab.end_to_end_metrics()
    assert metrics["op_ms"] == {"better": "lower", "bound": 0.25}
    assert metrics["items_per_s"]["better"] == "higher"

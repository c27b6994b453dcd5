"""Fast tests of the benchmark itself: every workload at a tiny size, and
every check rejecting a corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import oracles
import run as bench
import workloads
from grundy.sequences import VertexSequence
from oracles import CheckError

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
path_graph = workloads.path_graph


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_tiny(name, trace):
    result, _ = bench.run(name, seed=3, seconds=0.001, trace=bool(trace), sizes=workloads.TINY)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    if trace:
        assert {n for n, _, _ in workloads.PER_LAYER} <= set(metrics)
    else:
        for n, unit, _, _ in workloads.END_TO_END:
            assert metrics[n]["unit"] == unit
            assert metrics[n]["value"] > 0


@pytest.mark.parametrize("name", ["chain_dense", "exact_sparse"])
def test_traced_counts_repeat(name):
    def counts():
        result, tracer = bench.run(name, seed=5, seconds=0.001, trace=True, sizes=workloads.TINY)
        return {k: v for k, v in result["metrics"].items() if v["unit"] == "count"}, tracer

    first, tracer = counts()
    second, _ = counts()
    assert first == second
    assert any(v["value"] for v in first.values())
    names = {span[3] for span in tracer.spans}
    assert "op" in names and len(names) > 1


def test_benchmark_json_matches_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in workloads.PER_LAYER
    ]


# ---- checks reject corrupted outputs ----------------------------------------


def test_walk_rejects_illegal_step():
    g = path_graph(4)
    assert oracles.walk(g.n, g.adjacency, [0, 1, 2]) == 3
    with pytest.raises(CheckError, match="nothing new"):
        oracles.walk(g.n, g.adjacency, [1, 0, 3])
    with pytest.raises(CheckError, match="repeated"):
        oracles.walk(g.n, g.adjacency, [0, 0])


def test_walk_rejects_non_dominating():
    g = path_graph(4)
    with pytest.raises(CheckError, match="dominates 2 of 4"):
        oracles.walk(g.n, g.adjacency, [0])


def test_edge_and_transversal_walks_reject():
    edges = [(0, 1), (1, 2), (0, 1, 2)]
    assert oracles.walk_edges(3, edges, [0, 1]) == 2
    with pytest.raises(CheckError):
        oracles.walk_edges(3, edges, [2, 0])
    with pytest.raises(CheckError):
        oracles.walk_edges(3, edges, [0])
    assert oracles.walk_transversal(3, edges, [0, 2]) == 2
    with pytest.raises(CheckError):
        oracles.walk_transversal(3, edges, [1, 0])


def _one_op(name: str):
    wl = workloads.WORKLOADS[name](name, 7, workloads.TINY)
    output, failed = wl.op()
    assert failed == 0
    wl.check(output)
    return wl, output


def test_chain_check_rejects_corrupted_sequences():
    wl, (cs, seq) = _one_op("chain_sparse")
    missing = next(v for v in range(wl.graph.n) if v not in set(seq.order))
    for order in (
        seq.order + (missing,),  # illegal last step
        seq.order[:-1],  # leaves a vertex undominated
    ):
        with pytest.raises(CheckError):
            wl.check((cs, VertexSequence(order)))


def test_chain_check_rejects_wrong_class_sizes():
    wl, (cs, seq) = _one_op("chain_dense")
    merged = dataclasses.replace(cs, x_parts=(cs.x_parts[0] + cs.x_parts[1],) + cs.x_parts[2:])
    with pytest.raises(CheckError, match="class sizes"):
        wl.check((merged, seq))


def test_exact_check_rejects_wrong_length():
    wl, (graph_results, hyper_results) = _one_op("exact_dense")
    wrong = list(graph_results)
    wrong[0] = dataclasses.replace(wrong[0], best_length=wrong[0].best_length + 1)
    with pytest.raises(CheckError, match="length"):
        wl.check((wrong, hyper_results))
    cover, transversal = hyper_results[0]
    shortened = dataclasses.replace(cover, best_sequence=cover.best_sequence[:-1])
    with pytest.raises(CheckError):
        wl.check((graph_results, [(shortened, transversal)] + hyper_results[1:]))


def test_sweep_checks_reject_wrong_checked_count():
    wl, report = _one_op("sweep_chain")
    with pytest.raises(CheckError, match="checked"):
        wl.check(dataclasses.replace(report, checked=report.checked - 1))
    with pytest.raises(CheckError, match="failures"):
        wl.check(dataclasses.replace(report, gamma_mismatches=["X(1,)/Y(1,)"]))
    wl, (exhaustive, randomised) = _one_op("sweep_duality")
    with pytest.raises(CheckError, match="checked"):
        wl.check((dataclasses.replace(exhaustive, checked=exhaustive.checked + 1), randomised))


# ---- oracles ----------------------------------------------------------------


def test_inclusion_exclusion_count():
    assert oracles.distinct_edge_hypergraph_count(5, 5) == 187389
    assert workloads.SweepDualityWorkload("sweep_duality", 1, workloads.TINY).exhaustive_count == 51


def test_path_and_cycle_closed_forms():
    for n in range(3, 11):
        p = path_graph(n)
        c = workloads.cycle_graph(n)
        assert oracles.grundy_number(p.n, p.adjacency) == n - 1
        assert oracles.grundy_number(c.n, c.adjacency) == n - 2


def test_expected_file_matches_oracle():
    from grundy.generators import random_graph

    entries = oracles.load_expected()
    assert len(entries) == len(oracles.pool_entries())
    for entry in entries[:: len(entries) // 4]:
        g = random_graph(entry["n"], entry["p"], entry["seed"])
        assert oracles.edge_digest(g.edges()) == entry["digest"]
        assert oracles.grundy_number(g.n, g.adjacency) == entry["gamma"]


def test_rescaled_mean():
    ref = workloads.CALIBRATION_REFERENCE_S
    assert workloads.rescaled_mean([1.0, 3.0], [ref, ref, ref]) == pytest.approx(2.0)
    # The machine ran at half speed: the loop took twice as long.
    assert workloads.rescaled_mean([2.0, 2.0, 2.0], [2 * ref] * 4) == pytest.approx(1.0)
    assert workloads.speed_scales([ref, 3 * ref]) == [pytest.approx(0.5)]

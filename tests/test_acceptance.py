"""Acceptance criteria, one test per criterion, exact tolerances.

Each test finishes by printing a single PASS line (visible under -s, and
implied by the pytest PASSED status otherwise). The chain sweep is shared
between the chain-correctness and independence-sandwich criteria, since
they run over the same instance family.
"""
from __future__ import annotations

import os

import pytest

from grundy import (
    bipartition,
    complement,
    graph_to_cobipartite,
    grundy_chain,
    grundy_domination_exact,
    hypergraph_to_bipartite,
    recognize_chain,
)
from grundy.bench import doubling_ratios, run_bench
from grundy.sweeps import FAMILIES

from .conftest import complete_bipartite, path_graph, sample_hypergraph

JOBS = os.cpu_count() or 1


@pytest.fixture(scope="module")
def chain_report():
    return FAMILIES["chain"].run(jobs=JOBS)


def test_criterion_1_chain_matches_exact(chain_report):
    assert chain_report.checked == 4646 + 1000
    assert chain_report.gamma_mismatches == []
    assert chain_report.witness_failures == []
    assert chain_report.structure_failures == []
    print(
        f"\nCRITERION 1 (chain algorithm vs exhaustive search): PASS on "
        f"{chain_report.checked} instances, 0 mismatches"
    )


def test_criterion_2_complete_bipartite():
    checked = 0
    for a in range(1, 7):
        for b in range(1, 7):
            g = complete_bipartite(a, b)
            expected = max(a, b)
            assert grundy_domination_exact(g).best_length == expected
            assert len(grundy_chain(recognize_chain(g))) == expected
            checked += 1
    print(f"\nCRITERION 2 (complete bipartite, both solvers): PASS on {checked} instances")


def test_criterion_3_alpha_sandwich(chain_report):
    assert chain_report.sandwich_failures == []
    assert chain_report.alpha_mismatches == []
    print(
        f"\nCRITERION 3 (independence sandwich and brute-force alpha): PASS on "
        f"{chain_report.checked} instances"
    )


def test_criterion_4_bipartite_reduction_equivalence():
    outcome = FAMILIES["bipartite"].run(jobs=JOBS)
    assert outcome.checked == 522 + 200
    assert outcome.failures == []
    print(
        f"\nCRITERION 4 (bipartite gadget equivalence): PASS on {outcome.checked} "
        "instances (522 exhaustive, checked on 80 isomorphism classes, + 200 random)"
    )


def test_criterion_5_cobipartite_reduction_equivalence():
    outcome = FAMILIES["cobipartite"].run(jobs=JOBS)
    assert outcome.checked == 2_131_019 + 200
    assert outcome.failures == []
    print(
        f"\nCRITERION 5 (co-bipartite gadget equivalence): PASS on {outcome.checked} "
        "instances (2131019 exhaustive, checked on 1252 isomorphism classes, + 200 random)"
    )


def test_criterion_6_hypergraph_duality():
    outcome = FAMILIES["duality"].run(jobs=JOBS)
    assert outcome.checked == 6_687_290 + 500
    assert outcome.failures == []
    print(
        f"\nCRITERION 6 (covering/transversal duality): PASS on {outcome.checked} "
        "instances (6687290 exhaustive, checked on 18838 isomorphism classes, + 500 random)"
    )


@pytest.mark.timing
def test_criterion_7_linear_scaling():
    sizes = [2**e for e in range(15, 21)]
    rows = run_bench(sizes, repeats=5)
    ratios = doubling_ratios(rows)
    top = rows[-1]
    assert top.n == 2**20
    assert top.median_ms < 2000.0, f"2^20 run took {top.median_ms:.0f} ms"
    for ratio in ratios:
        assert 1.6 <= ratio <= 2.6, f"doubling ratio {ratio:.2f} outside [1.6, 2.6]"
    table = ", ".join(f"{r.n}:{r.median_ms:.0f}ms" for r in rows)
    print(f"\nCRITERION 7 (linear scaling): PASS ({table}; ratios "
          + ", ".join(f"{r:.2f}" for r in ratios) + ")")


def test_criterion_8_worked_instances():
    h = sample_hypergraph()
    rmap = hypergraph_to_bipartite(h)
    assert rmap.target.n == 18
    assert rmap.target.edge_count == 54
    sides = bipartition(rmap.target)
    assert sides is not None
    a_side = frozenset(rmap.block("A") + rmap.block("E"))
    assert a_side in (sides.side_x, sides.side_y)

    p3 = path_graph(3)
    gadget = graph_to_cobipartite(p3)
    assert gadget.target.n == 6
    assert gadget.target.edge_count == 13
    assert complement(gadget.target) is not None
    gamma_src = grundy_domination_exact(p3).best_length
    gamma_gadget = grundy_domination_exact(gadget.target).best_length
    assert gamma_src == gamma_gadget
    print(
        "\nCRITERION 8 (worked gadget instances): PASS "
        f"(bipartite 18v/54e, co-bipartite 6v/13e, gamma {gamma_gadget})"
    )

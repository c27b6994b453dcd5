"""The sweep runner, the chain report's check names and the family table.

The full-size sweeps are the acceptance suite's; these stay small.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import os
from collections import Counter
from types import SimpleNamespace

import pytest

from grundy import (
    ChainProfile,
    ChainStructure,
    MAX_SEARCH_SIZE,
    InputError,
    SizeCapError,
    VertexSequence,
    chain_from_profile,
    grundy_domination_exact,
    grundy_number_exact,
    independence_number_exact,
    recognize_chain,
)
from grundy import Hypergraph, sweeps
from grundy.exact import longest_sequence_value, rho_tau_values
from grundy.sweeps import (
    FAMILIES,
    MAX_ORBIT_VERTICES,
    ChainSweepReport,
    SweepOutcome,
    chain_sweep,
    edge_set_orbits,
    exhaustive_profiles,
)

from .conftest import exhaustive_graphs, exhaustive_hypergraphs, relabel_masks

PROFILES = [ChainProfile((1,), (1,)), ChainProfile((1, 2), (2, 1))]


class TestChainReport:
    def test_views_split_failures_by_check(self):
        report = ChainSweepReport(
            3, ["gamma: A chain=2 exact=3", "alpha: B", "gamma: C chain=1 exact=2"]
        )
        assert report.gamma_mismatches == ["A chain=2 exact=3", "C chain=1 exact=2"]
        assert report.alpha_mismatches == ["B"]
        assert report.witness_failures == report.sandwich_failures == report.structure_failures == []
        assert not report.ok

    def test_replace_sets_a_view(self):
        report = dataclasses.replace(ChainSweepReport(4), gamma_mismatches=["X(1,)/Y(1,)"])
        assert report.checked == 4
        assert report.failures == ["gamma: X(1,)/Y(1,)"]
        assert report.gamma_mismatches == ["X(1,)/Y(1,)"]
        assert not report.ok
        assert dataclasses.replace(report, checked=5).failures == report.failures

    def test_unknown_view_is_rejected(self):
        with pytest.raises(TypeError):
            ChainSweepReport(1, bogus=["x"])

    def test_clean_sweep(self):
        report = chain_sweep(PROFILES)
        assert isinstance(report, ChainSweepReport)
        assert (report.checked, report.failures) == (2, [])

    def test_failure_lines_name_the_check(self, monkeypatch):
        monkeypatch.setattr(sweeps, "grundy_number_exact", lambda g: 0)
        monkeypatch.setattr(sweeps, "independence_number_exact", lambda g: -1)
        report = chain_sweep(PROFILES)
        assert report.checked == 2
        assert report.failures == [
            "gamma: X(1,)/Y(1,) chain=1 exact=0",
            "alpha: X(1,)/Y(1,)",
            "gamma: X(1, 2)/Y(2, 1) chain=3 exact=0",
            "alpha: X(1, 2)/Y(2, 1)",
        ]
        assert report.alpha_mismatches == ["X(1,)/Y(1,)", "X(1, 2)/Y(2, 1)"]

    def test_swapped_sides_are_a_structure_failure(self, monkeypatch):
        # (sizes_y, sizes_x) is not the mirror profile, and recognition
        # names vertex 0's side X, so only (sizes_x, sizes_y) may come back
        def swapped(g):
            cs = recognize_chain(g)
            return ChainStructure(g, cs.y_parts, cs.x_parts)

        monkeypatch.setattr(sweeps, "recognize_chain", swapped)
        report = chain_sweep([ChainProfile((2,), (3,))])
        assert (report.checked, report.failures) == (1, ["structure: X(2,)/Y(3,)"])


def mirror(p: ChainProfile) -> ChainProfile:
    return ChainProfile(p.sizes_y[::-1], p.sizes_x[::-1])


class TestChainClasses:
    # A and its mirror form one class, B and its mirror another; C is its own mirror
    A = ChainProfile((1, 2), (3, 1))
    B = ChainProfile((2,), (1,))
    C = ChainProfile((1, 1), (1, 1))

    def test_mirrors_share_the_exact_values(self):
        def exact_values(p):
            g = chain_from_profile(p)
            return grundy_domination_exact(g).best_length, independence_number_exact(g)

        profiles = exhaustive_profiles(3, 3, 12)
        values = {p: exact_values(p) for p in profiles}
        assert all(values[p] == values[mirror(p)] for p in profiles)

    def test_one_exact_search_per_class(self, monkeypatch):
        searched, counted = [], []

        def search(g):
            searched.append(g.n)
            return grundy_number_exact(g)

        def alpha(g):
            counted.append(g.n)
            return independence_number_exact(g)

        monkeypatch.setattr(sweeps, "grundy_number_exact", search)
        monkeypatch.setattr(sweeps, "independence_number_exact", alpha)
        A, B, C = self.A, self.B, self.C
        report = chain_sweep([A, mirror(A), A, B, C, mirror(B), mirror(A), C])
        assert (report.checked, report.failures) == (8, [])
        assert searched == counted == [7, 3, 4]

    def test_failure_lines_repeat_per_copy(self, monkeypatch):
        monkeypatch.setattr(sweeps, "grundy_number_exact", lambda g: 0)
        monkeypatch.setattr(sweeps, "independence_number_exact", lambda g: -1)
        A, B = self.A, self.B
        report = chain_sweep([B, A, mirror(A), A])
        assert report.checked == 4
        a, a_mirror = "X(1, 2)/Y(3, 1)", "X(1, 3)/Y(2, 1)"
        assert report.failures == [
            "gamma: X(2,)/Y(1,) chain=2 exact=0",
            "alpha: X(2,)/Y(1,)",
            f"gamma: {a} chain=4 exact=0",
            f"alpha: {a}",
            f"gamma: {a} chain=4 exact=0",
            f"alpha: {a}",
            f"gamma: {a_mirror} chain=4 exact=0",
            f"alpha: {a_mirror}",
        ]


def test_run_adds_up_worker_results():
    outcome = sweeps._run(lambda task: (task, [f"f{task}"] * (task % 2)), [1, 2, 3], jobs=None)
    assert outcome == SweepOutcome(6, ["f1", "f3"])


def test_worker_error_reaches_the_caller():
    # one vertex past the exact search's bound, inside a worker process
    n = MAX_SEARCH_SIZE + 1
    with pytest.raises(SizeCapError, match=f"^{n} vertices exceeds the cap of {n - 1}$") as info:
        chain_sweep([ChainProfile((n // 2,), (n - n // 2,))], jobs=2)
    assert (info.value.actual, info.value.limit) == (n, n - 1)


class TestPoolSize:
    # pool_sizes stands a serial recorder in for the process pool
    def test_jobs_are_clamped_to_usable_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(sweeps, "_usable_cpus", lambda: 3)
        for jobs in (100_000, 3, 2, 1, 0, -1, None):
            assert sweeps._run(lambda task: (task, []), [1, 2], jobs) == SweepOutcome(3, [])
        assert pool_sizes == [3, 3, 2]

    def test_library_sweeps_are_clamped(self, pool_sizes):
        usable = len(os.sched_getaffinity(0))
        assert chain_sweep(exhaustive_profiles(1, 1, 2), jobs=100_000).checked == 1
        assert FAMILIES["bipartite"].run(100_000, random=1).checked == 523
        assert pool_sizes == ([usable] * 2 if usable > 1 else [])

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert sweeps._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweeps._usable_cpus() == 1


def test_parallel_run_matches_serial():
    values = {"n_max": 3, "random": 5}
    assert FAMILIES["cobipartite"].run(2, **values) == FAMILIES["cobipartite"].run(None, **values)


class TestFamilies:
    def test_params_are_the_sweep_keywords(self):
        for family in FAMILIES.values():
            keywords = list(inspect.signature(family.sweep).parameters)
            assert keywords == ["jobs"] + [p.name for p in family.params]

    def test_defaults_are_within_limits(self):
        for family in FAMILIES.values():
            for p in family.params:
                assert p.minimum is None or p.default >= p.minimum
                assert p.cap is None or p.default <= p.cap

    def test_values_are_checked_before_the_sweep(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        family = FAMILIES["duality"]._replace(sweep=no_sweep)
        with pytest.raises(SizeCapError, match=r"8 \(duality sweep n_max\) exceeds the cap of 7"):
            family.run(n_max=8)
        with pytest.raises(InputError, match="random must be at least 0"):
            family.run(random=-4)
        with pytest.raises(InputError, match="m_max must be at least 1"):
            family.run(m_max=0)

    def test_unknown_value_is_rejected(self):
        with pytest.raises(TypeError):
            FAMILIES["bipartite"].run(n_max=3)

    def test_vertex_caps_are_the_orbit_generators(self):
        for name in ("duality", "cobipartite"):
            (n_max,) = [p for p in FAMILIES[name].params if p.name == "n_max"]
            assert n_max.cap == MAX_ORBIT_VERTICES

    def test_given_values_override_defaults(self):
        outcome = FAMILIES["bipartite"].run(random=0)
        assert (outcome.checked, outcome.failures) == (522, [])

    def test_cobipartite_counts_labelled_graphs(self):
        outcome = FAMILIES["cobipartite"].run(n_max=5, random=0)
        assert (outcome.checked, outcome.failures) == (1099, [])


def test_duality_engine_recheck_reports(monkeypatch):
    monkeypatch.setattr(sweeps, "longest_sequence_value", lambda masks, full: 0)
    outcome = sweeps.duality_exhaustive_sweep(2, 2)
    # four isomorphism classes, one engine line each; {1, 3} stands for
    # the two labelled sets {1, 3} and {2, 3}
    assert outcome.checked == 5
    assert outcome.failures == [
        "engine (rho, tau)=(0, 0) on n=1 masks=(1,), brute 1",
        "engine (rho, tau)=(0, 0) on n=2 masks=(1, 2), brute 2",
        "engine (rho, tau)=(0, 0) on n=2 masks=(1, 3), brute 2",
        "engine (rho, tau)=(0, 0) on n=2 masks=(3,), brute 1",
    ]


def test_duality_masks_match_the_hypergraph(monkeypatch):
    """On every class with n <= 4 and m <= 4, covering or not, the duality
    worker's transposition is the Hypergraph constructor's vertex_masks, and
    the engine's values on the worker's masks are rho_tau_values of it."""
    real = sweeps._brute_max_len
    seen = []
    monkeypatch.setattr(
        sweeps, "_brute_max_len", lambda masks, full: seen.append((tuple(masks), full)) or real(masks, full)
    )
    classes = 0
    for n in range(1, 5):
        for edge_masks, size in edge_set_orbits(n, 4, range(1, 1 << n)):
            seen.clear()
            assert sweeps._dual_case((n, [(edge_masks, size)])) == (size, [])
            (masks, full), (vertex_masks, all_edges) = seen
            h = Hypergraph(n, map(sweeps._mask_to_edge, edge_masks))
            assert (masks, full) == (h.edge_masks, (1 << n) - 1)
            assert (vertex_masks, all_edges) == (h.vertex_masks, (1 << h.m) - 1)
            engine = longest_sequence_value(masks, full), longest_sequence_value(vertex_masks, all_edges)
            assert engine == rho_tau_values(h)
            classes += 1
    assert classes == 192


def test_duality_brute_mismatch_reports(monkeypatch):
    monkeypatch.setattr(sweeps, "_brute_max_len", lambda masks, full: full)
    outcome = sweeps.duality_exhaustive_sweep(2, 1)
    assert outcome.checked == 2
    assert outcome.failures == ["n=2 masks=(3,) rho=3 tau=1"]


class TestWorkerFailureLines:
    """Every failure line a sweep worker writes, forced in serial mode by
    a solver that returns the wrong thing."""

    def test_chain_witness_and_sandwich(self, monkeypatch):
        real = sweeps.grundy_chain
        monkeypatch.setattr(sweeps, "grundy_chain", lambda cs: VertexSequence(real(cs).order[:-1]))
        assert chain_sweep(PROFILES).failures == [
            "gamma: X(1,)/Y(1,) chain=0 exact=1",
            "witness: X(1,)/Y(1,)",
            "sandwich: X(1,)/Y(1,)",
            "gamma: X(1, 2)/Y(2, 1) chain=2 exact=3",
            "witness: X(1, 2)/Y(2, 1)",
            "sandwich: X(1, 2)/Y(2, 1)",
        ]

    def test_chain_sandwich_and_alpha(self, monkeypatch):
        monkeypatch.setattr(sweeps, "independence_number_chain", lambda cs: -1)
        assert chain_sweep(PROFILES).failures == [
            "sandwich: X(1,)/Y(1,)",
            "alpha: X(1,)/Y(1,)",
            "sandwich: X(1, 2)/Y(2, 1)",
            "alpha: X(1, 2)/Y(2, 1)",
        ]

    def test_duality_random(self, monkeypatch):
        monkeypatch.setattr(sweeps, "grundy_transversal_exact", lambda h: SimpleNamespace(best_length=-1))
        outcome = sweeps.duality_random_sweep(2, 11)
        assert (outcome.checked, outcome.failures) == (
            2,
            ["seed=1011 n=2 m=3 rho=2 tau=-1", "seed=1012 n=2 m=3 rho=2 tau=-1"],
        )

    def test_bipartite(self, monkeypatch):
        # a wrong rho on every 2-vertex source: each class's line repeats
        # once per labelled multiset it stands for, a random one's once
        real = sweeps.longest_sequence_value
        monkeypatch.setattr(
            sweeps, "longest_sequence_value", lambda masks, full: -1 if full == 0b11 else real(masks, full)
        )
        outcome = FAMILIES["bipartite"].run(random=2, seed=23)
        lines = [
            ("n=2 edges=((0,), (0,), (1,)): gamma=7 expected 4", 2),
            ("n=2 edges=((0,), (0,), (0, 1)): gamma=7 expected 4", 2),
            ("n=2 edges=((0,), (1,)): gamma=6 expected 3", 1),
            ("n=2 edges=((0,), (1,), (0, 1)): gamma=7 expected 4", 1),
            ("n=2 edges=((0,), (0, 1)): gamma=6 expected 3", 2),
            ("n=2 edges=((0,), (0, 1), (0, 1)): gamma=7 expected 4", 2),
            ("n=2 edges=((0, 1), (0, 1)): gamma=5 expected 3", 1),
            ("n=2 edges=((0, 1), (0, 1), (0, 1)): gamma=6 expected 4", 1),
            ("n=2 edges=((1,), (0,), (1,)): gamma=7 expected 4", 1),
        ]
        assert outcome.checked == 522 + 2
        assert outcome.failures == [line for line, count in lines for _ in range(count)]

    def test_cobipartite(self, monkeypatch):
        monkeypatch.setattr(sweeps, "grundy_number_exact", lambda g: g.n)
        outcome = FAMILIES["cobipartite"].run(n_max=2, random=2, seed=37)
        assert (outcome.checked, outcome.failures) == (
            5,
            [
                "n=1 edges=(): source=1 gadget=2",
                "n=2 edges=(): source=2 gadget=4",
                "n=2 edges=((0, 1),): source=2 gadget=4",
                "n=5 edges=(): source=5 gadget=10",
                "n=6 edges=((0, 2), (1, 3), (2, 3), (2, 5)): source=6 gadget=12",
            ],
        )


def pair_masks(n: int) -> list[int]:
    return [mask for mask in range(1 << n) if mask.bit_count() == 2]


class TestEdgeSetOrbits:
    def assert_one_representative_each(self, n, yielded, labelled):
        """Every labelled set has exactly one representative, its minimal
        relabelling, and orbit_size = n!/|Aut|; the empty set comes first."""
        assert yielded[0] == ((), 1)
        orbits = dict(yielded)
        assert len(orbits) == len(yielded)
        perms = list(itertools.permutations(range(n)))
        reached = set()
        for masks, size in orbits.items():
            images = [relabel_masks(masks, perm) for perm in perms]
            assert masks == min(images)
            assert size == len(perms) // images.count(masks)
            assert reached.isdisjoint(images)
            reached.update(images)
        assert reached == set(labelled)

    @pytest.mark.parametrize(
        "n, repeats",
        [pytest.param(n, r, id=f"{n}-repeats" if r else str(n)) for r in (False, True) for n in (1, 2, 3, 4)],
    )
    def test_every_labelled_set_has_one_representative(self, n, repeats):
        m_max = 4 if repeats else 5  # with repeats, 3,060 multisets of 4 masks at n = 4
        masks = range(1, 1 << n)
        choose = itertools.combinations_with_replacement if repeats else itertools.combinations
        labelled = [c for m in range(m_max + 1) for c in choose(masks, m)]
        yielded = list(edge_set_orbits(n, m_max, masks, repeats=repeats))
        self.assert_one_representative_each(n, yielded, labelled)

    def test_every_labelled_multigraph_has_one_representative(self):
        pairs = pair_masks(4)
        labelled = [c for m in range(6) for c in itertools.combinations_with_replacement(pairs, m)]
        self.assert_one_representative_each(4, list(edge_set_orbits(4, 5, pairs, repeats=True)), labelled)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_labelled_graph_has_one_representative(self, n):
        graphs = [g for g in exhaustive_graphs(n) if g.n == n]
        labelled = [tuple(sorted(1 << u | 1 << v for u, v in g.edges())) for g in graphs]
        pairs = pair_masks(n)
        self.assert_one_representative_each(n, list(edge_set_orbits(n, len(pairs), pairs)), labelled)

    def test_graph_class_counts(self):
        for n, classes in enumerate([1, 2, 4, 11, 34, 156], start=1):
            pairs = pair_masks(n)
            sizes = [size for _, size in edge_set_orbits(n, len(pairs), pairs)]
            assert (len(sizes), sum(sizes)) == (classes, 2 ** math.comb(n, 2))

    def test_more_vertices_than_the_tables_hold(self, memory_limit):
        # n = 8 would need four tables of 10,321,920 entries
        orbits = edge_set_orbits(MAX_ORBIT_VERTICES + 1, 1, range(1, 256))
        with pytest.raises(SizeCapError, match=r"8 vertices \(edge_set_orbits\) exceeds the cap of 7"):
            next(orbits)

    def test_no_masks_leaves_the_empty_set(self):
        assert list(edge_set_orbits(3, 0, range(1, 8))) == [((), 1)]

    @staticmethod
    def covering_classes(monkeypatch, n_max, m_max):
        """The (n, masks, orbit_size) that the duality sweep hands its workers."""
        seen = []

        def record(task):
            n, block = task
            seen.extend((n, masks, size) for masks, size in block)
            return 0, []

        monkeypatch.setattr(sweeps, "_dual_case", record)
        sweeps.duality_exhaustive_sweep(n_max, m_max)
        return seen

    def test_orbit_sums_match_inclusion_exclusion(self, monkeypatch):
        sums = Counter()
        for n, masks, size in self.covering_classes(monkeypatch, 5, 5):
            sums[n, len(masks)] += size
        onto = {
            (n, m): sum((-1) ** (n - k) * math.comb(n, k) * math.comb(2**k - 1, m) for k in range(n + 1))
            for n in range(1, 6)
            for m in range(1, 6)
        }
        assert sums == {key: count for key, count in onto.items() if count}

    def test_class_counts_at_six_vertices(self, monkeypatch):
        classes = self.covering_classes(monkeypatch, 6, 3)
        counts = Counter(len(masks) for n, masks, _ in classes if n == 6)
        assert counts == {1: 1, 2: 14, 3: 154}

    def test_bipartite_classes_cover_the_labelled_multisets(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sweeps, "_bipartite_case", lambda task: seen.append(task) or (task[1], []))
        FAMILIES["bipartite"].run(random=0)
        classes, sizes = Counter(), Counter()
        for h, count in seen:
            classes[h.n, h.m] += 1
            sizes[h.n, h.m] += count
        assert classes == {(2, 2): 3, (2, 3): 5, (3, 2): 5, (3, 3): 17, (4, 2): 8, (4, 3): 42}
        assert sizes == Counter((h.n, h.m) for h in exhaustive_hypergraphs())
        assert sum(sizes.values()) == 522

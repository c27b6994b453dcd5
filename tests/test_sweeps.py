"""The sweep runner, the chain report's check names and the family table.

The full-size sweeps are the acceptance suite's; these stay small.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import pytest

from grundy import (
    ChainProfile,
    InputError,
    SizeCapError,
    chain_from_profile,
    grundy_domination_exact,
    independence_number_exact,
)
from grundy import sweeps
from grundy.sweeps import (
    FAMILIES,
    ChainSweepReport,
    SweepOutcome,
    chain_sweep,
    edge_set_orbits,
    exhaustive_profiles,
)

from .conftest import labelled_edge_sets, relabel_masks

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
        monkeypatch.setattr(sweeps, "grundy_domination_exact", lambda g: SimpleNamespace(best_length=0))
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
            return grundy_domination_exact(g)

        def alpha(g):
            counted.append(g.n)
            return independence_number_exact(g)

        monkeypatch.setattr(sweeps, "grundy_domination_exact", search)
        monkeypatch.setattr(sweeps, "independence_number_exact", alpha)
        A, B, C = self.A, self.B, self.C
        report = chain_sweep([A, mirror(A), A, B, C, mirror(B), mirror(A), C])
        assert (report.checked, report.failures) == (8, [])
        assert searched == counted == [7, 3, 4]

    def test_failure_lines_repeat_per_copy(self, monkeypatch):
        monkeypatch.setattr(sweeps, "grundy_domination_exact", lambda g: SimpleNamespace(best_length=0))
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
    # 22 vertices is over the exact search's cap, inside a worker process
    with pytest.raises(SizeCapError, match="22 vertices exceeds the cap of 20") as info:
        chain_sweep([ChainProfile((11,), (11,))], jobs=2)
    assert (info.value.actual, info.value.limit) == (22, 20)


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
        with pytest.raises(SizeCapError, match=r"7 \(duality sweep n_max\) exceeds the cap of 6"):
            family.run(n_max=7)
        with pytest.raises(InputError, match="random must be at least 0"):
            family.run(random=-4)
        with pytest.raises(InputError, match="m_max must be at least 1"):
            family.run(m_max=0)

    def test_unknown_value_is_rejected(self):
        with pytest.raises(TypeError):
            FAMILIES["bipartite"].run(n_max=3)

    def test_given_values_override_defaults(self):
        outcome = FAMILIES["bipartite"].run(random=0)
        assert (outcome.checked, outcome.failures) == (522, [])


def test_duality_engine_recheck_reports(monkeypatch):
    monkeypatch.setattr(sweeps, "rho_tau_values", lambda h: (0, 0))
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


def test_duality_brute_mismatch_reports(monkeypatch):
    monkeypatch.setattr(sweeps, "_brute_max_len", lambda masks, full: full)
    outcome = sweeps.duality_exhaustive_sweep(2, 1)
    assert outcome.checked == 2
    assert outcome.failures == ["n=2 masks=(3,) rho=3 tau=1"]


class TestEdgeSetOrbits:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_labelled_set_has_one_representative(self, n):
        m_max = 5
        yielded = list(edge_set_orbits(n, m_max))
        orbits = dict(yielded)
        assert len(orbits) == len(yielded)
        perms = list(itertools.permutations(range(n)))
        hits = Counter()
        for m in range(1, m_max + 1):
            for masks in labelled_edge_sets(n, m):
                images = {relabel_masks(masks, perm) for perm in perms}
                found = [image for image in images if image in orbits]
                assert found == [min(images)]
                hits[found[0]] += 1
        assert hits == orbits
        for masks, size in orbits.items():
            automorphisms = sum(relabel_masks(masks, perm) == masks for perm in perms)
            assert size == len(perms) // automorphisms

    def test_orbit_sums_match_inclusion_exclusion(self):
        for n in range(1, 6):
            assert list(edge_set_orbits(n, 0)) == []
            sums = Counter()
            for masks, size in edge_set_orbits(n, 5):
                sums[len(masks)] += size
            for m in range(1, 6):
                onto = sum(
                    (-1) ** (n - k) * math.comb(n, k) * math.comb(2**k - 1, m) for k in range(n + 1)
                )
                assert sums[m] == onto, (n, m)

    def test_class_counts_at_six_vertices(self):
        counts = Counter(len(masks) for masks, _ in edge_set_orbits(6, 3))
        assert counts == {1: 1, 2: 14, 3: 154}

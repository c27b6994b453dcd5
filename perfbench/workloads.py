"""The benchmark's workloads, its span recorder and its metric tables.

Each workload builds its inputs from the run seed in `__init__` (set-up),
runs one operation in `op`, checks every output in `check` against the
oracles in `oracles.py`, and runs one traced round in `traced_round`. A
traced round times the same operation inside an "op" span and then calls
the layers that operation reaches one by one, each inside its own span,
so that self times can be taken as differences. Untraced runs pass no
recorder, and the spans inside `op` become empty context managers.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from grundy.bench import bench_profile
from grundy.chain import grundy_chain, grundy_number_chain, recognize_chain
from grundy.errors import GrundyError
from grundy.exact import (
    grundy_cover_exact,
    grundy_domination_exact,
    grundy_transversal_exact,
    graph_twin_classes,
    independence_number_exact,
    rho_tau_values,
)
from grundy.generators import (
    ChainProfile,
    chain_from_profile,
    random_chain_profile,
    random_graph,
    random_hypergraph,
)
from grundy.graph import Graph, bipartition
from grundy.hypergraph import Hypergraph
from grundy.reductions import graph_to_cobipartite, hypergraph_to_bipartite
from grundy.sequences import (
    check_closed_neighborhood_sequence,
    check_subset_ordering,
    quick_verify,
)
from grundy.sweeps import (
    chain_sweep,
    duality_exhaustive_sweep,
    duality_random_sweep,
    exhaustive_profiles,
)

from oracles import (
    RECOMPUTE_COMMAND,
    CheckError,
    check_count,
    check_length,
    check_witness,
    covering_number,
    distinct_edge_hypergraph_count,
    edge_digest,
    grundy_number,
    load_expected,
    walk,
    walk_edges,
    walk_transversal,
)

# Sweeps fan out to at most two worker processes, the core count the
# workload sizes were chosen for; a larger machine runs the same load.
JOBS = min(2, len(os.sched_getaffinity(0)))

# The machine's speed drifts by up to a factor of two, in stretches of a
# second to tens of seconds (a shared host), and an interpreter-bound loop
# drifts with it. Every time metric is therefore rescaled to the speed at
# which this loop takes CALIBRATION_REFERENCE_S, using the loop's time
# measured just before and just after the timed work. The loop is timed
# three times and the fastest is kept, so that one interruption does not
# skew the scale.
CALIBRATION_LOOPS = 50_000
CALIBRATION_REFERENCE_S = 0.004


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _calibrate_into(conn) -> None:
    conn.send(calibrate())
    conn.close()


def calibrate_cores(jobs: int) -> float:
    """calibrate() on `jobs` cores at once; the mean of their times.

    A sweep's wall time depends on every core it fans out to, and one core
    can run much slower than the other for a while. The helpers are forked:
    the process has no threads between operations, and a spawned helper
    would import the library again for every calibration.
    """
    if jobs == 1:
        return calibrate()
    ctx = multiprocessing.get_context("fork")
    helpers = []
    for _ in range(jobs):
        receive, send = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_calibrate_into, args=(send,))
        process.start()
        send.close()
        helpers.append((process, receive))
    times = []
    for process, receive in helpers:
        times.append(receive.recv())
        receive.close()
        process.join()
    return statistics.mean(times)


def speed_scales(calibrations: list[float]) -> list[float]:
    """One factor per timed stretch between consecutive calibrations."""
    return [2 * CALIBRATION_REFERENCE_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def rescaled_mean(seconds: list[float], calibrations: list[float]) -> float:
    """Mean time of the stretches between consecutive calibrations, at the
    reference speed.

    The speed can change within one stretch, so a per-stretch factor is
    rough; the run's total time over the mean of the calibrations around
    each stretch estimates the speed over the whole run far better.
    """
    around = sum(a + b for a, b in zip(calibrations, calibrations[1:])) / 2
    return sum(seconds) / around * CALIBRATION_REFERENCE_S


# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("graph.bipartition_ms", "ms", "lower"),
    ("chain.recognize_self_ms", "ms", "lower"),
    ("sequences.quick_verify_ms", "ms", "lower"),
    ("chain.score_table_ms", "ms", "lower"),
    ("chain.emit_self_ms", "ms", "lower"),
    ("chain.k", "count", "lower"),
    ("graph.edges", "count", "lower"),
    ("chain.sequence_len", "count", "higher"),
    ("exact.nodes", "count", "lower"),
    ("exact.nodes_per_s", "1/s", "higher"),
    ("exact.twin_classes_ms", "ms", "lower"),
    ("exact.twin_classes", "count", "higher"),
    ("sequences.check_closed_neighborhood_sequence_ms", "ms", "lower"),
    ("exact.search_self_ms", "ms", "lower"),
    ("exact.cover_transversal_ms", "ms", "lower"),
    ("reductions.gadget_ms", "ms", "lower"),
    ("sweeps.chain_serial_per_s", "1/s", "higher"),
    ("sweeps.chain_fanout_efficiency", "ratio", "higher"),
    ("chain.recognize_ms.small", "ms", "lower"),
    ("exact.search_ms.chain", "ms", "lower"),
    ("exact.nodes.chain", "count", "lower"),
    ("exact.independence_ms", "ms", "lower"),
    ("sequences.subset_ordering_ms", "ms", "lower"),
    ("sweeps.duality_serial_per_s", "1/s", "higher"),
    ("sweeps.duality_fanout_efficiency", "ratio", "higher"),
    ("exact.rho_tau_ms", "ms", "lower"),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark runs, TINY what its tests run."""

    sparse_chain_n: int = 2**20
    dense_chain_k: int = 1024
    path_lengths: tuple[int, ...] = (16, 17, 18, 19, 20)
    pool_per_family: int | None = None
    hypergraphs: int = 24
    profile_bounds: tuple[int, int, int] = (4, 3, 16)
    random_profiles: int = 1000
    duality_bounds: tuple[int, int] = (5, 5)
    duality_random: int = 500


FULL = Sizes()
TINY = Sizes(
    sparse_chain_n=1024,
    dense_chain_k=24,
    path_lengths=(6, 7),
    pool_per_family=2,
    hypergraphs=2,
    profile_bounds=(2, 2, 8),
    random_profiles=6,
    duality_bounds=(3, 3),
    duality_random=12,
)


# ---- span recorder ----------------------------------------------------------


class Tracer:
    """Spans kept in memory as [id, parent, round, name, start, end].

    Spans recorded during set-up carry round -1. Counts are summed per
    round. Span times are reported rescaled by the round's entry in
    `scales` (see `speed_scales`). Everything is written out once, when
    the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[int, int]] = {}
        self.scales: list[float] = []
        self.round = -1
        self.rounds = 0
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: int) -> None:
        per_round = self.counts.setdefault(name, {})
        per_round[self.round] = per_round.get(self.round, 0) + value

    def next_round(self) -> None:
        self.round = self.rounds
        self.rounds += 1

    def raw_round_sums(self, name: str) -> list[float]:
        """Seconds spent in spans called name, one sum per round."""
        sums = [0.0] * self.rounds
        for _, _, rnd, span_name, start, end in self.spans:
            if span_name == name and rnd >= 0:
                sums[rnd] += end - start
        return sums

    def round_sums(self, name: str) -> list[float]:
        """The same sums, rescaled to the reference speed."""
        return [total * scale for total, scale in zip(self.raw_round_sums(name), self.scales)]

    def median_ms(self, name: str, *minus: str) -> float:
        """Median over rounds of name's time less the named spans' time."""
        totals = self.round_sums(name)
        for other in minus:
            totals = [a - b for a, b in zip(totals, self.round_sums(other))]
        return statistics.median(totals) * 1000.0 if totals else 0.0

    def setup_ms(self, name: str) -> float:
        return 1000.0 * sum(
            end - start for _, _, rnd, span_name, start, end in self.spans
            if span_name == name and rnd < 0
        )

    def median_count(self, name: str) -> float:
        per_round = self.counts.get(name, {})
        values = [per_round.get(r, 0) for r in range(self.rounds)]
        return statistics.median(values) if values else 0

    @staticmethod
    def median_rate(numerator: list[float], seconds: list[float]) -> float:
        rates = [a / b for a, b in zip(numerator, seconds) if b > 0]
        return statistics.median(rates) if rates else 0.0

    def to_json(self) -> dict:
        return {
            "fields": ["id", "parent", "round", "name", "start_s", "end_s"],
            "spans": self.spans,
            "round_scales": self.scales,
            "counts": {name: {str(r): v for r, v in rounds.items()} for name, rounds in self.counts.items()},
        }


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [len(tracer.spans), parent, tracer.round, name, 0.0, 0.0]

    def __enter__(self) -> "_Span":
        self.tracer.spans.append(self.record)
        self.tracer._open.append(self.record[0])
        self.record[4] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.record[5] = time.perf_counter()
        self.tracer._open.pop()
        return False


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ---- inputs -----------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def shuffled(g: Graph, rng: random.Random) -> Graph:
    """Copy of g with its vertices renamed at random; rows that twins share
    stay shared, so a million-vertex chain graph is copied in a few seconds."""
    order = list(range(g.n))  # vertex order[i] of g becomes vertex i
    rng.shuffle(order)
    label = [0] * g.n
    for i, v in enumerate(order):
        label[v] = i
    adj = g.adjacency
    renamed = {key: tuple(sorted(map(label.__getitem__, row))) for key, row in {id(r): r for r in adj}.items()}
    return Graph(g.n, tuple([renamed[id(adj[v])] for v in order]), g.edge_count)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---- chain_sparse, chain_dense ----------------------------------------------


class ChainWorkload:
    """recognize_chain + grundy_chain on one chain graph with shuffled labels.

    chain_sparse is the `grundy bench` shape *,1,1,1x1,1,1,1 (m close to n,
    per-vertex work); chain_dense is the half graph with k singleton classes
    per side (m = k(k+1)/2, per-edge work).
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, tracer: Tracer | None = None):
        self.name = name
        self.profile = self.family_member(sizes.dense_chain_k if self.dense else sizes.sparse_chain_n)
        self.expected_length = self.closed_form(self.profile)
        self.graph = shuffled(chain_from_profile(self.profile), _rng(name, seed))
        self.items = self.graph.n + self.graph.edge_count
        self.attempts = 1
        self.jobs = 1
        self._checked_order: tuple[int, ...] | None = None

    @property
    def dense(self) -> bool:
        return self.name == "chain_dense"

    def family_member(self, size: int) -> ChainProfile:
        """The half graph with k = size, or the sparse shape with n = size."""
        if self.dense:
            return ChainProfile((1,) * size, (1,) * size)
        return bench_profile(size)

    def closed_form(self, profile: ChainProfile) -> int:
        """gamma_gr is k + 1 on the half graph (k >= 2) and n - 3 on the
        sparse shape; README.md derives both."""
        return profile.k + 1 if self.dense else profile.total_vertices - 3

    def confirm_closed_form(self) -> None:
        """The brute-force oracle must agree with the closed form on small members."""
        for size in range(2, 7) if self.dense else range(8, 15):
            profile = self.family_member(size)
            g = chain_from_profile(profile)
            check_length(grundy_number(g.n, g.adjacency), self.closed_form(profile), f"{self.name} oracle {profile}")

    def op(self, tracer: Tracer | None = None):
        try:
            with _span(tracer, "chain.recognize_chain"):
                cs = recognize_chain(self.graph)
            with _span(tracer, "chain.grundy_chain"):
                seq = grundy_chain(cs)
        except GrundyError:
            return None, 1
        return (cs, seq), 0

    def check(self, output) -> None:
        if output is None:
            return
        cs, seq = output
        p = self.profile
        recovered = (tuple(map(len, cs.x_parts)), tuple(map(len, cs.y_parts)))
        # Seen from the other side, the chain order of the classes reverses.
        if recovered not in ((p.sizes_x, p.sizes_y), (p.sizes_y[::-1], p.sizes_x[::-1])):
            raise CheckError(f"{self.name}: class sizes {recovered} do not match the profile")
        # Outputs repeat from op to op; each distinct one is walked once.
        if self._checked_order is None:
            self.confirm_closed_form()
        if seq.order != self._checked_order:
            g = self.graph
            check_witness(g.n, g.adjacency, seq.order, self.expected_length, self.name)
            self._checked_order = seq.order

    def traced_round(self, tracer: Tracer):
        with tracer.span("op"):
            output, failed = self.op(tracer)
        if output is None:
            return output, failed
        cs, seq = output
        with tracer.span("graph.bipartition"):
            bipartition(self.graph)
        with tracer.span("sequences.quick_verify"):
            quick_verify(self.graph, seq.order)
        with tracer.span("chain.grundy_number_chain"):
            grundy_number_chain(cs)
        tracer.count("chain.k", cs.k)
        tracer.count("graph.edges", self.graph.edge_count)
        tracer.count("chain.sequence_len", len(seq))
        return output, failed

    def layer_metrics(self, tracer: Tracer) -> dict:
        return {
            "graph.bipartition_ms": tracer.median_ms("graph.bipartition"),
            "chain.recognize_self_ms": tracer.median_ms("chain.recognize_chain", "graph.bipartition"),
            "sequences.quick_verify_ms": tracer.median_ms("sequences.quick_verify"),
            "chain.score_table_ms": tracer.median_ms("chain.grundy_number_chain"),
            "chain.emit_self_ms": tracer.median_ms(
                "chain.grundy_chain", "sequences.quick_verify", "chain.grundy_number_chain"
            ),
            "chain.k": tracer.median_count("chain.k"),
            "graph.edges": tracer.median_count("graph.edges"),
            "chain.sequence_len": tracer.median_count("chain.sequence_len"),
        }


# ---- exact_sparse, exact_dense ----------------------------------------------


class ExactWorkload:
    """One pass of grundy_domination_exact over a family of small graphs.

    exact_sparse: paths and cycles with 16-20 vertices and G(n, 0.1) with
    n = 18-20; large state spaces that split into components.
    exact_dense: G(n, p) with n = 18-20 and p in {0.2, 0.3, 0.5}, bipartite
    gadgets of random hypergraphs, co-bipartite gadgets of random graphs
    with n <= 10, and grundy_cover_exact / grundy_transversal_exact on
    random hypergraphs with 14-20 edges; twin-heavy, few components.

    The G(n, p) graphs come from a fixed pool whose values are kept in
    expected_exact.json; the seed renames their vertices. Every other
    input is drawn from the seed and checked against a closed form or an
    oracle value computed on a small source.
    """

    def __init__(self, name: str, seed: int, sizes: Sizes, tracer: Tracer | None = None):
        self.name = name
        family = name.split("_", 1)[1]
        rng = _rng(name, seed)
        # (label, graph, expected value or a deferred oracle call)
        self.graphs: list[tuple[str, Graph, object]] = []
        self.hypergraphs: list[Hypergraph] = []
        if family == "sparse":
            for n in sizes.path_lengths:
                self.graphs.append((f"P{n}", shuffled(path_graph(n), rng), n - 1))
                self.graphs.append((f"C{n}", shuffled(cycle_graph(n), rng), n - 2))
        pool = [e for e in load_expected() if e["family"] == family][: sizes.pool_per_family]
        for entry in pool:
            g = random_graph(entry["n"], entry["p"], entry["seed"])
            if edge_digest(g.edges()) != entry["digest"]:
                raise CheckError(
                    f"random_graph{entry['n'], entry['p'], entry['seed']} no longer matches "
                    f"expected_exact.json; recompute it with {RECOMPUTE_COMMAND}"
                )
            label = f"G({entry['n']},{entry['p']})#{entry['seed']}"
            self.graphs.append((label, shuffled(g, rng), entry["gamma"]))
        if family == "dense":
            for i in range(sizes.hypergraphs):
                h = random_hypergraph(4 + i % 2, 5, rng.getrandbits(63))
                with _span(tracer, "reductions.gadget"):
                    target = hypergraph_to_bipartite(h).target
                self.graphs.append(
                    (f"bipartite#{i}", target, lambda h=h: h.n + h.m + covering_number(h.n, h.edges))
                )
            for i in range(sizes.hypergraphs):
                source = random_graph(8 + i % 3, (0.2, 0.3, 0.4, 0.5)[i % 4], rng.getrandbits(63))
                with _span(tracer, "reductions.gadget"):
                    target = graph_to_cobipartite(source).target
                self.graphs.append(
                    (f"cobipartite#{i}", target, lambda s=source: grundy_number(s.n, s.adjacency))
                )
            for i in range(sizes.hypergraphs):
                self.hypergraphs.append(random_hypergraph(8 + i % 3, 14 + i % 7, rng.getrandbits(63)))
        self.attempts = len(self.graphs) + 2 * len(self.hypergraphs)
        self.items = self.attempts
        self.jobs = 1
        self._rho: list[int] | None = None

    def op(self, tracer: Tracer | None = None):
        graph_results = []
        hyper_results = []
        failed = 0
        for _, g, _ in self.graphs:
            try:
                with _span(tracer, "exact.grundy_domination_exact"):
                    graph_results.append(grundy_domination_exact(g))
            except GrundyError:
                graph_results.append(None)
                failed += 1
        for h in self.hypergraphs:
            pair = []
            with _span(tracer, "exact.cover_transversal"):
                for solver in (grundy_cover_exact, grundy_transversal_exact):
                    try:
                        pair.append(solver(h))
                    except GrundyError:
                        pair.append(None)
                        failed += 1
            hyper_results.append(pair)
        return (graph_results, hyper_results), failed

    def check(self, output) -> None:
        graph_results, hyper_results = output
        for i, result in enumerate(graph_results):
            if result is None:
                continue
            label, g, expected = self.graphs[i]
            if callable(expected):
                expected = expected()
                self.graphs[i] = (label, g, expected)
            check_length(result.best_length, expected, f"{self.name} {label}")
            check_witness(g.n, g.adjacency, result.best_sequence.order, expected, f"{self.name} {label}")
        if self._rho is None:
            self._rho = [covering_number(h.n, h.edges) for h in self.hypergraphs]
        for h, rho, (cover, transversal) in zip(self.hypergraphs, self._rho, hyper_results):
            what = f"{self.name} {h!r}"
            if cover is not None:
                check_length(cover.best_length, rho, what + " rho")
                check_length(walk_edges(h.n, h.edges, cover.best_sequence), rho, what + " cover witness")
            if transversal is not None:
                check_length(transversal.best_length, rho, what + " tau")
                check_length(
                    walk_transversal(h.n, h.edges, transversal.best_sequence), rho, what + " transversal witness"
                )

    def traced_round(self, tracer: Tracer):
        with tracer.span("op"):
            output, failed = self.op(tracer)
        graph_results, hyper_results = output
        nodes = 0
        for (_, g, _), result in zip(self.graphs, graph_results):
            with tracer.span("exact.graph_twin_classes"):
                classes = graph_twin_classes(g)
            tracer.count("exact.twin_classes", len(classes))
            if result is None:
                continue
            nodes += result.nodes_explored
            with tracer.span("sequences.check_closed_neighborhood_sequence"):
                check_closed_neighborhood_sequence(g, result.best_sequence.order)
        nodes += sum(r.nodes_explored for pair in hyper_results for r in pair if r is not None)
        tracer.count("exact.nodes", nodes)
        return output, failed

    def layer_metrics(self, tracer: Tracer) -> dict:
        search = [
            a + b
            for a, b in zip(
                tracer.round_sums("exact.grundy_domination_exact"), tracer.round_sums("exact.cover_transversal")
            )
        ]
        nodes = tracer.counts.get("exact.nodes", {})
        return {
            "exact.nodes": tracer.median_count("exact.nodes"),
            "exact.nodes_per_s": tracer.median_rate([nodes.get(r, 0) for r in range(tracer.rounds)], search),
            "exact.twin_classes_ms": tracer.median_ms("exact.graph_twin_classes"),
            "exact.twin_classes": tracer.median_count("exact.twin_classes"),
            "sequences.check_closed_neighborhood_sequence_ms": tracer.median_ms(
                "sequences.check_closed_neighborhood_sequence"
            ),
            "exact.search_self_ms": tracer.median_ms(
                "exact.grundy_domination_exact", "sequences.check_closed_neighborhood_sequence"
            ),
            "exact.cover_transversal_ms": tracer.median_ms("exact.cover_transversal"),
            "reductions.gadget_ms": tracer.setup_ms("reductions.gadget"),
        }


# ---- sweep_chain --------------------------------------------------------------

# chain_sweep's default: brute-force independence numbers up to 14 vertices.
ALPHA_CAP = 14


class SweepChainWorkload:
    """chain_sweep over the acceptance profiles: every profile with k <= 4,
    parts <= 3 and at most 16 vertices, plus 1000 random profiles of at most
    18 vertices drawn from the seed."""

    def __init__(self, name: str, seed: int, sizes: Sizes, tracer: Tracer | None = None):
        self.name = name
        first = 1 + 1000 * seed
        self.profiles = exhaustive_profiles(*sizes.profile_bounds) + [
            random_chain_profile(18, first + i) for i in range(sizes.random_profiles)
        ]
        self.items = self.attempts = len(self.profiles)
        self.jobs = JOBS

    def _sweep(self, jobs: int):
        try:
            return chain_sweep(self.profiles, jobs=jobs), 0
        except GrundyError:
            return None, self.attempts

    def op(self, tracer: Tracer | None = None):
        return self._sweep(JOBS)

    def check(self, report) -> None:
        if report is None:
            return
        if not report.ok:
            failures = (
                report.gamma_mismatches + report.witness_failures + report.alpha_mismatches
                + report.sandwich_failures + report.structure_failures
            )
            raise CheckError(f"{self.name}: {len(failures)} failures, first {failures[0]}")
        check_count(report.checked, len(self.profiles), self.name)

    def traced_round(self, tracer: Tracer):
        with tracer.span("op"):
            output, failed = self.op(tracer)
        with tracer.span("sweeps.chain_sweep.serial"):
            serial, _ = self._sweep(1)
        self.check(serial)
        nodes = 0
        for profile in self.profiles:
            g = chain_from_profile(profile)
            with tracer.span("chain.recognize_chain"):
                cs = recognize_chain(g)
            seq = grundy_chain(cs)
            with tracer.span("exact.grundy_domination_exact"):
                exact = grundy_domination_exact(g)
            nodes += exact.nodes_explored
            if g.n <= ALPHA_CAP:
                with tracer.span("exact.independence_number_exact"):
                    independence_number_exact(g)
            footprints = check_closed_neighborhood_sequence(g, seq.order)
            with tracer.span("sequences.check_subset_ordering"):
                check_subset_ordering(g, footprints)
            check_length(walk(g.n, g.adjacency, seq.order), exact.best_length, f"{self.name} {profile}")
        tracer.count("exact.nodes.chain", nodes)
        return output, failed

    def layer_metrics(self, tracer: Tracer) -> dict:
        serial = tracer.round_sums("sweeps.chain_sweep.serial")
        parallel = tracer.round_sums("op")
        return {
            "sweeps.chain_serial_per_s": tracer.median_rate([len(self.profiles)] * len(serial), serial),
            "sweeps.chain_fanout_efficiency": tracer.median_rate(serial, [JOBS * p for p in parallel]),
            "chain.recognize_ms.small": tracer.median_ms("chain.recognize_chain"),
            "exact.search_ms.chain": tracer.median_ms("exact.grundy_domination_exact"),
            "exact.nodes.chain": tracer.median_count("exact.nodes.chain"),
            "exact.independence_ms": tracer.median_ms("exact.independence_number_exact"),
            "sequences.subset_ordering_ms": tracer.median_ms("sequences.check_subset_ordering"),
        }


# ---- sweep_duality ------------------------------------------------------------

# duality_exhaustive_sweep's defaults: blocks of 4096 instances per task,
# and the memoised engine re-checks every 4096th instance.
DUALITY_BLOCK = 4096


def engine_checked_hypergraphs(n_max: int, m_max: int) -> list[Hypergraph]:
    """The instances duality_exhaustive_sweep also hands to rho_tau_values:
    the first of every block, in the sweep's enumeration order."""
    out = []
    for n in range(1, n_max + 1):
        full = (1 << n) - 1
        for m in range(1, m_max + 1):
            index = 0
            for combo in itertools.combinations(range(1, 1 << n), m):
                union = 0
                for mask in combo:
                    union |= mask
                if union != full:
                    continue
                if index % DUALITY_BLOCK == 0:
                    out.append(Hypergraph(n, [[v for v in range(n) if mask >> v & 1] for mask in combo]))
                index += 1
    return out


class SweepDualityWorkload:
    """duality_exhaustive_sweep over every distinct-edge hypergraph with
    n <= 5 and m <= 5, plus duality_random_sweep on 500 hypergraphs drawn
    from the seed."""

    def __init__(self, name: str, seed: int, sizes: Sizes, tracer: Tracer | None = None):
        self.name = name
        self.n_max, self.m_max = sizes.duality_bounds
        self.random_count = sizes.duality_random
        self.random_seed = 11 + 1000 * seed
        self.exhaustive_count = distinct_edge_hypergraph_count(self.n_max, self.m_max)
        self.items = self.attempts = self.exhaustive_count + self.random_count
        self.jobs = JOBS
        self.engine_checked = engine_checked_hypergraphs(self.n_max, self.m_max) if tracer else []
        self._rho: list[int] | None = None

    def _sweep(self, jobs: int):
        try:
            exhaustive = duality_exhaustive_sweep(self.n_max, self.m_max, jobs=jobs)
            randomised = duality_random_sweep(self.random_count, seed=self.random_seed, jobs=jobs)
        except GrundyError:
            return None, self.attempts
        return (exhaustive, randomised), 0

    def op(self, tracer: Tracer | None = None):
        return self._sweep(JOBS)

    def check(self, output) -> None:
        if output is None:
            return
        exhaustive, randomised = output
        for outcome in output:
            if outcome.failures:
                raise CheckError(f"{self.name}: {len(outcome.failures)} failures, first {outcome.failures[0]}")
        check_count(exhaustive.checked, self.exhaustive_count, self.name + " exhaustive")
        check_count(randomised.checked, self.random_count, self.name + " random")

    def traced_round(self, tracer: Tracer):
        with tracer.span("op"):
            output, failed = self.op(tracer)
        with tracer.span("sweeps.duality.serial"):
            serial, _ = self._sweep(1)
        self.check(serial)
        if self._rho is None:
            self._rho = [covering_number(h.n, h.edges) for h in self.engine_checked]
        for h, rho in zip(self.engine_checked, self._rho):
            with tracer.span("exact.rho_tau_values"):
                values = rho_tau_values(h)
            if values != (rho, rho):
                raise CheckError(f"{self.name}: rho_tau_values{h!r} = {values}, oracle rho {rho}")
        return output, failed

    def layer_metrics(self, tracer: Tracer) -> dict:
        serial = tracer.round_sums("sweeps.duality.serial")
        parallel = tracer.round_sums("op")
        return {
            "sweeps.duality_serial_per_s": tracer.median_rate([self.items] * len(serial), serial),
            "sweeps.duality_fanout_efficiency": tracer.median_rate(serial, [JOBS * p for p in parallel]),
            "exact.rho_tau_ms": tracer.median_ms("exact.rho_tau_values"),
        }


WORKLOADS = {
    "chain_sparse": ChainWorkload,
    "chain_dense": ChainWorkload,
    "exact_sparse": ExactWorkload,
    "exact_dense": ExactWorkload,
    "sweep_chain": SweepChainWorkload,
    "sweep_duality": SweepDualityWorkload,
}

"""Bulk verification sweeps over exhaustive and seeded instance families.

Each sweep pits two independent computations against each other across a
whole family (fast chain solver vs exhaustive search, covering vs
transversal numbers, gadget vs source). Workers are plain module-level
functions over the tasks a family's enumerator built (the gadget sweeps
pass the source Hypergraph or Graph itself) that return (checked,
failures), so one runner can fan any of them out across processes.

FAMILIES is the one table of sweep families: for each, the integers it
reads, their defaults (the acceptance suite's values), their limits, and
the function that builds the family's tasks and runs them. The CLI and the
acceptance suite both read it. It builds no instances until a family runs.

The exhaustive duality family covers distinct-edge hypergraphs only: a
duplicated edge can never contribute a new vertex and never supplies a
new witness, so duplicate-edge instances have the same covering and
transversal numbers as their deduplicated form. Both numbers are also
unchanged by relabelling the vertices, so the sweep checks one hypergraph
per isomorphism class (edge_set_orbits) and counts it as many times as
the class has labelled members; `checked` is still the number of labelled
hypergraphs covered. The gadget sweeps, whose gadgets relabel with their
sources, do likewise for graphs and for edge multisets (a repeated edge
gets its own vertex pair), and the chain sweep runs its exact solvers
once per isomorphism class of profiles (chain_sweep).
"""
from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, NamedTuple

from .chain import (
    grundy_chain,
    independence_number_chain,
    recognize_chain,
)
from .errors import InputError, SizeCapError
from .exact import (
    grundy_cover_exact,
    grundy_domination_exact,
    grundy_transversal_exact,
    independence_number_exact,
    rho_tau_values,
)
from .generators import (
    ChainProfile,
    chain_from_profile,
    random_chain_profile,
    random_graph,
    random_hypergraph,
    XorShift64Star,
)
from .graph import Graph
from .hypergraph import Hypergraph
from .reductions import graph_to_cobipartite, hypergraph_to_bipartite
from .sequences import check_closed_neighborhood_sequence, check_subset_ordering

__all__ = [
    "FAMILIES",
    "SweepFamily",
    "SweepParam",
    "SweepOutcome",
    "ChainSweepReport",
    "exhaustive_profiles",
    "chain_sweep",
    "duality_exhaustive_sweep",
    "edge_set_orbits",
    "duality_random_sweep",
    "random_reduction_hypergraphs",
    "random_reduction_graphs",
]

# Exhaustive duality instances go to the workers in blocks of this many
# isomorphism classes, one representative each. One task per
# representative, batched by the runner's chunksize=256 instead, made the
# duality sweep slower: perfbench sweep_duality op_ms 170.4 -> 179.5 ms,
# slower in 5 of 6 pairs, on 2 cores.
DUALITY_BLOCK = 256


@dataclass
class SweepOutcome:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(worker, tasks, jobs: int | None, chunksize: int = 1) -> SweepOutcome:
    """Map worker over tasks and add up the (checked, failures) pair each
    task returns. Every sweep runs through here, so this alone sizes the
    pool: jobs processes, clamped to the CPUs this process may use since the
    pool starts every worker at once; with one, tasks run in this process."""
    jobs = min(jobs or 1, _usable_cpus())
    outcome = SweepOutcome()
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        results = pool.map(worker, tasks, chunksize=chunksize) if pool else map(worker, tasks)
        for checked, failures in results:
            outcome.checked += checked
            outcome.failures.extend(failures)
    return outcome


# ---- chain family ----------------------------------------------------------


def exhaustive_profiles(max_k: int, max_part: int, max_vertices: int) -> list[ChainProfile]:
    """Every twin-class profile with k <= max_k, parts <= max_part and the
    stated vertex budget."""
    out = []
    for k in range(1, max_k + 1):
        for sizes_x in itertools.product(range(1, max_part + 1), repeat=k):
            sx = sum(sizes_x)
            for sizes_y in itertools.product(range(1, max_part + 1), repeat=k):
                if sx + sum(sizes_y) <= max_vertices:
                    out.append(ChainProfile(sizes_x, sizes_y))
    return out


# ChainSweepReport's lists, each named after its check and then a noun
_CHAIN_VIEWS = "gamma_mismatches witness_failures alpha_mismatches sandwich_failures structure_failures"


def _failures_of(check: str) -> property:
    prefix = check + ": "
    return property(lambda self: [f[len(prefix):] for f in self.failures if f.startswith(prefix)])


class ChainSweepReport(SweepOutcome):
    """A chain sweep's outcome. Each failure line starts with the name of
    the check that failed, as in "gamma: X(1, 2)/Y(2, 1) chain=3 exact=4".
    The five list attributes view those lines one check each, without the
    name; the constructor takes them too, so dataclasses.replace can set them.
    """

    def __init__(self, checked: int = 0, failures=(), **views):
        super().__init__(checked, list(failures))
        for view, labels in views.items():
            if view not in _CHAIN_VIEWS.split():
                raise TypeError(f"unexpected keyword argument {view!r}")
            self.failures += [f"{view.split('_')[0]}: {label}" for label in labels]

    gamma_mismatches = _failures_of("gamma")
    witness_failures = _failures_of("witness")
    alpha_mismatches = _failures_of("alpha")
    sandwich_failures = _failures_of("sandwich")
    structure_failures = _failures_of("structure")


def _observation_identities_hold(cs) -> bool:
    """N(X_i) must equal Y_1..Y_i and N(Y_i) must equal X_i..X_k."""
    adj = cs.graph.adjacency

    def reach(part) -> set[int]:
        return {u for v in part for u in adj[v]}

    return all(
        reach(cs.x_parts[i]) == set().union(*cs.y_parts[: i + 1])
        and reach(cs.y_parts[i]) == set().union(*cs.x_parts[i:])
        for i in range(cs.k)
    )


def _chain_case(task):
    """Check one isomorphism class of chain graphs, given as its distinct
    labelled profiles, each with the number of times it was listed.

    Isomorphic graphs share their Grundy domination and independence
    numbers, so the exact solvers run once, on the first profile's graph.
    Every profile still gets its own graph, recognition, chain solution
    and checks against those numbers, and its failure lines repeat once
    per listed copy.
    """
    checked, failures, exact = 0, [], None
    for (sizes_x, sizes_y), count in task:
        label = f"X{sizes_x}/Y{sizes_y}"
        g = chain_from_profile(ChainProfile(sizes_x, sizes_y))
        cs = recognize_chain(g)
        lines = []
        recovered = tuple(len(p) for p in cs.x_parts), tuple(len(p) for p in cs.y_parts)
        if recovered != (sizes_x, sizes_y) or not _observation_identities_hold(cs):
            lines.append(f"structure: {label}")

        seq = grundy_chain(cs)
        gamma_chain = len(seq)
        if exact is None:
            exact = grundy_domination_exact(g).best_length, independence_number_exact(g)
        gamma_exact, alpha_exact = exact
        if gamma_chain != gamma_exact:
            lines.append(f"gamma: {label} chain={gamma_chain} exact={gamma_exact}")
        checked_seq = check_closed_neighborhood_sequence(g, seq.order)
        if checked_seq.covered() != g.n or not check_subset_ordering(g, checked_seq):
            lines.append(f"witness: {label}")

        alpha_chain = independence_number_chain(cs)
        if gamma_chain - alpha_chain not in (0, 1):
            lines.append(f"sandwich: {label}")
        if alpha_exact != alpha_chain:
            lines.append(f"alpha: {label}")
        checked += count
        failures += lines * count
    return checked, failures


def chain_sweep(profiles, jobs: int | None = None) -> ChainSweepReport:
    """Compare the chain solver against exhaustive search over a family,
    checking witnesses, twin-partition identities and the independence
    number on the way.

    The profiles (sx, sy) and (sy[::-1], sx[::-1]) give isomorphic chain
    graphs, the second with its sides swapped, and a connected chain graph
    has no other profile. So the profiles go to the workers grouped by isomorphism
    class, in order of first appearance, and the exact solvers run once
    per class. `checked` still counts every profile listed.
    """
    classes: dict[tuple, Counter] = {}
    for p in profiles:
        labelled = p.sizes_x, p.sizes_y
        key = min(labelled, (p.sizes_y[::-1], p.sizes_x[::-1]))
        classes.setdefault(key, Counter())[labelled] += 1
    tasks = [tuple(members.items()) for members in classes.values()]
    outcome = _run(_chain_case, tasks, jobs, chunksize=16)
    return ChainSweepReport(outcome.checked, outcome.failures)


# ---- covering / transversal duality ----------------------------------------


def _brute_max_len(masks: tuple[int, ...], full: int) -> int:
    """Longest add-something-new sequence, by plain depth-first search.

    Independent of the memoized engine; prunes only through the hard
    "one new bit per move" ceiling, so the maximum stays exact.
    """
    best = 0

    def go(state: int, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        if depth + (full & ~state).bit_count() <= best:
            return
        for mask in masks:
            if mask & ~state:
                go(state | mask, depth + 1)

    go(0, 0)
    return best


# edge_set_orbits' four tables hold n! * 2^n entries each: 645,120 at n = 7, 10,321,920 at n = 8
MAX_ORBIT_VERTICES = 7


def edge_set_orbits(n: int, m_max: int, elements, repeats: bool = False):
    """Yield (masks, orbit_size) once per isomorphism class of the sets
    (with repeats, multisets) of at most m_max masks drawn from elements,
    the empty set first.

    elements are sorted non-zero masks on n vertices, closed under
    relabelling: all non-empty masks for hypergraphs, 2-vertex ones for
    graphs. masks is the class's lexicographically smallest sorted tuple;
    orbit_size = n!/|Aut| is the number of labelled sets in the class.

    Orderly generation (Read; McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): a set grows only by elements larger than its
    last (with repeats, no smaller), and is kept only if no vertex
    permutation maps it to a smaller sorted tuple. Dropping the last mask of
    a minimal tuple leaves one (tuples of one length compare at the least
    value whose count differs), so a rejected set has no kept descendant.

    The test is incremental. For a kept set T and a permutation p, either p
    fixes T (an automorphism), or sorted(p(T)) first exceeds T at some
    position i, and T[i] is the threshold of p. Adding a d that T grows by:

    - an automorphism p rejects d when p(d) < d, stays one when
      p(d) == d, and otherwise takes the threshold d;
    - a permutation with threshold t rejects d when p(d) < t and keeps t
      when p(d) > t; only p(d) == t needs the full comparison.

    So a threshold t of p rejects the precomputed bit set below[p][t], and a
    child inherits its parent's thresholds with the masks they reject; only
    its new thresholds and its automorphisms add to that. (A tie that turns
    p into an automorphism leaves below[p][t] held; each mask d >= t that it
    rejects has p(d) < t <= d, so the automorphism rule rejects it as well.)
    Pending ties are kept by the mask d that would meet them; adding d meets
    them all, so a child keeps the larger keys and its fresh ties, which a
    repeat of d may meet. All of this holds for any such elements: each
    image and preimage of an element is one, so relabelled sets and the
    masks that meet ties stay among them. The tables (n! rows of 2^n) are
    per call; n > MAX_ORBIT_VERTICES raises SizeCapError before any is built.
    """
    if n > MAX_ORBIT_VERTICES:
        raise SizeCapError(n, MAX_ORBIT_VERTICES, what="vertices (edge_set_orbits)")
    yield (), 1
    if m_max < 1:
        return
    step = 0 if repeats else 1  # with repeats, a set may grow by its last mask again
    size = 1 << n
    perms = list(itertools.permutations(range(n)))
    images = []  # images[p][mask]: the mask relabelled by p
    preimages = []  # preimages[p][x]: the mask that p relabels to x
    below = []  # below[p][t]: bit c set when images[p][c] < t
    drops = []  # drops[p]: bit c set when images[p][c] < c
    for perm in perms:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << perm[low.bit_length() - 1]
        preimage = [0] * size
        for mask, x in enumerate(image):
            preimage[x] = mask
        prefixes, bits = [], 0
        for x in range(size):
            prefixes.append(bits)
            bits |= 1 << preimage[x]
        images.append(image)
        preimages.append(preimage)
        below.append(prefixes)
        drops.append(sum(1 << mask for mask in range(size) if image[mask] < mask))

    def grow(masks, start, automorphisms, held, ties):
        # held: the masks rejected by thresholds; ties: d -> its (p, t) pairs
        rejected = held
        for p in automorphisms:
            rejected |= drops[p]
        deeper = len(masks) + 1 < m_max
        for i in range(start, len(elements)):
            d = elements[i]
            if rejected >> d & 1:
                continue
            child = masks + (d,)
            child_automorphisms = [p for p in automorphisms if images[p][d] == d]
            fresh = [(p, d) for p in automorphisms if images[p][d] > d]
            for p, t in ties.get(d, ()):
                image = tuple(sorted(map(images[p].__getitem__, child)))
                if image < child:
                    break
                if image == child:
                    child_automorphisms.append(p)
                else:
                    first = next(j for j, (a, b) in enumerate(zip(image, child)) if a != b)
                    fresh.append((p, child[first]))
            else:
                yield child, len(perms) // len(child_automorphisms)
                if deeper:
                    child_held = held
                    child_ties = {x: pairs for x, pairs in ties.items() if x > d}
                    for p, t in fresh:
                        child_held |= below[p][t]
                        x = preimages[p][t]
                        child_ties[x] = child_ties.get(x, ()) + ((p, t),)
                    yield from grow(child, i + step, child_automorphisms, child_held, child_ties)

    yield from grow((), 0, list(range(len(perms))), 0, {})


def _dual_case(task):
    """Check tau == rho on a block of orbit representatives on n vertices,
    by plain search and again by the memoized engine. Each representative
    counts for the labelled hypergraphs of its orbit."""
    n, block = task
    checked = 0
    failures = []
    for edge_masks, orbit_size in block:
        checked += orbit_size
        rho = _brute_max_len(edge_masks, (1 << n) - 1)
        m = len(edge_masks)
        vertex_masks = tuple(
            sum(1 << j for j, em in enumerate(edge_masks) if em >> v & 1)
            for v in range(n)
        )
        tau = _brute_max_len(vertex_masks, (1 << m) - 1)
        if rho != tau:
            failures.append(f"n={n} masks={edge_masks} rho={rho} tau={tau}")
            continue
        engine = rho_tau_values(Hypergraph(n, [_mask_to_edge(em) for em in edge_masks]))
        if engine != (rho, tau):
            failures.append(f"engine (rho, tau)={engine} on n={n} masks={edge_masks}, brute {rho}")
    return checked, failures


def _mask_to_edge(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def duality_exhaustive_sweep(n_max: int, m_max: int, jobs: int | None = None) -> SweepOutcome:
    """tau == rho over every distinct-edge hypergraph with no isolated
    vertex, n <= n_max and at most m_max edges, checked on one
    representative per isomorphism class by plain search and by the
    memoized engine. `checked` counts labelled hypergraphs."""

    def tasks():
        for n in range(1, n_max + 1):
            full = (1 << n) - 1
            classes = edge_set_orbits(n, m_max, range(1, full + 1))
            orbits = (orbit for orbit in classes if reduce(or_, orbit[0], 0) == full)
            while block := list(itertools.islice(orbits, DUALITY_BLOCK)):
                yield n, block

    return _run(_dual_case, tasks(), jobs)


def _dual_random_case(task):
    n, m, seed = task
    h = random_hypergraph(n, m, seed)
    rho = grundy_cover_exact(h)
    tau = grundy_transversal_exact(h)
    if rho.best_length != tau.best_length:
        return 1, [f"seed={seed} n={n} m={m} rho={rho.best_length} tau={tau.best_length}"]
    return 1, []


def duality_random_sweep(count: int, seed: int, jobs: int | None = None) -> SweepOutcome:
    """tau == rho on seeded random hypergraphs with 2..8 vertices and 2..6
    edges, through the full public solvers including witness
    re-verification."""
    rng = XorShift64Star(seed)
    tasks = []
    for i in range(count):
        n = 2 + rng.next_below(7)
        m = 2 + rng.next_below(5)
        tasks.append((n, m, seed + 1000 + i))
    return _run(_dual_random_case, tasks, jobs, chunksize=32)


# ---- gadget equivalence ----------------------------------------------------


def random_reduction_hypergraphs(count: int, seed: int) -> list[Hypergraph]:
    """Seeded random hypergraphs with 2..5 vertices and 2..4 edges."""
    rng = XorShift64Star(seed)
    out = []
    for i in range(count):
        n = 2 + rng.next_below(4)
        m = 2 + rng.next_below(3)
        out.append(random_hypergraph(n, m, seed + 5000 + i))
    return out


def _bipartite_case(task):
    """gamma of the bipartite gadget must exceed n+m by exactly rho, on a
    hypergraph that stands for `count` labelled ones, one failure line each."""
    h, count = task
    rho = grundy_cover_exact(h).best_length
    gadget = hypergraph_to_bipartite(h)
    gamma = grundy_domination_exact(gadget.target).best_length
    expected = h.n + h.m + rho
    if gamma != expected:
        return count, [f"n={h.n} edges={h.edges}: gamma={gamma} expected {expected}"] * count
    return count, []


def random_reduction_graphs(count: int, seed: int) -> list[Graph]:
    """Seeded random graphs with 1..8 vertices and edge probability 0.1..0.9."""
    rng = XorShift64Star(seed)
    out = []
    for i in range(count):
        n = 1 + rng.next_below(8)
        prob = (1 + rng.next_below(9)) / 10
        out.append(random_graph(n, prob, seed + 9000 + i))
    return out


def _cobipartite_case(task):
    """gamma of the co-bipartite gadget must equal gamma of the source, a
    graph that stands for `count` labelled graphs, one failure line each."""
    g, count = task
    gamma_src = grundy_domination_exact(g).best_length
    gadget = graph_to_cobipartite(g)
    gamma_gadget = grundy_domination_exact(gadget.target).best_length
    if gamma_src != gamma_gadget:
        line = f"n={g.n} edges={tuple(g.edges())}: source={gamma_src} gadget={gamma_gadget}"
        return count, [line] * count
    return count, []


# ---- the family table ------------------------------------------------------


# NamedTuples rather than dataclasses: the table is built on import, and a
# frozen dataclass costs about a millisecond of start-up each.
class SweepParam(NamedTuple):
    """One integer a sweep family reads; the CLI parses any integer as --NAME
    (dashes for underscores). SweepFamily.run alone checks it, before anything
    is enumerated: below minimum (None: none) is an InputError, above cap a SizeCapError."""

    name: str
    default: int
    help: str
    minimum: int | None = 1
    cap: int | None = None


class SweepFamily(NamedTuple):
    name: str
    help: str
    params: tuple[SweepParam, ...]
    sweep: Callable[..., SweepOutcome]

    def run(self, jobs: int | None = None, **values: int) -> SweepOutcome:
        """Run the family; parameters not given take their defaults."""
        settings = {p.name: p.default for p in self.params} | values
        for p in self.params:
            value = settings[p.name]
            if p.minimum is not None and value < p.minimum:
                raise InputError(f"{self.name} sweep: {p.name} must be at least {p.minimum}, got {value}")
            if p.cap is not None and value > p.cap:
                raise SizeCapError(value, p.cap, what=f"({self.name} sweep {p.name})")
        return self.sweep(jobs, **settings)


FAMILIES: dict[str, SweepFamily] = {}


def _family(name: str, help: str, *params: SweepParam):
    """Enter the decorated function, which builds the family's tasks from
    the parameter values and runs them, in FAMILIES."""

    def register(sweep):
        FAMILIES[name] = SweepFamily(name, help, params, sweep)
        return sweep

    return register


# every family builds its random tasks before the first check, at up to
# about 500 bytes each (bipartite, tracemalloc peak): some 50 MB at the cap
MAX_RANDOM = 100_000


def _random(default: int) -> SweepParam:
    return SweepParam("random", default, "number of seeded random instances", minimum=0, cap=MAX_RANDOM)


def _seed(default: int) -> SweepParam:
    return SweepParam("seed", default, "seed of the random instances", minimum=None)


@_family(
    "chain",
    "chain solver vs exhaustive search on twin-class profiles",
    # at both caps the profile loop tries 5^2 + 5^4 + 5^6 + 5^8 = 406,900 candidates;
    # like every random profile, each has at most 40 vertices, within the exact search's bound
    SweepParam("max_k", 4, "most twin classes per side of the exhaustive profiles", cap=4),
    SweepParam("max_part", 3, "largest class of the exhaustive profiles", cap=5),
    SweepParam("max_vertices", 16, "most vertices of the exhaustive profiles"),
    _random(1000),
    SweepParam("random_vertices", 18, "most vertices of the random profiles", minimum=2),
    _seed(1),
)
def _chain_family(jobs, max_k, max_part, max_vertices, random, random_vertices, seed):
    profiles = exhaustive_profiles(max_k, max_part, max_vertices)
    profiles += [random_chain_profile(random_vertices, seed + i) for i in range(random)]
    return chain_sweep(profiles, jobs=jobs)


@_family(
    "duality",
    "covering vs transversal number on hypergraphs",
    SweepParam("n_max", 6, "most vertices of the exhaustive hypergraphs", cap=MAX_ORBIT_VERTICES),
    SweepParam("m_max", 5, "most edges of the exhaustive hypergraphs", cap=5),
    _random(500),
    _seed(11),
)
def _duality_family(jobs, n_max, m_max, random, seed):
    parts = duality_exhaustive_sweep(n_max, m_max, jobs), duality_random_sweep(random, seed, jobs)
    return SweepOutcome(sum(p.checked for p in parts), [f for p in parts for f in p.failures])


@_family(
    "bipartite",
    "bipartite gadget vs the Grundy cover number of its hypergraph",
    _random(200),
    _seed(23),
)
def _bipartite_family(jobs, random, seed):
    # every edge multiset covering 2..4 vertices with 2 or 3 edges: 80 classes of 522
    tasks = [
        (Hypergraph(n, map(_mask_to_edge, masks)), count)
        for n in (2, 3, 4)
        for masks, count in edge_set_orbits(n, 3, range(1, 1 << n), repeats=True)
        if len(masks) >= 2 and reduce(or_, masks) == (1 << n) - 1
    ]
    tasks += [(h, 1) for h in random_reduction_hypergraphs(random, seed)]
    return _run(_bipartite_case, tasks, jobs, chunksize=4)


@_family(
    "cobipartite",
    "co-bipartite gadget vs the Grundy domination number of its graph",
    SweepParam("n_max", 7, "most vertices of the exhaustive graphs", cap=MAX_ORBIT_VERTICES),
    _random(200),
    _seed(37),
)
def _cobipartite_family(jobs, n_max, random, seed):
    tasks = []
    for n in range(1, n_max + 1):
        pairs = [mask for mask in range(1 << n) if mask.bit_count() == 2]
        for masks, count in edge_set_orbits(n, len(pairs), pairs):
            tasks.append((Graph.from_edges(n, map(_mask_to_edge, masks)), count))
    tasks += [(g, 1) for g in random_reduction_graphs(random, seed)]
    return _run(_cobipartite_case, tasks, jobs, chunksize=8)

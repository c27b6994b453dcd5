"""Bulk verification sweeps over exhaustive and seeded instance families.

Each sweep pits two independent computations against each other across a
whole family (fast chain solver vs exhaustive search, covering vs
transversal numbers, gadget vs source). Workers are plain module-level
functions over compact descriptors that return (checked, failures), so one
runner can fan any of them out across processes with --jobs.

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
hypergraphs covered. The chain sweep likewise runs its exact solvers once
per isomorphism class of profiles (chain_sweep).
"""
from __future__ import annotations

import itertools
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
    HARD_CAP,
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
    "exhaustive_hypergraphs",
    "random_reduction_hypergraphs",
    "exhaustive_graphs",
    "random_reduction_graphs",
]

# The chain sweep brute-forces independence numbers up to this many vertices.
ALPHA_CAP = 14
# Exhaustive duality instances go to the workers in blocks of this many
# isomorphism classes, one representative each.
DUALITY_BLOCK = 256


@dataclass
class SweepOutcome:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(worker, tasks, jobs: int | None, chunksize: int = 1) -> SweepOutcome:
    """Map worker over tasks, across `jobs` processes when jobs > 1, and add
    up the (checked, failures) pair each task returns."""
    outcome = SweepOutcome()
    with ProcessPoolExecutor(jobs) if jobs and jobs > 1 else nullcontext() as pool:
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
        if recovered not in ((sizes_x, sizes_y), (sizes_y, sizes_x)) or not _observation_identities_hold(cs):
            lines.append(f"structure: {label}")

        seq = grundy_chain(cs)
        gamma_chain = len(seq)
        if exact is None:
            exact = (
                grundy_domination_exact(g).best_length,
                independence_number_exact(g) if g.n <= ALPHA_CAP else None,
            )
        gamma_exact, alpha_exact = exact
        if gamma_chain != gamma_exact:
            lines.append(f"gamma: {label} chain={gamma_chain} exact={gamma_exact}")
        checked_seq = check_closed_neighborhood_sequence(g, seq.order)
        if checked_seq.covered() != g.n or not check_subset_ordering(g, checked_seq):
            lines.append(f"witness: {label}")

        alpha_chain = independence_number_chain(cs)
        if gamma_chain - alpha_chain not in (0, 1):
            lines.append(f"sandwich: {label}")
        if alpha_exact is not None and alpha_exact != alpha_chain:
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


def edge_set_orbits(n: int, m_max: int):
    """Yield (masks, orbit_size) once per isomorphism class of the sets of
    1..m_max distinct non-empty edges that cover all n vertices.

    masks is the sorted tuple of edge bit masks that is lexicographically
    smallest among the class's relabellings, and orbit_size = n!/|Aut| is
    the number of labelled edge sets in the class.

    Orderly generation (Read; McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998): a set grows only by masks larger
    than its last, and is kept only if no vertex permutation maps it to a
    smaller sorted tuple. Dropping the last mask of a minimal tuple leaves
    a minimal tuple, so a rejected set has no kept descendant.

    The test is incremental. For a kept set T and a permutation p, either
    p fixes T (an automorphism), or sorted(p(T)) first exceeds T at some
    position i, and T[i] is the threshold of p. Adding d > max(T):

    - an automorphism p rejects d when p(d) < d, stays one when
      p(d) == d, and otherwise takes the threshold d;
    - a permutation with threshold t rejects d when p(d) < t and keeps t
      when p(d) > t; only p(d) == t needs the full comparison.

    So a threshold t of p rejects the precomputed bit set below[p][t], and
    a child inherits its parent's thresholds with the masks they reject;
    only its new thresholds and its automorphisms add to that. (A tie
    that turns p into an automorphism leaves below[p][t] held; each mask
    above t that it rejects has p(d) < t < d, so the automorphism rule
    rejects it as well.) Pending ties are kept by the mask d that would
    meet them. The tables are built per call: n! rows of 2^n entries each.
    """
    if m_max < 1:
        return
    size = 1 << n
    full = size - 1
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

    def grow(masks, union, automorphisms, held, ties):
        # held: the masks rejected by thresholds; ties: d -> its (p, t) pairs
        rejected = held
        for p in automorphisms:
            rejected |= drops[p]
        last_level = len(masks) + 1 == m_max
        for d in range(masks[-1] + 1 if masks else 1, size):
            if rejected >> d & 1 or (last_level and union | d != full):
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
                    first = next(i for i, (a, b) in enumerate(zip(image, child)) if a != b)
                    fresh.append((p, child[first]))
            else:
                if union | d == full:
                    yield child, len(perms) // len(child_automorphisms)
                if not last_level:
                    child_held = held
                    child_ties = {x: pairs for x, pairs in ties.items() if x > d}
                    for p, t in fresh:
                        child_held |= below[p][t]
                        x = preimages[p][t]
                        child_ties[x] = child_ties.get(x, ()) + ((p, t),)
                    yield from grow(child, union | d, child_automorphisms, child_held, child_ties)

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
            orbits = edge_set_orbits(n, m_max)
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


def exhaustive_hypergraphs() -> list[Hypergraph]:
    """Every edge multiset (duplicates allowed, order canonical) covering
    the ground set, with 2..4 vertices and 2 or 3 edges. Duplicates matter
    here: the gadget gets one vertex pair per edge occurrence."""
    out = []
    for n in (2, 3, 4):
        for m in (2, 3):
            for combo in itertools.combinations_with_replacement(range(1, 1 << n), m):
                if reduce(or_, combo) == (1 << n) - 1:
                    out.append(Hypergraph(n, [_mask_to_edge(mask) for mask in combo]))
    return out


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
    """gamma of the bipartite gadget must exceed n+m by exactly rho."""
    n, edges = task
    h = Hypergraph(n, edges)
    rho = grundy_cover_exact(h).best_length
    gadget = hypergraph_to_bipartite(h)
    gamma = grundy_domination_exact(gadget.target).best_length
    expected = n + h.m + rho
    if gamma != expected:
        return 1, [f"n={n} edges={edges}: gamma={gamma} expected {expected}"]
    return 1, []


def exhaustive_graphs(n_max: int) -> list[Graph]:
    """Every labeled graph on 1..n_max vertices."""
    out = []
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            out.append(Graph.from_edges(n, edges))
    return out


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
    """gamma of the co-bipartite gadget must equal gamma of the source."""
    n, edges = task
    g = Graph.from_edges(n, edges)
    gamma_src = grundy_domination_exact(g).best_length
    gadget = graph_to_cobipartite(g)
    gamma_gadget = grundy_domination_exact(gadget.target).best_length
    if gamma_src != gamma_gadget:
        return 1, [f"n={n} edges={edges}: source={gamma_src} gadget={gamma_gadget}"]
    return 1, []


# ---- the family table ------------------------------------------------------


# NamedTuples rather than dataclasses: the table is built on import, and a
# frozen dataclass costs about a millisecond of start-up each.
class SweepParam(NamedTuple):
    """One integer a sweep family reads; the CLI offers it as --NAME, with
    dashes for underscores. A value below minimum (None: no minimum) is an
    input error; one above cap is refused before anything is enumerated."""

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


def _random(default: int) -> SweepParam:
    return SweepParam("random", default, "number of seeded random instances", minimum=0)


def _seed(default: int) -> SweepParam:
    return SweepParam("seed", default, "seed of the random instances", minimum=None)


@_family(
    "chain",
    "chain solver vs exhaustive search on twin-class profiles",
    # at both caps the profile loop tries 5^2 + 5^4 + 5^6 + 5^8 = 406,900 candidates
    SweepParam("max_k", 4, "most twin classes per side of the exhaustive profiles", cap=4),
    SweepParam("max_part", 3, "largest class of the exhaustive profiles", cap=5),
    # every profile also goes through the exact search
    SweepParam("max_vertices", 16, "most vertices of the exhaustive profiles", cap=HARD_CAP),
    _random(1000),
    SweepParam("random_vertices", 18, "most vertices of the random profiles", minimum=2, cap=HARD_CAP),
    _seed(1),
)
def _chain_family(jobs, max_k, max_part, max_vertices, random, random_vertices, seed):
    profiles = exhaustive_profiles(max_k, max_part, max_vertices)
    profiles += [random_chain_profile(random_vertices, seed + i) for i in range(random)]
    return chain_sweep(profiles, jobs=jobs)


@_family(
    "duality",
    "covering vs transversal number on hypergraphs",
    SweepParam("n_max", 6, "most vertices of the exhaustive hypergraphs", cap=6),
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
    hypergraphs = exhaustive_hypergraphs() + random_reduction_hypergraphs(random, seed)
    return _run(_bipartite_case, [(h.n, h.edges) for h in hypergraphs], jobs, chunksize=4)


@_family(
    "cobipartite",
    "co-bipartite gadget vs the Grundy domination number of its graph",
    SweepParam("n_max", 5, "most vertices of the exhaustive graphs", cap=6),
    _random(200),
    _seed(37),
)
def _cobipartite_family(jobs, n_max, random, seed):
    graphs = exhaustive_graphs(n_max) + random_reduction_graphs(random, seed)
    return _run(_cobipartite_case, [(g.n, tuple(g.edges())) for g in graphs], jobs, chunksize=8)

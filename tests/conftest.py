"""Shared builders and independent brute-force oracles.

The oracles here deliberately avoid the package's bitset machinery: they
work over plain Python sets and explicit enumeration, so they can serve as
ground truth for the solvers.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os

import pytest

from grundy import Graph, Hypergraph, sweeps


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timing: a wall-clock gate; tests.untested_lines runs it with its tracer off"
    )


@contextlib.contextmanager
def address_space_cap(headroom: int = 512 << 20):
    """Cap this process's address space at headroom bytes above its current
    size while the block runs. Code that loses a guard against header-sized
    allocations then raises MemoryError, instead of filling the machine.
    Skips the test where the cap cannot be set."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        pytest.skip("needs /proc/self/statm to size the limit")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size + headroom
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def memory_limit():
    """address_space_cap() for one whole test."""
    with address_space_cap():
        yield


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand a serial recorder in for the sweep runner's process pool, so no
    worker starts; the list it returns gets each worker count asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", SerialPool)
    return sizes


# ---- small graph builders --------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def shuffled(g: Graph, rng) -> Graph:
    """Copy of g with its vertices renamed by a Fisher-Yates shuffle drawn
    from rng (an XorShift64Star); every row is a fresh tuple."""
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def merge_equal_rows(g: Graph) -> Graph:
    """Copy of g in which vertices with equal neighborhoods share one row
    object, as chain_from_profile builds its twins."""
    first: dict = {}
    return Graph(g.n, tuple(first.setdefault(tuple(row), tuple(row)) for row in g.adjacency), g.edge_count)


# The worked hypergraph used across the reduction tests: four vertices,
# five edges, covering number witnesses small enough to check by hand.
def sample_hypergraph() -> Hypergraph:
    return Hypergraph(4, [(0, 1, 3), (1, 2), (0, 1), (1, 2, 3), (0, 2, 3)])


# ---- independent oracles ---------------------------------------------------


def brute_gamma(g: Graph) -> int:
    """Longest dominating sequence by exhaustive extension over sets."""
    closed = [set(g.neighbors(v)) | {v} for v in range(g.n)]
    best = 0

    def extend(dominated: set[int], length: int) -> None:
        nonlocal best
        extended = False
        for v in range(g.n):
            fresh = closed[v] - dominated
            if fresh:
                extended = True
                extend(dominated | fresh, length + 1)
        if not extended and length > best:
            best = length

    extend(set(), 0)
    return best


def brute_rho(h: Hypergraph) -> int:
    """Longest edge covering sequence by exhaustive extension over sets."""
    ground = set(range(h.n))
    members = [set(e) for e in h.edges]
    best = 0

    def extend(covered: set[int], length: int) -> None:
        nonlocal best
        extended = False
        for edge in members:
            if edge - covered:
                extended = True
                extend(covered | edge, length + 1)
        if not extended:
            if covered == ground and length > best:
                best = length

    extend(set(), 0)
    return best


def brute_tau(h: Hypergraph) -> int:
    """Longest legal transversal sequence by exhaustive extension."""
    members = [set(e) for e in h.edges]
    best = 0

    def extend(chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        taken = set(chosen)
        for v in range(h.n):
            if v in taken:
                continue
            if any(v in e and not (e & taken) for e in members):
                extend(chosen + [v])

    extend([])
    return best


def brute_alpha(g: Graph) -> int:
    """Maximum independent set by subset enumeration."""
    best = 0
    vertices = list(range(g.n))
    for bits in range(1 << g.n):
        chosen = [v for v in vertices if bits >> v & 1]
        if len(chosen) <= best:
            continue
        if all(v not in g.neighbors(u) for u, v in itertools.combinations(chosen, 2)):
            best = len(chosen)
    return best


def exhaustive_graphs(n_max: int) -> list[Graph]:
    """Every labelled graph on 1..n_max vertices."""
    out = []
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            out.append(Graph.from_edges(n, edges))
    return out


def exhaustive_hypergraphs() -> list[Hypergraph]:
    """Every labelled edge multiset (order canonical) covering the ground
    set, with 2..4 vertices and 2 or 3 edges: the bipartite sweep's
    exhaustive family."""
    out = []
    for n in (2, 3, 4):
        for m in (2, 3):
            for combo in itertools.combinations_with_replacement(range(1, 1 << n), m):
                if functools.reduce(operator.or_, combo) == (1 << n) - 1:
                    out.append(Hypergraph(n, [[v for v in range(n) if mask >> v & 1] for mask in combo]))
    return out


def relabel_masks(masks, perm) -> tuple[int, ...]:
    """The sorted tuple of edge masks after vertex v is renamed perm[v]."""
    return tuple(sorted(
        sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1) for mask in masks
    ))


def first_longest_sequence(moves, ground) -> tuple[int, tuple[int, ...]]:
    """Longest sequence of moves in which each move covers something new,
    by depth-first branch and bound over sets, with no memo table.

    `moves` lists the set each move covers; `ground` is the set to cover.
    At every step the moves are tried by descending size of their fresh
    part, ties by index. A branch is cut when its length plus the number
    of uncovered elements cannot beat the best so far, and only a strictly
    longer sequence replaces the best. The result is therefore the first
    optimum in that order: the witness the exact engine reconstructs.
    """
    moves = [set(m) for m in moves]
    ground = set(ground)
    best: list = [-1, ()]
    prefix: list[int] = []

    def extend(covered: set[int]) -> None:
        order = sorted((-len(m - covered), i) for i, m in enumerate(moves) if m - covered)
        if not order:
            if len(prefix) > best[0]:
                best[:] = [len(prefix), tuple(prefix)]
            return
        if len(prefix) + len(ground - covered) <= best[0]:
            return
        for _, i in order:
            prefix.append(i)
            extend(covered | moves[i])
            prefix.pop()

    extend(set())
    return best[0], best[1]


def first_longest_dominating(g: Graph) -> tuple[int, tuple[int, ...]]:
    """first_longest_sequence over closed neighborhoods: Grundy domination
    number and the witness order of grundy_domination_exact."""
    return first_longest_sequence(
        [set(g.neighbors(v)) | {v} for v in range(g.n)], range(g.n)
    )


def disjoint_union(graphs: list[Graph], perm: list[int]) -> Graph:
    """Disjoint union, the vertices of each part following the previous
    parts, then vertex v renamed to perm[v]."""
    edges = []
    offset = 0
    for part in graphs:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph.from_edges(offset, [(perm[u], perm[v]) for u, v in edges])


def all_legal_sequences(g: Graph, max_len: int):
    """Yield every legal sequence of length at most max_len."""
    closed = [set(g.neighbors(v)) | {v} for v in range(g.n)]

    def extend(prefix: list[int], dominated: set[int]):
        yield list(prefix)
        if len(prefix) == max_len:
            return
        for v in range(g.n):
            fresh = closed[v] - dominated
            if fresh:
                prefix.append(v)
                yield from extend(prefix, dominated | fresh)
                prefix.pop()

    for seq in extend([], set()):
        if seq:
            yield seq


def walk_oracle(g: Graph, order) -> tuple[str, object]:
    """Set-based left-to-right walk of a vertex order.

    Returns ("ok", footprints) for a legal order, else the name of the
    first failure in order position and where it happened:
    ("InputError", pos), ("DuplicateVertexError", pos) or
    ("IllegalStepError", pos).
    """
    dominated: set[int] = set()
    played: set[int] = set()
    footprints = []
    for pos, v in enumerate(order):
        if not 0 <= v < g.n:
            return "InputError", pos
        if v in played:
            return "DuplicateVertexError", pos
        played.add(v)
        fresh = (set(g.neighbors(v)) | {v}) - dominated
        if not fresh:
            return "IllegalStepError", pos
        dominated |= fresh
        footprints.append(tuple(sorted(fresh)))
    return "ok", tuple(footprints)


def chain_reference(g: Graph) -> tuple[str, object]:
    """Chain recognition from a 2-colouring and pairwise containment.

    For a graph with no isolated vertex returns ("not bipartite", None),
    ("not chain", (x_side, y_side)) or ("chain", (x_side, y_side)). The
    sides are sets; each component is coloured from its lowest vertex,
    which goes to x_side, so they are the sides graph.bipartition finds.
    """
    color: dict[int, int] = {}
    for root in range(g.n):
        if root in color:
            continue
        color[root] = 0
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    frontier.append(w)
                elif color[w] == color[u]:
                    return "not bipartite", None
    sides = ({v for v in color if color[v] == 0}, {v for v in color if color[v] == 1})
    rows = [set(g.neighbors(v)) for v in sides[0]]
    nested = all(a <= b or b <= a for a, b in itertools.combinations(rows, 2))
    return ("chain" if nested else "not chain"), sides


@pytest.fixture
def sample_h() -> Hypergraph:
    return sample_hypergraph()

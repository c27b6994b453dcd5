"""Seeded, reproducible instance generators.

All randomness flows through one xorshift64* generator so that every
consumer of a (parameters, seed) pair sees the identical instance stream,
bit for bit, on any platform. The update rule is:

    state ^= state >> 12
    state ^= (state << 25) mod 2^64
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

A zero seed is replaced by the constant 0x9E3779B97F4A7C15 because the
xorshift state must never be zero. Uniform floats are output / 2^64;
bounded draws take output mod k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graph import Graph
from .hypergraph import Hypergraph

__all__ = [
    "XorShift64Star",
    "ChainProfile",
    "chain_from_profile",
    "parse_profile",
    "random_graph",
    "random_hypergraph",
    "random_chain_profile",
]

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15
_MULTIPLIER = 0x2545F4914F6CDD1D


class XorShift64Star:
    """Deterministic 64-bit generator; see the module docstring for the rule."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64 or _SEED_FALLBACK

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * _MULTIPLIER) & _MASK64

    def next_float(self) -> float:
        return self.next_u64() / 2**64

    def next_below(self, k: int) -> int:
        return self.next_u64() % k

    def next_bit(self) -> int:
        return self.next_u64() >> 63


@dataclass(frozen=True)
class ChainProfile:
    """Twin-class size profile; it determines a chain graph up to isomorphism."""

    sizes_x: tuple[int, ...]
    sizes_y: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes_x) != len(self.sizes_y) or not self.sizes_x:
            raise InputError("profile needs k >= 1 sizes on both sides")
        if any(s < 1 for s in self.sizes_x + self.sizes_y):
            raise InputError("profile part sizes must be positive")

    @property
    def k(self) -> int:
        return len(self.sizes_x)

    @property
    def total_vertices(self) -> int:
        return sum(self.sizes_x) + sum(self.sizes_y)


def parse_profile(spec: str) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """Parse an 'AxB' profile such as '1,2,1x2,1,3': the X class sizes, an
    'x', then the Y class sizes. A '*' entry comes back as None."""
    try:
        sizes_x, sizes_y = (
            tuple(None if tok == "*" else int(tok) for tok in side.split(","))
            for side in spec.split("x")
        )
    except ValueError as exc:
        raise InputError(f"profile must look like '1,2,1x2,1,3', got {spec!r}") from exc
    if len(sizes_x) != len(sizes_y) or any(s is not None and s < 1 for s in sizes_x + sizes_y):
        raise InputError(f"profile needs positive sizes, as many for X as for Y, got {spec!r}")
    return sizes_x, sizes_y


def chain_from_profile(profile: ChainProfile) -> Graph:
    """Materialize the chain graph of a profile.

    X vertices come first, class by class, then Y vertices class by class;
    every vertex of X_i is adjacent to exactly Y_1..Y_i. Adjacency rows are
    shared between twins, so even million-vertex instances stay compact.
    """
    k = profile.k
    n1 = sum(profile.sizes_x)
    n2 = sum(profile.sizes_y)
    # cumulative class boundaries
    x_starts = [0]
    for s in profile.sizes_x:
        x_starts.append(x_starts[-1] + s)
    y_starts = [n1]
    for s in profile.sizes_y:
        y_starts.append(y_starts[-1] + s)

    rows: list[tuple[int, ...]] = [()] * (n1 + n2)
    edge_count = 0
    for i in range(k):
        row = tuple(range(n1, y_starts[i + 1]))
        for v in range(x_starts[i], x_starts[i + 1]):
            rows[v] = row
        edge_count += profile.sizes_x[i] * len(row)
    for j in range(k):
        row = tuple(range(x_starts[j], n1))
        for v in range(y_starts[j], y_starts[j + 1]):
            rows[v] = row
    return Graph(n1 + n2, tuple(rows), edge_count)


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Erdos-Renyi style sample, deterministic per seed.

    Pairs (i, j) with i < j are visited in lexicographic order; each gets
    one generator draw and becomes an edge when draw / 2^64 < edge_prob.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {edge_prob}")
    rng = XorShift64Star(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_float() < edge_prob:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def random_hypergraph(n: int, m: int, seed: int) -> Hypergraph:
    """Random hypergraph with m non-empty edges covering every vertex.

    Each edge takes one membership bit per vertex (in vertex order); an
    edge that comes out empty is redrawn in place. Vertices still uncovered
    afterwards are all appended to the lexicographically smallest edge, so
    the result is a valid gadget-construction input for every seed.
    """
    if n < 2 or m < 2:
        raise InputError(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    rng = XorShift64Star(seed)
    edges: list[list[int]] = []
    for _ in range(m):
        while True:
            members = [v for v in range(n) if rng.next_bit()]
            if members:
                edges.append(members)
                break
    covered = set()
    for edge in edges:
        covered.update(edge)
    uncovered = [v for v in range(n) if v not in covered]
    if uncovered:
        target = min(range(m), key=lambda j: tuple(edges[j]))
        edges[target].extend(uncovered)
    return Hypergraph(n, edges)


def random_chain_profile(max_vertices: int, seed: int) -> ChainProfile:
    """Random twin-class profile with at most max_vertices vertices.

    Draws k in 1..4 and 2k part sizes in 1..5, redrawing the whole profile
    while the total exceeds max_vertices. Deterministic per seed.
    """
    if max_vertices < 2:
        raise InputError("need room for at least one vertex per side")
    rng = XorShift64Star(seed)
    while True:
        k = 1 + rng.next_below(4)
        sizes_x = tuple(1 + rng.next_below(5) for _ in range(k))
        sizes_y = tuple(1 + rng.next_below(5) for _ in range(k))
        if sum(sizes_x) + sum(sizes_y) <= max_vertices:
            return ChainProfile(sizes_x, sizes_y)

"""Gadget constructions that transfer Grundy domination across classes.

Both constructions keep a vertex provenance map so tests (and the CLI's
sidecar files) can tie every gadget vertex back to its origin. Target
vertex numbering is fixed block by block, each block in source index
order, so outputs are stable enough for golden files.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, IsolatedVertexError, SizeCapError
from .graph import Graph
from .hypergraph import Hypergraph

__all__ = [
    "ReductionMap",
    "hypergraph_to_bipartite",
    "graph_to_cobipartite",
    "format_roles",
]


# Most edges a gadget may have; one at the cap takes about 270 MB and 2 s
# to build, and its size is quadratic in the source's
MAX_GADGET_EDGES = 1 << 20


def _check_gadget_size(edges: int, kind: str) -> None:
    if edges > MAX_GADGET_EDGES:
        raise SizeCapError(edges, MAX_GADGET_EDGES, what=f"edges ({kind} gadget)")


@dataclass(frozen=True)
class ReductionMap:
    """A gadget graph plus the origin tag of every target vertex.

    roles[v] is a (block, source_index) pair; blocks partition the target
    vertex set. Blocks are "A", "X", "E", "B" for the bipartite gadget and
    "V1", "V2" for the co-bipartite one.
    """

    target: Graph
    roles: tuple[tuple[str, int], ...]

    def block(self, name: str) -> list[int]:
        return [v for v, (tag, _) in enumerate(self.roles) if tag == name]


def hypergraph_to_bipartite(h: Hypergraph) -> ReductionMap:
    """Bipartite gadget: blocks A, X', E', B numbered in that order.

    A against X' forms a complete bipartite graph, E' against B likewise,
    and x in X' joins e_i in E' exactly when the source vertex lies in the
    source edge. Sides of the target bipartition are A+E' and X'+B. The
    gadget's Grundy domination number exceeds n+m by exactly the source's
    Grundy cover number. A gadget of more than MAX_GADGET_EDGES edges
    raises SizeCapError before it is built.
    """
    n, m = h.n, h.m
    if n < 2 or m < 2:
        raise InputError(f"gadget needs n >= 2 and m >= 2, got n={n}, m={m}")
    isolated = h.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(isolated[0], "gadget construction")
    _check_gadget_size(n * n + m * m + sum(map(len, h.edges)), "bipartite")
    a0, x0, e0, b0 = 0, n, 2 * n, 2 * n + m
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            edges.append((a0 + i, x0 + j))
    for i in range(m):
        for j in range(m):
            edges.append((e0 + i, b0 + j))
    for j, edge in enumerate(h.edges):
        for v in edge:
            edges.append((x0 + v, e0 + j))
    roles = (
        tuple(("A", i) for i in range(n))
        + tuple(("X", v) for v in range(n))
        + tuple(("E", j) for j in range(m))
        + tuple(("B", i) for i in range(m))
    )
    return ReductionMap(Graph.from_edges(2 * n + 2 * m, edges), roles)


def graph_to_cobipartite(g: Graph) -> ReductionMap:
    """Co-bipartite gadget: two clique copies V1, V2 of the vertex set.

    v_i in V1 joins v_j in V2 exactly when v_j lies in the source closed
    neighborhood N[v_i] (so every v_i^1 v_i^2 edge is present). The gadget
    has the same Grundy domination number as the source. A gadget of more
    than MAX_GADGET_EDGES edges raises SizeCapError before it is built.
    """
    n = g.n
    _check_gadget_size(n * n + 2 * g.edge_count, "co-bipartite")
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j))
            edges.append((n + i, n + j))
    for i in range(n):
        edges.append((i, n + i))
        for j in g.adjacency[i]:
            edges.append((i, n + j))
    roles = tuple(("V1", i) for i in range(n)) + tuple(("V2", i) for i in range(n))
    return ReductionMap(Graph.from_edges(2 * n, edges), roles)


def format_roles(rmap: ReductionMap) -> str:
    """Provenance sidecar: one line per target vertex, '<index> <tag>:<i>'."""
    lines = [f"{v} {tag}:{src}" for v, (tag, src) in enumerate(rmap.roles)]
    return "\n".join(lines) + "\n"

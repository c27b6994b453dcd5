"""Undirected simple graphs over dense 0-based vertex indices.

Adjacency rows are sorted tuples of neighbor indices. Rows may be shared
between vertices with equal neighborhoods, which keeps generated instances
with large twin classes compact. Graphs are immutable after construction
and safe to share across concurrent solver runs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, InputError, SizeCapError

__all__ = [
    "Graph",
    "Bipartition",
    "closed_neighborhood",
    "bipartition",
    "complement",
    "parse_graph",
    "format_graph",
    "load_graph",
    "save_graph",
]


class Graph:
    """Immutable undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "adjacency", "edge_count")

    def __init__(self, n: int, adjacency: tuple[Sequence[int], ...], edge_count: int):
        # Trusted constructor: rows must already be sorted, symmetric and
        # duplicate-free. Use from_edges for validated construction.
        self.n = n
        self.adjacency = adjacency
        self.edge_count = edge_count

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates."""
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        rows: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            rows[u].append(v)
            rows[v].append(u)
            count += 1
        for row in rows:
            row.sort()
        return cls(n, tuple(tuple(row) for row in rows), count)

    def neighbors(self, v: int) -> Sequence[int]:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            tuple(a) == tuple(b) for a, b in zip(self.adjacency, other.adjacency)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(tuple(row) for row in self.adjacency)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring: side_x and side_y partition the vertices, no edge inside a side."""

    side_x: frozenset[int]
    side_y: frozenset[int]


def closed_neighborhood(g: Graph, v: int) -> set[int]:
    """Return N[v], the neighbors of v together with v itself."""
    out = set(g.neighbors(v))
    out.add(v)
    return out


def bipartition(g: Graph) -> Bipartition | None:
    """BFS 2-coloring. Returns None when the graph has an odd cycle.

    Each BFS root (lowest unvisited index) goes to side_x, so isolated
    vertices always land in side_x and the result is deterministic.
    """
    color = bytearray(b"\xff") * g.n if g.n else bytearray()
    side_x: list[int] = []
    side_y: list[int] = []
    adj = g.adjacency
    for start in range(g.n):
        if color[start] != 0xFF:
            continue
        color[start] = 0
        side_x.append(start)
        queue = deque((start,))
        while queue:
            u = queue.popleft()
            next_color = color[u] ^ 1
            for w in adj[u]:
                if color[w] == 0xFF:
                    color[w] = next_color
                    (side_x if next_color == 0 else side_y).append(w)
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return Bipartition(frozenset(side_x), frozenset(side_y))


def complement(g: Graph) -> Graph:
    """Return the complement graph: uv is an edge iff u != v and uv was not."""
    n = g.n
    rows = []
    for v in range(n):
        present = set(g.adjacency[v])
        present.add(v)
        rows.append(tuple(u for u in range(n) if u not in present))
    count = n * (n - 1) // 2 - g.edge_count
    return Graph(n, tuple(rows), count)


# ---- text format -----------------------------------------------------------
#
# line 1:  n m
# then m lines:  u v          (0-based endpoints)
# a line whose first non-blank character is '#' is a comment; blank lines
# are ignored. Hypergraph files share this layout, sequence files the
# comment rule.

MAX_FILE_VERTICES = 1 << 22  # largest n a graph file header may declare


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_counted(
    text: str, what: str, build, pairs: bool = False, caps=(MAX_FILE_VERTICES, None)
):
    """Parse an 'n m' header and the m lines of integers after it, and hand
    them to build(n, rows). n and m are checked against caps (None: no
    cap) before any edge line is parsed or build can allocate anything
    sized by them; build's InputErrors become FormatErrors."""
    lines = _data_lines(text)
    if not lines:
        raise FormatError(f"empty {what} file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise FormatError(f"expected header 'n m' of two integers, got {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise FormatError(f"negative counts in header {lines[0]!r}")
    for count, cap, noun in zip((n, m), caps, ("vertices", "edges")):
        if cap is not None and count > cap:
            raise SizeCapError(count, cap, what=f"{noun} in the file header")
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if pairs and len(tokens) != 2:
            raise FormatError(f"expected edge 'u v', got {line!r}")
        try:
            rows.append([int(tok) for tok in tokens])
        except ValueError as exc:
            raise FormatError(f"non-integer edge line {line!r}") from exc
    try:
        return build(n, rows)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def parse_graph(text: str) -> Graph:
    return _parse_counted(text, "graph", Graph.from_edges, pairs=True)


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_text(path: str) -> str:
    """Read a UTF-8 instance file; undecodable bytes are a FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid UTF-8") from exc


def load_graph(path: str) -> Graph:
    return parse_graph(read_text(path))


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))

"""Hypergraphs: an indexed ground set plus a list of hyperedges.

Edge order is significant (it defines edge indices) and is never
canonicalized, so reduction outputs stay stable. Edges are kept both as
sorted vertex tuples and as integer bitmasks; Python integers serve as
arbitrary-width bitsets, so one representation covers every ground-set size.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FormatError, InputError
from .graph import read_text

__all__ = [
    "Hypergraph",
    "is_edge_cover",
    "is_legal_edge_sequence",
    "is_legal_transversal_sequence",
    "parse_hypergraph",
    "format_hypergraph",
    "load_hypergraph",
    "save_hypergraph",
]


class Hypergraph:
    """Immutable hypergraph on vertices 0..n-1 with non-empty edges."""

    __slots__ = ("n", "edges", "edge_masks", "vertex_masks")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        clean: list[tuple[int, ...]] = []
        masks: list[int] = []
        for idx, edge in enumerate(edges):
            members = tuple(sorted(edge))
            if not members:
                raise InputError(f"edge {idx} is empty")
            mask = 0
            for v in members:
                if not 0 <= v < n:
                    raise InputError(f"edge {idx} contains out-of-range vertex {v}")
                bit = 1 << v
                if mask & bit:
                    raise InputError(f"edge {idx} lists vertex {v} twice")
                mask |= bit
            clean.append(members)
            masks.append(mask)
        self.edges = tuple(clean)
        self.edge_masks = tuple(masks)
        # vertex_masks[v] = bitset over edge indices containing v
        vmasks = [0] * n
        for j, members in enumerate(self.edges):
            bit = 1 << j
            for v in members:
                vmasks[v] |= bit
        self.vertex_masks = tuple(vmasks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def covered_vertices(self) -> int:
        """Bitmask of vertices that appear in at least one edge."""
        mask = 0
        for em in self.edge_masks:
            mask |= em
        return mask

    def isolated_vertices(self) -> list[int]:
        covered = self.covered_vertices()
        return [v for v in range(self.n) if not covered >> v & 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


def _check_edge_indices(h: Hypergraph, indices: Iterable[int]) -> list[int]:
    out = []
    for j in indices:
        if not 0 <= j < h.m:
            raise InputError(f"edge index {j} out of range for m={h.m}")
        out.append(j)
    return out


def is_edge_cover(h: Hypergraph, chosen: Iterable[int]) -> bool:
    """True iff the union of the chosen edges is the whole ground set."""
    mask = 0
    for j in _check_edge_indices(h, chosen):
        mask |= h.edge_masks[j]
    return mask == (1 << h.n) - 1


def is_legal_edge_sequence(h: Hypergraph, seq: Sequence[int]) -> bool:
    """True iff every edge contributes a vertex new relative to its predecessors."""
    indices = _check_edge_indices(h, seq)
    if len(set(indices)) != len(indices):
        raise InputError("repeated edge index in sequence")
    covered = 0
    for j in indices:
        if h.edge_masks[j] & ~covered == 0:
            return False
        covered |= h.edge_masks[j]
    return True


def is_legal_transversal_sequence(h: Hypergraph, seq: Sequence[int]) -> bool:
    """True iff every vertex has a witnessing edge avoiding all earlier vertices."""
    alive = (1 << h.m) - 1
    for v in seq:
        if not 0 <= v < h.n:
            raise InputError(f"vertex {v} out of range for n={h.n}")
        if h.vertex_masks[v] & alive == 0:
            return False
        alive &= ~h.vertex_masks[v]
    return True


# ---- text format -----------------------------------------------------------
#
# line 1:  n m
# then m lines, each the space-separated vertex indices of one edge


def parse_hypergraph(text: str) -> Hypergraph:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty hypergraph file")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            edges.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise FormatError(f"non-integer edge line {line!r}") from exc
    try:
        return Hypergraph(n, edges)
    except InputError as exc:
        raise FormatError(str(exc)) from exc


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.m}"]
    lines.extend(" ".join(str(v) for v in edge) for edge in h.edges)
    return "\n".join(lines) + "\n"


def load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(read_text(path))


def save_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))

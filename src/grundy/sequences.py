"""Legality, footprints and domination checks for vertex sequences.

Every solver in the package funnels its output back through these checkers,
so they are written to re-derive everything from scratch: a sweep walks the
sequence left to right with a dominated-vertex table and never patches
results incrementally across edits. Cost is O(n + sum of degrees of the
sequence vertices), cheap enough to run on every benchmark output. The
walk keeps no table of played vertices: a repeated vertex always has an
empty footprint, because its first play dominated its closed neighborhood,
so the empty footprint is where a duplicate is caught and named.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .errors import DuplicateVertexError, FormatError, IllegalStepError, InputError
from .graph import Graph, _data_lines

__all__ = [
    "VertexSequence",
    "check_closed_neighborhood_sequence",
    "is_dominating_sequence",
    "check_subset_ordering",
    "parse_sequence",
    "format_sequence",
]


@dataclass(frozen=True)
class VertexSequence:
    """A legal closed-neighborhood sequence with its per-step footprints.

    footprints[i] lists the vertices newly dominated by order[i]; the sets
    are pairwise disjoint and each is non-empty. footprints is None on
    sequences produced by solvers that defer the bookkeeping; pass the order
    through check_closed_neighborhood_sequence to materialize it.
    """

    order: tuple[int, ...]
    footprints: tuple[tuple[int, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.order)

    def covered(self) -> int:
        if self.footprints is None:
            raise ValueError("footprints not materialized")
        return sum(len(fp) for fp in self.footprints)

    def dominates(self, g: Graph) -> bool:
        return self.covered() == g.n


def _sweep(g: Graph, order: Sequence[int], collect: bool):
    """Shared left-to-right footprint sweep.

    Returns (footprints or None, covered_count, first_illegal_position).
    Raises on out-of-range or duplicate vertices; an empty footprint is
    reported through the third slot, not raised. Whichever of these comes
    first in the order wins. A duplicate is named at its empty footprint
    (see the module docstring). Footprints, when collected, are read back
    from the step that first dominated each vertex.
    """
    n = g.n
    adj = g.adjacency
    stop = len(order)
    if stop and (min(order) < 0 or max(order) >= n):
        stop = next(pos for pos, v in enumerate(order) if not 0 <= v < n)
    # dominated_at[u] is 1 + the position of the step that first dominated u
    dominated_at = [0] * n
    covered = 0
    for step, v in enumerate(islice(order, stop), 1):
        fresh = 0
        if not dominated_at[v]:
            dominated_at[v] = step
            fresh = 1
        for u in adj[v]:
            if not dominated_at[u]:
                dominated_at[u] = step
                fresh += 1
        if not fresh:
            pos = step - 1
            if order.index(v) < pos:
                raise DuplicateVertexError(v, pos)
            return None, covered, pos
        covered += fresh
    if stop < len(order):
        raise InputError(f"vertex {order[stop]} out of range for n={n}")
    if not collect:
        return None, covered, -1
    footprints: list[list[int]] = [[] for _ in range(stop)]
    for u, step in enumerate(dominated_at):
        if step:
            footprints[step - 1].append(u)
    return list(map(tuple, footprints)), covered, -1


def check_closed_neighborhood_sequence(g: Graph, order: Sequence[int]) -> VertexSequence:
    """Validate legality of a vertex sequence and compute its footprints.

    Raises IllegalStepError at the first position whose footprint is empty,
    DuplicateVertexError on a repeated vertex, InputError on a bad index.
    """
    footprints, _, bad = _sweep(g, order, collect=True)
    if bad >= 0:
        raise IllegalStepError(bad, order[bad])
    assert footprints is not None
    return VertexSequence(tuple(order), tuple(footprints))


def is_dominating_sequence(g: Graph, order: Sequence[int]) -> bool:
    """True iff the sequence is legal and its footprints cover every vertex.

    An illegal sequence raises IllegalStepError; it never reads as False.
    """
    _, covered, bad = _sweep(g, order, collect=False)
    if bad >= 0:
        raise IllegalStepError(bad, order[bad])
    return covered == g.n


def quick_verify(g: Graph, order: Sequence[int]) -> tuple[bool, bool]:
    """(legal, dominating) without materializing footprints."""
    _, covered, bad = _sweep(g, order, collect=False)
    if bad >= 0:
        return False, False
    return True, covered == g.n


def check_subset_ordering(g: Graph, seq: VertexSequence | Iterable[int]) -> bool:
    """Diagnostic for legal sequences: whenever N[u] is contained in N[v]
    and both appear, u must come first. Holds on every legal sequence; a
    False return means the input was not legal to begin with.
    """
    order = list(seq.order if isinstance(seq, VertexSequence) else seq)
    closed = [frozenset(g.neighbors(v)) | {v} for v in order]
    for later in range(len(order)):
        for earlier in range(later):
            if closed[later] <= closed[earlier]:
                return False
    return True


# ---- text format -----------------------------------------------------------
#
# one line of space-separated vertex indices; '#' lines are comments


def parse_sequence(text: str) -> list[int]:
    lines = _data_lines(text)
    if len(lines) != 1:
        raise FormatError(f"expected exactly one data line, got {len(lines)}")
    try:
        return [int(tok) for tok in lines[0].split()]
    except ValueError as exc:
        raise FormatError(f"non-integer vertex in {lines[0]!r}") from exc


def format_sequence(order: Sequence[int]) -> str:
    return " ".join(str(v) for v in order) + "\n"

"""Legality, footprints and domination checks for vertex sequences.

Every solver in the package funnels its output back through these checkers,
so they are written to re-derive everything from scratch: a walk goes
through the sequence left to right with a dominated-vertex table and never
patches results incrementally across edits. Two walks share that shape and
each does one job. The flag walk answers quick_verify: its table holds the
shared int 1, one list slot per vertex, and it returns only the covered
count. The footprint walk answers check_closed_neighborhood_sequence: it
builds each step's footprint, in ascending order, as it walks the step,
and names the first failing position. quick_verify runs the footprint walk
only on an order the flag walk could not finish, so only failing inputs
pay for two walks. A step whose adjacency row is the very row object the
last expanded step walked (twins share rows, as the chain generators build
them) does not walk it again: domination never reverts, so that row is
still all dominated, and the step's footprint is its own vertex or
nothing. Cost is O(n + the degrees of the steps whose row differs from the
last one walked), so a twin class played back to back costs one row walk;
cheap enough to run on every benchmark output. Neither walk keeps a table
of played vertices: a repeated vertex always has an empty footprint,
because its first play dominated its closed neighborhood, so the empty
footprint is where a duplicate is caught and named.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DuplicateVertexError, FormatError, IllegalStepError, InputError, VerificationError
from .graph import Graph, _data_lines

__all__ = [
    "VertexSequence",
    "check_closed_neighborhood_sequence",
    "is_dominating_sequence",
    "check_subset_ordering",
    "parse_sequence",
]


@dataclass(frozen=True)
class VertexSequence:
    """A legal closed-neighborhood sequence with its per-step footprints.

    footprints[i] lists the vertices newly dominated by order[i]; the sets
    are pairwise disjoint and each is non-empty. No solver materializes
    them: footprints is None on every solver's witness; pass the order
    through check_closed_neighborhood_sequence for the full record.
    """

    order: tuple[int, ...]
    footprints: tuple[tuple[int, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.order)

    def covered(self) -> int:
        if self.footprints is None:
            raise ValueError("footprints not materialized")
        return sum(len(fp) for fp in self.footprints)


def _flag_walk(g: Graph, order: Sequence[int]) -> int | None:
    """The number of vertices order dominates, or None when the order is
    not legal to its end: an empty footprint or an index out of range. One
    range pass (min) precedes the walk, and an index past n is caught by
    the walk itself."""
    if order and min(order) < 0:
        return None
    dominated = [0] * g.n
    adj = g.adjacency
    walked = None
    try:
        for v in order:
            row = adj[v]
            if row is walked:
                if dominated[v]:
                    return None
                dominated[v] = 1
            else:
                walked = row
                fresh = not dominated[v]
                dominated[v] = 1
                for u in row:
                    if not dominated[u]:
                        dominated[u] = 1
                        fresh = True
                if not fresh:
                    return None
    except IndexError:
        return None
    return g.n - dominated.count(0)


def _footprint_walk(g: Graph, order: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
    """(footprints, first_empty_pos): the footprints of the steps before the
    first one whose footprint is empty, and that step's position, or -1 when
    there is none. Raises InputError on an index out of range and
    DuplicateVertexError on a repeat, each when it comes before the first
    empty footprint; a repeat is named at its own empty footprint."""
    n = g.n
    adj = g.adjacency
    dominated = [0] * n
    footprints = []
    walked = None
    for pos, v in enumerate(order):
        if not 0 <= v < n:
            raise InputError(f"vertex {v} out of range for n={n}")
        row = adj[v]
        if row is walked:
            footprint = () if dominated[v] else (v,)
        else:
            walked = row
            fresh = [u for u in row if not dominated[u]]
            if not dominated[v]:
                insort(fresh, v)
            footprint = tuple(fresh)
        if not footprint:
            if order.index(v) < pos:
                raise DuplicateVertexError(v, pos)
            return footprints, pos
        for u in footprint:
            dominated[u] = 1
        footprints.append(footprint)
    return footprints, -1


def check_closed_neighborhood_sequence(g: Graph, order: Sequence[int]) -> VertexSequence:
    """Validate legality of a vertex sequence and compute its footprints.

    Raises IllegalStepError at the first position whose footprint is empty,
    DuplicateVertexError on a repeated vertex, InputError on a bad index.
    """
    footprints, bad = _footprint_walk(g, order)
    if bad >= 0:
        raise IllegalStepError(bad, order[bad])
    return VertexSequence(tuple(order), tuple(footprints))


def is_dominating_sequence(g: Graph, order: Sequence[int]) -> bool:
    """True iff the sequence is legal and its footprints cover every vertex.

    An illegal sequence raises IllegalStepError; it never reads as False.
    """
    return check_closed_neighborhood_sequence(g, order).covered() == g.n


def quick_verify(g: Graph, order: Sequence[int]) -> tuple[bool, bool]:
    """(legal, dominating) without materializing footprints."""
    covered = _flag_walk(g, order)
    if covered is None:
        _footprint_walk(g, order)  # raises on a malformed order
        return False, False
    return True, covered == g.n


def verified_witness(order: Sequence[int], claimed: int, verdict: Callable, what: str) -> tuple[int, ...]:
    """The witness as a tuple, once it has the claimed length and verdict(order)
    holds. Otherwise raise VerificationError, also when the checker behind
    verdict refuses the witness as malformed (an InputError, such as a
    repeated or out-of-range entry). Every solver returns through here."""
    try:
        if len(order) == claimed and verdict(order):
            return tuple(order)
    except InputError:
        pass
    raise VerificationError(f"{what} claimed length {claimed} but re-verification disagrees")


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

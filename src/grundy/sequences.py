"""Legality, footprints and domination checks for vertex sequences.

Every solver in the package funnels its output back through these checkers,
so they are written to re-derive everything from scratch: a sweep walks the
sequence left to right with a dominated-vertex table and never patches
results incrementally across edits. A step whose adjacency row is the very
row object the last expanded step walked (twins share rows, as the chain
generators build them) does not walk it again: domination never reverts,
so that row is still all dominated, and the step is legal exactly when its
own vertex is not. Cost is O(n + the degrees of the steps whose row
differs from the last one walked), so a twin class played back to back
costs one row walk; cheap enough to run on every benchmark output. The
table marks a dominated vertex with the shared int 1, one list slot per
vertex, unless footprints are asked for: then it holds the step that
dominated the vertex, a fresh int per step. An order that fails is walked
once more with step numbers, which name the failing position, so only
failing inputs pay for two walks. The walk keeps no table of played
vertices: a repeated vertex always has an empty footprint, because its
first play dominated its closed neighborhood, so the empty footprint is
where a duplicate is caught and named.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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


def _sweep(g: Graph, order: Sequence[int], collect: bool):
    """Shared left-to-right footprint sweep.

    Returns (footprints or None, covered_count, first_illegal_position).
    Raises on out-of-range or duplicate vertices; an empty footprint is
    reported through the third slot, not raised. Whichever of these comes
    first in the order wins. A duplicate is named at its empty footprint,
    and a step whose row is the last row walked checks only its own vertex
    (see the module docstring for both). Without collect, the table holds
    flags, one range pass (min) precedes the walk, and an index past n is
    caught by the walk itself; an order that is not legal to its end is
    walked (again) with step numbers, which name the failure. Footprints,
    when collected, are read back from the step that first dominated each
    vertex, and the covered count from the same table.
    """
    n = g.n
    adj = g.adjacency
    stop = len(order)
    if stop and (min(order) < 0 or collect and max(order) >= n):
        stop = next(pos for pos, v in enumerate(order) if not 0 <= v < n)
    if not collect and stop == len(order):
        dominated = [0] * n
        walked = None
        try:
            for v in order:
                row = adj[v]
                if row is walked:
                    if dominated[v]:
                        break
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
                        break
            else:
                return None, n - dominated.count(0), -1
        except IndexError:  # an index past n: the walk below names what comes first
            stop = next(pos for pos, v in enumerate(order) if v >= n)
    # dominated_at[u] is 1 + the position of the step that first dominated u
    dominated_at = [0] * n
    walked = None
    for step, v in enumerate(islice(order, stop), 1):
        fresh = not dominated_at[v]
        if fresh:
            dominated_at[v] = step
        row = adj[v]
        if row is not walked:
            walked = row
            for u in row:
                if not dominated_at[u]:
                    dominated_at[u] = step
                    fresh = True
        if not fresh:
            pos = step - 1
            if order.index(v) < pos:
                raise DuplicateVertexError(v, pos)
            return None, n - dominated_at.count(0), pos
    if stop < len(order):
        raise InputError(f"vertex {order[stop]} out of range for n={n}")
    footprints: list[list[int]] = [[] for _ in range(stop)]
    for u, step in enumerate(dominated_at):
        if step:
            footprints[step - 1].append(u)
    return list(map(tuple, footprints)), n - dominated_at.count(0), -1


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
    return check_closed_neighborhood_sequence(g, order).covered() == g.n


def quick_verify(g: Graph, order: Sequence[int]) -> tuple[bool, bool]:
    """(legal, dominating) without materializing footprints."""
    _, covered, bad = _sweep(g, order, collect=False)
    if bad >= 0:
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

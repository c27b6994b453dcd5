"""Exhaustive solvers for small instances.

All three maximum-sequence numbers computed here are instances of one
abstract search: pick moves, each move contributes a fixed bitmask to a
running "covered" state, and a move is legal only while it adds at least
one new bit. The longest move sequence equals the quantity of interest:

* graph domination: moves are vertices, masks are closed neighborhoods,
  and a maximal legal sequence always ends with every vertex dominated;
* hypergraph covering: moves are edges, masks are edge vertex sets, and
  with no isolated vertices a maximal legal sequence is an edge cover;
* hypergraph transversal: moves are vertices, masks are the sets of edges
  containing them (a legal move needs a live witnessing edge).

Why memoization on the uncovered set alone is sound: a move is legal
exactly when its mask meets the uncovered set, and the value of a state
is the longest legal continuation from it. Both depend only on that set,
not on which moves built it; in particular a move already taken can never
be retaken, since its whole mask is covered. Two prefixes reaching the
same set therefore have identical futures, so the memo table maps each
uncovered bitset to its exact remaining length. No branch-and-bound
information leaks into the table: entries are finished exhaustive values.

Why the search may stop early: every move adds a new bit and no move is
played twice, so no set is worth more than min(uncovered bits, live
moves). The search expands children by ascending gain (the size of the
move's residual), that is, the child with the most uncovered bits first,
ties by move index. Once the best length so far reaches 1 + the bit
count of the next child, neither that child nor any later one, which has
no more bits, can beat it, and the loop ends; it ends too once the best
equals the number of live moves. The bit count needs no test of its
own: once the best reaches it, every child has fewer bits, so the first
test ends the loop. Either way the value stored is exact.

Why the component split is sound: call two uncovered bits linked when
one move's mask holds both, and split the uncovered set into the
connected components of that relation. A move's residual (its mask
within the uncovered set) lies inside one component, so a move changes
one component only and its legality depends on that component alone.
The move sequences of different components therefore interleave freely,
and the value of a set is the sum of its components' values. The engine
finds the component of the lowest uncovered bit from a precomputed
reach[b] (bit b together with every mask containing it): connected
states pay one AND. A set that splits is valued as value(component) +
value(rest) and memoized under its own mask like any other; the
reconstruction of the witness still walks the whole state in the witness
order and asks value() only, so the witness is the one an unsplit search
finds. nodes_explored counts expansions of connected sets, and so does
node_budget.

Why twin classes cut the moves tried: vertices with equal open or closed
neighborhoods (twins) are interchangeable. For any uncovered set,
swapping two twins that are both uncovered, or both covered, is an
automorphism of the graph that fixes the set and maps one twin's move to
the other's, so the two moves have children of equal value. The graph
search therefore offers, per class, only its lowest uncovered and its
lowest covered member. That is exact on any uncovered set, so the
witness reconstruction asks value() about the real children it walks.
It offers fewer moves than are live, so it keeps only the bit-count
bound, which needs no count of the moves skipped: every uncovered
vertex's own move is live, so min(uncovered bits, live moves) is the
bit count.

The cover and transversal searches take no classes and try every move.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BudgetExceededError,
    IsolatedVertexError,
    SizeCapError,
)
from .graph import Graph
from .hypergraph import Hypergraph, is_edge_cover, is_legal_edge_sequence, is_legal_transversal_sequence
from .sequences import VertexSequence, quick_verify, verified_witness

__all__ = [
    "HARD_CAP",
    "SearchResult",
    "grundy_domination_exact",
    "grundy_cover_exact",
    "grundy_transversal_exact",
    "independence_number_exact",
]

HARD_CAP = 20


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive search.

    best_sequence is a VertexSequence without footprints for graph
    domination and a tuple of move indices (edges or vertices) for the
    hypergraph variants; it always passes the independent checkers, through
    verified_witness, before being returned.
    nodes_explored counts the connected uncovered sets the search and the
    witness reconstruction expanded.
    """

    best_length: int
    best_sequence: VertexSequence | tuple[int, ...]
    nodes_explored: int


# ---- twin classes ----------------------------------------------------------


def graph_twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Classes of pairwise-interchangeable vertices (open or closed twins)
    with at least two members, each sorted ascending, ordered by their
    lowest member.

    The open groups partition the vertices, and so do the closed ones, and
    a group of size >= 2 of one kind never shares a vertex with one of the
    other, so plain concatenation needs no merging. Suppose u, v are open
    twins and u, w are closed twins. Closed twins are adjacent, so w is in
    N(u) = N(v), hence v is in N[w] = N[u]; as v != u, v is in N(u) = N(v),
    but no vertex is its own neighbor.
    """
    open_groups: dict[tuple[int, ...], list[int]] = {}
    closed_groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        row = tuple(g.adjacency[v])
        open_groups.setdefault(row, []).append(v)
        closed_groups.setdefault(tuple(sorted(row + (v,))), []).append(v)
    return sorted(
        tuple(sorted(members))
        for groups in (open_groups, closed_groups)
        for members in groups.values()
        if len(members) > 1
    )


# ---- core search -----------------------------------------------------------


def _reach_table(masks: Sequence[int], full: int) -> list[int]:
    """reach[b]: bit b together with every mask that contains bit b, so the
    uncovered bits linked to b in an uncovered set `free` are reach[b] & free."""
    reach = [1 << b for b in range(full.bit_length())]
    for mask in masks:
        rest = mask & full
        while rest:
            low = rest & -rest
            reach[low.bit_length() - 1] |= mask
            rest ^= low
    return reach


def _longest_sequence(
    masks: Sequence[int],
    full: int,
    twin_classes: list[tuple[int, ...]] | None = None,
    node_budget: int | None = None,
    want_witness: bool = True,
):
    """Longest sequence of moves in which every move adds a new bit.

    Returns (length, move_indices, states_expanded). A state is its set of
    uncovered bits; a set that splits into components is valued as the
    sum of its components, and only connected sets are expanded and
    counted.

    Search order at every expansion: ascending size of the move's
    residual contribution (the child with the most uncovered bits
    first), ties by move index, stopping once no later child can beat
    the best (see the module docstring). Witness order: descending size
    of the residual, ties by move index; the witness is the first move
    sequence in that order, over the whole state, whose every step keeps
    the optimum by value(). The reconstruction skips a child with fewer
    than need - 1 uncovered bits, as it cannot be worth need - 1. Its
    expansions count toward nodes_explored and node_budget like the
    search's. The search order changes nodes_explored only, never the
    value or the witness.

    twin_classes are the graph's twin classes, for masks that are closed
    neighborhoods (move i holds bit i; see the module docstring): each
    class offers only its lowest uncovered and lowest covered member as
    candidates.
    """
    reach = _reach_table(masks, full)
    memo: dict[int, int] = {0: 0}
    nodes = 0
    groups: list[int] = []
    if twin_classes:
        in_class = {i for members in twin_classes for i in members}
        singles = [(i, mask) for i, mask in enumerate(masks) if i not in in_class]
        groups = [sum(1 << i for i in members) for members in twin_classes]

    def value(free: int) -> int:
        nonlocal nodes
        cached = memo.get(free)
        if cached is not None:
            return cached
        low = free & -free
        comp = reach[low.bit_length() - 1] & free
        if comp != free:
            todo = comp ^ low
            while todo and comp != free:
                bit = todo & -todo
                grown = reach[bit.bit_length() - 1] & free & ~comp
                comp |= grown
                todo = (todo ^ bit) | grown
            if comp != free:
                total = value(comp) + value(free ^ comp)
                memo[free] = total
                return total
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(nodes, node_budget)
        candidates = []
        for i, mask in (singles if groups else enumerate(masks)):
            residual = mask & free
            if residual:
                candidates.append((residual.bit_count(), i, free ^ residual))
        # the live moves, a bound only where every one is a candidate
        live = None if groups else len(candidates)
        if groups:
            for class_mask in groups:
                inside = free & class_mask
                if inside:
                    i = (inside & -inside).bit_length() - 1
                    residual = masks[i] & free
                    candidates.append((residual.bit_count(), i, free ^ residual))
                covered = class_mask ^ inside
                if covered:
                    i = (covered & -covered).bit_length() - 1
                    residual = masks[i] & free
                    if residual:
                        candidates.append((residual.bit_count(), i, free ^ residual))
        candidates.sort()
        best = 0
        for _, _, child in candidates:
            if best > child.bit_count() or best == live:
                break
            v = memo.get(child)
            if v is None:
                v = value(child)
            if v >= best:
                best = v + 1
        memo[free] = best
        return best

    total = value(full)
    moves: list[int] = []
    if want_witness:
        free = full
        need = total
        while need:
            candidates = [
                (-residual.bit_count(), i, free ^ residual)
                for i, mask in enumerate(masks)
                if (residual := mask & free)
            ]
            candidates.sort()
            for _, i, child in candidates:
                # a set is worth at most its bit count
                if child.bit_count() >= need - 1 and 1 + value(child) == need:
                    moves.append(i)
                    free = child
                    need -= 1
                    break
            else:  # pragma: no cover - value() guarantees a maximizer exists
                break  # were it lost, verified_witness refuses the short witness
    return total, moves, nodes


# ---- public solvers --------------------------------------------------------


def grundy_domination_exact(g: Graph, node_budget: int | None = None) -> SearchResult:
    """Maximum length of a dominating sequence, by exhaustive search.

    Raises SizeCapError beyond HARD_CAP vertices and BudgetExceededError
    when node_budget runs out; never returns a silent lower bound.
    """
    if g.n > HARD_CAP:
        raise SizeCapError(g.n, HARD_CAP)
    masks = [_closed_mask(g, v) for v in range(g.n)]
    full = (1 << g.n) - 1
    length, moves, nodes = _longest_sequence(masks, full, graph_twin_classes(g), node_budget)
    order = verified_witness(moves, length, lambda o: all(quick_verify(g, o)), "exact sequence")
    return SearchResult(length, VertexSequence(order), nodes)


def _closed_mask(g: Graph, v: int) -> int:
    mask = 1 << v
    for u in g.adjacency[v]:
        mask |= 1 << u
    return mask


def grundy_cover_exact(h: Hypergraph, node_budget: int | None = None) -> SearchResult:
    """Maximum length of an edge covering sequence, by exhaustive search."""
    if h.m > HARD_CAP:
        raise SizeCapError(h.m, HARD_CAP, what="edges")
    isolated = h.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(isolated[0], "every vertex must lie in some edge")
    full = (1 << h.n) - 1
    length, moves, nodes = _longest_sequence(h.edge_masks, full, node_budget=node_budget)
    order = verified_witness(
        moves, length, lambda o: is_legal_edge_sequence(h, o) and is_edge_cover(h, o), "edge sequence"
    )
    return SearchResult(length, order, nodes)


def grundy_transversal_exact(h: Hypergraph, node_budget: int | None = None) -> SearchResult:
    """Maximum length of a legal transversal sequence, by exhaustive search."""
    if h.m > HARD_CAP:
        raise SizeCapError(h.m, HARD_CAP, what="edges")
    full = (1 << h.m) - 1
    length, moves, nodes = _longest_sequence(h.vertex_masks, full, node_budget=node_budget)
    order = verified_witness(
        moves, length, lambda o: is_legal_transversal_sequence(h, o), "transversal sequence"
    )
    return SearchResult(length, order, nodes)


def independence_number_exact(g: Graph) -> int:
    """Brute-force maximum independent set size."""
    if g.n > HARD_CAP:
        raise SizeCapError(g.n, HARD_CAP)
    reach = [_closed_mask(g, v) for v in range(g.n)]
    memo: dict[int, int] = {}

    def best(avail: int) -> int:
        if avail == 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        v = (avail & -avail).bit_length() - 1
        result = max(best(avail & ~(1 << v)), 1 + best(avail & ~reach[v]))
        memo[avail] = result
        return result

    return best((1 << g.n) - 1)


def rho_tau_values(h: Hypergraph) -> tuple[int, int]:
    """Covering and transversal numbers without witnesses, for bulk sweeps.

    The two values are computed through independent mask families (edge
    masks over vertices, vertex masks over edges); their equality is a
    theorem, not an artifact of shared code paths.
    """
    rho, _, _ = _longest_sequence(h.edge_masks, (1 << h.n) - 1, want_witness=False)
    tau, _, _ = _longest_sequence(h.vertex_masks, (1 << h.m) - 1, want_witness=False)
    return rho, tau

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
and the value of a set is the sum of its components' values; finding
the component of the lowest uncovered bit costs a connected state one
AND on a reach table. A set that splits is valued as value(component) +
value(rest) and memoized under its own mask; the witness reconstruction
still walks the whole state in the witness order and asks value() only,
so the witness is the one an unsplit search finds.

One budget, NODE_BUDGET = 2^20 (grundy_domination_exact takes node_budget),
counts expansions of connected sets in every search, as nodes_explored does.
The search and the witness reconstruction share the memo, so no set is
expanded twice and a search over b bits expands fewer than 2^b sets: no
graph or independence search on at most 20 vertices (the latter counts
memo misses) and no transversal search on at most 20 edges runs out. A
cover search expands components of sets an edge set S leaves uncovered,
at most one per edge outside S: at most m * 2^(m - 1) on m edges. Grundy
domination is NP-complete on bipartite and co-bipartite graphs, so the
budget bounds the work, not n. MAX_SEARCH_SIZE bounds what one search
holds: value() recurses once per uncovered bit and each expansion scans
every move, so using up the budget on G(64, p) takes tens of seconds. Graph
searches check it on vertices before any mask is built, the others on edges.

Why twin classes cut the moves tried: vertices with equal open or closed
neighborhoods (twins) are interchangeable. For any uncovered set,
swapping two twins that are both uncovered, or both covered, is an
automorphism of the graph that fixes the set and maps one twin's move to
the other's, so the two moves have children of equal value. The graph
search therefore offers, per class, only its lowest uncovered and its
lowest covered member. That is exact on any uncovered set, so the
witness reconstruction asks value() about the real children it walks.
Its bound is the bit count, since every uncovered vertex's own move is
live. The cover and transversal searches take no classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, IsolatedVertexError, SizeCapError
from .graph import Graph
from .hypergraph import Hypergraph, is_edge_cover, is_legal_edge_sequence, is_legal_transversal_sequence
from .sequences import VertexSequence, quick_verify, verified_witness

__all__ = [
    "MAX_SEARCH_SIZE", "NODE_BUDGET", "SearchResult", "grundy_domination_exact",
    "grundy_number_exact", "grundy_cover_exact", "grundy_transversal_exact", "independence_number_exact",
]

NODE_BUDGET = 1 << 20
MAX_SEARCH_SIZE = 64


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive search.

    best_sequence is a VertexSequence without footprints for graph
    domination and a tuple of move indices (edges or vertices) for the
    hypergraph variants; it always passes the independent checkers, through
    verified_witness, before being returned. nodes_explored counts the
    connected uncovered sets the search and the witness reconstruction expanded.
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
    return _twin_classes(_closed_masks(g))


def _twin_classes(masks: Sequence[int]) -> list[tuple[int, ...]]:
    """graph_twin_classes of the graph whose closed neighborhoods are masks."""
    open_groups: dict[int, list[int]] = {}
    closed_groups: dict[int, list[int]] = {}
    for v, closed in enumerate(masks):
        open_groups.setdefault(closed ^ 1 << v, []).append(v)
        closed_groups.setdefault(closed, []).append(v)
    return sorted(
        tuple(members)
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
    node_budget: int = NODE_BUDGET,
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
    the best (see the module docstring). A candidate is one int key,
    residual size << shift | move index, shift = len(masks).bit_length(),
    so sorted keys are that order; the stop test reads the child's bit
    count off the key, and only a child the loop reaches is built.
    Witness order: descending residual size, ties by move index; the
    witness is the first move sequence in that order, over the whole
    state, whose every step keeps the optimum by value(), skipping a
    child with fewer than need - 1 uncovered bits (it cannot be worth
    need - 1); this walk counts toward nodes_explored and node_budget too.
    The search order changes nodes_explored only, never value or witness.

    twin_classes are the graph's twin classes, for masks that are closed
    neighborhoods (move i holds bit i; see the module docstring): each
    class offers only its lowest uncovered and lowest covered member as
    candidates.
    """
    reach = _reach_table(masks, full)
    memo: dict[int, int] = {0: 0}
    nodes = 0
    shift = len(masks).bit_length()
    index = (1 << shift) - 1
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
        if nodes > node_budget:
            raise BudgetExceededError(nodes, node_budget)
        keys = []
        for i, mask in (singles if groups else enumerate(masks)):
            residual = mask & free
            if residual:
                keys.append(residual.bit_count() << shift | i)
        # the live moves, a bound only where every one is a candidate
        live = None if groups else len(keys)
        if groups:
            for class_mask in groups:
                inside = free & class_mask
                if inside:
                    i = (inside & -inside).bit_length() - 1
                    keys.append((masks[i] & free).bit_count() << shift | i)
                covered = class_mask ^ inside
                if covered:
                    i = (covered & -covered).bit_length() - 1
                    residual = masks[i] & free
                    if residual:
                        keys.append(residual.bit_count() << shift | i)
        keys.sort()
        bits = free.bit_count()
        best = 0
        for key in keys:
            if best > bits - (key >> shift) or best == live:
                break
            child = free & ~masks[key & index]
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


def grundy_domination_exact(g: Graph, node_budget: int = NODE_BUDGET) -> SearchResult:
    """Maximum length of a dominating sequence, by exhaustive search.

    Raises SizeCapError beyond MAX_SEARCH_SIZE vertices and BudgetExceededError
    when node_budget runs out; never returns a silent lower bound.
    """
    masks = _closed_masks(g)
    length, moves, nodes = _longest_sequence(masks, (1 << g.n) - 1, _twin_classes(masks), node_budget)
    order = verified_witness(moves, length, lambda o: all(quick_verify(g, o)), "exact sequence")
    return SearchResult(length, VertexSequence(order), nodes)


def grundy_number_exact(g: Graph) -> int:
    """grundy_domination_exact(g).best_length, found by the same search under
    the same size bound and default budget, with no witness to build and check."""
    masks = _closed_masks(g)
    return _longest_sequence(masks, (1 << g.n) - 1, _twin_classes(masks), want_witness=False)[0]


def _closed_masks(g: Graph) -> list[int]:
    """Closed neighborhoods as bitmasks, refused past MAX_SEARCH_SIZE vertices before any is built."""
    if g.n > MAX_SEARCH_SIZE:
        raise SizeCapError(g.n, MAX_SEARCH_SIZE)
    masks = []
    for v, row in enumerate(g.adjacency):
        mask = 1 << v
        for u in row:
            mask |= 1 << u
        masks.append(mask)
    return masks


def grundy_cover_exact(h: Hypergraph) -> SearchResult:
    """Maximum length of an edge covering sequence, by exhaustive search."""
    if h.m > MAX_SEARCH_SIZE:
        raise SizeCapError(h.m, MAX_SEARCH_SIZE, what="edges")
    isolated = h.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(isolated[0], "every vertex must lie in some edge")
    length, moves, nodes = _longest_sequence(h.edge_masks, (1 << h.n) - 1)
    order = verified_witness(
        moves, length, lambda o: is_legal_edge_sequence(h, o) and is_edge_cover(h, o), "edge sequence"
    )
    return SearchResult(length, order, nodes)


def grundy_transversal_exact(h: Hypergraph) -> SearchResult:
    """Maximum length of a legal transversal sequence, by exhaustive search."""
    if h.m > MAX_SEARCH_SIZE:
        raise SizeCapError(h.m, MAX_SEARCH_SIZE, what="edges")
    length, moves, nodes = _longest_sequence(h.vertex_masks, (1 << h.m) - 1)
    order = verified_witness(
        moves, length, lambda o: is_legal_transversal_sequence(h, o), "transversal sequence"
    )
    return SearchResult(length, order, nodes)


def independence_number_exact(g: Graph) -> int:
    """Brute-force maximum independent set size; memo misses count against NODE_BUDGET."""
    reach = _closed_masks(g)
    memo = {0: 0}
    misses = 0

    def best(avail: int) -> int:
        nonlocal misses
        cached = memo.get(avail)
        if cached is not None:
            return cached
        misses += 1
        if misses > NODE_BUDGET:
            raise BudgetExceededError(misses, NODE_BUDGET)
        v = (avail & -avail).bit_length() - 1
        result = max(best(avail & ~(1 << v)), 1 + best(avail & ~reach[v]))
        memo[avail] = result
        return result

    return best((1 << g.n) - 1)


def longest_sequence_value(masks: Sequence[int], full: int) -> int:
    """The most masks in a sequence where each adds a new bit of full, without a witness."""
    return _longest_sequence(masks, full, want_witness=False)[0]


def rho_tau_values(h: Hypergraph) -> tuple[int, int]:
    """Covering and transversal numbers from independent mask families; their equality is a theorem."""
    rho = longest_sequence_value(h.edge_masks, (1 << h.n) - 1)
    return rho, longest_sequence_value(h.vertex_masks, (1 << h.m) - 1)

"""Chain graphs: recognition, twin partition, and the fast solvers.

A chain graph is a bipartite graph whose one side's neighborhoods form a
containment chain (then both sides' do). Recognition runs no BFS. One
degree pass finds a vertex of maximum degree; in a chain graph without
isolated vertices it is adjacent to a whole side, so its neighborhood and
the rest are the two candidate sides. A bucket sort by degree orders the
rest, since nesting forces degree order, and containment is verified only
between consecutive vertices; equal-degree vertices must have identical
neighborhoods. That scan and one degree sum prove the split is a
2-colouring (recognize_chain gives the argument), so the whole test is
linear in the number of edges. It simultaneously yields the open-twin
partition X_1..X_k / Y_1..Y_k, because classes are exactly the
equal-neighborhood runs (equivalently, within a chain graph, the
equal-degree runs). Only a rejected graph is 2-coloured by BFS, so that
the reason and witness pair come from the BFS sides.

grundy_chain evaluates a (k+1)-entry score table over the twin partition,
picks a maximizing index, and emits the corresponding concatenation of
twin classes. Every emitted sequence is re-verified by the independent
sequence checker before it is returned; a failure raises rather than
returning a wrong answer.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Sequence

from .errors import (
    IsolatedVertexError,
    NotChainGraphError,
    VerificationError,
)
from .graph import Graph, bipartition, complement
from .sequences import VertexSequence, quick_verify

__all__ = [
    "ChainStructure",
    "recognize_chain",
    "grundy_chain",
    "grundy_number_chain",
    "independence_number_chain",
    "grundy_cochain",
]


@dataclass(frozen=True)
class ChainStructure:
    """Chain ordering plus open-twin partition of a chain graph.

    x_order lists the X side with nested neighborhoods, smallest first;
    y_order lists the Y side with reverse-nested neighborhoods. x_parts and
    y_parts are the twin classes in chain order, so N(X_i) is the union of
    Y_1..Y_i and N(Y_j) is the union of X_j..X_k.
    """

    graph: Graph
    x_order: tuple[int, ...]
    y_order: tuple[int, ...]
    x_parts: tuple[tuple[int, ...], ...]
    y_parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.x_parts)

    @property
    def n1(self) -> int:
        return len(self.x_order)

    @property
    def n2(self) -> int:
        return len(self.y_order)


def _subset_sorted(small, big) -> bool:
    # Merge walk that bisects past runs of big absent from small, so a
    # small row inside a huge one costs O(len(small) log len(big)).
    i = 0
    limit = len(big)
    for v in small:
        if i < limit and big[i] != v:
            i = bisect_left(big, v, i)
        if i == limit or big[i] != v:
            return False
        i += 1
    return True


def _degree_runs(members: Sequence[int], deg: list[int]) -> list[list[int]]:
    """Bucket sort vertices by degree: one list per degree present, in
    ascending degree, each keeping the order of members.

    Linear in len(members): only the k distinct degrees are sorted, and
    k(k+1)/2 <= 2m keeps that sort sublinear in the edge count.
    """
    buckets: dict[int, list[int]] = {}
    for v in members:
        try:
            buckets[deg[v]].append(v)
        except KeyError:
            buckets[deg[v]] = [v]
    return [buckets[d] for d in sorted(buckets)]


def _check_nested(adj, runs: list[list[int]]) -> None:
    """Raise NotChainGraphError unless every run's rows are equal and each
    run's row is contained in the next one's.

    This is the consecutive-containment scan over the degree order, run by
    run: the witness is the first adjacent pair in that order that fails.
    """
    prev = -1
    prev_row: Sequence[int] = ()
    for run in runs:
        rows = list(map(adj.__getitem__, run))
        row = rows[0]
        if prev >= 0 and not _subset_sorted(prev_row, row):
            raise NotChainGraphError("incomparable neighborhoods", (prev, run[0]))
        if rows.count(row) != len(rows):
            bad = next(i for i, other in enumerate(rows) if other != row)
            raise NotChainGraphError("incomparable neighborhoods", (run[bad - 1], run[bad]))
        prev, prev_row = run[-1], row


def _hub_split(g: Graph, deg: list[int]) -> tuple[list[int], Sequence[int]]:
    """Split V into the rest and N(hub), hub the lowest-index vertex of
    maximum degree; both parts come out in ascending order.

    The split is only a candidate 2-colouring until recognize_chain has
    proven it. The hub itself lies in the rest.
    """
    hub_row = g.adjacency[deg.index(max(deg))]
    rest: list[int] = []
    lo = 0
    for u in hub_row:
        if u != lo:
            rest.extend(range(lo, u))
        lo = u + 1
    rest.extend(range(lo, g.n))
    return rest, hub_row


def recognize_chain(g: Graph) -> ChainStructure:
    """Recognize a chain graph and return its structure.

    Raises IsolatedVertexError on isolated vertices (a precondition) and
    NotChainGraphError otherwise, carrying a witness pair of same-side
    vertices with incomparable neighborhoods when that is the cause.

    The sides come from one degree pass, not a BFS. In a chain graph with
    no isolated vertex, a vertex of maximum degree (the hub) is adjacent to
    a whole side, so N(hub) and the rest H are the candidate sides. The
    containment scan over H nests every H row into the row of its last
    degree run, and that run holds the hub, so the row is N(hub): no edge
    joins two vertices of H. The degrees over H then sum to the edge count
    only if no edge joins two vertices of N(hub) either. Every vertex of
    N(hub) touches the hub, so a proven split is connected, hence the
    unique 2-colouring, the one graph.bipartition finds; X is the side
    holding vertex 0, as there. H nested makes the other side nested too,
    so its degree runs are its twin classes without a second scan. When a
    check fails, the BFS sides name the rejection: "not bipartite" on an
    odd cycle, else the scan over their X side reports its first
    incomparable pair.
    """
    if g.n == 0:
        raise NotChainGraphError("empty graph")
    adj = g.adjacency
    deg = list(map(len, adj))
    if 0 in deg:
        raise IsolatedVertexError(deg.index(0), "chain recognition requires none")

    rest, hub_row = _hub_split(g, deg)
    rest_runs = _degree_runs(rest, deg)
    try:
        _check_nested(adj, rest_runs)
    except NotChainGraphError:
        proven = False
    else:
        proven = sum(deg[run[0]] * len(run) for run in rest_runs) == g.edge_count
    if proven:
        hub_runs = _degree_runs(hub_row, deg)
        x_runs, y_runs = (rest_runs, hub_runs) if rest[0] == 0 else (hub_runs, rest_runs)
    else:
        sides = bipartition(g)
        if sides is None:
            raise NotChainGraphError("not bipartite")
        x_runs = _degree_runs(sorted(sides.side_x), deg)
        _check_nested(adj, x_runs)
        y_runs = _degree_runs(sorted(sides.side_y), deg)

    y_runs.reverse()
    if len(x_runs) != len(y_runs):
        raise VerificationError(
            f"twin partition mismatch: {len(x_runs)} X parts, {len(y_runs)} Y parts"
        )
    return ChainStructure(
        g,
        tuple(chain.from_iterable(x_runs)),
        tuple(chain.from_iterable(y_runs)),
        tuple(map(tuple, x_runs)),
        tuple(map(tuple, y_runs)),
    )


def _score_table(cs: ChainStructure) -> list[int]:
    """Candidate sequence lengths indexed 0..k; the maximum is the answer.

    Only meaningful for k >= 2: the boundary entries assume a class beyond
    the one they bonus, so k = 1 is short-circuited by the callers.
    """
    k = cs.k
    assert k >= 2
    x_sizes = [len(p) for p in cs.x_parts]
    y_sizes = [len(p) for p in cs.y_parts]
    n1, n2 = cs.n1, cs.n2
    sums = [0] * (k + 1)
    sums[0] = n2 + x_sizes[0] if y_sizes[0] == 1 else n2
    pref_x = 0
    pref_y = 0
    for i in range(1, k):
        pref_x += x_sizes[i - 1]
        pref_y += y_sizes[i - 1]
        sums[i] = pref_x + n2 - pref_y + 1
    sums[k] = n1 + y_sizes[k - 1] if x_sizes[k - 1] == 1 else n1
    return sums


def grundy_number_chain(cs: ChainStructure) -> int:
    """Grundy domination number of the chain graph, from the score table."""
    if cs.k == 1:
        return max(cs.n1, cs.n2)
    return max(_score_table(cs))


def _order_for_index(cs: ChainStructure, istar: int) -> list[int]:
    """The class concatenation realizing score-table entry istar (k >= 2)."""
    x_parts, y_parts, k = cs.x_parts, cs.y_parts, cs.k
    order: list[int] = []
    if istar == 0 and len(y_parts[0]) > 1:
        for j in range(k - 1, -1, -1):
            order.extend(y_parts[j])
    elif istar == 0:
        order.extend(x_parts[0])
        if k >= 3:
            for j in range(k - 1, 1, -1):
                order.extend(y_parts[j])
            order.extend(y_parts[0])
            order.extend(y_parts[1])
        else:
            order.extend(y_parts[0])
            order.extend(y_parts[1])
    elif istar == k and len(x_parts[k - 1]) > 1:
        for part in x_parts:
            order.extend(part)
    elif istar == k:
        if k >= 3:
            for j in range(k - 2):
                order.extend(x_parts[j])
            order.extend(y_parts[k - 1])
            order.extend(x_parts[k - 1])
            order.extend(x_parts[k - 2])
        else:
            order.extend(y_parts[1])
            order.extend(x_parts[1])
            order.extend(x_parts[0])
    else:
        pivot = x_parts[istar][0]
        for j in range(istar - 1):
            order.extend(x_parts[j])
        for j in range(k - 1, istar - 1, -1):
            order.extend(y_parts[j])
        order.append(pivot)
        order.extend(x_parts[istar - 1])
    return order


def grundy_chain(cs: ChainStructure) -> VertexSequence:
    """Emit a maximum dominating sequence of the chain graph.

    Runs in time linear in the graph (the emitted order is a concatenation
    of twin classes) and re-verifies its own output; a failed verification
    raises VerificationError instead of returning.

    The returned VertexSequence carries no materialized footprints; run it
    through check_closed_neighborhood_sequence for the full record.
    """
    if cs.k == 1:
        # Complete bipartite: the longer side in chain order is optimal.
        order = list(cs.x_order if cs.n1 >= cs.n2 else cs.y_order)
        claimed = max(cs.n1, cs.n2)
    else:
        sums = _score_table(cs)
        claimed = max(sums)
        order = _order_for_index(cs, sums.index(claimed))

    legal, dominating = quick_verify(cs.graph, order)
    if not legal or not dominating or len(order) != claimed:
        raise VerificationError(
            f"chain sequence claimed length {claimed} but re-verification disagrees"
        )
    return VertexSequence(tuple(order))


def independence_number_chain(cs: ChainStructure) -> int:
    """Independence number from the twin partition.

    A maximum independent set is one whole side or a prefix of X classes
    joined with the complementary suffix of Y classes.
    """
    best = max(cs.n1, cs.n2)
    pref_x = 0
    pref_y = 0
    for i in range(1, cs.k):
        pref_x += len(cs.x_parts[i - 1])
        pref_y += len(cs.y_parts[i - 1])
        best = max(best, pref_x + cs.n2 - pref_y)
    return best


def grundy_cochain(g: Graph) -> tuple[int, VertexSequence]:
    """Grundy domination number and witness for a co-chain graph.

    The complement must recognize as a chain graph; its open-twin classes
    are the closed-twin classes of g, k per side. One vertex from each
    X class (largest class first) dominates little enough to stay legal
    for k steps, and a Y_1 vertex then footprints exactly the Y_1 class,
    so k+1 steps always exist; a class-counting argument shows no legal
    sequence can do better. The value is cross-checked against the exact
    solver in the tests.

    A co-chain graph is two cliques plus edges between them, and two
    cliques on n vertices hold the fewest edges when they split n evenly;
    a graph with fewer edges is refused before its quadratic complement
    is built.
    """
    half = g.n // 2
    if g.edge_count < comb(half, 2) + comb(g.n - half, 2):
        raise NotChainGraphError("too few edges for a co-chain graph")
    comp = complement(g)
    cs = recognize_chain(comp)
    k = cs.k
    order = [cs.x_parts[i][0] for i in range(k - 1, -1, -1)]
    order.append(cs.y_parts[0][0])
    legal, dominating = quick_verify(g, order)
    if not legal or not dominating or len(order) != k + 1:
        raise VerificationError("co-chain witness failed re-verification")
    return k + 1, VertexSequence(tuple(order))

"""Chain graphs: recognition, twin partition, and the fast solvers.

A chain graph is a bipartite graph whose one side's neighborhoods form a
containment chain (then both sides' do). Recognition runs no BFS. One
degree pass finds a vertex of maximum degree, the hub, and its neighbor w
of maximum degree; in a chain graph without isolated vertices both are
adjacent to a whole side, so N(w) and N(hub) are the two candidate sides,
and neither is found by walking the other. A bucket sort by degree orders
N(w), since nesting forces degree order, and containment is verified only
between consecutive vertices; equal-degree vertices must have identical
neighborhoods. That scan and one degree sum prove the split is a
2-colouring (recognize_chain gives the argument), so the whole test is
linear in the number of edges. It simultaneously yields the open-twin
partition X_1..X_k / Y_1..Y_k: the classes of N(w) are its equal-degree
runs, and the classes of N(hub) are what each run's row adds to the row
before, the stretches the containment merge jumps over, so the larger
side costs one slice per class rather than a step per vertex. Only a
rejected graph is 2-coloured by BFS, so that the reason and witness pair
come from the BFS sides.

grundy_chain evaluates a (k+1)-entry score table over the twin partition,
picks a maximizing index, and emits the corresponding concatenation of
twin classes. Every emitted sequence is re-verified by the independent
sequence checker, through verified_witness, before it is returned; a
failure raises rather than returning a wrong answer.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import Sequence

from .errors import IsolatedVertexError, NotChainGraphError
from .graph import Graph, bipartition, complement
from .sequences import VertexSequence, quick_verify, verified_witness

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
    """Open-twin partition of a chain graph, as recognize_chain returns it.

    x_parts and y_parts are the twin classes in chain order, each class in
    ascending vertex order, so N(X_i) is the union of Y_1..Y_i and N(Y_j)
    is the union of X_j..X_k. Read class by class, x_parts lists the X
    side with nested neighborhoods, smallest first, and y_parts the Y side
    with reverse-nested ones. The sizes n1 and n2 are read off the parts.
    """

    graph: Graph
    x_parts: tuple[tuple[int, ...], ...]
    y_parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.x_parts)

    @property
    def n1(self) -> int:
        return sum(map(len, self.x_parts))

    @property
    def n2(self) -> int:
        return sum(map(len, self.y_parts))


def _row_gaps(small, big) -> list | None:
    """The non-empty slices of big that hold big minus small, in order, or
    None unless small is a subset of big (both sorted).

    A merge walk that bisects past each run of big absent from small, so a
    small row inside a huge one costs O(len(small) log len(big)), and the
    runs it jumps over come out as slices at no extra cost.
    """
    gaps = []
    i = 0
    limit = len(big)
    for v in small:
        if i < limit and big[i] != v:
            j = bisect_left(big, v, i)
            gaps.append(big[i:j])
            i = j
        if i == limit or big[i] != v:
            return None
        i += 1
    if i < limit:
        gaps.append(big[i:])
    return gaps


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


def _check_nested(adj, runs: list[list[int]]) -> list[Sequence[int]]:
    """Raise NotChainGraphError unless every run's rows are equal and each
    run's row is contained in the next one's; return the other side's
    classes, in the order the rows gain them.

    This is the consecutive-containment scan over the degree order, run by
    run: the witness is the first adjacent pair in that order that fails.
    The classes are the first run's row, then what each later run's row
    adds to the one before, each in ascending order: the stretches that
    _row_gaps jumps over. After a passing scan, class i holds the vertices
    whose first neighbor run is run i, so they are twins, in falling order
    of degree; consecutive runs differ in degree, so no class is empty.
    """
    classes: list[Sequence[int]] = []
    prev = -1
    prev_row: Sequence[int] = ()
    for run in runs:
        rows = list(map(adj.__getitem__, run))
        row = rows[0]
        gaps = _row_gaps(prev_row, row)
        if gaps is None:
            raise NotChainGraphError("incomparable neighborhoods", (prev, run[0]))
        classes.append(gaps[0] if len(gaps) == 1 else tuple(chain.from_iterable(gaps)))
        if rows.count(row) != len(rows):
            bad = next(i for i, other in enumerate(rows) if other != row)
            raise NotChainGraphError("incomparable neighborhoods", (run[bad - 1], run[bad]))
        prev, prev_row = run[-1], row
    return classes


def _rest_side(adj, deg: list[int]) -> Sequence[int]:
    """N(w), in ascending order: the hub is the lowest-index vertex of
    maximum degree and w its first neighbor of maximum degree.

    N(w) holds the hub. On a chain graph with no isolated vertex it is
    the side that N(hub) misses, found without walking N(hub); elsewhere it
    is only a candidate side until recognize_chain has proven it.
    """
    hub_row = adj[deg.index(max(deg))]
    return adj[max(hub_row, key=deg.__getitem__)]


def recognize_chain(g: Graph) -> ChainStructure:
    """Recognize a chain graph and return its structure.

    Raises IsolatedVertexError on isolated vertices (a precondition) and
    NotChainGraphError otherwise, carrying a witness pair of same-side
    vertices with incomparable neighborhoods when that is the cause.

    The sides come from one degree pass, not a BFS. In a chain graph with
    no isolated vertex, a vertex of maximum degree (the hub) is adjacent to
    a whole side, and so is its neighbor w of maximum degree; the candidate
    sides are H = N(w) and N(hub), and the hub lies in H. The containment
    scan over H nests every H row into the row of its last degree run, and
    that run holds the hub, so every H row lies inside N(hub). Hence H and
    N(hub) are disjoint: a vertex in both would have the hub as a neighbor
    inside N(hub). So no edge joins two vertices of H, and the degrees over
    H sum to the edge count only if every edge has exactly one end in H;
    then each vertex outside H has a neighbor in H, so lies in N(hub), and
    the two sides cover V. Every vertex of N(hub) touches the hub, so a
    proven split is connected, hence the unique 2-colouring, the one
    graph.bipartition finds; X is the side holding vertex 0, as there. The
    scan over H also yields N(hub)'s twin classes, so that side is never
    sorted. When a check fails, the BFS sides name the rejection: "not
    bipartite" on an odd cycle, else the scan over their X side reports its
    first incomparable pair.
    """
    if g.n == 0:
        raise NotChainGraphError("empty graph")
    adj = g.adjacency
    deg = list(map(len, adj))
    if 0 in deg:
        raise IsolatedVertexError(deg.index(0), "chain recognition requires none")

    rest = _rest_side(adj, deg)
    rest_runs = _degree_runs(rest, deg)
    try:
        hub_classes = _check_nested(adj, rest_runs)
    except NotChainGraphError:
        proven = False
    else:
        proven = sum(deg[run[0]] * len(run) for run in rest_runs) == g.edge_count
    if not proven:
        sides = bipartition(g)
        if sides is None:
            raise NotChainGraphError("not bipartite")
        rest = sorted(sides.side_x)
        rest_runs = _degree_runs(rest, deg)
        # raises on every graph that gets here: each chain graph is proven
        # above, and a bipartite graph with no isolated vertex whose X side
        # nests is a chain graph
        hub_classes = _check_nested(adj, rest_runs)

    # rest_runs ascend in degree, and hub_classes gain the rest's rows in
    # the same order, so they descend in degree
    if rest[0] == 0:
        x_runs, y_runs = rest_runs, hub_classes
    else:
        x_runs, y_runs = hub_classes[::-1], rest_runs[::-1]
    return ChainStructure(g, tuple(map(tuple, x_runs)), tuple(map(tuple, y_runs)))


def _score_table(cs: ChainStructure) -> list[int]:
    """Candidate sequence lengths indexed 0..k; the maximum is the answer.

    Only meaningful for k >= 2: entry 0's bonus for |Y_1| = 1 assumes a
    class Y_2 beyond it, so k = 1 is short-circuited by the callers. Entry
    k takes no mirror bonus for |X_k| = 1: it would make entry k equal to
    entry k - 1 (both n1 + |Y_k|), and grundy_chain emits the first
    maximizing entry, so the bonus could change neither the value nor the
    witness.
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
    sums[k] = n1
    return sums


def grundy_number_chain(cs: ChainStructure) -> int:
    """Grundy domination number of the chain graph, from the score table."""
    if cs.k == 1:
        return max(cs.n1, cs.n2)
    return max(_score_table(cs))


def _order_for_index(cs: ChainStructure, istar: int) -> list[int]:
    """The class concatenation realizing score-table entry istar (k >= 2).

    Entry k is the whole X side in chain order, whatever |X_k| is, since
    the table gives that entry no bonus (see _score_table).
    """
    x_parts, y_parts, k = cs.x_parts, cs.y_parts, cs.k
    order: list[int] = []
    if istar == 0 and len(y_parts[0]) > 1:
        for j in range(k - 1, -1, -1):
            order.extend(y_parts[j])
    elif istar == 0:
        order.extend(x_parts[0])
        for j in range(k - 1, 1, -1):
            order.extend(y_parts[j])
        order.extend(y_parts[0])
        order.extend(y_parts[1])
    elif istar == k:
        for part in x_parts:
            order.extend(part)
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
    of twin classes) and re-verifies its own output through
    verified_witness; a failed verification raises VerificationError
    instead of returning. Like every solver's witness, the VertexSequence
    carries no footprints; check_closed_neighborhood_sequence adds them.
    """
    if cs.k == 1:
        # Complete bipartite: the longer side, one twin class, is optimal.
        order = cs.x_parts[0] if cs.n1 >= cs.n2 else cs.y_parts[0]
        claimed = max(cs.n1, cs.n2)
    else:
        sums = _score_table(cs)
        claimed = max(sums)
        order = _order_for_index(cs, sums.index(claimed))
    return VertexSequence(
        verified_witness(order, claimed, lambda o: all(quick_verify(cs.graph, o)), "chain sequence")
    )


def independence_number_chain(cs: ChainStructure) -> int:
    """Independence number from the twin partition.

    A maximum independent set is one whole side or, for 0 < i < k, the
    classes X_1..X_i joined with Y_i+1..Y_k: score-table entry i less its
    one extra vertex.
    """
    if cs.k == 1:
        return max(cs.n1, cs.n2)
    return max(cs.n1, cs.n2, max(_score_table(cs)[1:-1]) - 1)


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
    is built. A universal vertex of g is an isolated vertex of the
    complement, which no chain graph has, so the method does not apply.
    """
    half = g.n // 2
    if g.edge_count < comb(half, 2) + comb(g.n - half, 2):
        raise NotChainGraphError("too few edges for a co-chain graph")
    try:
        cs = recognize_chain(complement(g))
    except IsolatedVertexError as exc:
        raise NotChainGraphError(
            f"universal vertex {exc.vertex} (co-chain recognition requires none)"
        ) from exc
    k = cs.k
    order = [cs.x_parts[i][0] for i in range(k - 1, -1, -1)]
    order.append(cs.y_parts[0][0])
    witness = verified_witness(order, k + 1, lambda o: all(quick_verify(g, o)), "co-chain sequence")
    return k + 1, VertexSequence(witness)

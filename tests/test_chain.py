import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import grundy.chain as chain_module
from grundy import (
    Graph,
    GrundyError,
    bipartition,
    IsolatedVertexError,
    NotChainGraphError,
    VerificationError,
    check_closed_neighborhood_sequence,
    check_subset_ordering,
    complement,
    grundy_chain,
    grundy_cochain,
    grundy_domination_exact,
    grundy_number_chain,
    independence_number_chain,
    is_dominating_sequence,
    recognize_chain,
)
from grundy.bench import bench_profile
from grundy.generators import (
    ChainProfile,
    XorShift64Star,
    chain_from_profile,
    random_chain_profile,
    random_graph,
)
from grundy.sequences import quick_verify
from grundy.sweeps import _observation_identities_hold, exhaustive_profiles

from .conftest import (
    brute_alpha,
    chain_reference,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    merge_equal_rows,
    path_graph,
    shuffled,
)


# P4 drawn as a chain graph: X = {0, 1}, Y = {2, 3}, edges 0-2, 1-2, 1-3
def p4_chain() -> Graph:
    return Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)])


class TestRecognition:
    def test_p4_partition(self):
        cs = recognize_chain(p4_chain())
        assert cs.k == 2
        assert cs.x_parts == ((0,), (1,))
        assert cs.y_parts == ((2,), (3,))

    def test_complete_bipartite_single_class(self):
        cs = recognize_chain(complete_bipartite(3, 4))
        assert cs.k == 1
        assert len(cs.x_parts[0]) in (3, 4)

    def test_c6_rejected_with_witness(self):
        with pytest.raises(NotChainGraphError) as info:
            recognize_chain(cycle_graph(6))
        assert info.value.witness is not None
        u, v = info.value.witness
        g = cycle_graph(6)
        nu, nv = set(g.neighbors(u)), set(g.neighbors(v))
        assert not (nu <= nv or nv <= nu)

    def test_odd_cycle_rejected(self):
        with pytest.raises(NotChainGraphError):
            recognize_chain(cycle_graph(5))

    def test_empty_graph_rejected(self):
        with pytest.raises(NotChainGraphError, match="^empty graph$") as info:
            recognize_chain(Graph(0, (), 0))
        assert info.value.witness is None

    def test_isolated_vertex_is_precondition_error(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            recognize_chain(g)

    @pytest.mark.parametrize(
        "n,edges,vertex",
        [
            # P4 as a chain graph, then three isolated vertices
            (7, [(0, 2), (1, 2), (1, 3)], 4),
            # no edges: every row is empty, vertex 0 is the first
            (3, [], 0),
            # vertex 0 alone, a path on the rest
            (4, [(1, 2), (2, 3)], 0),
        ],
    )
    def test_isolated_vertex_is_the_lowest(self, n, edges, vertex):
        with pytest.raises(IsolatedVertexError) as info:
            recognize_chain(Graph.from_edges(n, edges))
        assert info.value.vertex == vertex

    def test_recognition_keeps_no_degree_table(self):
        # the hub's neighbors come out of _row_gaps as one slice, 8 bytes
        # a vertex; a list of every degree would add 8 more
        g = chain_from_profile(bench_profile(2**18))
        tracemalloc.start()
        try:
            cs = recognize_chain(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cs.k == 4
        assert peak < 12 * g.n

    def test_nested_order(self):
        cs = recognize_chain(p4_chain())
        g = cs.graph
        rows = [set(g.neighbors(v)) for part in cs.x_parts for v in part]
        for a, b in zip(rows, rows[1:]):
            assert a <= b
        rows = [set(g.neighbors(v)) for part in cs.y_parts for v in part]
        for a, b in zip(rows, rows[1:]):
            assert a >= b

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_pairwise_comparability_oracle(self, a, b, seed):
        """Accept exactly the bipartite graphs whose one-side neighborhoods
        are pairwise nested, and hand back a genuine witness otherwise."""
        from grundy.generators import XorShift64Star

        rng = XorShift64Star(seed)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.next_bit()
        ]
        g = Graph.from_edges(a + b, edges)
        if not all(g.adjacency):
            return
        rows = [set(g.neighbors(v)) for v in range(a)]
        expected = all(
            r1 <= r2 or r2 <= r1
            for i, r1 in enumerate(rows)
            for r2 in rows[i + 1 :]
        )
        try:
            cs = recognize_chain(g)
        except NotChainGraphError as exc:
            assert not expected
            if exc.witness is not None:
                nu = set(g.neighbors(exc.witness[0]))
                nv = set(g.neighbors(exc.witness[1]))
                assert not (nu <= nv or nv <= nu)
            return
        assert expected
        nested = [set(g.neighbors(v)) for part in cs.x_parts for v in part]
        assert all(p <= q for p, q in zip(nested, nested[1:]))


@st.composite
def graphs_without_isolated(draw, max_n=8):
    """Half of the draws are bipartite by construction, over random sides."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    pairs = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if not bipartite or side[u] != side[v]
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    assume(all(g.adjacency))
    return g


def relabelled(g: Graph, seed: int) -> Graph:
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])


@pytest.fixture
def bfs_calls(monkeypatch):
    """Graphs that recognize_chain hands to graph.bipartition."""
    calls = []

    def counting(g):
        calls.append(g)
        return bipartition(g)

    monkeypatch.setattr(chain_module, "bipartition", counting)
    return calls


class TestRecognitionAgainstReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(graphs_without_isolated())
    def test_verdict_sides_and_witness(self, g):
        verdict, sides = chain_reference(g)
        try:
            cs = recognize_chain(g)
        except NotChainGraphError as exc:
            assert verdict != "chain"
            if verdict == "not bipartite":
                assert str(exc) == "not bipartite" and exc.witness is None
                return
            x_side, y_side = sides
            u, v = exc.witness
            assert {u, v} <= x_side or {u, v} <= y_side
            nu, nv = set(g.neighbors(u)), set(g.neighbors(v))
            assert not (nu <= nv or nv <= nu)
            return
        assert verdict == "chain"
        assert (set().union(*cs.x_parts), set().union(*cs.y_parts)) == sides
        for parts in (cs.x_parts, cs.y_parts):
            rows = [{tuple(g.neighbors(v)) for v in part} for part in parts]
            assert all(len(r) == 1 for r in rows)
            assert len(set().union(*rows)) == len(parts)

    @pytest.mark.parametrize(
        "n,edges,message",
        [
            # 2K2: every vertex has degree 1, the hub's neighborhood is one vertex
            (4, [(0, 1), (2, 3)], "incomparable neighborhoods: vertices 0 and 2"),
            # P3 + K2: disconnected, so the split cannot be a 2-colouring
            (5, [(0, 1), (1, 2), (3, 4)], "incomparable neighborhoods: vertices 2 and 3"),
            # P5: bipartite, but N(w) = {1, 3} holds two different rows of one degree
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], "incomparable neighborhoods: vertices 0 and 4"),
            # K3, then C5: N(w) = {0, 2} holds two different rows of one degree
            (3, [(0, 1), (1, 2), (0, 2)], "not bipartite"),
            (5, [(i, (i + 1) % 5) for i in range(5)], "not bipartite"),
            # K1,3 + K1,2: N(w) = {0} passes the scan, but misses vertices 4..6
            (
                7,
                [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)],
                "incomparable neighborhoods: vertices 4 and 0",
            ),
        ],
    )
    def test_rejections_named_from_bfs_sides(self, bfs_calls, n, edges, message):
        g = Graph.from_edges(n, edges)
        with pytest.raises(NotChainGraphError) as info:
            recognize_chain(g)
        assert str(info.value) == message
        assert bfs_calls == [g]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_shuffled_profiles_recover_class_sizes(self, seed):
        profile = random_chain_profile(12, seed)
        g = relabelled(chain_from_profile(profile), seed)
        cs = recognize_chain(g)
        recovered = (tuple(map(len, cs.x_parts)), tuple(map(len, cs.y_parts)))
        # seen from the other side, the chain order of the classes reverses
        flipped = (profile.sizes_y[::-1], profile.sizes_x[::-1])
        assert recovered in ((profile.sizes_x, profile.sizes_y), flipped)
        assert 0 in set().union(*cs.x_parts)

    @pytest.mark.parametrize("merged", [False, True])
    def test_candidate_sides_and_hub_classes(self, merged):
        # N(w) is V minus N(hub), and the scan over it yields N(hub)'s
        # degree runs, highest degree first; k = 1 and n1 = n2 included
        profiles = list(exhaustive_profiles(max_k=3, max_part=2, max_vertices=10))
        profiles += [random_chain_profile(18, seed) for seed in range(200)]
        assert any(p.k == 1 for p in profiles)
        assert any(sum(p.sizes_x) == sum(p.sizes_y) for p in profiles)
        for seed, profile in enumerate(profiles):
            g = relabelled(chain_from_profile(profile), seed)
            if merged:
                g = merge_equal_rows(g)
            adj = g.adjacency
            deg = list(map(len, adj))
            hub_row = adj[deg.index(max(deg))]
            rest = chain_module._rest_side(adj)
            assert tuple(rest) == tuple(sorted(set(range(g.n)) - set(hub_row)))
            classes = chain_module._check_nested(adj, chain_module._degree_runs(rest, adj))
            runs = chain_module._degree_runs(hub_row, adj)
            assert list(map(tuple, classes)) == list(map(tuple, reversed(runs)))

    def test_candidate_sides_can_miss_vertices(self):
        # the graph of the K1,3 + K1,2 rejection above
        g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)])
        adj = g.adjacency
        rest = chain_module._rest_side(adj)
        assert set(rest) | set(adj[0]) != set(range(g.n))

    @pytest.mark.parametrize(
        "profile",
        [
            # K3,3 with the hub's side first: the first vertex of degree
            # n - deg(hub) is the hub itself
            ChainProfile((3,), (3,)),
            # vertex 0 has degree n - deg(hub) = 2, on the hub's side, ahead
            # of the other side's top class {2, 3}; the hub is vertex 1
            ChainProfile((1, 1), (2, 1)),
        ],
    )
    def test_w_is_found_among_the_hubs_neighbors(self, bfs_calls, profile):
        g = chain_from_profile(profile)
        hub_row = max(g.adjacency, key=len)
        degrees = [len(row) for row in g.adjacency]
        assert degrees.index(g.n - len(hub_row)) not in hub_row
        cs = recognize_chain(g)
        assert bfs_calls == []
        assert (set().union(*cs.x_parts), set().union(*cs.y_parts)) == chain_reference(g)[1]
        assert (tuple(map(len, cs.x_parts)), tuple(map(len, cs.y_parts))) == (profile.sizes_x, profile.sizes_y)

    def test_chain_graphs_skip_the_bfs(self, bfs_calls):
        for profile in exhaustive_profiles(max_k=3, max_part=2, max_vertices=10):
            recognize_chain(relabelled(chain_from_profile(profile), profile.total_vertices))
        assert bfs_calls == []


class TestGrundyChain:
    def test_p4_sequence(self):
        cs = recognize_chain(p4_chain())
        seq = grundy_chain(cs)
        assert seq.order == (0, 2, 3)
        assert len(seq) == 3 == grundy_domination_exact(p4_chain()).best_length

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 2), (5, 5)])
    def test_complete_bipartite(self, a, b):
        g = complete_bipartite(a, b)
        cs = recognize_chain(g)
        assert len(grundy_chain(cs)) == max(a, b)
        assert grundy_number_chain(cs) == max(a, b)

    def test_number_matches_the_sequence_and_the_search(self):
        ks = set()
        for profile in exhaustive_profiles(max_k=3, max_part=2, max_vertices=10):
            g = chain_from_profile(profile)
            cs = recognize_chain(g)
            ks.add(cs.k)
            assert grundy_number_chain(cs) == len(grundy_chain(cs)) == grundy_domination_exact(g).best_length
        assert ks == {1, 2, 3}

    def test_star_is_not_overcounted(self):
        # k = 1 with a singleton side; the score-table shortcut must not fire
        g = complete_bipartite(1, 4)
        cs = recognize_chain(g)
        assert len(grundy_chain(cs)) == 4 == grundy_domination_exact(g).best_length

    def test_output_reverifies(self):
        for profile in (((1, 2), (2, 1)), ((3, 1, 2), (1, 1, 2)), ((2, 2, 2, 2), (1, 2, 1, 2))):
            g = chain_from_profile(ChainProfile(*profile))
            seq = grundy_chain(recognize_chain(g))
            assert is_dominating_sequence(g, seq.order)
            assert check_subset_ordering(g, seq.order)


class TestIndependence:
    def test_p4(self):
        cs = recognize_chain(p4_chain())
        assert independence_number_chain(cs) == 2 == brute_alpha(p4_chain())

    def test_complete_bipartite(self):
        cs = recognize_chain(complete_bipartite(4, 6))
        assert independence_number_chain(cs) == 6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_and_sandwich(self, seed):
        profile = random_chain_profile(13, seed)
        g = chain_from_profile(profile)
        cs = recognize_chain(g)
        alpha = independence_number_chain(cs)
        assert alpha == brute_alpha(g)
        assert len(grundy_chain(cs)) - alpha in (0, 1)


class TestObservationIdentities:
    def test_small_exhaustive(self):
        for profile in exhaustive_profiles(max_k=3, max_part=2, max_vertices=10):
            cs = recognize_chain(chain_from_profile(profile))
            assert _observation_identities_hold(cs)


class TestEveryTableBranch:
    def test_all_indices_emit_valid_sequences(self):
        """Each score-table entry's emission must be a legal dominating
        sequence of exactly the entry's value and never beat the optimum.

        boundary_hits counts entry k with |X_k| = 1, which grundy_chain
        never emits: with no bonus there, sum[k] = n1 falls below
        sum[k-1] = n1 + |Y_k|. Its order, the whole X side, is still
        checked here like every other entry's.
        """
        from grundy.chain import _order_for_index, _score_table
        from grundy.sequences import quick_verify

        boundary_hits = 0
        for profile in exhaustive_profiles(max_k=3, max_part=2, max_vertices=10):
            if profile.k == 1:
                continue
            g = chain_from_profile(profile)
            cs = recognize_chain(g)
            sums = _score_table(cs)
            gamma = grundy_domination_exact(g).best_length
            assert max(sums) == gamma
            for istar in range(cs.k + 1):
                order = _order_for_index(cs, istar)
                legal, dominating = quick_verify(g, order)
                assert legal and dominating
                assert len(order) == sums[istar] <= gamma
                if istar == cs.k and len(cs.x_parts[-1]) == 1:
                    boundary_hits += 1
        assert boundary_hits > 0


class TestCochain:
    def test_complement_of_k23(self):
        g = complement(complete_bipartite(2, 3))
        gamma, seq = grundy_cochain(g)
        assert gamma == grundy_domination_exact(g).best_length == 2
        assert is_dominating_sequence(g, seq.order)

    def test_complement_of_p4_chain(self):
        g = complement(p4_chain())
        gamma, seq = grundy_cochain(g)
        assert gamma == grundy_domination_exact(g).best_length == 3
        assert is_dominating_sequence(g, seq.order)

    def test_rejects_non_cochain(self):
        with pytest.raises((NotChainGraphError, IsolatedVertexError)):
            grundy_cochain(path_graph(6))

    def test_rejects_a_dense_non_cochain(self):
        # 9 edges clear the two-clique gate, and the complement C6 is no chain graph
        with pytest.raises(NotChainGraphError, match="^incomparable neighborhoods"):
            grundy_cochain(complement(cycle_graph(6)))

    def test_too_few_edges_skip_the_complement(self, monkeypatch):
        def no_complement(g):
            raise AssertionError("complement built")

        monkeypatch.setattr(chain_module, "complement", no_complement)
        # K3 + K3 is the sparsest co-chain graph on 6 vertices; one edge less is refused
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
        with pytest.raises(NotChainGraphError, match="^too few edges for a co-chain graph$"):
            grundy_cochain(g)

    def test_universal_vertex_does_not_apply(self):
        # the complement of K5 has five isolated vertices
        with pytest.raises(NotChainGraphError) as info:
            grundy_cochain(complete_graph(5))
        assert str(info.value) == "universal vertex 0 (co-chain recognition requires none)"

    def test_verification_failure(self, monkeypatch):
        monkeypatch.setattr(chain_module, "quick_verify", lambda g, order: (False, False))
        with pytest.raises(VerificationError) as info:
            grundy_cochain(complement(p4_chain()))
        assert str(info.value) == "co-chain sequence claimed length 3 but re-verification disagrees"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_exact_oracle(self, seed):
        profile = random_chain_profile(14, seed)
        g = complement(chain_from_profile(profile))
        gamma, seq = grundy_cochain(g)
        assert gamma == grundy_domination_exact(g).best_length
        assert is_dominating_sequence(g, seq.order)
        assert len(seq) == gamma


def _digest_graphs(rng: XorShift64Star):
    """2,000 seeded graphs: chain profiles, most renamed, with and without
    shared rows, chain graphs with one edge dropped or added, and G(n, p) with
    n <= 12, half of them cut down to a random bipartite subgraph; half of
    the last two families have their equal rows merged."""
    for seed in range(700):
        g = chain_from_profile(random_chain_profile(18, seed))
        if seed % 7:
            g = shuffled(g, rng)
            if seed % 2:
                g = merge_equal_rows(g)
        yield g
    for seed in range(600):
        profile = random_chain_profile(14, seed)
        g = chain_from_profile(profile)
        edges = list(g.edges())
        if seed % 3 == 0:
            del edges[rng.next_below(len(edges))]
        else:
            # a non-edge across the sides half the time, else within a side
            n1 = sum(profile.sizes_x)
            present = set(edges)
            missing = [
                (u, v)
                for u, v in itertools.combinations(range(g.n), 2)
                if (u, v) not in present and ((u < n1 <= v) == (seed % 3 == 1))
            ]
            if missing:
                edges.append(missing[rng.next_below(len(missing))])
        g = shuffled(Graph.from_edges(g.n, edges), rng)
        yield merge_equal_rows(g) if seed % 2 else g
    for seed in range(700):
        g = random_graph(1 + seed % 12, rng.next_float(), seed)
        if seed % 2:
            # keep only the edges across a random 2-colouring
            side = [rng.next_bit() for _ in range(g.n)]
            g = Graph.from_edges(g.n, [(u, v) for u, v in g.edges() if side[u] != side[v]])
        yield merge_equal_rows(g) if seed % 4 > 1 else g


def _digest_orders(g: Graph, rng: XorShift64Star, witness):
    """Orders with twins played back to back, repeats and out-of-range
    entries: the witness and its variants, a permutation prefix, a
    twin-grouped prefix and an arbitrary list over -1..n."""
    n = g.n
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    grouped = sorted(perm, key=lambda v: tuple(g.adjacency[v]))
    orders = [perm[: rng.next_below(n + 1)], grouped[: rng.next_below(n + 1)]]
    if witness is not None:
        orders.append(list(witness))
    for base in list(orders):
        order = list(base)
        for _ in range(1 + rng.next_below(2)):
            extra = (-1, n, *order)[rng.next_below(len(order) + 2)]
            order.insert(rng.next_below(len(order) + 1), extra)
        orders.append(order)
    orders.append([rng.next_below(n + 2) - 1 for _ in range(rng.next_below(n + 4))])
    return orders


def _outcome(call):
    try:
        return call()
    except GrundyError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def test_chain_layer_digest():
    # pins recognition (parts, or error class, message and witness), the
    # grundy_chain order, and every checker's footprints or error class and
    # position over orders that play twins back to back
    rng = XorShift64Star(2024)
    digest = hashlib.sha256()
    for g in _digest_graphs(rng):
        try:
            cs = recognize_chain(g)
        except GrundyError as exc:
            recognized = (type(exc).__name__, str(exc), getattr(exc, "witness", None))
            witness = None
        else:
            witness = grundy_chain(cs).order
            recognized = (cs.x_parts, cs.y_parts, witness)
        digest.update(repr(recognized).encode())
        for order in _digest_orders(g, rng, witness):
            outcomes = (
                _outcome(lambda: check_closed_neighborhood_sequence(g, order).footprints),
                _outcome(lambda: is_dominating_sequence(g, order)),
                _outcome(lambda: quick_verify(g, order)),
            )
            digest.update(repr((order, outcomes)).encode())
    assert digest.hexdigest() == "551b4cd5d3b3b2756b76332045d3412a34e15b5ff9a7140bd48a5afb97e17478"

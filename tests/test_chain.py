import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import grundy.chain as chain_module
from grundy import (
    Graph,
    bipartition,
    IsolatedVertexError,
    NotChainGraphError,
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
from grundy.generators import ChainProfile, chain_from_profile, random_chain_profile
from grundy.sweeps import _observation_identities_hold, exhaustive_profiles

from .conftest import (
    brute_alpha,
    chain_reference,
    complete_bipartite,
    cycle_graph,
    path_graph,
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

    def test_isolated_vertex_is_precondition_error(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            recognize_chain(g)

    def test_nested_order(self):
        cs = recognize_chain(p4_chain())
        g = cs.graph
        rows = [set(g.neighbors(v)) for v in cs.x_order]
        for a, b in zip(rows, rows[1:]):
            assert a <= b
        rows = [set(g.neighbors(v)) for v in cs.y_order]
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
        if any(g.degree(v) == 0 for v in range(g.n)):
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
        nested = [set(g.neighbors(v)) for v in cs.x_order]
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
        assert (set(cs.x_order), set(cs.y_order)) == sides
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
            # P5: bipartite, but the rest of the split keeps the edge 3-4
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], "incomparable neighborhoods: vertices 0 and 4"),
            # K3: the scan of the rest passes; the degree sum misses the edge 1-2
            (3, [(0, 1), (1, 2), (0, 2)], "not bipartite"),
            (5, [(i, (i + 1) % 5) for i in range(5)], "not bipartite"),
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
        assert 0 in cs.x_order

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

        This exercises the two |X_k| = 1 boundary branches directly: they
        are unreachable through grundy_chain's smallest-index tie break,
        because |X_k| = 1 forces sum[k] == sum[k-1].
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_exact_oracle(self, seed):
        profile = random_chain_profile(14, seed)
        g = complement(chain_from_profile(profile))
        gamma, seq = grundy_cochain(g)
        assert gamma == grundy_domination_exact(g).best_length
        assert is_dominating_sequence(g, seq.order)
        assert len(seq) == gamma

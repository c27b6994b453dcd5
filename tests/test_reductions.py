import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundy import (
    Graph,
    Hypergraph,
    InputError,
    IsolatedVertexError,
    SizeCapError,
    bipartition,
    complement,
    format_roles,
    graph_to_cobipartite,
    grundy_cover_exact,
    grundy_domination_exact,
    hypergraph_to_bipartite,
)
from grundy import reductions
from grundy.generators import random_graph, random_hypergraph

from .conftest import path_graph, sample_hypergraph


class TestBipartiteGadget:
    def test_sample_counts(self):
        rmap = hypergraph_to_bipartite(sample_hypergraph())
        assert rmap.target.n == 18
        assert rmap.target.edge_count == 54  # 16 + 25 + 13

    def test_two_edge_instance(self):
        h = Hypergraph(2, [(0, 1), (0, 1)])
        rmap = hypergraph_to_bipartite(h)
        assert rmap.target.n == 8
        assert rmap.target.edge_count == 12  # 4 + 4 + 4

    def test_block_layout(self):
        rmap = hypergraph_to_bipartite(sample_hypergraph())
        assert rmap.block("A") == list(range(4))
        assert rmap.block("X") == list(range(4, 8))
        assert rmap.block("E") == list(range(8, 13))
        assert rmap.block("B") == list(range(13, 18))

    def test_documented_bipartition(self):
        rmap = hypergraph_to_bipartite(sample_hypergraph())
        sides = bipartition(rmap.target)
        assert sides is not None
        a_side = frozenset(rmap.block("A") + rmap.block("E"))
        assert a_side in (sides.side_x, sides.side_y)

    def test_preconditions(self):
        with pytest.raises(InputError):
            hypergraph_to_bipartite(Hypergraph(1, [(0,)]))
        with pytest.raises(InputError):
            hypergraph_to_bipartite(Hypergraph(3, [(0, 1, 2)]))
        with pytest.raises(IsolatedVertexError):
            hypergraph_to_bipartite(Hypergraph(3, [(0,), (0, 1)]))

    def test_roles_total_and_injective(self):
        rmap = hypergraph_to_bipartite(sample_hypergraph())
        assert len(rmap.roles) == rmap.target.n
        assert len(set(rmap.roles)) == rmap.target.n

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_equivalence_on_random_instances(self, n, m, seed):
        h = random_hypergraph(n, m, seed)
        rho = grundy_cover_exact(h).best_length
        rmap = hypergraph_to_bipartite(h)
        sides = bipartition(rmap.target)
        assert sides is not None
        assert frozenset(rmap.block("A") + rmap.block("E")) in (sides.side_x, sides.side_y)
        gamma = grundy_domination_exact(rmap.target).best_length
        assert gamma == n + m + rho


class TestCobipartiteGadget:
    def test_p3_counts(self):
        rmap = graph_to_cobipartite(path_graph(3))
        assert rmap.target.n == 6
        assert rmap.target.edge_count == 13  # 3 + 3 clique edges + 7 cross

    def test_k1(self):
        rmap = graph_to_cobipartite(Graph.from_edges(1, []))
        assert rmap.target.n == 2
        assert rmap.target.edge_count == 1

    def test_complement_is_bipartite(self):
        for seed in range(5):
            g = random_graph(5, 0.5, seed)
            rmap = graph_to_cobipartite(g)
            assert bipartition(complement(rmap.target)) is not None

    def test_p3_gamma_matches_source(self):
        src = path_graph(3)
        gamma_src = grundy_domination_exact(src).best_length
        gamma_gadget = grundy_domination_exact(graph_to_cobipartite(src).target).best_length
        assert gamma_src == gamma_gadget == 2

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_equivalence_on_random_instances(self, n, p, seed):
        g = random_graph(n, p, seed)
        rmap = graph_to_cobipartite(g)
        assert bipartition(complement(rmap.target)) is not None
        gamma_src = grundy_domination_exact(g).best_length
        gamma_gadget = grundy_domination_exact(rmap.target).best_length
        assert gamma_src == gamma_gadget


class TestGadgetCap:
    @pytest.mark.parametrize("seed", range(5))
    def test_cap_is_inclusive(self, monkeypatch, seed):
        h = random_hypergraph(4, 3, seed)
        g = random_graph(6, 0.4, seed)
        gadgets = ((hypergraph_to_bipartite, h, "bipartite"), (graph_to_cobipartite, g, "co-bipartite"))
        for build, source, kind in gadgets:
            edges = build(source).target.edge_count
            monkeypatch.setattr(reductions, "MAX_GADGET_EDGES", edges)
            assert build(source).target.edge_count == edges
            monkeypatch.setattr(reductions, "MAX_GADGET_EDGES", edges - 1)
            with pytest.raises(SizeCapError, match=rf"^{edges} edges \({kind} gadget\) exceeds"):
                build(source)
            monkeypatch.undo()

    @pytest.mark.usefixtures("memory_limit")
    def test_large_sources_are_refused_before_building(self):
        with pytest.raises(SizeCapError, match=r"^9000000 edges \(co-bipartite gadget\)"):
            graph_to_cobipartite(Graph.from_edges(3000, []))
        wide = Hypergraph(1100, [range(1100), range(1100)])
        with pytest.raises(SizeCapError, match=r"^1212204 edges \(bipartite gadget\)"):
            hypergraph_to_bipartite(wide)


class TestRolesFormat:
    def test_one_line_per_vertex(self):
        rmap = graph_to_cobipartite(path_graph(3))
        lines = format_roles(rmap).strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "0 V1:0"
        assert lines[3] == "3 V2:0"

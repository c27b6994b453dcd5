import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundy import (
    Graph,
    InputError,
    FormatError,
    SizeCapError,
    bipartition,
    closed_neighborhood,
    complement,
    format_graph,
    parse_graph,
)

from .conftest import complete_graph, cycle_graph, path_graph


def graphs(max_n=8):
    """Strategy: random simple graphs as (n, edge subset)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return Graph.from_edges(n, edges)

    return build()


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph.from_edges(4, [(2, 0), (3, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        assert all(0 in g.adjacency[v] for v in (1, 2, 3))
        assert g.edge_count == 3


class TestClosedNeighborhood:
    def test_path_midpoint(self):
        g = path_graph(3)
        assert closed_neighborhood(g, 1) == {0, 1, 2}

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert closed_neighborhood(g, 2) == {2}

    def test_complete_graph(self):
        g = complete_graph(4)
        for v in range(4):
            assert closed_neighborhood(g, v) == {0, 1, 2, 3}

    def test_out_of_range(self):
        with pytest.raises(InputError):
            closed_neighborhood(path_graph(3), 3)


class TestBipartition:
    def test_even_cycle(self):
        sides = bipartition(cycle_graph(4))
        assert sides is not None
        assert {len(sides.side_x), len(sides.side_y)} == {2}

    def test_odd_cycle(self):
        assert bipartition(cycle_graph(5)) is None

    def test_edgeless_goes_to_side_x(self):
        sides = bipartition(Graph.from_edges(3, []))
        assert sides.side_x == {0, 1, 2}
        assert sides.side_y == frozenset()

    @settings(max_examples=60)
    @given(graphs())
    def test_two_colors_every_edge(self, g):
        sides = bipartition(g)
        if sides is None:
            return
        for u, v in g.edges():
            assert (u in sides.side_x) != (v in sides.side_x)


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete_graph(3)).edge_count == 0

    def test_edgeless_to_complete(self):
        g = complement(Graph.from_edges(4, []))
        assert g.edge_count == 6

    def test_path3(self):
        g = complement(path_graph(3))
        assert list(g.edges()) == [(0, 2)]

    @settings(max_examples=60)
    @given(graphs())
    def test_involution_and_edge_counts(self, g):
        comp = complement(g)
        assert complement(comp) == g
        assert g.edge_count + comp.edge_count == g.n * (g.n - 1) // 2


class TestTextFormat:
    def test_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a path\n\n3 2\n0 1\n# middle\n1 2\n"
        assert parse_graph(text) == path_graph(3)

    def test_self_loop_is_parse_error(self):
        with pytest.raises(FormatError):
            parse_graph("2 1\n0 0\n")

    def test_duplicate_is_parse_error(self):
        with pytest.raises(FormatError):
            parse_graph("2 2\n0 1\n1 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_graph("3 2\n0 1\n")

    def test_garbage_header(self):
        with pytest.raises(FormatError):
            parse_graph("three 2\n")

    @pytest.mark.parametrize("text", ["-1 0\n", "2 -1\n"])
    def test_negative_counts(self, text):
        with pytest.raises(FormatError, match="negative counts"):
            parse_graph(text)

    def test_comment_must_start_the_line(self):
        with pytest.raises(FormatError, match="expected edge"):
            parse_graph("2 1\n0 1 # note\n")

    @pytest.mark.usefixtures("memory_limit")
    def test_header_vertex_cap(self):
        # the cap is checked before any row is allocated
        with pytest.raises(SizeCapError, match="exceeds the cap of 4194304"):
            parse_graph(f"{(1 << 22) + 1} 0\n")
        with pytest.raises(SizeCapError):
            parse_graph("1000000000000 1\n0 1\n")

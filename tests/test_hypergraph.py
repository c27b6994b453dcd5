import pytest

from grundy import (
    FormatError,
    Hypergraph,
    InputError,
    SizeCapError,
    format_hypergraph,
    is_edge_cover,
    is_legal_edge_sequence,
    is_legal_transversal_sequence,
    parse_hypergraph,
)


class TestConstruction:
    def test_rejects_empty_edge(self):
        with pytest.raises(InputError):
            Hypergraph(2, [(0,), ()])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Hypergraph(2, [(0, 2)])

    def test_rejects_duplicate_member(self):
        with pytest.raises(InputError):
            Hypergraph(2, [(0, 0)])

    def test_edge_order_preserved(self):
        h = Hypergraph(3, [(2,), (0, 1)])
        assert h.edges == ((2,), (0, 1))

    def test_isolated_vertices(self):
        h = Hypergraph(4, [(0, 2)])
        assert h.isolated_vertices() == [1, 3]


class TestEdgeCover:
    def test_both_edges_cover(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert is_edge_cover(h, [0, 1])

    def test_missing_vertex(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert not is_edge_cover(h, [0])

    def test_sample_pair_covers(self, sample_h):
        assert is_edge_cover(sample_h, [0, 1])

    def test_bad_index(self, sample_h):
        with pytest.raises(InputError):
            is_edge_cover(sample_h, [5])


class TestLegalEdgeSequence:
    def test_two_contributing_edges(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert is_legal_edge_sequence(h, [0, 1])

    def test_duplicate_content_blocks(self):
        h = Hypergraph(2, [(0, 1), (0, 1)])
        assert not is_legal_edge_sequence(h, [0, 1])

    def test_sample_three_step(self, sample_h):
        # (0,1) then (1,2) adds 2, then (0,1,3) adds 3
        assert is_legal_edge_sequence(sample_h, [2, 1, 0])

    def test_repeated_index_is_error(self, sample_h):
        with pytest.raises(InputError):
            is_legal_edge_sequence(sample_h, [0, 0])

    def test_prefixes_of_legal_are_legal(self, sample_h):
        seq = [2, 1, 0]
        for cut in range(len(seq) + 1):
            assert is_legal_edge_sequence(sample_h, seq[:cut])


class TestLegalTransversal:
    def test_witnessed_pair(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert is_legal_transversal_sequence(h, [0, 2])

    def test_no_avoiding_witness(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert not is_legal_transversal_sequence(h, [1, 0])

    def test_singleton(self):
        h = Hypergraph(1, [(0,)])
        assert is_legal_transversal_sequence(h, [0])

    def test_repeat_fails_quietly(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        assert not is_legal_transversal_sequence(h, [0, 0])

    def test_bad_vertex(self):
        h = Hypergraph(2, [(0, 1)])
        with pytest.raises(InputError):
            is_legal_transversal_sequence(h, [2])


class TestLengthBounds:
    def _all_legal_edge_sequences(self, h):
        members = [set(e) for e in h.edges]

        def extend(prefix, covered):
            yield prefix
            for j in range(h.m):
                if j not in prefix and members[j] - covered:
                    yield from extend(prefix + [j], covered | members[j])

        yield from extend([], set())

    def test_legal_edge_sequences_bounded_by_n(self, sample_h):
        for seq in self._all_legal_edge_sequences(sample_h):
            assert is_legal_edge_sequence(sample_h, seq)
            assert len(seq) <= sample_h.n

    def test_legal_transversals_bounded_by_m(self):
        h = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])

        def extend(prefix, alive):
            assert len(prefix) <= h.m
            assert is_legal_transversal_sequence(h, prefix)
            for v in range(h.n):
                mask = h.vertex_masks[v] & alive
                if mask:
                    extend(prefix + [v], alive & ~h.vertex_masks[v])

        extend([], (1 << h.m) - 1)


class TestTextFormat:
    def test_round_trip(self, sample_h):
        assert parse_hypergraph(format_hypergraph(sample_h)) == sample_h

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_hypergraph("3 2\n0 1\n")

    def test_empty_edge_line_rejected(self):
        # a blank line is skipped, so the edge count no longer matches
        with pytest.raises(FormatError):
            parse_hypergraph("2 2\n0\n\n")

    @pytest.mark.parametrize("text", ["-1 0\n", "2 -1\n", "-3 1\n0\n"])
    def test_negative_counts(self, text):
        with pytest.raises(FormatError, match="negative counts"):
            parse_hypergraph(text)

    def test_comment_must_start_the_line(self):
        with pytest.raises(FormatError, match="non-integer edge line"):
            parse_hypergraph("2 1\n0 1 # note\n")

    @pytest.mark.usefixtures("memory_limit")
    def test_header_vertex_cap(self):
        # the cap is checked before the vertex masks are allocated
        with pytest.raises(SizeCapError, match="exceeds the cap of 4194304"):
            parse_hypergraph("1000000000000 1\n0\n")

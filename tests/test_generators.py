import pytest

from grundy import (
    ChainProfile,
    InputError,
    XorShift64Star,
    chain_from_profile,
    parse_profile,
    random_chain_profile,
    random_graph,
    random_hypergraph,
    recognize_chain,
)
from grundy.reductions import hypergraph_to_bipartite

from .conftest import complete_bipartite


class TestXorShift:
    def test_update_rule(self):
        # one step of the documented rule, computed by hand from seed 1:
        # 1 -> after shifts 0x2000402001 -> times 0x2545F4914F6CDD1D mod 2^64
        rng = XorShift64Star(1)
        state = 1
        state ^= state >> 12
        state = (state ^ (state << 25)) & (2**64 - 1)
        state ^= state >> 27
        expected = (state * 0x2545F4914F6CDD1D) & (2**64 - 1)
        assert rng.next_u64() == expected

    def test_zero_seed_replaced(self):
        assert XorShift64Star(0).state != 0

    def test_streams_deterministic(self):
        a = [XorShift64Star(42).next_u64() for _ in range(1)]
        b = [XorShift64Star(42).next_u64() for _ in range(1)]
        assert a == b


class TestChainProfile:
    def test_rejects_zero_part(self):
        with pytest.raises(InputError):
            ChainProfile((1, 0), (1, 1))

    def test_rejects_mismatched_k(self):
        with pytest.raises(InputError):
            ChainProfile((1,), (1, 1))

    def test_parse_profile(self):
        assert parse_profile("1,2,1x2,1,3") == ((1, 2, 1), (2, 1, 3))
        assert parse_profile("*,1x1,*") == ((None, 1), (1, None))

    @pytest.mark.parametrize("spec", ["nonsense", "1,2x1", "0x1", "*,-1x1,1", "1x", "1x1x1", "1.5x1"])
    def test_parse_profile_rejects(self, spec):
        with pytest.raises(InputError):
            parse_profile(spec)

    def test_p4_profile(self):
        g = chain_from_profile(ChainProfile((1, 1), (1, 1)))
        assert g.n == 4
        assert sorted(g.edges()) == [(0, 2), (1, 2), (1, 3)]

    def test_single_class_is_complete_bipartite(self):
        g = chain_from_profile(ChainProfile((3,), (2,)))
        assert g == complete_bipartite(3, 2)

    @pytest.mark.parametrize(
        "sizes_x,sizes_y",
        [((1, 2), (2, 1)), ((3, 1, 2), (1, 2, 1)), ((2, 2, 2, 2), (1, 1, 1, 1))],
    )
    def test_recognition_round_trip(self, sizes_x, sizes_y):
        profile = ChainProfile(sizes_x, sizes_y)
        cs = recognize_chain(chain_from_profile(profile))
        recovered = (
            tuple(len(p) for p in cs.x_parts),
            tuple(len(p) for p in cs.y_parts),
        )
        assert recovered in ((sizes_x, sizes_y), (sizes_y, sizes_x))


class TestRandomGraph:
    def test_zero_probability(self):
        assert random_graph(5, 0.0, 3).edge_count == 0

    def test_full_probability(self):
        assert random_graph(5, 1.0, 3).edge_count == 10

    def test_deterministic(self):
        assert random_graph(8, 0.4, 42) == random_graph(8, 0.4, 42)

    def test_probability_range_checked(self):
        with pytest.raises(InputError):
            random_graph(5, 1.5, 3)


class TestRandomHypergraph:
    def test_covers_every_vertex(self):
        for seed in range(20):
            h = random_hypergraph(5, 3, seed)
            assert h.isolated_vertices() == []
            assert all(h.edges)

    def test_deterministic(self):
        assert random_hypergraph(4, 5, 7) == random_hypergraph(4, 5, 7)

    def test_valid_gadget_input(self):
        for seed in range(10):
            hypergraph_to_bipartite(random_hypergraph(3, 2, seed))

    def test_minimum_sizes(self):
        with pytest.raises(InputError):
            random_hypergraph(1, 2, 0)


class TestRandomProfile:
    def test_respects_budget_and_determinism(self):
        for seed in range(50):
            p = random_chain_profile(18, seed)
            assert p.total_vertices <= 18
            assert p == random_chain_profile(18, seed)

    def test_needs_a_vertex_per_side(self):
        with pytest.raises(InputError, match="at least one vertex per side"):
            random_chain_profile(1, 0)

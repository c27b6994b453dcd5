import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundy import (
    DuplicateVertexError,
    IllegalStepError,
    InputError,
    VertexSequence,
    check_closed_neighborhood_sequence,
    check_subset_ordering,
    grundy_chain,
    is_dominating_sequence,
    parse_sequence,
    recognize_chain,
)
from grundy.bench import bench_profile
from grundy.generators import ChainProfile, chain_from_profile, random_chain_profile, random_graph
from grundy.sequences import quick_verify

from .conftest import (
    all_legal_sequences,
    complete_graph,
    merge_equal_rows,
    path_graph,
    star_graph,
    walk_oracle,
)


class TestChecker:
    def test_path3_both_ends(self):
        seq = check_closed_neighborhood_sequence(path_graph(3), [0, 2])
        assert seq.footprints == ((0, 1), (2,))

    def test_complete_second_step_illegal(self):
        with pytest.raises(IllegalStepError) as info:
            check_closed_neighborhood_sequence(complete_graph(3), [0, 1])
        assert info.value.position == 1
        assert info.value.vertex == 1

    def test_single_vertex_always_legal(self):
        g = path_graph(4)
        for v in range(4):
            seq = check_closed_neighborhood_sequence(g, [v])
            assert set(seq.footprints[0]) == set(g.neighbors(v)) | {v}

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexError):
            check_closed_neighborhood_sequence(path_graph(4), [0, 0])

    def test_out_of_range(self):
        with pytest.raises(InputError):
            check_closed_neighborhood_sequence(path_graph(3), [7])

    @pytest.mark.parametrize(
        "order,error,position",
        [
            ([0, 0, 9], DuplicateVertexError, 1),
            ([0, 9, 0], InputError, 1),
            ([-1, 0, 0], InputError, 0),
            ([1, 0, 1], IllegalStepError, 1),
        ],
    )
    def test_first_failure_in_order_wins(self, order, error, position):
        with pytest.raises(error) as info:
            check_closed_neighborhood_sequence(path_graph(3), order)
        assert type(info.value) is error
        if error is InputError:
            assert str(info.value) == f"vertex {order[position]} out of range for n=3"
        else:
            assert info.value.position == position


class TestVertexSequence:
    def test_covered_needs_footprints(self):
        with pytest.raises(ValueError, match="footprints not materialized"):
            VertexSequence((0,)).covered()


class TestDominating:
    def test_path3_two_ends(self):
        assert is_dominating_sequence(path_graph(3), [0, 2])

    def test_path3_center_alone(self):
        assert is_dominating_sequence(path_graph(3), [1])

    def test_path4_one_end_is_not(self):
        assert not is_dominating_sequence(path_graph(4), [0])

    def test_illegal_raises_rather_than_false(self):
        with pytest.raises(IllegalStepError):
            is_dominating_sequence(complete_graph(3), [0, 1])


class TestSubsetOrdering:
    def test_path3_incomparable_pair(self):
        assert check_subset_ordering(path_graph(3), [0, 2])

    def test_star_leaf_before_center(self):
        g = star_graph(2)
        assert check_subset_ordering(g, [1, 0])

    def test_center_before_leaf_violates(self):
        # not reachable from a legal sequence; the diagnostic still answers
        g = star_graph(2)
        assert not check_subset_ordering(g, [0, 1])


def seeded_graphs(max_n=10):
    return st.builds(
        random_graph,
        st.integers(min_value=1, max_value=max_n),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31),
    )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(seeded_graphs())
    def test_footprints_partition_dominated(self, g):
        for order in all_legal_sequences(g, 4):
            seq = check_closed_neighborhood_sequence(g, order)
            total = seq.covered()
            assert total <= g.n
            flat = [v for fp in seq.footprints for v in fp]
            assert len(flat) == len(set(flat))
            assert (total == g.n) == is_dominating_sequence(g, order)

    @settings(max_examples=40, deadline=None)
    @given(seeded_graphs())
    def test_every_legal_sequence_respects_subset_order(self, g):
        for order in all_legal_sequences(g, 4):
            assert check_subset_ordering(g, order)

    @settings(max_examples=40, deadline=None)
    @given(seeded_graphs())
    def test_quick_verify_agrees_with_checker(self, g):
        for order in all_legal_sequences(g, 3):
            legal, dominating = quick_verify(g, order)
            assert legal
            assert dominating == is_dominating_sequence(g, order)


def shared_row_graphs(max_n=8):
    """Graphs whose twins share one row object: chain profiles, and seeded
    graphs with equal rows merged."""
    return st.one_of(
        st.integers(min_value=0, max_value=10**6).map(
            lambda seed: chain_from_profile(random_chain_profile(max_n, seed))
        ),
        seeded_graphs(max_n).map(merge_equal_rows),
    )


@st.composite
def graphs_with_orders(draw):
    """A graph and a vertex order: a prefix of a permutation, or of one with
    twins back to back, with up to two insertions of -1, n or a repeat, or
    an arbitrary list over -1..n."""
    g = draw(st.one_of(seeded_graphs(max_n=8), shared_row_graphs(max_n=8)))
    n = g.n
    if draw(st.booleans()):
        return g, draw(st.lists(st.integers(min_value=-1, max_value=n), max_size=n + 3))
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        order.sort(key=lambda v: tuple(g.adjacency[v]))
    order = order[: draw(st.integers(min_value=0, max_value=n))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        extra = draw(st.sampled_from([-1, n, *order]))
        order.insert(draw(st.integers(min_value=0, max_value=len(order))), extra)
    return g, order


def raised(call):
    try:
        call()
    except (InputError, IllegalStepError) as exc:
        return exc
    return None


def assert_matches_walk_oracle(g, order):
    kind, where = walk_oracle(g, order)
    if kind == "ok":
        seq = check_closed_neighborhood_sequence(g, order)
        assert seq.footprints == where
        dominating = seq.covered() == g.n
        assert is_dominating_sequence(g, order) == dominating
        assert quick_verify(g, order) == (True, dominating)
        return
    if kind == "IllegalStepError":
        assert quick_verify(g, order) == (False, False)
        calls = (check_closed_neighborhood_sequence, is_dominating_sequence)
    else:
        calls = (check_closed_neighborhood_sequence, is_dominating_sequence, quick_verify)
    for entry in calls:
        exc = raised(lambda: entry(g, order))
        assert type(exc).__name__ == kind
        if kind == "InputError":
            assert str(exc) == f"vertex {order[where]} out of range for n={g.n}"
        else:
            assert (exc.position, exc.vertex) == (where, order[where])


# X_1 = {0}, X_2 = {1}, Y_1 = {2, 3}, Y_2 = {4}; the twins 2 and 3 share
# the row (0, 1), so the walk expands it once for both
TWINS = chain_from_profile(ChainProfile((1, 1), (2, 1)))


class TestWalkAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_orders())
    def test_entry_points_match_set_walk(self, case):
        assert_matches_walk_oracle(*case)

    @pytest.mark.parametrize(
        "order,kind,where",
        [
            # an immediate repeat: the second 2 skips the row and is dominated
            ([2, 2], "DuplicateVertexError", 1),
            # 0 dominates the class {2, 3}; after 2, its twin 3 adds nothing
            ([0, 2, 3], "IllegalStepError", 2),
            # a whole twin class played back to back is legal
            ([2, 3, 4], "ok", ((0, 1, 2), (3,), (4,))),
            # an out-of-range entry right after a twin run
            ([2, 3, 5], "InputError", 2),
            ([0, 2, 3, 5], "IllegalStepError", 2),
        ],
    )
    def test_twins_back_to_back(self, order, kind, where):
        assert TWINS.adjacency[2] is TWINS.adjacency[3]
        assert walk_oracle(TWINS, order) == (kind, where)
        assert_matches_walk_oracle(TWINS, order)


class TestWalkMemory:
    def test_quick_verify_stores_flags(self):
        # one list slot per vertex and no int per step: the walk's own
        # allocations, which tracemalloc sizes the same on every run
        g = chain_from_profile(bench_profile(2**18))
        order = grundy_chain(recognize_chain(g)).order
        tracemalloc.start()
        try:
            assert quick_verify(g, order) == (True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * g.n


class TestRederivation:
    def test_moving_last_to_front_is_rechecked_from_scratch(self):
        # legal on a star: leaf then center; rotated, the leaf adds nothing
        g = star_graph(2)
        assert check_closed_neighborhood_sequence(g, [1, 0]).covered() == 3
        with pytest.raises(IllegalStepError) as info:
            check_closed_neighborhood_sequence(g, [0, 1])
        assert info.value.position == 1

    def test_rotation_that_stays_legal(self):
        g = path_graph(3)
        assert is_dominating_sequence(g, [0, 2])
        assert is_dominating_sequence(g, [2, 0])


class TestParse:
    def test_round_trip(self):
        assert parse_sequence("0 2 5\n") == [0, 2, 5]

    def test_comments(self):
        assert parse_sequence("# witness\n1 2\n") == [1, 2]

    def test_two_data_lines_rejected(self):
        with pytest.raises(InputError):
            parse_sequence("1\n2\n")

    def test_comment_must_start_the_line(self):
        assert parse_sequence("  # indented comment\n1 2\n") == [1, 2]
        with pytest.raises(InputError):
            parse_sequence("1 2 # note\n")

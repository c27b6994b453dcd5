import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundy import (
    DuplicateVertexError,
    IllegalStepError,
    InputError,
    check_closed_neighborhood_sequence,
    check_subset_ordering,
    is_dominating_sequence,
    parse_sequence,
)
from grundy.generators import random_graph
from grundy.sequences import quick_verify

from .conftest import all_legal_sequences, complete_graph, path_graph, star_graph, walk_oracle


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


@st.composite
def graphs_with_orders(draw):
    """A graph and a vertex order: a prefix of a permutation with up to two
    insertions of -1, n or a repeat, or an arbitrary list over -1..n."""
    g = draw(seeded_graphs(max_n=8))
    n = g.n
    if draw(st.booleans()):
        return g, draw(st.lists(st.integers(min_value=-1, max_value=n), max_size=n + 3))
    order = draw(st.permutations(range(n)))[: draw(st.integers(min_value=0, max_value=n))]
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


class TestWalkAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_orders())
    def test_entry_points_match_set_walk(self, case):
        g, order = case
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

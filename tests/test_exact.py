import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grundy import (
    BudgetExceededError,
    Graph,
    Hypergraph,
    IsolatedVertexError,
    SizeCapError,
    VerificationError,
    check_subset_ordering,
    grundy_cover_exact,
    grundy_domination_exact,
    grundy_transversal_exact,
    independence_number_exact,
    is_dominating_sequence,
    is_edge_cover,
    is_legal_edge_sequence,
    is_legal_transversal_sequence,
)
from grundy import exact
from grundy.exact import MAX_SEARCH_SIZE, _closed_masks, _longest_sequence, graph_twin_classes
from grundy.generators import (
    ChainProfile,
    XorShift64Star,
    chain_from_profile,
    random_chain_profile,
    random_graph,
    random_hypergraph,
)

from .conftest import (
    brute_alpha,
    brute_gamma,
    brute_rho,
    brute_tau,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    first_longest_dominating,
    first_longest_sequence,
    path_graph,
    shuffled,
)


def past_the_bound(what: str):
    """pytest.raises for a search on one vertex or edge past MAX_SEARCH_SIZE."""
    return pytest.raises(SizeCapError, match=f"^{MAX_SEARCH_SIZE + 1} {what} exceeds the cap of {MAX_SEARCH_SIZE}$")


class TestGrundyDomination:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_complete_graph_is_one(self, n):
        assert grundy_domination_exact(complete_graph(n)).best_length == 1

    def test_k23(self):
        assert grundy_domination_exact(complete_bipartite(2, 3)).best_length == 3

    def test_p4(self):
        # frozen from the set-based enumeration oracle
        assert brute_gamma(path_graph(4)) == 3
        assert grundy_domination_exact(path_graph(4)).best_length == 3

    def test_witness_reverifies(self):
        res = grundy_domination_exact(path_graph(6))
        assert is_dominating_sequence(path_graph(6), res.best_sequence.order)
        assert check_subset_ordering(path_graph(6), res.best_sequence)
        assert len(res.best_sequence) == res.best_length

    def test_size_cap(self):
        with past_the_bound("vertices"):
            grundy_domination_exact(Graph.from_edges(MAX_SEARCH_SIZE + 1, []))

    def test_budget_is_loud(self):
        with pytest.raises(BudgetExceededError):
            grundy_domination_exact(path_graph(12), node_budget=3)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_isolated_vertex_adds_exactly_one(self, n, p, seed):
        g = random_graph(n, p, seed)
        augmented = Graph.from_edges(g.n + 1, list(g.edges()))
        assert (
            grundy_domination_exact(augmented).best_length
            == grundy_domination_exact(g).best_length + 1
        )


def _plain_search(g: Graph) -> tuple[int, tuple[int, ...], int]:
    """The engine over closed neighborhoods with no twin classes: length,
    witness order and nodes explored."""
    length, moves, nodes = _longest_sequence(_closed_masks(g), (1 << g.n) - 1)
    return length, tuple(moves), nodes


def _assert_search_modes_agree(g: Graph) -> None:
    full = grundy_domination_exact(g)
    plain_length, plain_order, _ = _plain_search(g)
    length, order = first_longest_dominating(g)
    assert check_subset_ordering(g, full.best_sequence)
    assert full.best_length == plain_length == length
    assert full.best_sequence.order == plain_order
    assert full.best_sequence.order == order


class TestSearchModes:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_memo_orbit_and_plain_agree(self, n, p, seed):
        _assert_search_modes_agree(random_graph(n, p, seed))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_set_oracle(self, n, p, seed):
        g = random_graph(n, p, seed)
        assert grundy_domination_exact(g).best_length == brute_gamma(g)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_alpha_lower_bound(self, n, p, seed):
        g = random_graph(n, p, seed)
        assert grundy_domination_exact(g).best_length >= independence_number_exact(g)


class TestGrundyCover:
    def test_two_overlapping_edges(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        res = grundy_cover_exact(h)
        assert res.best_length == 2
        assert is_legal_edge_sequence(h, res.best_sequence)
        assert is_edge_cover(h, res.best_sequence)

    def test_duplicated_full_edge(self):
        h = Hypergraph(3, [(0, 1, 2)] * 4)
        assert grundy_cover_exact(h).best_length == 1

    def test_sample_value(self, sample_h):
        # first edge always contributes >= 2 vertices, so 3 is the ceiling
        assert brute_rho(sample_h) == 3
        assert grundy_cover_exact(sample_h).best_length == 3

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError) as info:
            grundy_cover_exact(Hypergraph(3, [(0, 2)]))
        assert info.value.vertex == 1

    def test_edge_cap(self):
        h = Hypergraph(2, [(0, 1)] * (MAX_SEARCH_SIZE + 1))
        with past_the_bound("edges"):
            grundy_cover_exact(h)


class TestGrundyTransversal:
    def test_edge_cap(self):
        h = Hypergraph(2, [(0, 1)] * (MAX_SEARCH_SIZE + 1))
        with past_the_bound("edges"):
            grundy_transversal_exact(h)

    def test_two_overlapping_edges(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        res = grundy_transversal_exact(h)
        assert res.best_length == 2
        assert is_legal_transversal_sequence(h, res.best_sequence)

    def test_single_edge(self):
        assert grundy_transversal_exact(Hypergraph(3, [(0, 1, 2)])).best_length == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_duality_on_random_instances(self, n, m, seed):
        h = random_hypergraph(n, m, seed)
        assert grundy_transversal_exact(h).best_length == grundy_cover_exact(h).best_length


class TestBadWitnessIsRefused:
    """A search that hands back a bad witness fails re-verification, also
    where the checker refuses the witness as malformed."""

    H = Hypergraph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "solve, instance, what",
        [
            (grundy_domination_exact, path_graph(4), "exact sequence"),
            (grundy_cover_exact, H, "edge sequence"),
            (grundy_transversal_exact, H, "transversal sequence"),
        ],
        ids=["domination", "cover", "transversal"],
    )
    @pytest.mark.parametrize(
        "claimed, moves",
        [(2, [0, 0]), (1, [99]), (3, [0])],
        ids=["repeated", "out_of_range", "short"],
    )
    def test_raises_verification_error(self, monkeypatch, solve, instance, what, claimed, moves):
        monkeypatch.setattr(exact, "_longest_sequence", lambda *args, **kwargs: (claimed, moves, 1))
        with pytest.raises(VerificationError) as info:
            solve(instance)
        assert str(info.value) == f"{what} claimed length {claimed} but re-verification disagrees"


class TestAgainstSetOracles:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_cover_and_transversal_match_brute(self, n, m, seed):
        h = random_hypergraph(n, m, seed)
        assert grundy_cover_exact(h).best_length == brute_rho(h)
        assert grundy_transversal_exact(h).best_length == brute_tau(h)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=9),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_independence_matches_brute(self, n, p, seed):
        g = random_graph(n, p, seed)
        assert independence_number_exact(g) == brute_alpha(g)

    def test_independence_size_cap(self):
        with past_the_bound("vertices"):
            independence_number_exact(Graph.from_edges(MAX_SEARCH_SIZE + 1, []))

    def test_independence_budget_is_loud(self, monkeypatch):
        # random_graph(16, 0.2, 1) misses the memo 81 times
        g = random_graph(16, 0.2, 1)
        monkeypatch.setattr(exact, "NODE_BUDGET", 81)
        assert independence_number_exact(g) == 8
        monkeypatch.setattr(exact, "NODE_BUDGET", 80)
        with pytest.raises(BudgetExceededError, match="^node budget 80 exhausted after 81 nodes$"):
            independence_number_exact(g)


def _blow_up(base: Graph, sizes: list[int], closed: list[bool]) -> Graph:
    """Replace vertex i of base by sizes[i] twins: a clique of closed twins
    when closed[i], else an independent set of open twins."""
    ids = []
    for size in sizes:
        start = ids[-1][-1] + 1 if ids else 0
        ids.append(range(start, start + size))
    edges = [
        (u, v) for i, members in enumerate(ids) if closed[i]
        for u in members for v in members if u < v
    ]
    edges += [(u, v) for a, b in base.edges() for u in ids[a] for v in ids[b]]
    return Graph.from_edges(sum(sizes), edges)


@st.composite
def twin_rich_graphs(draw, max_classes=5):
    """A blow-up of a random base graph, its vertices renamed at random."""
    k = draw(st.integers(min_value=1, max_value=max_classes))
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    base = random_graph(k, p, draw(st.integers(0, 10**6)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    closed = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    g = _blow_up(base, sizes, closed)
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestTwinClasses:
    @settings(max_examples=100, deadline=None)
    @given(twin_rich_graphs())
    def test_open_and_closed_classes_are_disjoint(self, g):
        open_groups: dict[frozenset, set[int]] = {}
        closed_groups: dict[frozenset, set[int]] = {}
        for v in range(g.n):
            row = frozenset(g.neighbors(v))
            open_groups.setdefault(row, set()).add(v)
            closed_groups.setdefault(row | {v}, set()).add(v)
        open_members = set().union(*(c for c in open_groups.values() if len(c) > 1))
        closed_members = set().union(*(c for c in closed_groups.values() if len(c) > 1))
        assert not open_members & closed_members
        expected = sorted(
            tuple(sorted(c))
            for groups in (open_groups, closed_groups)
            for c in groups.values()
            if len(c) > 1
        )
        assert graph_twin_classes(g) == expected

    @settings(max_examples=60, deadline=None)
    @given(twin_rich_graphs(max_classes=4))
    def test_memo_orbit_and_plain_agree(self, g):
        # shuffled labels make the classes non-contiguous; a base with no
        # edges gives classes of isolated open twins, which the component
        # split cuts into single vertices
        _assert_search_modes_agree(g)

    @settings(max_examples=100, deadline=None)
    @given(twin_rich_graphs(), st.data())
    def test_exact_on_any_uncovered_set(self, g, data):
        free = data.draw(st.integers(1, (1 << g.n) - 1))
        masks = _closed_masks(g)
        assert (
            _longest_sequence(masks, free, graph_twin_classes(g))[:2]
            == _longest_sequence(masks, free)[:2]
        )


class TestComponentSplit:
    def test_paths_up_to_40(self):
        for n in range(2, 41):
            res = grundy_domination_exact(path_graph(n))
            assert res.best_length == n - 1
            assert res.nodes_explored <= n * n
            assert is_dominating_sequence(path_graph(n), res.best_sequence.order)

    def test_cycles_up_to_40(self):
        for n in range(3, 41):
            res = grundy_domination_exact(cycle_graph(n))
            assert res.best_length == n - 2
            assert res.nodes_explored <= n * n
            assert is_dominating_sequence(cycle_graph(n), res.best_sequence.order)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 6), st.floats(0.0, 1.0), st.integers(0, 10**6)
            ),
            min_size=2,
            max_size=2,
        ),
        st.randoms(use_true_random=False),
    )
    def test_disjoint_union_adds_values(self, specs, rnd):
        g, h = (random_graph(n, p, seed) for n, p, seed in specs)
        perm = list(range(g.n + h.n))
        rnd.shuffle(perm)
        union = disjoint_union([g, h], perm)
        res = grundy_domination_exact(union)
        assert res.best_length == brute_gamma(g) + brute_gamma(h)
        assert is_dominating_sequence(union, res.best_sequence.order)
        assert check_subset_ordering(union, res.best_sequence)
        assert len(res.best_sequence) == res.best_length

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 10**6)
            ),
            min_size=2,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
    )
    def test_disconnected_witness_order_matches_oracle(self, specs, rnd):
        parts = [random_graph(n, p, seed) for n, p, seed in specs]
        perm = list(range(sum(part.n for part in parts)))
        rnd.shuffle(perm)
        g = disjoint_union(parts, perm)
        length, order = first_longest_dominating(g)
        res = grundy_domination_exact(g)
        assert (res.best_length, res.best_sequence.order) == (length, order)
        assert _plain_search(g)[:2] == (length, order)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(2, 4), st.integers(2, 3), st.integers(0, 10**6)
            ),
            min_size=2,
            max_size=2,
        ),
        st.randoms(use_true_random=False),
    )
    def test_hypergraph_unions_match_brute(self, specs, rnd):
        edges = []
        offset = 0
        for n, m, seed in specs:
            part = random_hypergraph(n, m, seed)
            edges += [tuple(v + offset for v in e) for e in part.edges]
            offset += n
        perm = list(range(offset))
        rnd.shuffle(perm)
        rnd.shuffle(edges)
        h = Hypergraph(offset, [[perm[v] for v in e] for e in edges])
        cover = grundy_cover_exact(h)
        assert cover.best_length == brute_rho(h)
        assert first_longest_sequence(h.edges, range(h.n)) == (
            cover.best_length,
            cover.best_sequence,
        )
        transversal = grundy_transversal_exact(h)
        assert transversal.best_length == brute_tau(h)
        incidences = [{j for j, e in enumerate(h.edges) if v in e} for v in range(h.n)]
        assert first_longest_sequence(incidences, range(h.m)) == (
            transversal.best_length,
            transversal.best_sequence,
        )


def _chain(sizes_x, sizes_y, step: int = 1) -> Graph:
    """The chain graph of a profile, vertex v renamed step * v mod n (a
    step prime to n spreads each twin class over non-contiguous labels)."""
    g = chain_from_profile(ChainProfile(sizes_x, sizes_y))
    return Graph.from_edges(g.n, [(step * u % g.n, step * v % g.n) for u, v in g.edges()])


def _cycle_with_isolated() -> Graph:
    """A 6-cycle on 0, 2, 3, 5, 6, 7; vertices 1, 4 and 8 are isolated."""
    ring = [0, 2, 3, 5, 6, 7]
    return Graph.from_edges(9, [(ring[i], ring[(i + 1) % 6]) for i in range(6)])


# instances with duplicate edges where the live-move ceiling cuts the search
COVER_DUPLICATES = Hypergraph(6, [(3,), (0, 4), (1, 4, 5), (3,), (1, 2), (3,)])
TRANSVERSAL_DUPLICATES = Hypergraph(5, [(0, 1, 2), (0, 1, 2, 3), (1,), (0,), (1, 4), (0,)])


class TestPinnedSearch:
    """Exact search outcomes: the value and the witness recorded from the
    engine that tried every move, and the number of states expanded, with
    and without twin classes. The count covers the search, which tries the
    child with the most uncovered bits first and stops once no child's bit
    count can beat the best, and the witness reconstruction, which asks
    value() about the real children and skips those with too few bits."""

    @pytest.mark.parametrize(
        "make, length, order, nodes, plain_nodes",
        [
            pytest.param(lambda: path_graph(16), 15, tuple(range(15)), 15, 15, id="P16"),
            pytest.param(
                lambda: _chain((1, 2, 1), (2, 1, 3)), 7, (1, 0, 2, 4, 7, 8, 3), 14, 18,
                id="chain-121x213",
            ),
            pytest.param(
                lambda: _chain((3, 3), (2, 2)), 6, (3, 0, 1, 2, 4, 5), 14, 19, id="chain-33x22"
            ),
            pytest.param(
                lambda: _chain((2, 1, 2, 1), (1, 3, 1, 2)),
                9, (7, 8, 9, 2, 0, 1, 3, 11, 5), 34, 43,
                id="chain-2121x1312",
            ),
            pytest.param(
                lambda: _chain((2, 1, 2), (2, 1, 3), step=5),
                7, (2, 10, 0, 1, 3, 6, 4), 18, 28,
                id="chain-212x213-shuffled",
            ),
            pytest.param(
                lambda: _blow_up(cycle_graph(6), [2, 1, 3, 2, 1, 3], [True] * 6),
                4, (0, 2, 3, 6), 18, 18,
                id="closed-twin-C6",
            ),
            pytest.param(
                _cycle_with_isolated, 7, (0, 1, 2, 3, 4, 5, 8), 7, 7, id="three-isolated"
            ),
        ],
    )
    def test_graphs(self, make, length, order, nodes, plain_nodes):
        g = make()
        res = grundy_domination_exact(g)
        assert (res.best_length, res.best_sequence.order, res.nodes_explored) == (
            length,
            order,
            nodes,
        )
        assert _plain_search(g) == (length, order, plain_nodes)

    def test_cover_with_duplicate_edges(self):
        res = grundy_cover_exact(COVER_DUPLICATES)
        assert (res.best_length, res.best_sequence, res.nodes_explored) == (4, (2, 0, 1, 4), 5)

    def test_transversal_with_duplicate_edges(self):
        res = grundy_transversal_exact(TRANSVERSAL_DUPLICATES)
        assert (res.best_length, res.best_sequence, res.nodes_explored) == (5, (3, 2, 0, 4, 1), 5)

    def test_random_graph_past_the_cap(self):
        # trying the fewest uncovered bits first finds the same witness
        # after 256,194 states
        res = grundy_domination_exact(random_graph(30, 0.2, 1))
        assert (res.best_length, res.best_sequence.order, res.nodes_explored) == (
            20,
            (11, 1, 4, 8, 14, 15, 19, 22, 29, 9, 26, 6, 2, 12, 0, 23, 3, 5, 10, 16),
            9299,
        )


def _digest_family():
    """2,000 seeded exact calls: G(n, p), shuffled twin blow-ups, shuffled
    chain profiles, and cover and transversal on random hypergraphs."""
    rng = XorShift64Star(2023)
    for seed in range(600):
        yield grundy_domination_exact, random_graph(1 + seed % 16, rng.next_float(), seed)
    for _ in range(400):
        k = 1 + rng.next_below(5)
        base = random_graph(k, rng.next_float(), rng.next_below(10**6))
        sizes = [1 + rng.next_below(3) for _ in range(k)]
        closed = [bool(rng.next_bit()) for _ in range(k)]
        yield grundy_domination_exact, shuffled(_blow_up(base, sizes, closed), rng)
    for seed in range(400):
        profile = random_chain_profile(18, seed)
        yield grundy_domination_exact, shuffled(chain_from_profile(profile), rng)
    for seed in range(300):
        h = random_hypergraph(2 + seed % 9, 2 + rng.next_below(9), seed)
        yield grundy_cover_exact, h
        yield grundy_transversal_exact, h


@pytest.fixture(scope="module")
def digest_results():
    """(value, witness, nodes_explored) of every call of _digest_family(),
    run once for both digest tests."""
    results = []
    for solve, instance in _digest_family():
        res = solve(instance)
        witness = getattr(res.best_sequence, "order", res.best_sequence)
        results.append((res.best_length, witness, res.nodes_explored))
    return results


def test_values_and_witnesses_digest(digest_results):
    # pins (value, witness) of every call, but not nodes_explored, so a
    # change to the search order or its pruning must leave this unchanged
    digest = hashlib.sha256()
    for length, witness, _ in digest_results:
        digest.update(repr((length, witness)).encode())
    assert digest.hexdigest() == "6c07850246559931de99273f645ff6646eea0527368d1abaca0b5741eeb6e722"


def test_nodes_explored_digest(digest_results):
    # pins nodes_explored of every call, so a change that must keep the
    # search order and its pruning (a faster kernel) leaves this unchanged
    digest = hashlib.sha256()
    for _, _, nodes in digest_results:
        digest.update(repr(nodes).encode())
    assert digest.hexdigest() == "81c03e2355221688f65431b46e25101f574eef79c2866f40bb21c11a8986ddcc"

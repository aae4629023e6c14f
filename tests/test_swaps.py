"""Double edge swaps and triangle/loop exchanges, through the generators that
list the edge sets one valid move away."""

from loopygraphs.graph import LoopyGraph
from loopygraphs.oracle import enumerate_loopy_graphs
from loopygraphs.swaps import double_neighbor_edge_sets, triangle_neighbor_edge_sets


def cycle4():
    return LoopyGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def triangle():
    return LoopyGraph(3, [(0, 1), (0, 2), (1, 2)])


def three_loops():
    return LoopyGraph(3, [(0, 0), (1, 1), (2, 2)])


def double_neighbors(g):
    return set(double_neighbor_edge_sets(sorted(g.edges), g.edges))


def triangle_neighbors(g):
    return set(triangle_neighbor_edge_sets(sorted(g.edges), g.edges))


def test_replacements_two_pairings():
    g = LoopyGraph(4, [(0, 1), (2, 3)])
    assert double_neighbors(g) == {frozenset({(0, 2), (1, 3)}), frozenset({(0, 3), (1, 2)})}


def test_replacements_with_loop_coincide():
    g = LoopyGraph(3, [(0, 0), (1, 2)])
    moves = list(double_neighbor_edge_sets(sorted(g.edges), g.edges))
    assert moves == [frozenset({(0, 1), (0, 2)})] * 2


def test_check_double_swap_valid():
    # (0,1),(2,3) re-paired as (0,2),(1,3)
    assert frozenset({(0, 2), (1, 3), (1, 2), (0, 3)}) in double_neighbors(cycle4())


def test_check_double_swap_existing_edge():
    # the other pairing of (0,1),(2,3) adds (0,3),(1,2), which cycle4 holds
    rewired = [es for es in double_neighbors(cycle4()) if not es & {(0, 1), (2, 3)}]
    assert rewired == [frozenset({(0, 2), (1, 3), (1, 2), (0, 3)})]


def test_check_double_swap_noop():
    # one pairing of (0,1),(1,2) gives back the same two edges
    path = LoopyGraph(3, [(0, 1), (1, 2)])
    assert double_neighbors(path) == {frozenset({(0, 2), (1, 1)})}


def test_check_double_swap_two_loops():
    # two loops re-paired either way give the same edge twice
    assert double_neighbors(three_loops()) == set()


def test_loop_edge_swap_destroys_loop_via_both_pairings():
    g = LoopyGraph(3, [(0, 0), (1, 2), (1, 1)])
    moves = list(double_neighbor_edge_sets(sorted(g.edges), g.edges))
    assert moves == [frozenset({(0, 1), (0, 2), (1, 1)})] * 2


def test_adjacent_edge_swap_creates_loop():
    assert frozenset({(1, 1), (0, 2), (2, 3), (0, 3)}) in double_neighbors(cycle4())


def test_triangle_swap_loops_to_triangle():
    assert triangle_neighbors(three_loops()) == {triangle().edges}


def test_triangle_swap_blocked_by_existing_edge():
    g = LoopyGraph(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    assert triangle_neighbors(g) == set()


def test_triangle_swap_triangle_to_loops():
    assert triangle_neighbors(triangle()) == {three_loops().edges}


def test_triangle_swap_blocked_by_existing_loop():
    g = LoopyGraph(3, [(0, 1), (0, 2), (1, 2), (0, 0)])
    assert triangle_neighbors(g) == set()


def test_triangle_swap_rejects_other_shapes():
    path = LoopyGraph(4, [(0, 1), (1, 2), (2, 3)])
    star = LoopyGraph(4, [(0, 1), (0, 2), (0, 3)])
    mixed = LoopyGraph(3, [(0, 0), (1, 1), (1, 2)])
    for g in (path, star, mixed):
        assert triangle_neighbors(g) == set()


def test_cycle4_has_six_double_neighbors():
    nbrs = double_neighbors(cycle4())
    assert len(nbrs) == 6
    rewired = {es for es in nbrs if all(u != v for u, v in es)}
    assert len(nbrs) - len(rewired) == 4  # the other four carry one loop
    # the loop-free neighbors are the other two labeled 4-cycles
    assert rewired == {
        frozenset({(0, 1), (2, 3), (0, 2), (1, 3)}),
        frozenset({(1, 2), (0, 3), (0, 2), (1, 3)}),
    }
    # triangle moves add nothing: no loops and no triangle in a 4-cycle
    assert triangle_neighbors(cycle4()) == set()


def test_triangle_neighbors_only_exchange():
    assert double_neighbors(triangle()) == set()
    assert triangle_neighbors(triangle()) == {three_loops().edges}


def test_neighbors_never_include_source():
    for ds in [(2, 2, 2, 2), (3, 3, 2, 2)]:
        for g in enumerate_loopy_graphs(ds):
            assert g.edges not in double_neighbors(g) | triangle_neighbors(g)


def test_neighborhood_properties_exhaustive():
    """Over whole small spaces: moves preserve degrees and edge counts, change
    loops by the right amount, and are reversible."""
    for ds in [(2, 2, 2, 2), (3, 3, 2, 2), (5, 3, 3, 3)]:
        for g in enumerate_loopy_graphs(ds):
            for es in double_neighbors(g):
                h = LoopyGraph.from_edge_set(g.n, es)
                h.validate()
                assert h.degree_sequence() == g.degree_sequence()
                assert len(h.edges) == len(g.edges)
                assert abs(h.loop_count() - g.loop_count()) <= 1
                assert g.edges in double_neighbors(h)
            for es in triangle_neighbors(g):
                h = LoopyGraph.from_edge_set(g.n, es)
                h.validate()
                assert h.degree_sequence() == g.degree_sequence()
                assert abs(h.loop_count() - g.loop_count()) == 3
                assert g.edges in triangle_neighbors(h)

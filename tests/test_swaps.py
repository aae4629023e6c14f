"""Double edge swaps and triangle/loop exchanges, through the generators that
list every valid move of a graph as the code of the graph it leads to."""

from collections import Counter
from itertools import combinations

from loopygraphs.graph import LoopyGraph
from loopygraphs.oracle import enumerate_loopy_graphs
from loopygraphs.swaps import double_neighbor_edge_sets, triangle_neighbor_edge_sets


def cycle4():
    return LoopyGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def triangle():
    return LoopyGraph(3, [(0, 1), (0, 2), (1, 2)])


def three_loops():
    return LoopyGraph(3, [(0, 0), (1, 1), (2, 2)])


def pair_bits(n):
    """A pair-bit table for ``n`` vertices: one bit per pair {u, v}."""
    table = [[0] * n for _ in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    for k, (u, v) in enumerate(pairs):
        table[u][v] = table[v][u] = 1 << k
    return table


def decode(code, table):
    n = len(table)
    return frozenset((u, v) for u in range(n) for v in range(u, n) if code & table[u][v])


def coded_moves(gen, g):
    """The graph after each move ``gen`` yields from ``g``, as an edge set."""
    table = pair_bits(g.n)
    code = sum(table[u][v] for u, v in g.edges)
    return [decode(c, table) for c in gen(sorted(g.edges), code, table)]


def double_moves(g):
    return coded_moves(double_neighbor_edge_sets, g)


def double_neighbors(g):
    return set(double_moves(g))


def triangle_moves(g):
    return coded_moves(triangle_neighbor_edge_sets, g)


def triangle_neighbors(g):
    return set(triangle_moves(g))


def test_replacements_two_pairings():
    g = LoopyGraph(4, [(0, 1), (2, 3)])
    assert double_neighbors(g) == {frozenset({(0, 2), (1, 3)}), frozenset({(0, 3), (1, 2)})}


def test_replacements_with_loop_coincide():
    g = LoopyGraph(3, [(0, 0), (1, 2)])
    moves = double_moves(g)
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
    moves = double_moves(g)
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


def test_moves_remove_present_and_add_absent_edges():
    """Each yielded code is a move applied as bit flips: exactly two (double)
    or three (triangle) edges of the graph cleared, as many absent pairs set,
    and no bit outside the pair table."""
    for ds in [(2, 2, 2, 2), (3, 3, 2, 2), (5, 3, 3, 3), (2, 2, 2, 2, 2)]:
        for g in enumerate_loopy_graphs(ds):
            table = pair_bits(g.n)
            code = sum(table[u][v] for u, v in g.edges)
            for size, gen in ((2, double_neighbor_edge_sets), (3, triangle_neighbor_edge_sets)):
                for c in gen(sorted(g.edges), code, table):
                    es = decode(c, table)
                    assert sum(table[u][v] for u, v in es) == c
                    assert len(g.edges - es) == len(es - g.edges) == size


def naive_moves(edges, n):
    """Every double swap and triangle/loop exchange of ``edges``, each as the
    edge set it leads to, listed from set operations alone: a multiset of
    double-swap results (a swap that removes a loop counts once per
    pairing) and one of exchange results."""
    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    double = Counter()
    for (u, v), (x, y) in combinations(sorted(edges), 2):
        for a1, a2 in ((pair(u, x), pair(v, y)), (pair(u, y), pair(v, x))):
            if a1 != a2 and a1 not in edges and a2 not in edges:
                double[edges - {(u, v), (x, y)} | {a1, a2}] += 1
    triangle = Counter()
    for p, q, r in combinations(range(n), 3):
        loops = {(p, p), (q, q), (r, r)}
        tri = {(p, q), (p, r), (q, r)}
        if loops <= edges and not tri & edges:
            triangle[edges - loops | tri] += 1
        if tri <= edges and not loops & edges:
            triangle[edges - tri | loops] += 1
    return double, triangle


def test_coded_moves_match_naive_move_list():
    """Decoded neighbour multisets equal a set-based move list over whole
    spaces with both pairings, loops and triangles."""
    seen = set()  # loop-count changes of the exchanges, and repeated swaps
    for ds in [(2, 2, 2, 2, 2), (4, 3, 3, 2, 2), (3, 3, 3, 3), (3, 3, 2, 2, 1, 1)]:
        for g in enumerate_loopy_graphs(ds):
            double, triangle = naive_moves(g.edges, g.n)
            assert Counter(double_moves(g)) == double, sorted(g.edges)
            assert Counter(triangle_moves(g)) == triangle, sorted(g.edges)
            seen.update(sum(u == v for u, v in es) - g.loop_count() for es in triangle)
            if 2 in double.values():
                seen.add("twice")
    assert seen == {3, -3, "twice"}


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

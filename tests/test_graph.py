"""Structural invariants of LoopyGraph and the trap-class membership tests."""

import pytest

from loopygraphs.graph import (
    LoopyGraph,
    MultiedgeError,
    format_edge_list,
    is_in_clique_trap,
    is_in_cycle_trap,
    normalize_edge,
    parse_edge_list,
)


def triangle():
    return LoopyGraph(3, [(0, 1), (0, 2), (1, 2)])


def all_loops(n):
    return LoopyGraph(n, [(v, v) for v in range(n)])


def hub_and_pendant(extra=()):
    """Loops on 0 and 1, 0 joined to 1 and to the loop-free triangle 2-3-4,
    plus ``extra`` edges on a sixth vertex when given."""
    edges = [(0, 0), (1, 1), (0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)]
    return LoopyGraph(6 if extra else 5, edges + list(extra))


def two_hubs(extra=()):
    """Looped vertices 0 and 1, each joined to all of the loop-free triangle
    2-3-4, plus ``extra`` edges."""
    edges = [(0, 0), (1, 1), (2, 3), (2, 4), (3, 4)] + [(h, c) for h in (0, 1) for c in (2, 3, 4)]
    return LoopyGraph(5, edges + list(extra))


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)
    assert normalize_edge(2, 2) == (2, 2)


def test_edges_stored_normalized():
    g = LoopyGraph(4, [(3, 0), (2, 1)])
    assert g.edges == frozenset({(0, 3), (1, 2)})


def test_out_of_range_endpoint_rejected():
    with pytest.raises(IndexError):
        LoopyGraph(3, [(0, 3)])
    with pytest.raises(IndexError):
        LoopyGraph(3, [(-1, 0)])


def test_duplicate_edge_rejected():
    with pytest.raises(MultiedgeError):
        LoopyGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(MultiedgeError):
        LoopyGraph(3, [(2, 2), (2, 2)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError):
        LoopyGraph(-1)


def test_empty_graph():
    g = LoopyGraph(0)
    assert g.degree_sequence() == ()
    assert g.loop_count() == 0


def test_loop_counts_two_toward_degree():
    g = LoopyGraph(3, [(0, 0), (0, 1)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.degree(2) == 0
    assert g.degree_sequence() == (3, 1, 0)


def test_loop_reduced_degree_sequence():
    g = LoopyGraph(4, [(0, 0), (1, 1), (0, 1), (2, 3)])
    assert g.degree_sequence() == (3, 3, 1, 1)
    assert g.loop_reduced_degree_sequence() == (1, 1, 1, 1)


def test_neighbors_excludes_loops():
    g = LoopyGraph(3, [(0, 0), (0, 1)])
    assert g.neighbors(0) == {1}
    assert g.neighbors(2) == set()
    with pytest.raises(IndexError):
        g.neighbors(3)


def test_loop_queries():
    g = LoopyGraph(4, [(2, 2), (0, 0), (0, 1)])
    assert g.has_loop(0) and g.has_loop(2)
    assert not g.has_loop(1)
    assert g.loop_vertices() == [0, 2]
    assert g.loop_count() == 2


def test_value_semantics():
    a = LoopyGraph(3, [(0, 1), (1, 2)])
    b = LoopyGraph(3, [(2, 1), (1, 0)])
    c = LoopyGraph(4, [(0, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_canonical_key_distinguishes_graphs():
    graphs = [
        triangle(),
        all_loops(3),
        LoopyGraph(3, [(0, 0), (1, 2)]),
        LoopyGraph(3, [(1, 1), (0, 2)]),
    ]
    keys = {g.canonical_key() for g in graphs}
    assert len(keys) == len(graphs)
    # key depends on the edge set, not construction order
    assert LoopyGraph(3, [(2, 1), (0, 1)]).canonical_key() == \
        LoopyGraph(3, [(0, 1), (1, 2)]).canonical_key()


def test_from_edge_set_trusts_and_validate_rechecks():
    g = LoopyGraph.from_edge_set(3, frozenset({(0, 1), (1, 2)}))
    g.validate()
    bad = LoopyGraph.from_edge_set(3, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        bad.validate()
    out = LoopyGraph.from_edge_set(2, frozenset({(0, 5)}))
    with pytest.raises(IndexError):
        out.validate()


def test_clique_trap_members():
    # clique of five with one loop on the inside vertex
    k5_loop = LoopyGraph(5, [(0, 0)] + [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert k5_loop.degree_sequence() == (6, 4, 4, 4, 4)
    assert is_in_clique_trap(k5_loop)
    # loop-free clique of four: still anchored on a big enough clique
    k4 = LoopyGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_in_clique_trap(k4)


def test_clique_trap_non_members():
    assert not is_in_clique_trap(triangle())  # loop-free core too small
    assert not is_in_clique_trap(all_loops(4))  # nothing loop-free carries edges
    # clique core of three only (K4 plus one loop)
    k4_loop = LoopyGraph(4, [(0, 0)] + [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert not is_in_clique_trap(k4_loop)
    # loop-free core of four that is not a clique (triangle plus a pendant)
    assert not is_in_clique_trap(LoopyGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    # vertex at distance 2 disqualifies
    g = LoopyGraph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                       (4, 4), (3, 4), (5, 5), (4, 5)])
    assert not is_in_clique_trap(g)


def test_cycle_trap_members():
    assert is_in_cycle_trap(triangle())
    cycle4 = LoopyGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_in_cycle_trap(cycle4)
    # isolated looped vertices of degree exactly two are allowed
    g = LoopyGraph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 4), (5, 5)])
    assert is_in_cycle_trap(g)
    # K4 plus a loop on the hub: triangle core, hub adjacent to all of it
    k4_loop = LoopyGraph(4, [(0, 0)] + [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_in_cycle_trap(k4_loop)
    # triangle plus an isolated loop (unreachable, degree two)
    g = LoopyGraph(4, [(0, 1), (0, 2), (1, 2), (3, 3)])
    assert is_in_cycle_trap(g)
    # loops on 0 and 1; 0 is a hub over the loop-free triangle 2-3-4 (distance
    # 1) and 1 hangs off 0 (distance 2, its neighborhood is the distance-1 set)
    assert is_in_cycle_trap(hub_and_pendant())
    # two looped hubs over the triangle 2-3-4: a distance-1 clique of two
    assert is_in_cycle_trap(two_hubs([(0, 1)]))


def test_cycle_trap_non_members():
    assert not is_in_cycle_trap(all_loops(3))
    path = LoopyGraph(3, [(0, 1), (1, 2)])
    assert not is_in_cycle_trap(path)  # endpoints have one core neighbor
    # unreachable looped vertex of degree three breaks the membership
    g = LoopyGraph(5, [(0, 1), (0, 2), (1, 2), (3, 3), (4, 4), (3, 4)])
    assert not is_in_cycle_trap(g)
    # core vertex with three core neighbors (K4 loop-free) is the clique case
    k4 = LoopyGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert not is_in_cycle_trap(k4)
    # a looped vertex 5 off vertex 1 sits at distance 3
    g = hub_and_pendant([(5, 5), (1, 5)])
    assert not is_in_cycle_trap(g)
    # 5 joined to 0 and 1: the distance-2 vertices 1 and 5 see more than {0}
    g = hub_and_pendant([(5, 5), (0, 5), (1, 5)])
    assert not is_in_cycle_trap(g)
    # the two hubs not joined: the distance-1 set is not a clique
    assert not is_in_cycle_trap(two_hubs())


def test_trap_classes_disjoint_on_examples():
    candidates = [
        triangle(),
        all_loops(4),
        LoopyGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        LoopyGraph(4, [(0, 0)] + [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        LoopyGraph(5, [(0, 0)] + [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        LoopyGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    ]
    for g in candidates:
        assert not (is_in_clique_trap(g) and is_in_cycle_trap(g))


def test_parse_edge_list_round_trip():
    g = LoopyGraph(5, [(0, 0), (1, 2), (3, 4)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "# n=5"
    assert parse_edge_list(text) == g


def test_parse_edge_list_infers_vertex_count():
    g = parse_edge_list("0 1\n2 2\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (2, 2)})


def test_parse_edge_list_header_and_comments():
    g = parse_edge_list("# n=6\n# anything\n\n0,1\n4 5\n")
    assert g.n == 6
    assert g.edges == frozenset({(0, 1), (4, 5)})


def test_parse_edge_list_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(MultiedgeError):
        parse_edge_list("0 1\n1 0\n")

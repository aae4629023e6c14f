"""Brute-force enumeration, the swap meta-graph, and the consistency report."""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from loopygraphs.degseq import NotLoopyGraphical
from loopygraphs.graph import LoopyGraph
from loopygraphs.oracle import (
    CHECK_MEANINGS,
    BoundExceeded,
    UnknownNeighbor,
    build_swap_graph,
    components,
    enumerate_loopy_graphs,
    generate_sequences,
    is_max_loopy,
    max_loop_representatives,
    run_sweep,
    stationary_distribution,
    to_dot,
    verify_sequence,
)


def subset_filter_enumeration(ds):
    """Independent enumerator: filter every subset of possible vertex pairs."""
    n = len(ds)
    m, rem = divmod(sum(ds), 2)
    if rem:
        return set()
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    out = set()
    for combo in combinations(pairs, m):
        deg = [0] * n
        for u, v in combo:
            deg[u] += 2 if u == v else 1
            if u != v:
                deg[v] += 1
        if tuple(deg) == tuple(ds):
            out.add(frozenset(combo))
    return out


@pytest.mark.parametrize("ds", [
    (2, 2, 2), (2, 2, 2, 2), (3, 3, 2, 2), (5, 3, 3, 3),
    (1, 1), (2, 1, 1), (4, 4, 2), (2, 2, 1, 1), (3, 1, 1, 1),
])
def test_enumeration_matches_subset_filter(ds):
    fast = {g.edges for g in enumerate_loopy_graphs(ds)}
    assert fast == subset_filter_enumeration(ds)


def test_enumeration_counts():
    assert len(enumerate_loopy_graphs((2, 2, 2))) == 2
    assert len(enumerate_loopy_graphs((2, 2, 2, 2))) == 8
    assert len(enumerate_loopy_graphs((1, 1))) == 1
    assert len(enumerate_loopy_graphs((5, 3, 3, 3))) == 2
    counts = sorted(g.loop_count() for g in enumerate_loopy_graphs((2, 2, 2, 2)))
    assert counts == [0, 0, 0, 1, 1, 1, 1, 4]
    counts = sorted(g.loop_count() for g in enumerate_loopy_graphs((3, 3, 2, 2)))
    assert counts == [0, 1, 1, 2, 2, 3, 3, 4]


def test_enumeration_empty_for_odd_or_negative():
    assert enumerate_loopy_graphs((1,)) == []
    assert enumerate_loopy_graphs((2, -2)) == []


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_loopy_graphs((6, 3, 3, 3, 3))
    assert len(enumerate_loopy_graphs((6, 3, 3, 3, 3), max_sum=18)) == 8


def test_swap_graph_components():
    graphs = enumerate_loopy_graphs((2, 2, 2, 2))
    sg = build_swap_graph(graphs)
    labels, n = components(sg)
    assert n == 2
    sizes = sorted(sum(1 for c in labels if c == k) for k in range(n))
    assert sizes == [1, 7]
    _, n_tri = components(sg, triangle=True)
    assert n_tri == 1
    # the singleton is the all-loops graph: no double moves, only the exchange
    all_loops = LoopyGraph(4, [(v, v) for v in range(4)])
    i = sg.index[all_loops.canonical_key()]
    assert sg.double_adjacency[i] == ()
    assert len(sg.triangle_adjacency[i]) > 0
    assert sum(1 for c in labels if c == labels[i]) == 1


def test_swap_graph_adjacency_symmetry():
    sg = build_swap_graph(enumerate_loopy_graphs((3, 3, 2, 2)))
    for i, nbrs in enumerate(sg.double_adjacency):
        for j in nbrs:
            assert i in sg.double_adjacency[j]
    for i, nbrs in enumerate(sg.triangle_adjacency):
        for j in nbrs:
            assert i in sg.triangle_adjacency[j]


def test_swap_graph_without_triangle_moves():
    sg = build_swap_graph(enumerate_loopy_graphs((2, 2, 2)), include_triangle=False)
    assert sg.triangle_adjacency is None
    assert components(sg)[1] == 2
    with pytest.raises(ValueError):
        components(sg, triangle=True)


def test_incomplete_node_set_detected():
    graphs = enumerate_loopy_graphs((2, 2, 2, 2))
    cycle = next(g for g in graphs if g.loop_count() == 0)
    with pytest.raises(UnknownNeighbor):
        build_swap_graph([cycle])


def test_max_loop_representatives():
    graphs = enumerate_loopy_graphs((2, 2, 2, 2))
    sg = build_swap_graph(graphs)
    labels, n = components(sg)
    all_loops = LoopyGraph(4, [(v, v) for v in range(4)])
    singleton = labels[sg.index[all_loops.canonical_key()]]
    assert max_loop_representatives(sg, singleton) == [all_loops]
    big = 1 - singleton
    reps = max_loop_representatives(sg, big)
    assert len(reps) == 4
    assert all(g.loop_count() == 1 for g in reps)
    with pytest.raises(ValueError):
        max_loop_representatives(sg, 99)


def test_stationary_distribution():
    graphs = enumerate_loopy_graphs((2, 2, 2))
    vertex = stationary_distribution(graphs, "vertex")
    assert set(vertex.values()) == {0.5}
    stub = stationary_distribution(graphs, "stub")
    by_loops = {g.loop_count(): stub[g.canonical_key()] for g in graphs}
    assert by_loops[0] == pytest.approx(8 / 9)
    assert by_loops[3] == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        stationary_distribution(graphs, "edge")


def test_is_max_loopy():
    assert is_max_loopy(LoopyGraph(4, [(v, v) for v in range(4)]))  # (2,2,2,2)
    tri_loop = LoopyGraph(4, [(0, 1), (0, 2), (1, 2), (3, 3)])
    assert not is_max_loopy(tri_loop)  # one loop, but four are possible
    # tied degrees: loops may sit on any top-degree set
    tied = LoopyGraph(5, [(0, 0), (1, 1), (2, 2), (0, 3), (0, 4), (3, 4)])
    assert tied.degree_sequence() == (4, 2, 2, 2, 2)
    assert is_max_loopy(tied)
    assert is_max_loopy(tied, mstar=3)
    assert not is_max_loopy(tied, mstar=2)


def test_max_loopy_count_is_derivable():
    # every 3-loop realization of (4,2,2,2,2) keeps a loop on the hub, so the
    # pair of pendant loop vertices ranges over the six 2-subsets
    graphs = enumerate_loopy_graphs((4, 2, 2, 2, 2))
    assert sum(1 for g in graphs if is_max_loopy(g)) == 6


def test_verify_sequence_reports():
    r = verify_sequence((2, 2, 2))
    assert r == {
        "sequence": [2, 2, 2],
        "n_graphs": 2,
        "components_double": 2,
        "components_triangle": 1,
        "disconnected": True,
        "q1_count": 0,
        "q2_count": 1,
        "checks": {k: True for k in "abcdefg"},
    }
    r = verify_sequence((5, 3, 3, 3))
    assert (r["n_graphs"], r["components_double"], r["q1_count"], r["q2_count"]) == (2, 2, 0, 1)
    r = verify_sequence((4, 4, 2))
    assert (r["n_graphs"], r["disconnected"]) == (1, False)
    assert all(r["checks"].values())
    r = verify_sequence((6, 3, 3, 3, 3), max_sum=18)
    assert (r["n_graphs"], r["components_double"], r["q2_count"]) == (8, 2, 7)
    assert all(r["checks"].values())


def test_verify_sequence_errors():
    with pytest.raises(BoundExceeded):
        verify_sequence((6, 3, 3, 3, 3))  # degree sum 18 over the default 16
    with pytest.raises(NotLoopyGraphical):
        verify_sequence((3, 2))


def test_verify_sequence_lets_detector_errors_propagate(monkeypatch):
    def crash(ds):
        raise RuntimeError("peel crashed")

    monkeypatch.setattr("loopygraphs.oracle.detect_disconnected", crash)
    with pytest.raises(RuntimeError, match="peel crashed"):
        verify_sequence((2, 2, 2))


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
# the known defect of check g (see ROADMAP): representatives that carry m*
# loops without the strict degree order of is_max_loopy
CHECK_G_FAILS = {"5,5,5,3,2", "6,5,5,3,2,1", "5,5,5,3,2,2"}


def test_small_check_sequences_match_independent_enumerator():
    """The 363 sequences of degree sums 16-22 that the benchmark brute-forces
    with its own enumerator: counts and components agree, checks a-f hold,
    and g fails on exactly the three known sequences."""
    reference = json.loads(REFERENCE.read_text())["small_check"]
    assert len(reference) == 363
    g_fails = set()
    for key, ref in reference.items():
        r = verify_sequence([int(d) for d in key.split(",")], max_sum=22)
        assert (r["n_graphs"], r["components_double"]) == (ref["graphs"], ref["components"]), key
        assert all(r["checks"][c] for c in "abcdef"), (key, r["checks"])
        if not r["checks"]["g"]:
            g_fails.add(key)
    assert g_fails == CHECK_G_FAILS


def test_check_meanings_cover_report():
    r = verify_sequence((2, 2, 2))
    assert set(r["checks"]) == set(CHECK_MEANINGS)


def test_generate_sequences():
    seqs = generate_sequences(6)
    assert len(seqs) == 14
    assert (2, 2, 2) in seqs
    assert (3, 3) in seqs
    assert (3, 1) in seqs
    assert (4, 2) not in seqs  # realizable degrees cap at n+1 here
    assert (5, 1) not in seqs
    assert all(sum(s) % 2 == 0 for s in seqs)
    assert all(s == tuple(sorted(s, reverse=True)) for s in seqs)


def test_run_sweep_serial_and_parallel_agree():
    serial = run_sweep(6, workers=1)
    assert [r["sequence"] for r in serial] == [list(s) for s in generate_sequences(6)]
    parallel = run_sweep(6, workers=2)
    assert parallel == serial


def test_to_dot():
    sg = build_swap_graph(enumerate_loopy_graphs((2, 2, 2)))
    dot = to_dot(sg)
    assert dot.startswith("graph swapspace {")
    assert dot.rstrip().endswith("}")
    assert dot.count("-- ") == 1  # single exchange move between the two graphs
    assert "style=dashed" in dot
    assert 'label="0:' in dot
    plain = to_dot(sg, label_loops=False)
    assert 'label="0"' in plain


PINNED_SPACES = [
    (1, 1), (2, 1, 1), (2, 2, 2), (4, 4, 2), (3, 1, 1, 1), (2, 2, 1, 1),
    (2, 2, 2, 2), (3, 3, 2, 2), (5, 3, 3, 3), (3, 3, 3, 3), (4, 4, 2, 2),
    (4, 2, 2, 2, 2), (2, 2, 2, 2, 2), (4, 3, 3, 2, 2), (3, 3, 2, 2, 2),
    (5, 5, 4, 2), (4, 4, 3, 3, 2), (3, 3, 3, 3, 2, 2), (2, 2, 2, 2, 2, 2),
    (4, 2, 2, 2, 1, 1), (6, 3, 3, 3, 3),
    # the loop-free edge count breaks ties among most-loop graphs here
    (3, 3, 1, 1), (4, 4, 4, 1, 1), (3, 3, 2, 1, 1), (4, 4, 1, 1, 1, 1),
]


@pytest.fixture(scope="module")
def sweep12():
    return run_sweep(12, workers=1)


def test_sweep_reports_are_pinned(sweep12):
    """Every field of the ``run_sweep(12)`` reports, in order, pinned by a
    digest recorded from the edge-tuple move generators that the coded ones
    replaced."""
    digest = hashlib.sha256(json.dumps(sweep12, separators=(",", ":")).encode()).hexdigest()
    assert digest == "89e6d3a2c4912af845bf582b85450e6c609e4070e25f5632165bf22221a23a47"


def test_oracle_outputs_are_pinned(sweep12):
    """The ``run_sweep(12)`` reports and the swap graphs of 25 spaces (node
    order, both adjacencies, both labelings, the representatives of every
    double-swap component), pinned by a digest recorded from the
    frozenset-based neighbour pass that the mask-based one replaced."""
    rows = [sweep12]
    for ds in PINNED_SPACES:
        for include_triangle in (True, False):
            sg = build_swap_graph(enumerate_loopy_graphs(ds, max_sum=18), include_triangle)
            reps = [sorted(sg.index[g.canonical_key()]
                           for g in max_loop_representatives(sg, c))
                    for c in range(sg.n_components_double)]
            rows.append([list(ds), [sorted(g.edges) for g in sg.nodes],
                         sg.double_adjacency, sg.triangle_adjacency,
                         sg.components_double, sg.n_components_double,
                         sg.components_triangle, sg.n_components_triangle, reps])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "1ba91cab502921342ce3e70cbe841aefce722f9b33df9b410e1538c0c39d5df6"

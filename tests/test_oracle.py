"""Brute-force enumeration, the swap meta-graph, and the consistency report."""

import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from loopygraphs import degseq, oracle
from loopygraphs.degseq import NotLoopyGraphical, max_loop_count
from loopygraphs.graph import LoopyGraph
from loopygraphs.oracle import (
    CHECK_MEANINGS,
    BoundExceeded,
    UnknownNeighbor,
    build_swap_graph,
    components,
    enumerate_loopy_graphs,
    generate_sequences,
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


def test_max_loopy_count_is_derivable():
    # max-loopy means m* = 3 loops; every such realization of (4,2,2,2,2)
    # keeps a loop on the hub, so the pair of pendant loop vertices ranges
    # over the six 2-subsets
    ds = (4, 2, 2, 2, 2)
    mstar = max_loop_count(ds)
    assert sum(1 for g in enumerate_loopy_graphs(ds) if g.loop_count() == mstar) == 6


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


def test_verify_sequence_works_out_m_star_once(monkeypatch):
    # the oracle binds its own copy of max_loop_count if it imports one, so
    # both bindings are counted
    calls = []
    real = degseq.max_loop_count

    def counted(degrees):
        calls.append(tuple(degrees))
        return real(degrees)

    monkeypatch.setattr(degseq, "max_loop_count", counted)
    monkeypatch.setattr(oracle, "max_loop_count", counted, raising=False)
    assert all(verify_sequence((3, 3, 2, 2))["checks"].values())
    assert calls == [(3, 3, 2, 2)]


@pytest.mark.parametrize("t, b", [(t, b) for t in (5, 6, 7) for b in range(t - 3)])
def test_looped_cliques_are_clique_traps(t, b):
    """K_t with ``b`` looped vertices: the one clique-trap member of its
    space, stranded in a double-swap component of its own."""
    ds = (t + 1,) * b + (t - 1,) * (t - b)
    r = verify_sequence(ds, max_sum=sum(ds))
    assert (r["q1_count"], r["components_double"]) == (1, 2)
    assert all(r["checks"].values()), r["checks"]


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_small_check_sequences_match_independent_enumerator():
    """The 363 sequences of degree sums 16-22 that the benchmark brute-forces
    with its own enumerator: counts and components agree, and checks a-g
    hold. The trap-class counts are pinned by a digest recorded from the
    object-based layer decomposition that the bitmask predicates replaced."""
    reference = json.loads(REFERENCE.read_text())["small_check"]
    assert len(reference) == 363
    trap_counts = []
    for key, ref in reference.items():
        r = verify_sequence([int(d) for d in key.split(",")], max_sum=22)
        assert (r["n_graphs"], r["components_double"]) == (ref["graphs"], ref["components"]), key
        assert all(r["checks"].values()), (key, r["checks"])
        trap_counts.append([key, r["q1_count"], r["q2_count"]])
    digest = hashlib.sha256(json.dumps(trap_counts, separators=(",", ":")).encode()).hexdigest()
    assert digest == "f9fa3eace937b9905065d5806dbe8fe1358b4546c83f73f56f7bb1ac944afcdb"


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
    # several most-loop graphs share a component here
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
    order, both adjacencies, both labelings), pinned by a digest recorded
    from the oracle that still held the tie-broken max-loop
    representatives."""
    rows = [sweep12]
    for ds in PINNED_SPACES:
        for include_triangle in (True, False):
            sg = build_swap_graph(enumerate_loopy_graphs(ds, max_sum=18), include_triangle)
            rows.append([list(ds), [sorted(g.edges) for g in sg.nodes],
                         sg.double_adjacency, sg.triangle_adjacency,
                         sg.components_double, sg.n_components_double,
                         sg.components_triangle, sg.n_components_triangle])
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "b320c1375d24f39294bf9d225be6fcd51be02db4e4e05fc69c448f356fe2feaf"

"""Chain correctness: an exact transition-matrix audit of ``LoopyChain.run``
plus behavioral tests for configuration, reproducibility, and accounting.

The audit drives the real chain one step from every state of a small space
under every draw a step can make, weighs each outcome with rational
arithmetic, and then verifies stationarity through exact detailed balance
against each mode's target weights. Any bias in the chain kernel shows up here
as an unbalanced state pair, and any move the chain makes or misses that the
neighbour generators do not shows up as a support mismatch.
"""

from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from loopygraphs.degseq import NotLoopyGraphical
from loopygraphs.graph import LoopyGraph
from loopygraphs.mcmc import (
    ChainConfig,
    ChainStats,
    ConfigError,
    DegenerateGraph,
    LoopyChain,
    UnknownGraph,
    chi_square_fit,
    default_burn_in,
    default_thinning,
    default_triangle_prob,
    prepare_chain,
    sample,
    sample_stream,
)
from loopygraphs.oracle import enumerate_loopy_graphs, stationary_distribution
from loopygraphs.swaps import double_neighbor_edge_sets, triangle_neighbor_edge_sets


class ScriptedRNG:
    """Stand-in generator that replays queued draws."""

    def __init__(self, floats, ints):
        self.floats = deque(floats)
        self.ints = deque(ints)

    def random(self, size):
        return np.array([self.floats.popleft() for _ in range(size)])

    def integers(self, low, high, size):
        out = []
        for _ in range(size):
            v = self.ints.popleft()
            assert low <= v < high, (v, low, high)
            out.append(v)
        return np.array(out)


# values of the acceptance coin u2 on either side of each mode's threshold
# (1/2 in vertex mode, 1/8 in stub mode), with the probability of that side
COIN_OUTCOMES = {
    "vertex": ((0.25, Fraction(1, 2)), (0.75, Fraction(1, 2))),
    "stub": ((0.0625, Fraction(1, 8)), (0.5, Fraction(7, 8))),
}


def kernel_matrix(graphs, mode, eps):
    """Exact one-step transition matrix of ``LoopyChain`` over an enumerated
    space, built by running the chain once per draw it can make.

    A step draws u1, three raw indices (i, j, k), a pairing bit and the coin
    u2. Every (i, j, bit) is run as a double swap (u1 = eps) and, when eps > 0,
    every (i, j, k) as a triangle/loop exchange (u1 = 0), each under both coin
    outcomes. ``eps`` must be a Fraction so every probability stays rational.
    """
    index = {g.edges: a for a, g in enumerate(graphs)}
    m = len(graphs[0].edges)
    k_span = m - 2 if m > 2 else 1
    draws = [(float(eps), (i, j, 0, bit), (1 - eps) / (m * (m - 1) * 2))
             for i in range(m) for j in range(m - 1) for bit in (0, 1)]
    if eps > 0:
        draws += [(0.0, (i, j, k, 0), eps / (m * (m - 1) * k_span))
                  for i in range(m) for j in range(m - 1) for k in range(k_span)]
    cfg = ChainConfig(triangle_prob=float(eps), mode=mode)
    P = [[Fraction(0)] * len(graphs) for _ in graphs]
    for a, g in enumerate(graphs):
        for u1, ints, p in draws:
            for u2, q in COIN_OUTCOMES[mode]:
                chain = LoopyChain(g, cfg, rng=ScriptedRNG([u1, u2], ints))
                chain.run(1)
                P[a][index[chain.current().edges]] += p * q
    return P


def target_weights(graphs, mode):
    if mode == "vertex":
        return [Fraction(1)] * len(graphs)
    return [Fraction(1, 2 ** g.loop_count()) for g in graphs]


@pytest.mark.parametrize("ds,mode,eps", [
    ((2, 2, 2), "vertex", Fraction(1, 2)),
    ((2, 2, 2), "stub", Fraction(1, 2)),
    ((2, 2, 2, 2), "vertex", Fraction(1, 10)),
    ((2, 2, 2, 2), "stub", Fraction(1, 10)),
    ((3, 3, 2, 2), "vertex", Fraction(1, 10)),
    ((3, 3, 2, 2), "stub", Fraction(0)),
    ((5, 3, 3, 3), "vertex", Fraction(1, 3)),
    ((5, 3, 3, 3), "stub", Fraction(1, 3)),
    ((2, 2, 2, 2, 2), "vertex", Fraction(1, 10)),
    ((2, 2, 2, 2, 2), "stub", Fraction(1, 10)),
    ((4, 3, 3, 2, 2), "stub", Fraction(1, 10)),
])
def test_detailed_balance_exact(ds, mode, eps):
    graphs = enumerate_loopy_graphs(ds)
    P = kernel_matrix(graphs, mode, eps)
    w = target_weights(graphs, mode)
    for row in P:
        assert sum(row) == 1
    n = len(graphs)
    for a in range(n):
        for b in range(a + 1, n):
            assert w[a] * P[a][b] == w[b] * P[b][a], (a, b)
    # the chain moves to exactly the states the oracle's generators list
    index = {g.edges: a for a, g in enumerate(graphs)}
    for a, g in enumerate(graphs):
        edge_list = sorted(g.edges)
        moves = list(double_neighbor_edge_sets(edge_list, g.edges))
        if eps:
            moves.extend(triangle_neighbor_edge_sets(edge_list, g.edges))
        targets = {index[g.edges.difference(removed).union(added)] for removed, added in moves}
        assert {b for b in range(n) if b != a and P[a][b]} == targets, a


def test_kernel_matrix_reaches_everything():
    graphs = enumerate_loopy_graphs((2, 2, 2, 2))
    P = kernel_matrix(graphs, "vertex", Fraction(1, 10))
    reached = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b, p in enumerate(P[a]):
            if p > 0 and b not in reached:
                reached.add(b)
                frontier.append(b)
    assert reached == set(range(len(graphs)))


def scripted_step(graph, mode, floats, ints, triangle_prob=0.5):
    cfg = ChainConfig(triangle_prob=triangle_prob, mode=mode)
    chain = LoopyChain(graph, cfg, rng=ScriptedRNG(floats, ints))
    chain.run(1)
    return chain


def test_scripted_loops_to_triangle():
    g = LoopyGraph(3, [(0, 0), (1, 1), (2, 2)])
    # u1 below the triangle probability, indices (0,0->1,0->2), bit, u2
    chain = scripted_step(g, "vertex", floats=[0.0, 0.9], ints=[0, 0, 0, 0])
    assert chain.stats.accepted_triangle == 1
    assert chain.loop_count == 0
    assert chain.current().edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_scripted_triangle_to_loops_stub_filter():
    g = LoopyGraph(3, [(0, 1), (0, 2), (1, 2)])
    # stub mode damps the exchange by 1/8: u2 = 0.2 rejects, u2 = 0.1 accepts
    chain = scripted_step(g, "stub", floats=[0.0, 0.2], ints=[0, 0, 0, 0])
    assert chain.stats.rejected_triangle_filter == 1
    assert chain.loop_count == 0
    chain = scripted_step(g, "stub", floats=[0.0, 0.1], ints=[0, 0, 0, 0])
    assert chain.stats.accepted_triangle == 1
    assert chain.loop_count == 3


def test_scripted_vertex_mode_halves_loop_swaps():
    g = LoopyGraph(3, [(0, 0), (1, 2), (1, 1)])
    # double branch selecting the loop (0,0) and edge (1,2): one loop in the
    # selection, so vertex mode accepts only when u2 < 1/2
    floats = [0.9, 0.7]
    ints = [0, 1, 0, 0]  # i=0 -> (0,0); j draw 1 -> index 2 -> (1,2); k; bit
    chain = scripted_step(g, "vertex", floats=floats, ints=ints)
    assert chain.stats.rejected_double_filter == 1
    chain = scripted_step(g, "vertex", floats=[0.9, 0.3], ints=[0, 1, 0, 0])
    assert chain.stats.accepted_double == 1
    assert chain.current().edges == frozenset({(0, 1), (0, 2), (1, 1)})
    # stub mode takes the same proposal unconditionally
    chain = scripted_step(g, "stub", floats=[0.9, 0.99], ints=[0, 1, 0, 0])
    assert chain.stats.accepted_double == 1


def test_chain_requires_two_edges():
    with pytest.raises(DegenerateGraph):
        LoopyChain(LoopyGraph(2, [(0, 1)]))


def test_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(triangle_prob=1.0).validate()
    with pytest.raises(ConfigError):
        ChainConfig(triangle_prob=-0.1).validate()
    with pytest.raises(ConfigError):
        ChainConfig(mode="edge").validate()
    with pytest.raises(ConfigError):
        ChainConfig(burn_in=-1).validate()
    with pytest.raises(ConfigError):
        ChainConfig(thinning=0).validate()
    ChainConfig(triangle_prob=0.0, burn_in=0, thinning=1).validate()


def test_zero_triangle_prob_needs_connected_space():
    with pytest.raises(ConfigError, match="disconnected"):
        prepare_chain((2, 2, 2, 2), ChainConfig(triangle_prob=0.0))
    chain, _ = prepare_chain((3, 3, 2, 2), ChainConfig(triangle_prob=0.0, burn_in=10))
    assert chain is not None


def test_prepare_chain_rejects_infeasible():
    with pytest.raises(NotLoopyGraphical):
        prepare_chain((3, 2))


def test_single_graph_sequence_sampling():
    chain, initial = prepare_chain((1, 1))
    assert chain is None
    graphs = sample((1, 1), 3)
    assert all(g == initial for g in graphs)
    assert initial.edges == frozenset({(0, 1)})


def test_sampling_is_deterministic_under_seed():
    cfg = ChainConfig(triangle_prob=0.1, seed=42, burn_in=100, thinning=7)
    a = [g.canonical_key() for g in sample((3, 3, 2, 2), 25, cfg)]
    b = [g.canonical_key() for g in sample((3, 3, 2, 2), 25, cfg)]
    assert a == b
    c = [g.canonical_key() for g in sample((3, 3, 2, 2), 25,
                                           ChainConfig(triangle_prob=0.1, seed=43,
                                                       burn_in=100, thinning=7))]
    assert a != c


def test_trajectory_reproducible_for_same_schedule():
    ds = (3, 3, 2, 2)

    def fresh():
        cfg = ChainConfig(triangle_prob=0.2, seed=9, burn_in=0)
        return LoopyChain(prepare_chain(ds, cfg)[1], cfg)

    one = fresh()
    one.run(5000)
    # occupancy tracking and striding never consume randomness
    two = fresh()
    two.run(5000, occupancy={}, stride=3)
    assert one.current() == two.current()
    assert one.stats == two.stats
    # run boundaries aligned with the internal draw blocks also agree
    three = fresh()
    three.run(4096)
    three.run(904)
    assert one.current() == three.current()
    assert one.stats == three.stats


def test_sample_stream_is_lazy_and_counts_match():
    cfg = ChainConfig(triangle_prob=0.1, seed=3, burn_in=10, thinning=5)
    stream = sample_stream((3, 3, 2, 2), 4, cfg)
    got = list(stream)
    assert len(got) == 4
    for g in got:
        g.validate()
        assert g.degree_sequence() == (3, 3, 2, 2)
    with pytest.raises(ValueError):
        list(sample_stream((3, 3, 2, 2), -1, cfg))


def test_stats_accounting():
    cfg = ChainConfig(triangle_prob=0.3, seed=0, burn_in=0)
    chain = LoopyChain(prepare_chain((2, 2, 2, 2), cfg)[1], cfg)
    stats = chain.run(4000)
    assert stats.steps == 4000
    assert stats.accepted + stats.rejected == 4000
    assert stats.accepted == stats.accepted_double + stats.accepted_triangle
    d = stats.as_dict()
    assert d["steps"] == 4000
    assert d["rejected"] == stats.rejected
    assert 0.0 <= d["acceptance_rate"] <= 1.0
    assert ChainStats().steps == 0
    assert ChainStats().acceptance_rate == 0.0


def test_occupancy_totals_and_stride():
    cfg = ChainConfig(triangle_prob=0.2, seed=1, burn_in=0)
    chain = LoopyChain(prepare_chain((2, 2, 2, 2), cfg)[1], cfg)
    occ = {}
    chain.run(1237, occupancy=occ)
    assert sum(occ.values()) == 1237
    assert all(isinstance(k, tuple) for k in occ)
    strided = {}
    chain.run(1000, occupancy=strided, stride=7)
    assert sum(strided.values()) == 1000 // 7
    with pytest.raises(ValueError):
        chain.run(10, stride=0)
    with pytest.raises(ValueError):
        chain.run(-1)


def test_occupancy_keys_are_reachable_states():
    cfg = ChainConfig(triangle_prob=0.2, seed=5, burn_in=0)
    chain = LoopyChain(prepare_chain((2, 2, 2, 2), cfg)[1], cfg)
    occ = {}
    chain.run(20000, occupancy=occ)
    valid = {tuple(sorted(g.edges)) for g in enumerate_loopy_graphs((2, 2, 2, 2))}
    assert set(occ) <= valid
    assert len(occ) == len(valid)  # every realization was visited


def test_chain_preserves_invariants():
    cfg = ChainConfig(triangle_prob=0.1, seed=2, burn_in=0)
    chain = LoopyChain(prepare_chain((5, 3, 3, 3), cfg)[1], cfg)
    for _ in range(10):
        chain.run(200)
        g = chain.current()
        g.validate()
        assert g.degree_sequence() == (5, 3, 3, 3)
        assert g.loop_count() == chain.loop_count


def test_chi_square_fit():
    expected = {b"a": 0.5, b"b": 0.5}
    stat, p = chi_square_fit({b"a": 500, b"b": 500}, expected)
    assert stat == pytest.approx(0.0)
    assert p == pytest.approx(1.0)
    stat_skew, p_skew = chi_square_fit({b"a": 900, b"b": 100}, expected)
    assert stat_skew > stat
    assert p_skew < 1e-6
    # iterable form counts keys
    stat2, p2 = chi_square_fit([b"a", b"b", b"a", b"b"], expected)
    assert (stat2, p2) == (pytest.approx(0.0), pytest.approx(1.0))
    with pytest.raises(UnknownGraph):
        chi_square_fit({b"zzz": 5}, expected)
    with pytest.raises(ValueError):
        chi_square_fit({}, expected)
    assert chi_square_fit({b"a": 7}, {b"a": 1.0}) == (0.0, 1.0)


def test_chi_square_accepts_unnormalized_weights():
    expected = {b"a": 2.0, b"b": 6.0}
    stat, p = chi_square_fit({b"a": 250, b"b": 750}, expected)
    assert stat == pytest.approx(0.0)


def test_defaults():
    assert default_triangle_prob((4, 4, 3, 3, 2, 2, 2)) == 0.0
    assert default_triangle_prob((2, 2, 2, 2)) == 0.05
    assert default_burn_in(2) >= 1
    assert default_burn_in(100) == int(10 * 100 * np.log(100))
    assert default_thinning(7) == 7
    assert default_thinning(0) == 1


def test_stub_sampling_tracks_loop_weights():
    """End-to-end spot check: thinned stub-mode samples fit the oracle's
    2**(-loops) weights on a space that double swaps alone cover."""
    graphs = enumerate_loopy_graphs((3, 3, 2, 2))
    target = stationary_distribution(graphs, "stub")
    cfg = ChainConfig(triangle_prob=0.0, mode="stub", seed=7, burn_in=2000, thinning=40)
    keys = [g.canonical_key() for g in sample_stream((3, 3, 2, 2), 4000, cfg)]
    stat, p = chi_square_fit(keys, target)
    assert p > 0.001


def test_vertex_sampling_tracks_uniform():
    graphs = enumerate_loopy_graphs((2, 2, 2, 2))
    target = stationary_distribution(graphs, "vertex")
    cfg = ChainConfig(triangle_prob=0.1, mode="vertex", seed=17, burn_in=2000, thinning=40)
    keys = [g.canonical_key() for g in sample_stream((2, 2, 2, 2), 4000, cfg)]
    stat, p = chi_square_fit(keys, target)
    assert p > 0.001


PINNED_OCCUPANCY = {
    "vertex": (
        dict(accepted_double=2801, accepted_triangle=265,
             rejected_double_invalid=5066, rejected_double_filter=1118,
             rejected_triangle_invalid=750, rejected_triangle_filter=0),
        ((0, 0), (1, 2), (1, 3), (2, 3)),
        {((0, 0), (1, 1), (2, 2), (3, 3)): 228,
         ((0, 0), (1, 2), (1, 3), (2, 3)): 195,
         ((0, 1), (0, 2), (1, 2), (3, 3)): 231,
         ((0, 1), (0, 2), (1, 3), (2, 3)): 221,
         ((0, 1), (0, 3), (1, 2), (2, 3)): 190,
         ((0, 1), (0, 3), (1, 3), (2, 2)): 192,
         ((0, 2), (0, 3), (1, 1), (2, 3)): 223,
         ((0, 2), (0, 3), (1, 2), (1, 3)): 186},
    ),
    "stub": (
        dict(accepted_double=4427, accepted_triangle=21,
             rejected_double_invalid=4558, rejected_double_filter=0,
             rejected_triangle_invalid=916, rejected_triangle_filter=78),
        ((0, 2), (0, 3), (1, 1), (2, 3)),
        {((0, 0), (1, 1), (2, 2), (3, 3)): 18,
         ((0, 0), (1, 2), (1, 3), (2, 3)): 168,
         ((0, 1), (0, 2), (1, 2), (3, 3)): 141,
         ((0, 1), (0, 2), (1, 3), (2, 3)): 390,
         ((0, 1), (0, 3), (1, 2), (2, 3)): 329,
         ((0, 1), (0, 3), (1, 3), (2, 2)): 149,
         ((0, 2), (0, 3), (1, 1), (2, 3)): 146,
         ((0, 2), (0, 3), (1, 2), (1, 3)): 325},
    ),
}


@pytest.mark.parametrize("mode", ["vertex", "stub"])
def test_pinned_trajectory(mode):
    """A fixed seed replays one exact trajectory. The 10,000-step run spans
    three internal draw blocks, so any change to how draws are consumed or
    how outcomes are counted and banked shows up in these numbers."""
    stats, final, occupancy = PINNED_OCCUPANCY[mode]
    cfg = ChainConfig(triangle_prob=0.1, mode=mode, seed=0)
    chain = LoopyChain(LoopyGraph(4, [(0, 0), (1, 1), (2, 2), (3, 3)]), cfg)
    occ = {}
    chain.run(10_000, occ, stride=6)
    assert chain.stats == ChainStats(**stats)
    assert tuple(sorted(chain.current().edges)) == final
    assert chain.loop_count == sum(u == v for u, v in final)
    assert occ == occupancy


def test_two_edge_chain_rejects_every_triangle_proposal():
    # a triangle exchange needs three distinct edges; with two the proposal
    # must be counted as invalid before a third index is ever used
    cfg = ChainConfig(triangle_prob=0.5, seed=4)
    chain = LoopyChain(LoopyGraph(2, [(0, 0), (1, 1)]), cfg)
    occ = {}
    stats = chain.run(10_000, occ)
    assert stats.steps == 10_000
    assert stats.accepted_triangle == stats.rejected_triangle_filter == 0
    assert 4000 < stats.rejected_triangle_invalid < 6000
    # (0,0),(1,1) <-> (0,1),(0,1) would duplicate an edge: nothing moves
    assert stats.rejected_double_invalid == 10_000 - stats.rejected_triangle_invalid
    assert occ == {((0, 0), (1, 1)): 10_000}

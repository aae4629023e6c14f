"""Markov chain sampler over the loopy graphs of a fixed degree sequence.

Each step proposes either a double edge swap (two edges re-wired across four
stubs) or, with probability ``triangle_prob``, an exchange of a triangle for
three self-loops on its corners. Two acceptance filters are available:

* ``"vertex"`` mode targets the uniform distribution over graphs. Swaps that
  select exactly one self-loop are accepted with probability 1/2; such swaps
  always destroy the loop, and both pairings of the selected edges produce the
  same replacement, so the raw proposal is twice as likely as its reverse.
* ``"stub"`` mode accepts every valid double swap and damps triangle-to-loop
  exchanges by 1/8, which leaves each graph weighted by 2**(-loop count).

Proposals draw a fixed number of random values per step whether or not every
value is used, so chains with the same seed and the same schedule of ``run``
lengths follow identical trajectories; occupancy tracking never consumes
randomness.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .degseq import CONNECTED, DISCONNECTED, _realize, check_connectivity, realize_loopy_graph
from .graph import LoopyGraph

__all__ = [
    "ConfigError",
    "DegenerateGraph",
    "UnknownGraph",
    "ChainConfig",
    "ChainStats",
    "LoopyChain",
    "default_triangle_prob",
    "default_burn_in",
    "default_thinning",
    "prepare_chain",
    "sample",
    "sample_stream",
    "chi_square_fit",
]

_BLOCK = 4096


class ConfigError(ValueError):
    """Sampler configuration that cannot produce correct samples."""


class DegenerateGraph(ValueError):
    """Chain started on a graph with too few edges to propose any move."""


class UnknownGraph(KeyError):
    """An observed graph is absent from the reference distribution."""


@dataclass(frozen=True)
class ChainConfig:
    """Knobs for one chain.

    ``burn_in`` and ``thinning`` of None select size-based defaults
    (see ``default_burn_in`` / ``default_thinning``).
    """

    triangle_prob: float = 0.05
    mode: str = "vertex"
    seed: int | None = None
    burn_in: int | None = None
    thinning: int | None = None

    def validate(self):
        if not 0.0 <= self.triangle_prob < 1.0:
            raise ConfigError(f"triangle_prob must be in [0, 1), got {self.triangle_prob}")
        if self.mode not in ("vertex", "stub"):
            raise ConfigError(f"mode must be 'vertex' or 'stub', got {self.mode!r}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.thinning is not None and self.thinning < 1:
            raise ConfigError("thinning must be >= 1")


@dataclass
class ChainStats:
    """Outcome counters; every proposal lands in exactly one bucket.

    ``invalid`` rejections are structural (would duplicate an edge, double a
    loop, or change nothing); ``filter`` rejections are the probabilistic
    acceptance rule of the selected mode.
    """

    accepted_double: int = 0
    accepted_triangle: int = 0
    rejected_double_invalid: int = 0
    rejected_double_filter: int = 0
    rejected_triangle_invalid: int = 0
    rejected_triangle_filter: int = 0

    @property
    def steps(self) -> int:
        return self.accepted + self.rejected

    @property
    def accepted(self) -> int:
        return self.accepted_double + self.accepted_triangle

    @property
    def rejected(self) -> int:
        return (self.rejected_double_invalid + self.rejected_double_filter
                + self.rejected_triangle_invalid + self.rejected_triangle_filter)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps if self.steps else 0.0

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "accepted_double": self.accepted_double,
            "accepted_triangle": self.accepted_triangle,
            "rejected": self.rejected,
            "rejected_double_invalid": self.rejected_double_invalid,
            "rejected_double_filter": self.rejected_double_filter,
            "rejected_triangle_invalid": self.rejected_triangle_invalid,
            "rejected_triangle_filter": self.rejected_triangle_filter,
            "acceptance_rate": self.acceptance_rate,
        }


def default_triangle_prob(degrees) -> float:
    """0.0 when plain double swaps already reach every realization (triangle
    exchanges would be wasted work), 0.05 otherwise."""
    return 0.0 if check_connectivity(tuple(degrees)).status == CONNECTED else 0.05


def default_burn_in(m: int) -> int:
    """Steps to discard before the first sample: ~10 * edges * ln(edges)."""
    return max(1, int(10 * m * math.log(max(m, 2))))


def default_thinning(m: int) -> int:
    """Steps between retained samples: one sweep worth of proposals."""
    return max(1, m)


class LoopyChain:
    """Mutable chain state over one degree sequence's graphs.

    The edge count never changes, so edges live in a fixed-length list, which
    the draws index, beside a set of the same edges, which answers membership
    tests; an accepted move rewrites list slots in place and swaps the set's
    members. ``current()`` copies the set. Randomness comes from a numpy
    generator drained in blocks.
    """

    def __init__(self, graph: LoopyGraph, config: ChainConfig | None = None, rng=None):
        self.config = config or ChainConfig()
        self.config.validate()
        edges = sorted(graph.edges)
        if len(edges) < 2:
            raise DegenerateGraph("chain needs at least two edges to propose swaps")
        self.n = graph.n
        self._edges: list[tuple[int, int]] = edges
        self._edge_set: set[tuple[int, int]] = set(edges)
        self._m = len(edges)
        self._rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.stats = ChainStats()

    @property
    def loop_count(self) -> int:
        return sum(u == v for u, v in self._edges)

    def current(self) -> LoopyGraph:
        """Immutable snapshot of the state."""
        return LoopyGraph.from_edge_set(self.n, frozenset(self._edge_set))

    def run(self, steps: int, occupancy: dict | None = None, stride: int = 1) -> ChainStats:
        """Advance ``steps`` proposals and return the running totals.

        When ``occupancy`` is given, it accumulates how many retained steps
        landed in each state (key: sorted edge tuple), the visit histogram a
        stationarity test needs; it is filled in when ``run`` returns.
        Rejected proposals count for the unchanged state. ``stride`` keeps one
        step in every ``stride`` (the state after steps ``stride``,
        ``2*stride``, ...), so the histogram totals ``steps // stride``;
        thinning this way damps the serial correlation that would otherwise
        inflate a goodness-of-fit statistic.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        edges = self._edges
        edge_set = self._edge_set
        add = edge_set.add
        remove = edge_set.remove
        m = self._m
        rng = self._rng
        eps = self.config.triangle_prob
        vertex_mode = self.config.mode == "vertex"
        k_span = m - 2 if m > 2 else 1
        no_triangles = m < 3
        track = occupancy is not None
        # while running, stays are banked under the positional edge tuple and
        # folded into sorted-edge keys once, at the end
        bank: dict[tuple, int] = {}
        key = tuple(edges) if track else None
        held = 0  # retained slot (completed steps // stride) of the current state
        acc_d = acc_t = rej_d_inv = rej_d_filt = rej_t_inv = rej_t_filt = 0

        done = 0
        while done < steps:
            block = min(_BLOCK, steps - done)
            u1 = np.asarray(rng.random(block))
            i_arr = np.asarray(rng.integers(0, m, block))
            j_arr = np.asarray(rng.integers(0, m - 1, block))
            k_arr = np.asarray(rng.integers(0, k_span, block))
            bits = np.asarray(rng.integers(0, 2, block))
            u2 = np.asarray(rng.random(block))
            # j and k index the edges left after removing the earlier picks
            j_arr = j_arr + (j_arr >= i_arr)
            k_arr = k_arr + (k_arr >= np.minimum(i_arr, j_arr))
            k_arr += k_arr >= np.maximum(i_arr, j_arr)
            tri = u1 < eps
            k_arr = np.where(tri, k_arr, -1)  # -1 marks a double swap
            # the one acceptance coin each mode flips, masked to its move type
            coin = ~tri & (u2 >= 0.5) if vertex_mode else tri & (u2 >= 0.125)
            for g, i, j, k, bit, reject_coin in zip(
                    range(done, done + block), i_arr.tolist(), j_arr.tolist(),
                    k_arr.tolist(), bits.tolist(), coin.tolist()):
                if k < 0:
                    e1 = edges[i]
                    e2 = edges[j]
                    p, q = e1
                    if bit:
                        y, x = e2
                    else:
                        x, y = e2
                    a1 = (p, x) if p <= x else (x, p)
                    a2 = (q, y) if q <= y else (y, q)
                    if a1 == a2 or a1 in edge_set or a2 in edge_set:
                        rej_d_inv += 1
                        continue
                    if reject_coin and (p == q) != (x == y):
                        # vertex mode: exactly one loop selected
                        rej_d_filt += 1
                        continue
                    remove(e1)
                    remove(e2)
                    add(a1)
                    add(a2)
                    edges[i] = a1
                    edges[j] = a2
                    acc_d += 1
                elif no_triangles:
                    rej_t_inv += 1
                    continue
                else:
                    e1 = edges[i]
                    e2 = edges[j]
                    e3 = edges[k]
                    nloops = (e1[0] == e1[1]) + (e2[0] == e2[1]) + (e3[0] == e3[1])
                    if nloops == 3:
                        u, v, w = sorted((e1[0], e2[0], e3[0]))
                        t1 = (u, v)
                        t2 = (u, w)
                        t3 = (v, w)
                        if t1 in edge_set or t2 in edge_set or t3 in edge_set:
                            rej_t_inv += 1
                            continue
                        # loops -> triangle: accepted outright in both modes
                        remove(e1)
                        remove(e2)
                        remove(e3)
                        add(t1)
                        add(t2)
                        add(t3)
                        edges[i], edges[j], edges[k] = t1, t2, t3
                        acc_t += 1
                    elif nloops == 0:
                        verts = {e1[0], e1[1], e2[0], e2[1], e3[0], e3[1]}
                        if len(verts) != 3:
                            rej_t_inv += 1
                            continue
                        u, v, w = sorted(verts)
                        l1 = (u, u)
                        l2 = (v, v)
                        l3 = (w, w)
                        if l1 in edge_set or l2 in edge_set or l3 in edge_set:
                            rej_t_inv += 1
                            continue
                        if reject_coin:
                            # stub mode damps triangle -> loops by 1/8
                            rej_t_filt += 1
                            continue
                        remove(e1)
                        remove(e2)
                        remove(e3)
                        add(l1)
                        add(l2)
                        add(l3)
                        edges[i], edges[j], edges[k] = l1, l2, l3
                        acc_t += 1
                    else:
                        rej_t_inv += 1
                        continue
                if track:
                    # state changed at step g; bank the stay in the old state
                    slot = g // stride
                    if slot != held:
                        bank[key] = bank.get(key, 0) + slot - held
                        held = slot
                    key = tuple(edges)
            done += block

        stats = self.stats
        stats.accepted_double += acc_d
        stats.accepted_triangle += acc_t
        stats.rejected_double_invalid += rej_d_inv
        stats.rejected_double_filter += rej_d_filt
        stats.rejected_triangle_invalid += rej_t_inv
        stats.rejected_triangle_filter += rej_t_filt
        if track and steps:
            stay = steps // stride - held
            if stay:
                bank[key] = bank.get(key, 0) + stay
            for positional, count in bank.items():
                state = tuple(sorted(positional))
                occupancy[state] = occupancy.get(state, 0) + count
        return stats


def prepare_chain(degrees, config: ChainConfig | None = None) -> tuple[LoopyChain | None, LoopyGraph]:
    """Burned-in chain for a degree sequence, plus the starting realization.

    The chain slot is None when the sequence admits fewer than two edges; the
    space then holds exactly one graph and there is nothing to walk. Raises
    ``NotLoopyGraphical`` for impossible sequences and ``ConfigError`` when
    ``triangle_prob`` is zero but plain swaps provably cannot reach the whole
    space.
    """
    cfg = config or ChainConfig()
    cfg.validate()
    ds = [int(d) for d in degrees]
    if cfg.triangle_prob == 0.0:
        # the guard's verdict carries m*, so the start graph reuses it
        report = check_connectivity(ds)
        if report.status == DISCONNECTED:
            raise ConfigError(
                "triangle_prob=0 cannot sample this sequence: the swap space "
                f"is disconnected ({report.detail})"
            )
        initial = _realize(ds, report.m_star)
    else:
        initial = realize_loopy_graph(ds)
    if len(initial.edges) < 2:
        return None, initial
    chain = LoopyChain(initial, cfg)
    burn = cfg.burn_in if cfg.burn_in is not None else default_burn_in(len(initial.edges))
    chain.run(burn)
    return chain, initial


def sample_stream(degrees, count: int, config: ChainConfig | None = None) -> Iterator[LoopyGraph]:
    """Yield ``count`` graphs with the given degree sequence, one at a time.

    A realization is built greedily, the chain is burned in, and thereafter
    one snapshot is emitted every ``thinning`` steps.
    """
    cfg = config or ChainConfig()
    if count < 0:
        raise ValueError("count must be >= 0")
    chain, initial = prepare_chain(degrees, cfg)
    if chain is None:
        for _ in range(count):
            yield initial
        return
    thin = cfg.thinning if cfg.thinning is not None else default_thinning(len(initial.edges))
    for _ in range(count):
        chain.run(thin)
        yield chain.current()


def sample(degrees, count: int, config: ChainConfig | None = None) -> list[LoopyGraph]:
    """``sample_stream`` collected into a list."""
    return list(sample_stream(degrees, count, config))


def chi_square_fit(observed, expected: Mapping[bytes, float]) -> tuple[float, float]:
    """Pearson goodness-of-fit of sampled graphs against target weights.

    ``observed`` is either a mapping from canonical key to count or an
    iterable of canonical keys. ``expected`` maps every reachable graph's
    canonical key to its target probability. Returns ``(statistic, p_value)``.
    Raises ``UnknownGraph`` if a sample falls outside ``expected``.
    """
    if isinstance(observed, Mapping):
        counts = dict(observed)
    else:
        counts = Counter(observed)
    stray = set(counts) - set(expected)
    if stray:
        raise UnknownGraph(f"{len(stray)} observed graph(s) missing from the reference set")
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("no observations")
    norm = sum(expected.values())
    keys = list(expected)
    if len(keys) < 2:
        return 0.0, 1.0
    f_obs = [counts.get(k, 0) for k in keys]
    f_exp = [expected[k] / norm * total for k in keys]
    from scipy.stats import chisquare

    stat, p = chisquare(f_obs, f_exp)
    return float(stat), float(p)

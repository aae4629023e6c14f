"""Exhaustive desk-scale verification: enumerate every labeled loopy graph of
a degree sequence, build the meta-graph whose nodes are realizations and whose
edges are single swaps, and check the structural claims the fast tests and the
sampler rely on.

Everything here is brute force on purpose; it is the independent side of every
dual-route check. One helper serves ``verify_sequence`` and
``build_swap_graph``: it codes each realization of a space once, as one bit
per vertex pair of a shared pair-bit table, runs the ``swaps`` generators on
the codes, and looks each neighbour code up in the space's index; one
union-find, continued from the double swaps to the triangle/loop exchanges,
gives both labelings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .degseq import detect_disconnected, is_loopy_graphical, max_degree_guarantees_connected
from .graph import LoopyGraph, is_in_clique_trap, is_in_cycle_trap
from .swaps import double_neighbor_edge_sets, triangle_neighbor_edge_sets

__all__ = [
    "BoundExceeded",
    "UnknownNeighbor",
    "SwapGraph",
    "DEFAULT_ENUM_BOUND",
    "enumerate_loopy_graphs",
    "build_swap_graph",
    "components",
    "stationary_distribution",
    "verify_sequence",
    "generate_sequences",
    "run_sweep",
    "to_dot",
]

DEFAULT_ENUM_BOUND = 16
CHECK_MEANINGS = {
    "a": "space is swap-disconnected iff some realization sits in a trap class",
    "b": "trap classes are closed under valid double swaps",
    "c": "triangle/loop exchanges make the space one component",
    "d": "max-degree certificate never contradicts brute-force components",
    "e": "peeling detector verdict matches brute-force components",
    # max-loopy: carries m* loops, the most any realization carries
    "f": "all max-loopy realizations share one double-swap component",
    "g": "each component's most-loop realizations are max-loopy or have a loop-free triangle",
}


class BoundExceeded(ValueError):
    """Degree sum too large for exhaustive enumeration."""


class UnknownNeighbor(KeyError):
    """A swap produced a graph missing from the enumeration (never expected)."""


def _enumerate_edge_lists(ds: tuple[int, ...]):
    """Yield every valid edge set realizing ``ds``, each exactly once, as a
    tuple of normalized edges in ascending order.

    Vertices are finished in index order; a vertex's loop choice and its
    full forward partner set are decided in one step, so no wiring is ever
    produced twice, and the edges come out sorted.
    """
    n = len(ds)
    residual = list(ds)
    edges: list[tuple[int, int]] = []

    def rec(u: int):
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield tuple(edges)
            return
        r = residual[u]
        candidates = [v for v in range(u + 1, n) if residual[v] > 0]
        loop_options = (0, 1) if r >= 2 else (0,)
        for loop in loop_options:
            k = r - 2 * loop
            if k > len(candidates):
                continue
            if loop:
                edges.append((u, u))
            for combo in combinations(candidates, k):
                for v in combo:
                    residual[v] -= 1
                    edges.append((u, v))
                yield from rec(u + 1)
                for v in combo:
                    residual[v] += 1
                del edges[len(edges) - k:]
            if loop:
                edges.pop()

    if sum(ds) % 2 == 0 and all(d >= 0 for d in ds):
        yield from rec(0)


def enumerate_loopy_graphs(ds, max_sum: int = DEFAULT_ENUM_BOUND) -> list[LoopyGraph]:
    """All labeled loopy graphs with degree sequence ``ds``.

    Raises ``BoundExceeded`` when ``sum(ds)`` is above ``max_sum``; the count
    can grow factorially with the degree sum.
    """
    ds = tuple(int(d) for d in ds)
    if sum(ds) > max_sum:
        raise BoundExceeded(f"degree sum {sum(ds)} exceeds bound {max_sum}")
    n = len(ds)
    return [LoopyGraph.from_edge_set(n, frozenset(es)) for es in _enumerate_edge_lists(ds)]


def _pair_bits(n: int) -> list[list[int]]:
    """The pair-bit table: ``pair_bit[u][v] == pair_bit[v][u]`` is the bit
    of pair {u, v}, numbered row by row over ``u <= v``."""
    pair_bit = [[0] * n for _ in range(n)]
    bit = 1
    for u in range(n):
        for v in range(u, n):
            pair_bit[u][v] = pair_bit[v][u] = bit
            bit <<= 1
    return pair_bit


def _targets(codes, index: dict[int, int], pair_bit) -> list[int]:
    """Index of the graph behind each neighbour code."""
    try:
        return list(map(index.__getitem__, codes))
    except KeyError as exc:
        code = exc.args[0]
        n = len(pair_bit)
        missing = [(u, v) for u in range(n) for v in range(u, n) if code & pair_bit[u][v]]
        raise UnknownNeighbor(f"swap result missing from enumeration: {missing}") from None


def _union(parent: list[int], i: int, js) -> None:
    """Join ``i`` with every index in ``js``; other roots hang under i's."""
    ri = i
    while parent[ri] != ri:
        ri = parent[ri]
    for j in js:
        rj = parent[j]
        while parent[rj] != rj:
            parent[j] = rj = parent[rj]
        if rj != ri:
            parent[rj] = ri


def _labels(parent: list[int]) -> tuple[list[int], int]:
    """Component labels numbered 0..count-1 in node order."""
    remap: dict[int, int] = {}
    out = []
    for a in range(len(parent)):
        root = a
        while parent[root] != root:
            root = parent[root]
        label = remap.get(root)
        if label is None:
            label = remap[root] = len(remap)
        out.append(label)
    return out, len(remap)


@dataclass
class SwapGraph:
    """Meta-graph over one degree sequence: nodes are realizations, edges are
    single valid moves. ``triangle_adjacency`` & friends are None when the
    triangle moves were not requested."""

    nodes: list[LoopyGraph]
    index: dict[bytes, int]
    double_adjacency: list[tuple[int, ...]]
    triangle_adjacency: list[tuple[int, ...]] | None
    components_double: list[int]
    n_components_double: int
    components_triangle: list[int] | None
    n_components_triangle: int | None


def _sorted_neighbors(i: int, js: list[int]) -> tuple[int, ...]:
    nbrs = set(js)
    nbrs.discard(i)
    return tuple(sorted(nbrs))


def _move_pass(n: int, edge_lists, include_triangle: bool = True):
    """Code each graph of one space (sorted edge lists on ``n`` vertices)
    once and run both move passes over the codes.

    Returns ``(double, comp_d, ncomp_d, triangle, comp_t, ncomp_t)``: the
    target indices of each graph's double swaps, the labels and count of the
    double-swap components, then the same for the triangle/loop exchanges,
    with labels and count under both move types (three Nones when
    ``include_triangle`` is false). Raises ``UnknownNeighbor`` when a move
    leads outside the space.
    """
    pair_bit = _pair_bits(n)
    codes = [sum([pair_bit[u][v] for u, v in edges]) for edges in edge_lists]
    index = {code: i for i, code in enumerate(codes)}
    parent = list(range(len(codes)))
    passes = [double_neighbor_edge_sets]
    if include_triangle:
        passes.append(triangle_neighbor_edge_sets)
    out = []
    for moves in passes:
        targets = [_targets(moves(edges, code, pair_bit), index, pair_bit)
                   for edges, code in zip(edge_lists, codes)]
        for i, js in enumerate(targets):
            _union(parent, i, js)
        out += [targets, *_labels(parent)]
    return tuple(out) if include_triangle else (*out, None, None, None)


def build_swap_graph(graphs: list[LoopyGraph], include_triangle: bool = True) -> SwapGraph:
    """Adjacency, via one-move neighborhoods, over an enumerated space."""
    double, comp_d, ncomp_d, triangle, comp_t, ncomp_t = _move_pass(
        max((g.n for g in graphs), default=0), [sorted(g.edges) for g in graphs],
        include_triangle)
    return SwapGraph(
        nodes=list(graphs),
        index={g.canonical_key(): i for i, g in enumerate(graphs)},
        double_adjacency=[_sorted_neighbors(i, js) for i, js in enumerate(double)],
        triangle_adjacency=(None if triangle is None else
                            [_sorted_neighbors(i, js) for i, js in enumerate(triangle)]),
        components_double=comp_d,
        n_components_double=ncomp_d,
        components_triangle=comp_t,
        n_components_triangle=ncomp_t,
    )


def components(swap_graph: SwapGraph, triangle: bool = False) -> tuple[list[int], int]:
    """Component label per node plus component count."""
    if triangle:
        if swap_graph.components_triangle is None:
            raise ValueError("swap graph was built without triangle moves")
        return list(swap_graph.components_triangle), swap_graph.n_components_triangle
    return list(swap_graph.components_double), swap_graph.n_components_double


def _has_loopless_triangle(edge_set) -> bool:
    looped = {u for u, v in edge_set if u == v}
    adj: dict[int, set[int]] = {}
    for u, v in edge_set:
        if u != v and u not in looped and v not in looped:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    for u, v in edge_set:
        if u != v and u in adj and v in adj and adj[u] & adj[v]:
            return True
    return False


def stationary_distribution(graphs: list[LoopyGraph], mode: str) -> dict[bytes, float]:
    """Target weights of the sampler over an enumerated collection.

    ``"vertex"`` weights every graph equally; ``"stub"`` weights each graph
    proportionally to 2**(-loop count).
    """
    if mode == "vertex":
        w = [1.0] * len(graphs)
    elif mode == "stub":
        w = [2.0 ** (-g.loop_count()) for g in graphs]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    total = sum(w)
    return {g.canonical_key(): wi / total for g, wi in zip(graphs, w)}


def verify_sequence(ds, max_sum: int = DEFAULT_ENUM_BOUND) -> dict:
    """Brute-force the whole space of ``ds`` and run consistency checks a-g.

    See ``CHECK_MEANINGS`` for what each letter asserts. A realization is
    max-loopy when it carries m* loops, the most any realization of ``ds``
    carries; where the loops sit does not matter. The report is JSON-ready:
    ``{sequence, n_graphs, components_double, components_triangle,
    disconnected, q1_count, q2_count, checks}``.
    """
    ds = tuple(int(d) for d in ds)
    if sum(ds) > max_sum:
        raise BoundExceeded(f"degree sum {sum(ds)} exceeds bound {max_sum}")
    report = detect_disconnected(ds)  # raises NotLoopyGraphical for infeasible input
    mstar = report.m_star
    n = len(ds)
    edge_lists = list(_enumerate_edge_lists(ds))
    count = len(edge_lists)

    trap_class = [0] * count  # bit 0: clique trap, bit 1: cycle trap
    loops = [0] * count
    for i, edges in enumerate(edge_lists):
        g = LoopyGraph.from_edge_set(n, frozenset(edges))
        trap_class[i] = is_in_clique_trap(g) | is_in_cycle_trap(g) << 1
        loops[i] = g.loop_count()

    double, comp_d, ncomp_d, _, _, ncomp_t = _move_pass(n, edge_lists)
    closure_ok = all(trap_class[j] == cls
                     for cls, targets in zip(trap_class, double) if cls for j in targets)
    disconnected = ncomp_d > 1
    q1_count = sum(c & 1 for c in trap_class)
    q2_count = sum(c >> 1 for c in trap_class)

    best = [0] * ncomp_d  # most loops in each double-swap component
    for k, c in zip(loops, comp_d):
        best[c] = max(best[c], k)
    checks = {
        "a": disconnected == (q1_count + q2_count > 0),
        "b": closure_ok,
        "c": ncomp_t == 1,
        "d": (not max_degree_guarantees_connected(ds)) or not disconnected,
        "e": (report.status == "disconnected") == disconnected,
        "f": len({c for k, c in zip(loops, comp_d) if k == mstar}) <= 1,
        "g": all(k == mstar or k < best[c] or _has_loopless_triangle(edges)
                 for k, c, edges in zip(loops, comp_d, edge_lists)),
    }
    return {
        "sequence": list(ds),
        "n_graphs": count,
        "components_double": ncomp_d,
        "components_triangle": ncomp_t,
        "disconnected": disconnected,
        "q1_count": q1_count,
        "q2_count": q2_count,
        "checks": checks,
    }


# -- sweeping every small sequence -------------------------------------------

def generate_sequences(max_sum: int) -> list[tuple[int, ...]]:
    """Every loopy-graphical non-increasing sequence of positive degrees with
    an even sum up to ``max_sum``."""
    seqs: list[tuple[int, ...]] = []

    def parts(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            seqs.append(tuple(prefix))
            return
        for v in range(min(cap, remaining), 0, -1):
            prefix.append(v)
            parts(remaining - v, v, prefix)
            prefix.pop()

    for total in range(2, max_sum + 1, 2):
        parts(total, total, [])
    return [s for s in seqs if is_loopy_graphical(s)]


def _sweep_worker(args) -> dict:
    ds, max_sum = args
    return verify_sequence(ds, max_sum=max_sum)


def run_sweep(max_sum: int, workers: int | None = None) -> list[dict]:
    """``verify_sequence`` over every sequence from ``generate_sequences``.

    ``workers`` defaults to the LOOPY_THREADS environment variable, then to
    the CPU count. Reports come back in sequence order regardless of worker
    scheduling.
    """
    seqs = generate_sequences(max_sum)
    if workers is None:
        workers = int(os.environ.get("LOOPY_THREADS", os.cpu_count() or 1))
    tasks = [(s, max_sum) for s in seqs]
    if workers <= 1 or len(tasks) <= 1:
        return [_sweep_worker(t) for t in tasks]
    from multiprocessing import Pool

    with Pool(workers) as pool:
        return pool.map(_sweep_worker, tasks, chunksize=1)


def to_dot(swap_graph: SwapGraph, label_loops: bool = True) -> str:
    """GraphViz text for a swap meta-graph: solid = double swap, dashed =
    triangle/loop exchange."""
    lines = ["graph swapspace {"]
    for i, g in enumerate(swap_graph.nodes):
        label = f"{i}:{g.loop_count()}l" if label_loops else str(i)
        lines.append(f'  n{i} [label="{label}"];')
    for i, nbrs in enumerate(swap_graph.double_adjacency):
        for j in nbrs:
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    if swap_graph.triangle_adjacency is not None:
        for i, nbrs in enumerate(swap_graph.triangle_adjacency):
            for j in nbrs:
                if i < j:
                    lines.append(f"  n{i} -- n{j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"

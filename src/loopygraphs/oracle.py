"""Exhaustive desk-scale verification: enumerate every labeled loopy graph of
a degree sequence, build the meta-graph whose nodes are realizations and whose
edges are single swaps, and check the structural claims the fast tests and the
sampler rely on.

Everything here is brute force on purpose; it is the independent side of every
dual-route check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .degseq import (
    detect_disconnected,
    is_loopy_graphical,
    max_degree_guarantees_connected,
    max_loop_count,
)
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
    "max_loop_representatives",
    "stationary_distribution",
    "is_max_loopy",
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
    "f": "all max-loop realizations share one double-swap component",
    "g": "max-loop representatives without a loop-free triangle are max-loopy",
}


class BoundExceeded(ValueError):
    """Degree sum too large for exhaustive enumeration."""


class UnknownNeighbor(KeyError):
    """A swap produced a graph missing from the enumeration (never expected)."""


def _enumerate_edge_sets(ds: tuple[int, ...]):
    """Yield every valid edge set realizing ``ds``, each exactly once.

    Vertices are finished in index order; a vertex's loop choice and its
    full forward partner set are decided in one step, so no wiring is ever
    produced twice.
    """
    n = len(ds)
    residual = list(ds)
    edges: list[tuple[int, int]] = []

    def rec(u: int):
        while u < n and residual[u] == 0:
            u += 1
        if u == n:
            yield frozenset(edges)
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
    return [LoopyGraph.from_edge_set(n, es) for es in _enumerate_edge_sets(ds)]


def _code_space(n: int, edge_sets) -> tuple[dict, list[int], dict[int, int]]:
    """Give each vertex pair ``(u, v)``, ``u <= v``, one bit, code every edge
    set as the sum of its edges' bits, and index the space by code."""
    bit = {}
    for u in range(n):
        for v in range(u, n):
            bit[u, v] = 1 << len(bit)
    masks = [sum(map(bit.__getitem__, es)) for es in edge_sets]
    return bit, masks, {m: i for i, m in enumerate(masks)}


def _unknown(bit: dict, mask: int) -> UnknownNeighbor:
    missing = [e for e, b in bit.items() if mask & b]
    return UnknownNeighbor(f"swap result missing from enumeration: {missing}")


def _double_targets(edge_list, edge_set, mask, bit, index) -> list[int]:
    """Index of the graph each yielded double swap leads to, the move applied
    to the graph's code as bit flips."""
    try:
        return [index[mask ^ bit[r1] ^ bit[r2] | bit[a1] | bit[a2]]
                for (r1, r2), (a1, a2) in double_neighbor_edge_sets(edge_list, edge_set)]
    except KeyError as exc:
        raise _unknown(bit, exc.args[0]) from None


def _triangle_targets(edge_list, edge_set, mask, bit, index) -> list[int]:
    """As ``_double_targets``, for the triangle/loop exchanges."""
    try:
        return [index[mask ^ bit[r1] ^ bit[r2] ^ bit[r3] | bit[a1] | bit[a2] | bit[a3]]
                for (r1, r2, r3), (a1, a2, a3)
                in triangle_neighbor_edge_sets(edge_list, edge_set)]
    except KeyError as exc:
        raise _unknown(bit, exc.args[0]) from None


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


def build_swap_graph(graphs: list[LoopyGraph], include_triangle: bool = True) -> SwapGraph:
    """Adjacency, via one-move neighborhoods, over an enumerated space."""
    edge_sets = [g.edges for g in graphs]
    bit, masks, set_index = _code_space(max((g.n for g in graphs), default=0), edge_sets)
    parent = list(range(len(graphs)))
    double_adj = []
    for i, es in enumerate(edge_sets):
        double = _double_targets(sorted(es), es, masks[i], bit, set_index)
        double_adj.append(_sorted_neighbors(i, double))
        _union(parent, i, double)
    comp_d, ncomp_d = _labels(parent)
    triangle_adj, comp_t, ncomp_t = None, None, None
    if include_triangle:
        triangle_adj = []
        for i, es in enumerate(edge_sets):
            triangle = _triangle_targets(sorted(es), es, masks[i], bit, set_index)
            triangle_adj.append(_sorted_neighbors(i, triangle))
            _union(parent, i, triangle)
        comp_t, ncomp_t = _labels(parent)
    return SwapGraph(
        nodes=list(graphs),
        index={g.canonical_key(): i for i, g in enumerate(graphs)},
        double_adjacency=double_adj,
        triangle_adjacency=triangle_adj,
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


def _loopless_internal_edge_count(edge_set) -> int:
    looped = {u for u, v in edge_set if u == v}
    return sum(1 for u, v in edge_set if u != v and u not in looped and v not in looped)


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


def _representatives(members: list[int], loops, edge_sets) -> list[int]:
    """The members with the most self-loops, ties broken toward the most
    edges among loop-free vertices; every member achieving both maxima, in
    ``members`` order."""
    best_loops = max(loops[i] for i in members)
    tied = [i for i in members if loops[i] == best_loops]
    scores = [_loopless_internal_edge_count(edge_sets[i]) for i in tied]
    best_score = max(scores)
    return [i for i, score in zip(tied, scores) if score == best_score]


def is_max_loopy(graph: LoopyGraph, mstar: int | None = None) -> bool:
    """Does the graph carry the maximum possible loops, placed on a
    top-degree vertex set?  Ties at the cut are allowed: any loop placement
    where every looped vertex's degree is >= every unlooped vertex's counts."""
    ds = graph.degree_sequence()
    if mstar is None:
        mstar = max_loop_count(ds)
    looped = [u for u, v in graph.edges if u == v]
    if len(looped) != mstar:
        return False
    loop_set = set(looped)
    lo = min((ds[u] for u in looped), default=None)
    hi = max((ds[u] for u in range(graph.n) if u not in loop_set), default=None)
    return lo is None or hi is None or lo >= hi


def max_loop_representatives(swap_graph: SwapGraph, component: int) -> list[LoopyGraph]:
    """Graphs of one double-swap component with the most self-loops; ties are
    broken toward the most edges among loop-free vertices, and every graph
    achieving both maxima is returned."""
    members = [i for i, c in enumerate(swap_graph.components_double) if c == component]
    if not members:
        raise ValueError(f"no such component: {component}")
    nodes = swap_graph.nodes
    reps = _representatives(members, {i: nodes[i].loop_count() for i in members},
                            {i: nodes[i].edges for i in members})
    return [nodes[i] for i in reps]


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

    See ``CHECK_MEANINGS`` for what each letter asserts. The report is
    JSON-ready: ``{sequence, n_graphs, components_double,
    components_triangle, disconnected, q1_count, q2_count, checks}``.
    """
    ds = tuple(int(d) for d in ds)
    if sum(ds) > max_sum:
        raise BoundExceeded(f"degree sum {sum(ds)} exceeds bound {max_sum}")
    mstar = max_loop_count(ds)  # raises NotLoopyGraphical for infeasible input
    n = len(ds)
    edge_sets = list(_enumerate_edge_sets(ds))
    count = len(edge_sets)
    bit, masks, set_index = _code_space(n, edge_sets)

    trap_class = [0] * count  # bit 0: clique trap, bit 1: cycle trap
    loops = [0] * count
    maxloopy = [False] * count
    for i, es in enumerate(edge_sets):
        g = LoopyGraph.from_edge_set(n, es)
        trap_class[i] = is_in_clique_trap(g) | is_in_cycle_trap(g) << 1
        loops[i] = g.loop_count()
        # is_max_loopy rejects every other loop count; skip its degree scan
        maxloopy[i] = loops[i] == mstar and is_max_loopy(g, mstar)

    # one union-find: double swaps first, then the same forest continued with
    # the triangle/loop exchanges
    parent = list(range(count))
    triangle_moves = []
    closure_ok = True
    for i, es in enumerate(edge_sets):
        edge_list = sorted(es)
        double = _double_targets(edge_list, es, masks[i], bit, set_index)
        _union(parent, i, double)
        triangle = _triangle_targets(edge_list, es, masks[i], bit, set_index)
        if triangle:
            triangle_moves.append((i, triangle))
        cls = trap_class[i]
        if cls and closure_ok:
            closure_ok = all(trap_class[j] == cls for j in double)
    comp_d, ncomp_d = _labels(parent)
    for i, triangle in triangle_moves:
        _union(parent, i, triangle)
    _, ncomp_t = _labels(parent)
    disconnected = ncomp_d > 1
    q1_count = sum(c & 1 for c in trap_class)
    q2_count = sum(c >> 1 for c in trap_class)

    # f: every max-loop realization in one double-swap component
    maxloopy_roots = {comp_d[i] for i in range(count) if maxloopy[i]}
    check_f = len(maxloopy_roots) <= 1

    # g: representatives without a loop-free triangle must be max-loopy
    members: list[list[int]] = [[] for _ in range(ncomp_d)]
    for i, c in enumerate(comp_d):
        members[c].append(i)
    check_g = all(maxloopy[i] or _has_loopless_triangle(edge_sets[i])
                  for group in members for i in _representatives(group, loops, edge_sets))

    detected = detect_disconnected(ds).status == "disconnected"
    checks = {
        "a": disconnected == (q1_count + q2_count > 0),
        "b": closure_ok,
        "c": ncomp_t == 1,
        "d": (not max_degree_guarantees_connected(ds)) or not disconnected,
        "e": detected == disconnected,
        "f": check_f,
        "g": check_g,
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

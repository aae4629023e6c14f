"""Degree-sequence analysis: feasibility, realization, and connectivity of the
space of loopy graphs under double edge swaps.

A sequence is *loopy-graphical* when some labeled loopy graph realizes it.
Placing ``m`` self-loops on the ``m`` largest-degree vertices and asking the
remainder to be simple-graphical decides this; the largest feasible ``m`` is
the maximum number of self-loops any realization can carry.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from itertools import accumulate
from operator import neg

from .graph import LoopyGraph

__all__ = [
    "NotLoopyGraphical",
    "ConnectivityReport",
    "is_simple_graphical",
    "is_graphical_with_loops",
    "max_loop_count",
    "is_loopy_graphical",
    "realize_loopy_graph",
    "max_degree_guarantees_connected",
    "detect_disconnected",
    "check_connectivity",
    "parse_degree_sequences",
]

CONNECTED = "connected"
DISCONNECTED = "disconnected"


class NotLoopyGraphical(ValueError):
    """Raised when no loopy graph realizes the degree sequence."""


@dataclass(frozen=True)
class ConnectivityReport:
    """Verdict on whether double swaps connect the space of realizations.

    ``status`` is ``"connected"`` or ``"disconnected"``; a disconnected
    verdict always carries a ``witness`` realization that no swap sequence
    can turn into a max-loop graph. ``method`` records which test decided
    (``"max_degree_bound"``, ``"peeling"``, or ``"degenerate"``), ``detail``
    the structural case. ``m_star`` is the maximum number of self-loops any
    realization carries, worked out once on the way to the verdict.
    """

    status: str
    method: str
    detail: str = ""
    witness: LoopyGraph | None = None
    m_star: int = field(kw_only=True)


def _erdos_gallai(ds: list[int]) -> bool:
    """Erdos-Gallai test on a non-increasing list of non-negative degrees
    with an even sum.

    Runs in O(n log n): the tail term sum(min(d_i, k)) comes from prefix sums
    plus a binary search for the first degree below k, and the inequality only
    needs checking while the k-th largest degree is at least k (smaller k are
    implied by the earlier ones).
    """
    n = len(ds)
    if n and ds[0] > n - 1:
        return False
    prefix = list(accumulate(ds, initial=0))
    total = prefix[n]
    for k in range(1, n + 1):
        if ds[k - 1] < k:
            break
        cut = bisect.bisect_right(ds, -k, key=neg)  # first index with degree < k
        cnt = cut - k if cut > k else 0
        if prefix[k] > k * (k - 1) + k * cnt + total - prefix[k + cnt]:
            return False
    return True


def _even_and_nonnegative(ds: list[int]) -> bool:
    """No entry of the non-increasing ``ds`` is negative and the sum is
    even; no loop count can repair either."""
    return not (ds and ds[-1] < 0 or sum(ds) % 2)


def _fits_loops(ds: list[int], m: int) -> bool:
    """Loops on the first ``m`` entries of the non-increasing ``ds``, each
    at least 2, leave a simple-graphical rest. The reduced list is two
    non-increasing runs, so re-sorting it is a linear merge."""
    reduced = [d - 2 for d in ds[:m]]
    reduced += ds[m:]
    reduced.sort(reverse=True)
    return _erdos_gallai(reduced)


def is_simple_graphical(degrees) -> bool:
    """Erdos-Gallai test: can a simple graph (no loops) realize ``degrees``?"""
    ds = sorted((int(d) for d in degrees), reverse=True)
    return _even_and_nonnegative(ds) and _erdos_gallai(ds)


def is_graphical_with_loops(degrees, m: int) -> bool:
    """Can ``degrees`` be realized with self-loops on exactly the ``m``
    largest-degree vertices?  True iff subtracting 2 from the ``m`` largest
    entries leaves a simple-graphical sequence with no negative entry."""
    ds = sorted((int(d) for d in degrees), reverse=True)
    if not 0 <= m <= len(ds):
        raise ValueError(f"loop count {m} out of range for {len(ds)} vertices")
    return _even_and_nonnegative(ds) and (m == 0 or ds[m - 1] >= 2) and _fits_loops(ds, m)


def max_loop_count(degrees) -> int:
    """Largest number of self-loops any realization of ``degrees`` carries.

    Raises ``NotLoopyGraphical`` when no loop count works at all. Scanning
    prefixes suffices: moving a loop from a lower-degree vertex to a
    higher-degree one shifts degree mass from a larger reduced entry to a
    smaller, which preserves simple-graphicality. The scan starts at the
    number of entries >= 2, since any more loops would reduce some entry
    below zero. The sequence is sorted once; each loop count then costs a
    linear merge plus one Erdos-Gallai test, so a scan of s counts over n
    entries is O(s n) in C-level list work.
    """
    ds = [int(d) for d in degrees]
    desc = sorted(ds, reverse=True)
    if _even_and_nonnegative(desc):
        for m in range(bisect.bisect_right(desc, -2, key=neg), -1, -1):
            if _fits_loops(desc, m):
                return m
    raise NotLoopyGraphical(f"no loopy graph realizes {tuple(ds)}")


def is_loopy_graphical(degrees) -> bool:
    try:
        max_loop_count(degrees)
    except NotLoopyGraphical:
        return False
    return True


def _greedy_simple_realization(residual: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Largest-first greedy wiring of a simple-graphical ``(degree, vertex)``
    multiset; returns normalized edges. Heap-ordered so big instances stay
    O(m log n)."""
    heap = [(-d, v) for d, v in residual if d > 0]
    heapq.heapify(heap)
    edges = []
    while heap:
        negd, v = heapq.heappop(heap)
        need = -negd
        partners = []
        for _ in range(need):
            if not heap:
                raise NotLoopyGraphical("greedy realization ran out of partners")
            partners.append(heapq.heappop(heap))
        for negp, w in partners:
            edges.append((v, w) if v <= w else (w, v))
            if negp + 1 < 0:
                heapq.heappush(heap, (negp + 1, w))
    return edges


def realize_loopy_graph(degrees) -> LoopyGraph:
    """One realization: loops on the max-loop prefix, greedy wiring for the rest.

    Raises ``NotLoopyGraphical`` when the sequence has no realization.
    """
    ds = [int(d) for d in degrees]
    return _realize(ds, max_loop_count(ds))


def _realize(ds: list[int], m: int) -> LoopyGraph:
    """``realize_loopy_graph`` on a loopy-graphical sequence whose maximum
    loop count ``m`` is already known."""
    order = sorted(range(len(ds)), key=lambda i: (-ds[i], i))
    looped = order[:m]
    edges = [(v, v) for v in looped]
    residual = []
    for rank, v in enumerate(order):
        r = ds[v] - (2 if rank < m else 0)
        residual.append((r, v))
    edges.extend(_greedy_simple_realization(residual))
    graph = LoopyGraph(len(ds), edges)
    if list(graph.degree_sequence()) != ds:
        raise NotLoopyGraphical(f"greedy realization failed for {tuple(ds)}")
    return graph


def max_degree_guarantees_connected(degrees) -> bool:
    """One-directional test: True certifies the swap space is connected.

    Holds when the nonzero entries are not all 2 and the largest degree k
    satisfies (k-1)^2 < 4(n*-3), with n* the number of nonzero entries
    (exact integer arithmetic, no square roots). False means "no verdict".
    """
    nonzero = [int(d) for d in degrees if d > 0]
    if not nonzero:
        return False
    if all(d == 2 for d in nonzero):
        return False
    k = max(nonzero)
    nstar = len(nonzero)
    return k >= 1 and (k - 1) ** 2 < 4 * (nstar - 3)


def _cycle_witness(vertices: list[int], n: int) -> LoopyGraph:
    edges = [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]
    return LoopyGraph(n, edges)


def _clique_edges(vertices) -> list[tuple[int, int]]:
    vs = sorted(vertices)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def detect_disconnected(degrees) -> ConnectivityReport:
    """Decide whether double swaps alone connect the space of realizations.

    Peels minimum-degree vertices while wiring a candidate witness; if the
    residual ever collapses to one of the two recognizable two-valued forms
    (a clique carrying loops, or looped hubs over a triangle with pendant
    loop vertices) and no peeled vertex is wired to one of the residual's
    lower-degree vertices, the finished wiring is a realization stranded
    away from every max-loop graph and the space is disconnected. A form
    with such a peeled edge is not stranded, so peeling goes on past it.
    Cycles and cliques are caught directly. Exhausting the peel without a
    hit means connected.

    Ties go by (-degree, index): each step removes the highest-index vertex
    of least residual degree and wires it to the highest-degree vertices,
    lower index first. The witness is printed, so this order is part of the
    output. The residual lives in degree buckets, so the peel makes
    O(sum of degrees x log n) comparisons.

    Raises ``NotLoopyGraphical`` for infeasible input.
    """
    ds = [int(d) for d in degrees]
    return _peel(ds, max_loop_count(ds))


def _peel(ds: list[int], m_star: int) -> ConnectivityReport:
    """``detect_disconnected`` on a loopy-graphical sequence whose maximum
    loop count ``m_star`` is already known.

    The residual is kept as ``degree -> vertex indices, ascending`` plus the
    sorted distinct degrees, so a step costs only the vertices it rewires.
    Vertices that reach degree 0 stay in the residual until peeled.
    """
    n_total = len(ds)
    buckets: dict[int, list[int]] = {}
    for i, d in enumerate(ds):
        if d > 0:
            buckets.setdefault(d, []).append(i)
    degrees = sorted(buckets)
    n = sum(map(len, buckets.values()))
    if n <= 2:
        return ConnectivityReport(CONNECTED, "degenerate", f"{n} nonzero degrees", m_star=m_star)
    if degrees == [2]:
        return _disconnected("cycle", _cycle_witness(buckets[2], n_total), ds, m_star)
    if degrees == [n - 1]:
        witness = LoopyGraph(n_total, _clique_edges(buckets[n - 1]))
        return _disconnected("clique", witness, ds, m_star)

    attach: list[tuple[int, int]] = []
    n_t = n
    while n_t:
        if len(degrees) == 2:
            a, b = degrees
            n_b = len(buckets[b])
            n_a = n_t - n_b
            looped_clique = a == b - 2 and a == n_t - 1
            hub_triangle = b - 2 == n_t - 1 and a - 2 == n_b
            if a >= 3 and n_a >= 3 and (looped_clique or hub_triangle):
                verts = buckets[b] + buckets[a]  # degree-desc order: b-entries first
                low = set(verts[n_b:])
                if not any(u in low or v in low for u, v in attach):
                    edges = set(attach)
                    if looped_clique:
                        edges.update((v, v) for v in verts[:n_b])
                        edges.update(_clique_edges(verts))
                        witness = LoopyGraph(n_total, edges)
                        return _disconnected("looped_clique", witness, ds, m_star)
                    for hub in verts[:n_b]:
                        for v in verts:
                            if hub != v:
                                edges.add((hub, v) if hub <= v else (v, hub))
                    edges.update((v, v) for v in verts[: n_t - 3])
                    edges.update(_clique_edges(verts[n_t - 3:]))
                    witness = LoopyGraph(n_total, edges)
                    return _disconnected("hub_triangle", witness, ds, m_star)
        # Peel order is (-degree, index): the last vertex of the lowest bucket
        # goes, wired to the first min_deg vertices from the top.
        min_deg = degrees[0]
        lowest = buckets[min_deg]
        min_idx = lowest.pop()
        if not lowest:
            del buckets[min_deg]
            del degrees[0]
        n_t -= 1
        if min_deg > n_t:
            return ConnectivityReport(CONNECTED, "peeling", "minimum degree exceeds remaining vertices",
                                      m_star=m_star)
        # choose all rewired vertices before moving any, so none is taken twice
        moved = []  # (old degree, vertices), top bucket first
        need = min_deg
        while need:
            d = degrees[-1]
            bucket = buckets[d]
            if len(bucket) <= need:
                del buckets[d]
                degrees.pop()
                taken = bucket
            else:
                taken = bucket[:need]
                del bucket[:need]
            need -= len(taken)
            moved.append((d, taken))
            attach.extend((min_idx, v) if min_idx <= v else (v, min_idx) for v in taken)
        for d, taken in moved:
            dest = buckets.get(d - 1)
            if dest is None:
                buckets[d - 1] = taken
                bisect.insort(degrees, d - 1)
            else:
                for v in taken:
                    bisect.insort(dest, v)
    return ConnectivityReport(CONNECTED, "peeling", "peel exhausted without a stranded form",
                              m_star=m_star)


def _disconnected(detail: str, witness: LoopyGraph, ds: list[int], m_star: int) -> ConnectivityReport:
    # The wiring is rebuilt from sequence positions; recompute degrees rather
    # than trusting the index bookkeeping.
    if list(witness.degree_sequence()) != ds:
        raise RuntimeError(
            f"witness degrees {witness.degree_sequence()} do not match input {tuple(ds)}"
        )
    return ConnectivityReport(DISCONNECTED, "peeling", detail, witness, m_star=m_star)


def check_connectivity(degrees) -> ConnectivityReport:
    """Cheap certificate first, full detection second; ``max_loop_count``
    runs once, up front, and raises ``NotLoopyGraphical`` for infeasible
    input."""
    ds = [int(d) for d in degrees]
    m_star = max_loop_count(ds)
    if max_degree_guarantees_connected(ds):
        return ConnectivityReport(CONNECTED, "max_degree_bound", "max-degree bound satisfied",
                                  m_star=m_star)
    return _peel(ds, m_star)


def parse_degree_sequences(text: str) -> list[tuple[int, ...]]:
    """One sequence per non-empty line; entries split on whitespace or commas."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(tuple(int(tok) for tok in line.replace(",", " ").split()))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out

"""Reference computations for the benchmark, written apart from ``loopygraphs``.

Everything here is exhaustive or textbook, shares no code with the package,
and is what the benchmark checks the program's outputs against:

* ``realizations`` lists every loopy graph of a degree sequence as a bit mask
  over vertex-pair slots, by deciding slot after slot whether it holds an
  edge (the package's oracle instead picks each vertex's whole partner set).
* ``double_swap_components`` counts the classes of realizations that double
  edge swaps connect, by breadth-first search over the masks.
* ``simple_graphical`` and ``loops_feasible`` are the Erdos-Gallai test and
  its loopy form (loops on the largest degrees).
* ``degree_partitions`` lists the loopy-graphical sequences of a degree sum.

Verdicts that take minutes to recompute are stored in ``reference.json``;
``python3 perfbench/bruteforce.py --write`` regenerates that file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# Spaces behind the stored verdicts: every loopy-graphical sequence of
# positive degrees with degree sum up to SWEEP_MAX_SUM (the sweep workload's
# reference), and the small part of the check_batch workload: degree sum 16
# with at most 8 vertices, 18 and 20 with at most 7, 22 with at most 6.
SWEEP_MAX_SUM = 12
SMALL_CHECK_PARTS = ((16, 8), (18, 7), (20, 7), (22, 6))


class Slots:
    """Bit positions of the vertex pairs ``(i, j)``, ``i <= j``, on ``n`` vertices.

    Slots are numbered vertex by vertex: ``(0, 0), (0, 1), ..., (0, n-1),
    (1, 1), ...``, so a loop is the first slot of its vertex.
    """

    def __init__(self, n: int):
        self.n = n
        self.ends: list[tuple[int, int]] = []
        self.index = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                self.index[i][j] = self.index[j][i] = len(self.ends)
                self.ends.append((i, j))

    def edges(self, mask: int) -> list[tuple[int, int]]:
        out = []
        t = 0
        while mask:
            if mask & 1:
                out.append(self.ends[t])
            mask >>= 1
            t += 1
        return out

    def mask(self, edges) -> int:
        m = 0
        for u, v in edges:
            m |= 1 << self.index[u][v]
        return m


def realizations(degrees) -> list[int]:
    """Every loopy graph with this degree sequence, as slot masks.

    Depth-first over the slots in order. A slot is taken only when both
    residual degrees allow it; a vertex whose slots are all decided must
    have residual zero, and no vertex may need more than its undecided
    slots can still give.
    """
    ds = [int(d) for d in degrees]
    n = len(ds)
    if any(d < 0 for d in ds) or sum(ds) % 2:
        return []
    slots = Slots(n)
    residual = list(ds)
    out: list[int] = []

    def at_vertex(i: int, mask: int):
        if i == n:
            out.append(mask)
            return
        r = residual[i]
        if r == 0:
            at_vertex(i + 1, mask)
            return
        # the loop slot of vertex i, then its pairs (i, j) for j > i
        if r >= 2:
            residual[i] -= 2
            at_pair(i, i + 1, mask | 1 << slots.index[i][i])
            residual[i] += 2
        at_pair(i, i + 1, mask)

    def at_pair(i: int, j: int, mask: int):
        r = residual[i]
        if r == 0:
            at_vertex(i + 1, mask)
            return
        # capacity: partners still open among j..n-1
        open_partners = sum(1 for w in range(j, n) if residual[w] > 0)
        if r > open_partners:
            return
        if residual[j] == 0:
            at_pair(i, j + 1, mask)
            return
        residual[i] -= 1
        residual[j] -= 1
        at_pair(i, j + 1, mask | 1 << slots.index[i][j])
        residual[i] += 1
        residual[j] += 1
        if r < open_partners:  # leaving (i, j) empty must still leave enough
            at_pair(i, j + 1, mask)

    at_vertex(0, 0)
    return out


def double_swap_neighbors(mask: int, slots: Slots):
    """Masks one double edge swap away: two edges ``{p, q}``, ``{x, y}``
    become ``{p, x}, {q, y}`` or ``{p, y}, {q, x}``; the two new pairs must
    differ and be absent from the graph, and the result must differ from
    the input."""
    edges = [t for t in range(len(slots.ends)) if mask >> t & 1]
    index = slots.index
    ends = slots.ends
    for a in range(len(edges)):
        p, q = ends[edges[a]]
        for b in range(a + 1, len(edges)):
            x, y = ends[edges[b]]
            base = mask & ~(1 << edges[a]) & ~(1 << edges[b])
            for s, t in ((x, y), (y, x)):
                n1 = index[p][s]
                n2 = index[q][t]
                if n1 == n2:
                    continue
                add = 1 << n1 | 1 << n2
                if base & add:
                    continue
                new = base | add
                if new != mask:
                    yield new


def double_swap_components(degrees, graphs: list[int] | None = None) -> int:
    """Number of classes of realizations joined by double swaps (0 when the
    sequence has no realization)."""
    ds = [int(d) for d in degrees]
    if graphs is None:
        graphs = realizations(ds)
    slots = Slots(len(ds))
    unseen = set(graphs)
    count = 0
    while unseen:
        count += 1
        frontier = [unseen.pop()]
        while frontier:
            g = frontier.pop()
            for h in double_swap_neighbors(g, slots):
                if h in unseen:
                    unseen.remove(h)
                    frontier.append(h)
    return count


def simple_graphical(degrees) -> bool:
    """Erdos-Gallai: some simple graph (no loops) has these degrees.

    With ``d`` sorted non-increasing, for every ``k``:
    ``sum(d[:k]) <= k(k-1) + sum(min(d_i, k) for i >= k)``.
    ``big`` tracks how many entries are at least ``k``, so each test costs
    O(1) after the sort.
    """
    d = sorted((int(x) for x in degrees), reverse=True)
    n = len(d)
    if any(x < 0 for x in d) or sum(d) % 2:
        return False
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + d[i]
    head = 0
    big = n
    for k in range(1, n + 1):
        head += d[k - 1]
        while big > 0 and d[big - 1] < k:
            big -= 1
        # entries k..n-1: those >= k contribute k each, the rest themselves
        if big > k:
            tail = k * (big - k) + suffix[big]
        else:
            tail = suffix[k]
        if head > k * (k - 1) + tail:
            return False
    return True


def loops_feasible(degrees, m: int) -> bool:
    """Some realization carries ``m`` loops: loops on the ``m`` largest
    degrees (an exchange argument shows this placement is the best) leave a
    simple-graphical rest."""
    d = sorted((int(x) for x in degrees), reverse=True)
    if not 0 <= m <= len(d):
        return False
    rest = [x - 2 for x in d[:m]] + d[m:]
    return min(rest, default=0) >= 0 and simple_graphical(rest)


def loopy_graphical(degrees) -> bool:
    n = len(degrees)
    return any(loops_feasible(degrees, m) for m in range(n + 1))


def degree_partitions(total: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """Loopy-graphical non-increasing sequences of positive degrees summing
    to ``total``, with at most ``max_parts`` entries."""
    out: list[tuple[int, ...]] = []
    limit = total if max_parts is None else max_parts

    def grow(prefix: list[int], left: int):
        if left == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == limit:
            return
        top = prefix[-1] if prefix else left
        for d in range(1, min(top, left) + 1):
            prefix.append(d)
            grow(prefix, left - d)
            prefix.pop()

    if total % 2 == 0:
        grow([], total)
    return sorted(s for s in out if loopy_graphical(s))


def sweep_sequences(max_sum: int) -> list[tuple[int, ...]]:
    seqs = []
    for total in range(2, max_sum + 1, 2):
        seqs.extend(degree_partitions(total))
    return sorted(seqs)


def small_check_sequences() -> list[tuple[int, ...]]:
    seqs = []
    for total, parts in SMALL_CHECK_PARTS:
        seqs.extend(degree_partitions(total, parts))
    return sorted(seqs)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _verdicts(seqs, log) -> dict[str, dict]:
    out = {}
    for s in seqs:
        t0 = time.perf_counter()
        graphs = realizations(s)
        comps = double_swap_components(s, graphs)
        out[",".join(map(str, s))] = {"graphs": len(graphs), "components": comps}
        log(f"{','.join(map(str, s))}: {len(graphs)} graphs, {comps} component(s), "
            f"{time.perf_counter() - t0:.2f} s")
    return out


def build_reference(log=lambda msg: None) -> dict:
    return {
        "regenerate": "python3 perfbench/bruteforce.py --write",
        "sweep_max_sum": SWEEP_MAX_SUM,
        "small_check_parts": [list(p) for p in SMALL_CHECK_PARTS],
        "sweep": _verdicts(sweep_sequences(SWEEP_MAX_SUM), log),
        "small_check": _verdicts(small_check_sequences(), log),
    }


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    if (ref.get("sweep_max_sum") != SWEEP_MAX_SUM
            or ref.get("small_check_parts") != [list(p) for p in SMALL_CHECK_PARTS]):
        raise ValueError(f"{REFERENCE_FILE} is stale; rerun: {ref.get('regenerate')}")
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"recompute every stored verdict into {os.path.basename(REFERENCE_FILE)}")
    args = ap.parse_args(argv)
    if not args.write:
        ap.print_help()
        return 2
    ref = build_reference(log=lambda msg: print(msg, file=sys.stderr, flush=True))
    tmp = REFERENCE_FILE + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One-move neighbourhoods: double edge swaps and triangle/loop exchanges.

A double swap removes two distinct edges and reconnects their four endpoint
stubs under one of two pairings. A triangle/loop exchange replaces a triangle
with self-loops at its three vertices, or the reverse. Both preserve every
vertex degree; both are their own inverse.

The generators here work on an integer code of the edge set. A pair-bit
table gives each vertex pair one bit, ``pair_bit[u][v] == pair_bit[v][u]``,
and a graph's code is the sum of its edges' bits. Each generator takes a
graph's normalized edges in ascending order (``edge_list``), its ``code``
and the table, and yields the code of the graph every valid move leads to:
membership is one ``&`` and a move is a few bit flips, so no edge tuple is
built. ``LoopyChain.run`` applies the same rules one random proposal at a
time.
"""

from __future__ import annotations

from itertools import combinations

__all__ = ["double_neighbor_edge_sets", "triangle_neighbor_edge_sets"]


def double_neighbor_edge_sets(edge_list, code, pair_bit):
    """The code after every valid double swap: remove edges ``(u, v)`` and
    ``(x, y)`` of ``edge_list`` and add the pairs {u, x} and {v, y}, or
    {u, y} and {v, x}, when neither is in the graph and they differ. May
    yield one code twice (a swap that removes a self-loop is reachable via
    both pairings)."""
    coded = [(u, v, pair_bit[u][v]) for u, v in edge_list]
    for i, (u, v, b) in enumerate(coded):
        row_u = pair_bit[u]
        row_v = pair_bit[v]
        rest = code ^ b
        for x, y, c in coded[i + 1:]:
            base = rest ^ c
            b1 = row_u[x]
            b2 = row_v[y]
            added = b1 | b2
            if not code & added and b1 != b2:
                yield base | added
            b1 = row_u[y]
            b2 = row_v[x]
            added = b1 | b2
            if not code & added and b1 != b2:
                yield base | added


def triangle_neighbor_edge_sets(edge_list, code, pair_bit):
    """The code after every valid triangle/loop exchange: three loops become
    the triangle on their vertices, or a loop-free triangle becomes loops on
    its corners. ``edge_list`` must be in ascending order."""
    loops = [u for u, v in edge_list if u == v]
    for p, q, r in combinations(loops, 3):
        added = pair_bit[p][q] | pair_bit[p][r] | pair_bit[q][r]
        if not code & added:
            yield code ^ pair_bit[p][p] ^ pair_bit[q][q] ^ pair_bit[r][r] | added
    plain = [e for e in edge_list if e[0] != e[1]]
    # each triangle u < v < w once: (u, v) and a later (u, w), closed by {v, w}
    for i, (u, v) in enumerate(plain):
        row_v = pair_bit[v]
        for x, w in plain[i + 1:]:
            if x != u:
                break
            if code & row_v[w]:
                added = pair_bit[u][u] | pair_bit[v][v] | pair_bit[w][w]
                if not code & added:
                    yield code ^ pair_bit[u][v] ^ pair_bit[u][w] ^ row_v[w] | added

"""One-move neighbourhoods: double edge swaps and triangle/loop exchanges.

A double swap removes two distinct edges and reconnects their four endpoint
stubs under one of two pairings. A triangle/loop exchange replaces a triangle
with self-loops at its three vertices, or the reverse. Both preserve every
vertex degree; both are their own inverse. The generators here list every
valid move of one graph as a pair ``(removed edges, added edges)``; applying
a move is left to the caller, which can do it on whatever representation of
the edge set it keeps. ``LoopyChain.run`` applies the same rules one random
proposal at a time.
"""

from __future__ import annotations

from itertools import combinations

__all__ = ["double_neighbor_edge_sets", "triangle_neighbor_edge_sets"]


def double_neighbor_edge_sets(edge_list, edge_set):
    """Every valid double swap, as ``((r1, r2), (a1, a2))``: remove edges
    ``r1`` and ``r2`` of ``edge_list``, add the normalized edges ``a1`` and
    ``a2``, which ``edge_set`` does not hold. May yield one result twice (a
    swap that removes a self-loop is reachable via both pairings)."""
    L = len(edge_list)
    for i in range(L):
        e = edge_list[i]
        u, v = e
        for j in range(i + 1, L):
            f = edge_list[j]
            x, y = f
            for p, q in ((x, y), (y, x)):
                a1 = (u, p) if u <= p else (p, u)
                a2 = (v, q) if v <= q else (q, v)
                if a1 == a2 or a1 in edge_set or a2 in edge_set:
                    continue
                yield (e, f), (a1, a2)


def triangle_neighbor_edge_sets(edge_list, edge_set):
    """Every valid triangle/loop exchange, as ``(removed, added)``, each a
    tuple of three normalized edges: three loops for the triangle on their
    vertices, or a loop-free triangle for loops on its corners."""
    loops = sorted(u for u, v in edge_list if u == v)
    for p, q, r in combinations(loops, 3):
        t = ((p, q), (p, r), (q, r))
        if t[0] in edge_set or t[1] in edge_set or t[2] in edge_set:
            continue
        yield ((p, p), (q, q), (r, r)), t
    plain = [e for e in edge_list if e[0] != e[1]]
    if len(plain) < 3:
        return
    ends = set()
    shared = False
    for u, v in plain:
        if u in ends or v in ends:
            shared = True
            break
        ends.add(u)
        ends.add(v)
    if not shared:
        return  # no two non-loop edges touch, so no triangle exists
    adj: dict[int, set[int]] = {}
    for u, v in plain:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u, v in plain:
        common = adj[u] & adj[v]
        for w in common:
            if w <= v:
                continue
            if (u, u) in edge_set or (v, v) in edge_set or (w, w) in edge_set:
                continue
            # u < v < w, so all three triangle edges are already normalized
            yield ((u, v), (u, w), (v, w)), ((u, u), (v, v), (w, w))

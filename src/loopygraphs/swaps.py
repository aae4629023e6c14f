"""One-move neighbourhoods: double edge swaps and triangle/loop exchanges.

A double swap removes two distinct edges and reconnects their four endpoint
stubs under one of two pairings. A triangle/loop exchange replaces a triangle
with self-loops at its three vertices, or the reverse. Both preserve every
vertex degree; both are their own inverse. The generators here list every
edge set one valid move away; ``LoopyChain.run`` applies the same rules one
random proposal at a time.
"""

from __future__ import annotations

from itertools import combinations

__all__ = ["double_neighbor_edge_sets", "triangle_neighbor_edge_sets"]


def double_neighbor_edge_sets(edge_list, edge_set):
    """Edge sets one valid double swap away. May yield repeats (a swap that
    removes a self-loop is reachable via both pairings)."""
    L = len(edge_list)
    for i in range(L):
        u, v = edge_list[i]
        for j in range(i + 1, L):
            x, y = edge_list[j]
            for p, q in ((x, y), (y, x)):
                a1 = (u, p) if u <= p else (p, u)
                a2 = (v, q) if v <= q else (q, v)
                if a1 == a2 or a1 in edge_set or a2 in edge_set:
                    continue
                yield edge_set.difference((edge_list[i], edge_list[j])).union((a1, a2))


def triangle_neighbor_edge_sets(edge_list, edge_set):
    """Edge sets one valid triangle/loop exchange away."""
    loops = sorted(u for u, v in edge_list if u == v)
    for p, q, r in combinations(loops, 3):
        t = ((p, q), (p, r), (q, r))
        if t[0] in edge_set or t[1] in edge_set or t[2] in edge_set:
            continue
        yield edge_set.difference(((p, p), (q, q), (r, r))).union(t)
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
            removed = ((u, v), (u, w), (v, w))
            yield edge_set.difference(removed).union(((u, u), (v, v), (w, w)))

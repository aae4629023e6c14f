"""Loopy graphs: labeled undirected graphs with at most one self-loop per vertex.

A self-loop contributes two to its vertex's degree; parallel edges are never
allowed. Edges are stored as normalized ``(min, max)`` pairs, so a self-loop
at ``u`` is the pair ``(u, u)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Edge",
    "MultiedgeError",
    "LoopyGraph",
    "LayerDecomposition",
    "normalize_edge",
    "layer_decomposition",
    "is_clique",
    "is_in_clique_trap",
    "is_in_cycle_trap",
    "parse_edge_list",
    "format_edge_list",
]

Edge = tuple[int, int]


class MultiedgeError(ValueError):
    """Raised when an edge (or a vertex's second self-loop) would be duplicated."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


class LoopyGraph:
    """Immutable labeled graph on vertices ``0..n-1`` with loops but no multiedges.

    Parameters
    ----------
    n : int
        Number of vertices. Vertex labels are dense integers ``0..n-1``.
    edges : iterable of (int, int)
        Edge endpoints in either order; ``(u, u)`` is a self-loop.

    Raises
    ------
    IndexError
        If an endpoint is outside ``0..n-1``.
    MultiedgeError
        If the same vertex pair appears twice (this covers a second
        self-loop at one vertex).
    """

    __slots__ = ("n", "edges", "_adj", "_trap")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) out of range for {n} vertices")
            e = (u, v) if u <= v else (v, u)
            if e in seen:
                raise MultiedgeError(f"duplicate edge {e}")
            seen.add(e)
        self.n = n
        self.edges = frozenset(seen)
        self._adj = None
        self._trap = None

    @classmethod
    def from_edge_set(cls, n: int, edge_set: frozenset) -> "LoopyGraph":
        """Wrap an already-normalized, already-valid edge set without rechecking."""
        g = object.__new__(cls)
        g.n = n
        g.edges = edge_set
        g._adj = None
        g._trap = None
        return g

    # -- basic queries -----------------------------------------------------

    def _adjacency(self) -> list[set[int]]:
        adj = self._adj
        if adj is None:
            adj = [set() for _ in range(self.n)]
            for u, v in self.edges:
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
            self._adj = adj
        return adj

    def neighbors(self, u: int) -> set[int]:
        """Vertices joined to ``u`` by a non-loop edge (never includes ``u``)."""
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} out of range")
        return set(self._adjacency()[u])

    def has_loop(self, u: int) -> bool:
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} out of range")
        return (u, u) in self.edges

    def degree(self, u: int) -> int:
        return len(self._adjacency()[u]) + (2 if (u, u) in self.edges else 0)

    def degree_sequence(self) -> tuple[int, ...]:
        """Per-vertex degrees in vertex order; a loop counts two."""
        deg = [0] * self.n
        for u, v in self.edges:
            if u == v:
                deg[u] += 2
            else:
                deg[u] += 1
                deg[v] += 1
        return tuple(deg)

    def loop_vertices(self) -> list[int]:
        return sorted(u for u, v in self.edges if u == v)

    def loop_count(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    def loop_reduced_degree_sequence(self) -> tuple[int, ...]:
        """Degrees with each vertex's own loop contribution removed."""
        deg = list(self.degree_sequence())
        for u, v in self.edges:
            if u == v:
                deg[u] -= 2
        return tuple(deg)

    def canonical_key(self) -> bytes:
        """Injective key among graphs with the same vertex count."""
        return b";".join(b"%d,%d" % e for e in sorted(self.edges))

    def validate(self) -> None:
        """Recheck every structural invariant; raises on violation."""
        seen: set[Edge] = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexError(f"edge ({u}, {v}) out of range for {self.n} vertices")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not stored normalized")
            if (u, v) in seen:
                raise MultiedgeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LoopyGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"LoopyGraph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class LayerDecomposition:
    """Vertices grouped by shortest distance to the loop-free set.

    ``loopless`` holds every vertex without a self-loop (isolated vertices
    included); ``depth`` maps each remaining reachable vertex to its BFS
    distance (>= 1); ``unreachable`` holds vertices with no path to the
    loop-free set.
    """

    loopless: frozenset[int]
    depth: dict[int, int] = field(compare=False)
    unreachable: frozenset[int] = frozenset()

    def layer(self, k: int) -> frozenset[int]:
        if k == 0:
            return self.loopless
        return frozenset(v for v, d in self.depth.items() if d == k)

    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)


def layer_decomposition(graph: LoopyGraph) -> LayerDecomposition:
    """Multi-source BFS from all loop-free vertices."""
    loopless = frozenset(u for u in range(graph.n) if (u, u) not in graph.edges)
    adj = graph._adjacency()
    depth: dict[int, int] = {}
    frontier = list(loopless)
    d = 0
    seen = set(loopless)
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    depth[v] = d
                    nxt.append(v)
        frontier = nxt
    unreachable = frozenset(v for v in range(graph.n) if v not in seen)
    return LayerDecomposition(loopless=loopless, depth=depth, unreachable=unreachable)


def is_clique(graph: LoopyGraph, vertices) -> bool:
    """True when every pair of distinct vertices in ``vertices`` is adjacent."""
    vs = sorted(set(vertices))
    edges = graph.edges
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if (u, v) not in edges:
                return False
    return True


def _trap_context(graph: LoopyGraph):
    """Shared setup for the two swap-trap membership tests, worked out once
    per graph (graphs are immutable)."""
    ctx = graph._trap
    if ctx is None:
        ld = layer_decomposition(graph)
        v1 = frozenset(v for v, d in ld.depth.items() if d == 1)
        deeper = [v for v, d in ld.depth.items() if d >= 2]
        ctx = graph._trap = (ld, graph._adjacency(), v1, deeper)
    return ctx


def is_in_clique_trap(graph: LoopyGraph) -> bool:
    """Membership in the clique-anchored family that double swaps cannot leave.

    Requires: the loop-free vertices that carry edges among themselves form
    a clique of size >= 4, that clique plus all distance-1 vertices is also
    a clique, and nothing lies at distance >= 2 or unreachable.
    """
    ld, adj, v1, deeper = _trap_context(graph)
    if deeper or ld.unreachable:
        return False
    loopless = ld.loopless
    core = [u for u in loopless if adj[u] & loopless]
    if len(core) < 4:
        return False
    return is_clique(graph, set(core) | v1)


def is_in_cycle_trap(graph: LoopyGraph) -> bool:
    """Membership in the cycle-anchored family that double swaps cannot leave.

    Requires: at least three loop-free vertices carry edges among the
    loop-free set, each with exactly two such neighbors and adjacent to every
    distance-1 vertex; the distance-1 set is a clique; every distance-2
    vertex's neighborhood is exactly the distance-1 set; nothing sits at
    distance >= 3; unreachable vertices are allowed only when the distance-1
    set is empty and each such vertex has degree exactly 2.
    """
    ld, adj, v1, deeper = _trap_context(graph)
    v2 = {v for v in deeper if ld.depth[v] == 2}
    if len(v2) != len(deeper):
        return False
    if ld.unreachable:
        if v1:
            return False
        if any(graph.degree(v) != 2 for v in ld.unreachable):
            return False
    loopless = ld.loopless
    core = [u for u in loopless if adj[u] & loopless]
    if len(core) < 3:
        return False
    for u in core:
        if len(adj[u] & loopless) != 2:
            return False
        if not v1 <= adj[u]:
            return False
    if not is_clique(graph, v1):
        return False
    for u in v2:
        if adj[u] != v1:
            return False
    return True


# -- plain-text edge lists -------------------------------------------------

def parse_edge_list(text: str) -> LoopyGraph:
    """Parse the edge-list format: one ``u v`` pair per line, ``#`` comments.

    A ``# n=<count>`` header pins the vertex count; otherwise it is inferred
    as one past the largest endpoint.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                n = int(body[2:].strip())
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two endpoints, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    return LoopyGraph(n, edges)


def format_edge_list(graph: LoopyGraph) -> str:
    lines = [f"# n={graph.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"

"""Loopy graphs: labeled undirected graphs with at most one self-loop per vertex.

A self-loop contributes two to its vertex's degree; parallel edges are never
allowed. Edges are stored as normalized ``(min, max)`` pairs, so a self-loop
at ``u`` is the pair ``(u, u)``.
"""

from __future__ import annotations

__all__ = [
    "Edge",
    "MultiedgeError",
    "LoopyGraph",
    "normalize_edge",
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

    __slots__ = ("n", "edges", "_layers")

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
        self._layers = None

    @classmethod
    def from_edge_set(cls, n: int, edge_set: frozenset) -> "LoopyGraph":
        """Wrap an already-normalized, already-valid edge set without rechecking."""
        g = object.__new__(cls)
        g.n = n
        g.edges = edge_set
        g._layers = None
        return g

    # -- basic queries -----------------------------------------------------

    def neighbors(self, u: int) -> set[int]:
        """Vertices joined to ``u`` by a non-loop edge (never includes ``u``)."""
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} out of range")
        return {v for e in self.edges if u in e for v in e if v != u}

    def has_loop(self, u: int) -> bool:
        if not 0 <= u < self.n:
            raise IndexError(f"vertex {u} out of range")
        return (u, u) in self.edges

    def degree(self, u: int) -> int:
        return len(self.neighbors(u)) + 2 * self.has_loop(u)

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


def _spread(nbr: list[int], mask: int) -> int:
    """Union of the neighbour masks of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nbr[low.bit_length() - 1]
        mask ^= low
    return out


def _is_clique(nbr: list[int], mask: int) -> bool:
    """True when every two distinct vertices of ``mask`` are adjacent."""
    rest = mask
    while rest:
        low = rest & -rest
        if (nbr[low.bit_length() - 1] | low) & mask != mask:
            return False
        rest ^= low
    return True


def _layers(graph: LoopyGraph):
    """Neighbour bitmasks and the first BFS layers from the loop-free set.

    Returns ``(nbr, core, v1, v2, far)``. Bit ``v`` of ``nbr[u]`` is set when
    ``u`` and ``v`` share a non-loop edge. Layer 0 is every vertex without a
    loop (isolated ones included); ``core`` is the part of it with a
    neighbour inside layer 0. ``v1`` and ``v2`` are the vertices at distance
    1 and 2 from layer 0, and ``far`` is everything else: vertices at
    distance >= 3 and those with no path to layer 0. Graphs are immutable,
    so the result is kept on the graph and both trap tests share it.
    """
    layers = graph._layers
    if layers is None:
        nbr = [0] * graph.n
        looped = 0
        for u, v in graph.edges:
            if u == v:
                looped |= 1 << u
            else:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        v0 = ((1 << graph.n) - 1) ^ looped
        near = _spread(nbr, v0)
        core, v1 = near & v0, near & looped
        v2 = _spread(nbr, v1) & looped & ~v1
        layers = graph._layers = (nbr, core, v1, v2, looped & ~v1 & ~v2)
    return layers


def is_in_clique_trap(graph: LoopyGraph) -> bool:
    """Membership in the clique-anchored family that double swaps cannot leave.

    Requires: the loop-free vertices that carry edges among themselves form
    a clique of size >= 4, that clique plus all distance-1 vertices is also
    a clique, and nothing lies at distance >= 2 or unreachable.
    """
    nbr, core, v1, v2, far = _layers(graph)
    if v2 or far or core.bit_count() < 4:
        return False
    return _is_clique(nbr, core | v1)


def is_in_cycle_trap(graph: LoopyGraph) -> bool:
    """Membership in the cycle-anchored family that double swaps cannot leave.

    Requires: at least three loop-free vertices carry edges among the
    loop-free set, each with exactly two such neighbors and adjacent to every
    distance-1 vertex; the distance-1 set is a clique; every distance-2
    vertex's neighborhood is exactly the distance-1 set; nothing sits at
    distance >= 3; unreachable vertices are allowed only when the distance-1
    set is empty and each such vertex has degree exactly 2.
    """
    nbr, core, v1, v2, far = _layers(graph)
    if core.bit_count() < 3:
        return False
    # With v1 empty, far is exactly the unreachable set, whose vertices carry
    # loops: degree 2 means no other edge. With v1 set, far must be empty; a
    # distance-3 vertex would also break the distance-2 rule below.
    if far and (v1 or _spread(nbr, far)):
        return False
    for u, m in enumerate(nbr):
        bit = 1 << u
        if core & bit and ((m & core).bit_count() != 2 or m & v1 != v1):
            return False
        if v2 & bit and m != v1:
            return False
    return _is_clique(nbr, v1)


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

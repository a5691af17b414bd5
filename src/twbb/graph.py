"""Undirected graphs with stable integer ids and an explicit active set.

Vertices are ids 0..n-1 over a fixed universe of size n.  Operations that
remove vertices (elimination, contraction) deactivate ids; they never
renumber, so an id means the same vertex at every depth of a search.
Adjacency is stored as one bitmask per vertex, which keeps neighborhood
intersections and clique checks cheap.  All public operations return new
Graph objects; nothing mutates a graph a caller can see.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised when an operation's preconditions are violated."""


def bits(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    __slots__ = ("n", "_adj", "_active")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self._adj = [0] * n
        self._active = (1 << n) - 1
        for u, v in edges:
            self._add_edge_checked(u, v)

    @classmethod
    def _from_masks(cls, n: int, adj: list[int], active: int) -> "Graph":
        # Internal fast constructor; callers guarantee consistency.
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        g._active = active
        return g

    def _add_edge_checked(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (self._active >> u) & 1 or not (self._active >> v) & 1:
            raise GraphError(f"edge ({u}, {v}) touches an inactive vertex")
        self._adj[u] |= 1 << v
        self._adj[v] |= 1 << u

    def _require_active(self, v: int) -> None:
        if not (0 <= v < self.n) or not (self._active >> v) & 1:
            raise GraphError(f"vertex {v} is not an active vertex of this graph")

    # -- inspection ----------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return list(bits(self._active))

    @property
    def active_mask(self) -> int:
        return self._active

    def __len__(self) -> int:
        return self._active.bit_count()

    def num_edges(self) -> int:
        return sum(self._adj[v].bit_count() for v in bits(self._active)) // 2

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self.n and bool((self._active >> v) & 1)

    def has_edge(self, u: int, v: int) -> bool:
        self._require_active(u)
        self._require_active(v)
        return bool((self._adj[u] >> v) & 1)

    def neighbors(self, v: int) -> set[int]:
        self._require_active(v)
        return set(bits(self._adj[v]))

    def neighbors_mask(self, v: int) -> int:
        self._require_active(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._require_active(v)
        return self._adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in bits(self._active):
            higher = self._adj[u] >> (u + 1)
            for k in bits(higher):
                out.append((u, u + 1 + k))
        return out

    def is_clique(self, vertices_mask: int) -> bool:
        """True when every pair of the given active vertices is adjacent."""
        return clique_in_masks(self._adj, vertices_mask)

    def is_simplicial(self, v: int) -> bool:
        """True when v's neighborhood is a clique."""
        self._require_active(v)
        return clique_in_masks(self._adj, self._adj[v])

    def is_almost_simplicial(self, v: int) -> bool:
        """True when removing one neighbor would leave v's neighborhood a clique.

        Geometric condition only: ``forced_in_masks`` with the degree gate
        at v's own degree.  A simplicial vertex with at least one neighbor
        qualifies; an isolated vertex does not.
        """
        self._require_active(v)
        nb = self._adj[v]
        return nb != 0 and forced_in_masks(self._adj, v, nb.bit_count())

    def fill_edges(self, v: int) -> set[tuple[int, int]]:
        """Pairs of v's neighbors that eliminating v would have to connect."""
        self._require_active(v)
        return set(fill_edges_in_masks(self._adj, v))

    def fill_count(self, v: int) -> int:
        """Number of fill edges eliminating v would create."""
        self._require_active(v)
        return fill_count_in_masks(self._adj, v)

    # -- rewriting -----------------------------------------------------

    def eliminate(self, v: int) -> "Graph":
        """Remove v and make its neighborhood a clique."""
        self._require_active(v)
        adj = list(self._adj)
        _eliminate_in_place(adj, v)
        return Graph._from_masks(self.n, adj, self._active & ~(1 << v))

    def contract(self, v: int, u: int) -> "Graph":
        """Merge u into v along the edge {v, u}; the merged vertex keeps id v."""
        self._require_active(v)
        self._require_active(u)
        if not (self._adj[v] >> u) & 1:
            raise GraphError(f"contract requires an edge between {v} and {u}")
        adj = list(self._adj)
        _contract_in_place(adj, v, u)
        return Graph._from_masks(self.n, adj, self._active & ~(1 << u))

    def remove_vertex(self, v: int) -> "Graph":
        """Remove v without adding fill edges."""
        self._require_active(v)
        adj = list(self._adj)
        _remove_in_place(adj, v)
        return Graph._from_masks(self.n, adj, self._active & ~(1 << v))

    def with_edges(self, extra: Iterable[tuple[int, int]]) -> "Graph":
        """A copy with the given edges added (endpoints must be active)."""
        g = Graph._from_masks(self.n, list(self._adj), self._active)
        for u, v in extra:
            g._add_edge_checked(u, v)
        return g

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced on the given active vertices, keeping ids."""
        keep = 0
        for v in vertices:
            self._require_active(v)
            keep |= 1 << v
        adj = [self._adj[v] & keep if (keep >> v) & 1 else 0 for v in range(self.n)]
        return Graph._from_masks(self.n, adj, keep)

    # -- value semantics -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self._active == other._active
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._active, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, active={len(self)}, m={self.num_edges()})"


def clique_in_masks(adj: list[int], vertices_mask: int) -> bool:
    """True when the masked vertices are pairwise adjacent in ``adj``."""
    rest = vertices_mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        if rest & ~adj[v]:
            return False
    return True


def fill_edges_in_masks(adj: list[int], v: int) -> list[tuple[int, int]]:
    """Pairs (u, w), u < w, of v's neighbors that eliminating v would connect."""
    out = []
    rest = adj[v]
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        rest ^= low
        for w in bits(rest & ~adj[u]):
            out.append((u, w))
    return out


def fill_count_in_masks(adj: list[int], v: int) -> int:
    """Number of fill edges eliminating v would create in ``adj``."""
    nb = adj[v]
    missing = 0
    for u in bits(nb):
        missing += (nb & ~adj[u] & ~(1 << u)).bit_count()
    return missing // 2


def fill_touched_in_masks(adj: list[int], v: int) -> int:
    """Mask of v's neighbors that some fill edge of v would touch."""
    nb = adj[v]
    touched = 0
    for u in bits(nb):
        if nb & ~adj[u] & ~(1 << u):
            touched |= 1 << u
    return touched


def forced_in_masks(adj: list[int], v: int, lb: int) -> bool:
    """True when v may be eliminated first: it is simplicial, or almost
    simplicial (dropping one neighbor leaves a clique) with degree at most
    lb, a lower bound on the answer.

    u is the first neighbor that misses another.  The dropped neighbor must
    touch every missing pair, so it is u or, when u misses exactly one
    neighbor w, that w.  Neighbors below u miss nothing and u misses only w,
    so only the neighbors above u need checking.
    """
    nb = adj[v]
    for u in bits(nb):
        missing = nb & ~adj[u] & ~(1 << u)
        if missing:
            break
    else:
        return True
    if nb.bit_count() > lb:
        return False
    above = nb & ~((2 << u) - 1)
    if clique_in_masks(adj, above):
        return True
    return not missing & (missing - 1) and clique_in_masks(adj, above & ~missing)


def _eliminate_in_place(adj: list[int], v: int) -> None:
    nb = adj[v]
    bv = 1 << v
    for u in bits(nb):
        adj[u] = (adj[u] | nb) & ~((1 << u) | bv)
    adj[v] = 0


def _remove_in_place(adj: list[int], v: int) -> None:
    bv = 1 << v
    for u in bits(adj[v]):
        adj[u] &= ~bv
    adj[v] = 0


def _contract_in_place(adj: list[int], v: int, u: int) -> None:
    bu, bv = 1 << u, 1 << v
    for w in bits(adj[u] & ~bv):
        adj[w] = (adj[w] & ~bu) | bv
    adj[v] = (adj[v] | adj[u]) & ~(bu | bv)
    adj[u] = 0


def check_permutation(g: Graph, order: Sequence[int]) -> None:
    """Raise GraphError unless order lists each active vertex of g once."""
    seen = 0
    for v in order:
        if not (0 <= v < g.n) or (seen >> v) & 1:
            raise GraphError(f"order is not a permutation of the active vertices: {order}")
        seen |= 1 << v
    if seen != g.active_mask:
        raise GraphError(f"order is not a permutation of the active vertices: {order}")


def width_of_order(g: Graph, order: Sequence[int]) -> int:
    """Width of an elimination order: the largest degree at elimination time.

    order must be a permutation of g's active vertices.
    """
    check_permutation(g, order)
    adj = list(g._adj)
    width = 0
    for v in order:
        d = adj[v].bit_count()
        if d > width:
            width = d
        _eliminate_in_place(adj, v)
    return width


def connected_components(g: Graph) -> list[set[int]]:
    """Vertex sets of g's connected components, by ascending smallest member."""
    remaining = g.active_mask
    comps = []
    adj = g._adj
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & remaining & ~comp
            comp |= frontier
        comps.append(set(bits(comp)))
        remaining &= ~comp
    return comps

"""Undirected graphs with stable integer ids and an explicit active set.

Vertices are ids 0..n-1 over a fixed universe of size n.  Elimination
deactivates an id and never renumbers, so an id means the same vertex at
every depth of a search.  Only connected_components renumbers: it gives
each component as a graph of its own on ids 0..k-1, in the order of the
ids it stands for, so that a component costs its own size.  Adjacency
is stored as one bitmask per vertex, which keeps neighborhood
intersections cheap.  All public operations return new Graph objects;
nothing mutates a graph a caller can see.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised when an operation's preconditions are violated."""


def bits(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    __slots__ = ("n", "_adj", "_active")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = n
        self._adj = adj = [0] * n
        self._active = (1 << n) - 1
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u

    @classmethod
    def _from_masks(cls, n: int, adj: list[int], active: int) -> "Graph":
        # Internal fast constructor; callers guarantee consistency: the
        # masks are symmetric, and an inactive id's mask is empty and in no
        # other mask, as eliminations leave them.
        g = cls.__new__(cls)
        g.n = n
        g._adj = adj
        g._active = active
        return g

    def _require_active(self, v: int) -> None:
        if not (0 <= v < self.n) or not (self._active >> v) & 1:
            raise GraphError(f"vertex {v} is not an active vertex of this graph")

    # -- inspection ----------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        # bin() is linear in n, where bits() does n-bit work per vertex
        return [v for v, b in enumerate(reversed(bin(self._active))) if b == "1"]

    @property
    def active_mask(self) -> int:
        return self._active

    def __len__(self) -> int:
        return self._active.bit_count()

    def num_edges(self) -> int:
        # an inactive id's mask is empty, so every mask can be counted
        return sum(a.bit_count() for a in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        # an inactive id's mask is empty, so every mask can be walked
        out = []
        for u, a in enumerate(self._adj):
            for k in bits(a >> (u + 1)):
                out.append((u, u + 1 + k))
        return out

    # -- rewriting -----------------------------------------------------

    def eliminate(self, v: int) -> "Graph":
        """Remove v and make its neighborhood a clique."""
        self._require_active(v)
        adj = list(self._adj)
        _eliminate_in_place(adj, v)
        return Graph._from_masks(self.n, adj, self._active & ~(1 << v))

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


def fill_count_in_masks(adj: list[int], v: int) -> int:
    """Number of fill edges eliminating v would create in ``adj``.

    Each neighbor counts the neighbors it misses, itself included, so the
    sum counts every missing pair twice and every neighbor once.
    """
    nb = adj[v]
    missing = 0
    rest = nb
    while rest:
        low = rest & -rest
        rest ^= low
        missing += (nb & ~adj[low.bit_length() - 1]).bit_count()
    return (missing - nb.bit_count()) // 2


def fill_touched_in_masks(adj: list[int], v: int) -> int:
    """Mask of v's neighbors that some fill edge of v would touch."""
    nb = adj[v]
    touched = 0
    rest = nb
    while rest:
        low = rest & -rest
        rest ^= low
        if nb & ~adj[low.bit_length() - 1] & ~low:
            touched |= low
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
    rest = nb
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        missing = nb & ~adj[u] & ~low
        if missing:
            break
        rest ^= low
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
    rest = nb
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        adj[u] = (adj[u] | nb) & ~(low | bv)
    adj[v] = 0


def eliminations(g: Graph, order: Sequence[int]) -> Iterator[int]:
    """Yield, for each vertex of order in turn, its neighborhood mask just
    before it is eliminated, on a copy of g's masks.

    The one elimination pass along an order: widths and tree
    decompositions are both read from it.  order must list each active
    vertex of g once and nothing else; otherwise GraphError is raised at
    the first step, before any mask is yielded.
    """
    seen = 0
    for v in order:
        if not (0 <= v < g.n) or (seen >> v) & 1:
            raise GraphError(f"order is not a permutation of the active vertices: {order}")
        seen |= 1 << v
    if seen != g.active_mask:
        raise GraphError(f"order is not a permutation of the active vertices: {order}")
    adj = list(g._adj)
    for v in order:
        yield adj[v]
        _eliminate_in_place(adj, v)


def width_of_order(g: Graph, order: Sequence[int]) -> int:
    """Width of an elimination order: the largest degree at elimination time.

    order must be a permutation of g's active vertices.
    """
    return max((nb.bit_count() for nb in eliminations(g, order)), default=0)


def min_degree_sweep(adj: list[int], active: int) -> Iterator[tuple[int, int]]:
    """Yield (v, degree) for the lowest-id active vertex of least degree in
    ``adj``, once per active vertex.

    The one minimum-degree sweep: min-fill's tail and minwidth_lb both run
    it.  Between yields the caller takes v out of ``adj``, by elimination
    or by removal (clearing v from its neighbors' masks); either way only
    the masks of v's old neighbors change, and the sweep reads their
    degrees again.  bucket[d] masks the active vertices of degree d, so the
    lowest set bit of the lowest non-empty bucket is the vertex to yield,
    and lo never exceeds that degree.  No step scans the active vertices:
    it touches the buckets and v's old neighbors only.
    """
    deg = [0] * len(adj)
    bucket = [0] * len(adj)
    for x in bits(active):
        d = deg[x] = adj[x].bit_count()
        bucket[d] |= 1 << x
    lo = 0
    while active:
        while not bucket[lo]:
            lo += 1
        low = bucket[lo] & -bucket[lo]
        bucket[lo] ^= low
        active ^= low
        v = low.bit_length() - 1
        nb = adj[v]
        yield v, lo
        for x in bits(nb):
            bx = 1 << x
            d = adj[x].bit_count()
            if d != deg[x]:
                bucket[deg[x]] ^= bx
                bucket[d] |= bx
                deg[x] = d
                if d < lo:
                    lo = d


def connected_components(g: Graph) -> list[tuple[tuple[int, ...], Graph]]:
    """g's connected components, by ascending smallest member.

    Each is (ids, sub): the component's ids in ascending order, and the
    component as a graph on ids 0..k-1, where id i stands for ids[i].  The
    relabelling keeps the ids' order, so lowest-id ties break alike on
    both.  A component of consecutive ids keeps its masks, shifted down.
    """
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
        remaining &= ~comp
        ids = tuple(bits(comp))
        k, lo = len(ids), ids[0]
        if comp == ((1 << k) - 1) << lo:
            masks = [adj[v] >> lo for v in ids]
        else:
            pos = {v: i for i, v in enumerate(ids)}
            masks = [sum(1 << pos[u] for u in bits(adj[v])) for v in ids]
        comps.append((ids, Graph._from_masks(k, masks, (1 << k) - 1)))
    return comps

"""The greedy elimination order that gives every solve its upper bound.

Min-fill repeatedly eliminates the vertex whose elimination adds the
fewest edges, ties going to the lowest vertex id, so the order is a
deterministic function of the graph.  The maximum-cardinality sweep
also lives here; the mcs lower bound and the chordality test read it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _eliminate_in_place, bits, fill_count_in_masks


@dataclass(frozen=True)
class EliminationOrder:
    """A (possibly partial) elimination order with its cached width."""

    vertices: tuple[int, ...]
    width: int

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]


def min_fill_order(g: Graph) -> EliminationOrder:
    """Greedy order minimizing fill at each step; ties go to the lowest id.

    Fill counts are cached and recomputed only near the eliminated vertex.
    """
    adj = list(g._adj)
    active = g.active_mask
    fill = [0] * g.n
    for v in bits(active):
        fill[v] = fill_count_in_masks(adj, v)
    order = []
    width = 0
    while active:
        v = min(bits(active), key=fill.__getitem__)
        d = adj[v].bit_count()
        if d > width:
            width = d
        nb = adj[v]
        _eliminate_in_place(adj, v)
        active &= ~(1 << v)
        order.append(v)
        # Fill counts can only change for the old neighbors and for
        # vertices adjacent to a newly added edge, all of which now
        # neighbor some old neighbor of v.
        affected = nb
        for a in bits(nb):
            affected |= adj[a]
        for x in bits(affected & active):
            fill[x] = fill_count_in_masks(adj, x)
    return EliminationOrder(tuple(order), width)


def max_cardinality_sweep(g: Graph, start: int | None = None) -> tuple[list[int], int]:
    """Visit vertices by most already-visited neighbors (ties lowest id).

    Returns the visit order and the largest visited-neighbor count a
    vertex had when visited.  start defaults to the lowest active id.
    """
    if len(g) == 0:
        return [], 0
    if start is None:
        start = g.active_mask & -g.active_mask
        start = start.bit_length() - 1
    else:
        g._require_active(start)
    adj = g._adj
    active = g.active_mask
    count = [0] * g.n
    visit = []
    value = 0
    labeled = 0
    cur = start
    while True:
        if count[cur] > value:
            value = count[cur]
        visit.append(cur)
        labeled |= 1 << cur
        for w in bits(adj[cur] & active & ~labeled):
            count[w] += 1
        remaining = active & ~labeled
        if not remaining:
            return visit, value
        best, best_c = -1, -1
        for w in bits(remaining):
            if count[w] > best_c:
                best_c, best = count[w], w
        cur = best


def best_upper_bound(g: Graph) -> EliminationOrder:
    """The min-fill order, the first solution of every solve.

    A function, not an alias, so that it looks up min_fill_order when
    called and a wrapper put on that name sees every solve's run.
    """
    return min_fill_order(g)

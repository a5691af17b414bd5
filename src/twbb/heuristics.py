"""The greedy elimination order that gives every solve its upper bound.

Min-fill repeatedly eliminates the vertex whose elimination adds the
fewest edges, ties going to the lowest vertex id, so the order is a
deterministic function of the graph.
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


def best_upper_bound(g: Graph) -> EliminationOrder:
    """The min-fill order, the first solution of every solve.

    A function, not an alias, so that it looks up min_fill_order when
    called and a wrapper put on that name sees every solve's run.
    """
    return min_fill_order(g)

"""The greedy elimination order that gives every solve its upper bound.

Min-fill repeatedly eliminates the vertex whose elimination adds the
fewest edges, ties going to the lowest vertex id, so the order is a
deterministic function of the graph.  A solve's deadline can cut the run
short, and then a minimum-degree tail finishes the order.
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


def min_fill_order(g: Graph, stop=None) -> EliminationOrder:
    """Greedy order minimizing fill at each step; ties go to the lowest id.

    Fill counts are cached and recomputed only near the eliminated vertex.
    stop, when given, is polled once per elimination: before the fill
    counts are first computed, then after each elimination but the last.
    Once it returns true the rest of the order is finished by minimum
    degree (ties to the lowest id), which needs no fill counts.  The order
    is a permutation of the active vertices either way, and its width is
    exact.
    """
    adj = list(g._adj)
    active = g.active_mask
    # What each vertex is chosen by: its fill count, or its degree once
    # stop has fired.
    tail = stop is not None and stop()
    key = [0] * g.n
    for v in bits(active):
        key[v] = adj[v].bit_count() if tail else fill_count_in_masks(adj, v)
    order = []
    width = 0
    while active:
        v = min(bits(active), key=key.__getitem__)
        d = adj[v].bit_count()
        if d > width:
            width = d
        nb = adj[v]
        _eliminate_in_place(adj, v)
        active &= ~(1 << v)
        order.append(v)
        if not tail and active and stop is not None and stop():
            tail = True
            for x in bits(active):
                key[x] = adj[x].bit_count()
        elif tail:
            for x in bits(nb):
                key[x] = adj[x].bit_count()
        else:
            # Fill counts can only change for the old neighbors and for
            # vertices adjacent to a newly added edge, all of which now
            # neighbor some old neighbor of v.
            affected = nb
            for a in bits(nb):
                affected |= adj[a]
            for x in bits(affected & active):
                key[x] = fill_count_in_masks(adj, x)
    return EliminationOrder(tuple(order), width)


def best_upper_bound(g: Graph, stop=None) -> EliminationOrder:
    """The min-fill order, the first solution of every solve.

    stop is passed on to min_fill_order.  A function, not an alias, so
    that it looks up min_fill_order when called and a wrapper put on that
    name sees every solve's run.
    """
    return min_fill_order(g, stop)

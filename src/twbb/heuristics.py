"""Greedy elimination-order heuristics that provide treewidth upper bounds.

Three step rules: min-fill picks the vertex whose elimination adds the
fewest edges, min-width picks a minimum-degree vertex and removes it
without fill, max-cardinality labels vertices by how many labeled
neighbors they have and eliminates in reverse label order.  Ties go to
the lowest vertex id, so each order is a deterministic function of the
graph.  In all cases the reported width is the true width of the
produced order under elimination with fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    _eliminate_in_place,
    _remove_in_place,
    bits,
    fill_count_in_masks,
    width_of_order,
)

KINDS = ("min-fill", "min-width", "max-cardinality")


@dataclass(frozen=True)
class EliminationOrder:
    """A (possibly partial) elimination order with its cached width."""

    vertices: tuple[int, ...]
    width: int | None = None

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


def min_degree_sweep(g: Graph) -> tuple[list[int], int]:
    """Repeatedly remove a minimum-degree vertex without adding fill.

    Returns the removal order and the largest degree a vertex had when it
    was removed.  Ties go to the lowest id.
    """
    adj = list(g._adj)
    active = g.active_mask
    order = []
    value = 0
    while active:
        v = min(bits(active), key=lambda x: adj[x].bit_count())
        d = adj[v].bit_count()
        if d > value:
            value = d
        _remove_in_place(adj, v)
        active &= ~(1 << v)
        order.append(v)
    return order, value


def min_width_order(g: Graph) -> EliminationOrder:
    """Order by repeated minimum-degree removal (no fill during selection)."""
    order, _ = min_degree_sweep(g)
    return EliminationOrder(tuple(order), width_of_order(g, order))


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


def max_cardinality_order(g: Graph, start: int | None = None) -> EliminationOrder:
    """Eliminate in reverse max-cardinality visit order."""
    visit, _ = max_cardinality_sweep(g, start)
    visit.reverse()
    return EliminationOrder(tuple(visit), width_of_order(g, visit))


def best_upper_bound(g: Graph, kind: str) -> EliminationOrder:
    """The order of one run of the heuristic named kind (one of KINDS)."""
    if kind == "min-fill":
        return min_fill_order(g)
    if kind == "min-width":
        return min_width_order(g)
    if kind == "max-cardinality":
        return max_cardinality_order(g)
    raise GraphError(f"unknown heuristic kind: {kind!r}")

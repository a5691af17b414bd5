"""Treewidth lower bounds.

Three bounds, each sound (never above the true treewidth): the max
degree seen during minimum-degree removal (minwidth_lb), the max count
of already-labeled neighbors during a maximum-cardinality sweep
(mcs_lb), and the strongest of the three, minor_min_width, which
contracts a minimum-degree vertex into its smallest-degree neighbor and
records the degree observed before each contraction.  Contraction keeps
the bound sound because every intermediate graph is a minor of the
input and treewidth never goes up under minors.
"""

from __future__ import annotations

from .graph import Graph, GraphError, _contract_in_place, _remove_in_place, bits


def minwidth_lb(g: Graph) -> int:
    """Max degree at removal time under repeated minimum-degree removal.

    Each round removes a minimum-degree vertex (ties lowest id) without
    adding fill.
    """
    adj = list(g._adj)
    active = g.active_mask
    value = 0
    while active:
        v = min(bits(active), key=lambda x: adj[x].bit_count())
        d = adj[v].bit_count()
        if d > value:
            value = d
        _remove_in_place(adj, v)
        active &= ~(1 << v)
    return value


def mcs_lb(g: Graph, start: int | None = None) -> int:
    """Max number of already-labeled neighbors during a max-cardinality sweep.

    The sweep labels start first, then repeatedly the unlabeled vertex
    with the most labeled neighbors (ties lowest id).  start defaults to
    the lowest active vertex id.
    """
    if len(g) == 0:
        return 0
    active = g.active_mask
    if start is None:
        start = (active & -active).bit_length() - 1
    else:
        g._require_active(start)
    adj = g._adj
    count = [0] * g.n
    value = 0
    unlabeled = active
    cur = start
    while True:
        if count[cur] > value:
            value = count[cur]
        unlabeled &= ~(1 << cur)
        if not unlabeled:
            return value
        for w in bits(adj[cur] & unlabeled):
            count[w] += 1
        cur = max(bits(unlabeled), key=count.__getitem__)


def mcs_lb_max(g: Graph, restarts: int = 1) -> int:
    """Best mcs_lb over the first `restarts` active vertices as starts."""
    if restarts < 1:
        raise GraphError("restarts must be at least 1")
    return max((mcs_lb(g, s) for s in g.vertices[:restarts]), default=0)


def minor_min_width(g: Graph, cap: int | None = None) -> int:
    """Lower bound via repeated contraction of a min-degree vertex.

    Each round picks the minimum-degree vertex v (ties lowest id), records
    v's current degree, and contracts v's minimum-degree neighbor into v.
    Isolated vertices are dropped and contribute nothing.

    cap, when given, allows an early return with any value >= cap; the
    search only ever compares the result against cap (its pruning bound).
    """
    adj = list(g._adj)
    active = g.active_mask
    value = 0
    while active:
        v, dv = -1, None
        for x in bits(active):
            d = adj[x].bit_count()
            if dv is None or d < dv:
                dv, v = d, x
        if dv == 0:
            adj[v] = 0
            active &= ~(1 << v)
            continue
        if dv > value:
            value = dv
            if cap is not None and value >= cap:
                return value
        u, du = -1, None
        for x in bits(adj[v]):
            d = adj[x].bit_count()
            if du is None or d < du:
                du, u = d, x
        _contract_in_place(adj, v, u)
        active &= ~(1 << u)
    return value

"""The greedy elimination order that gives every solve its upper bound.

Min-fill repeatedly eliminates the vertex whose elimination adds the
fewest edges, ties going to the lowest vertex id, so the order is a
deterministic function of the graph.  Every fill count is computed once
and then updated by the change each elimination makes to it, so a step
costs time in its neighborhood and the fill edges it adds, not in a
recount of every vertex within distance two of it.  A solve's deadline
can cut the run short, and then graph.min_degree_sweep, the sweep
minwidth_lb runs too, finishes the order by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _eliminate_in_place, bits, fill_count_in_masks, min_degree_sweep


@dataclass(frozen=True)
class EliminationOrder:
    """An elimination order of every active vertex, with its cached width."""

    vertices: tuple[int, ...]
    width: int


def min_fill_order(g: Graph, stop=None) -> EliminationOrder:
    """Greedy order minimizing fill at each step; ties go to the lowest id.

    Fill counts are computed once, then updated from the masks as they are
    just before each elimination.  With N the neighbors of the eliminated
    vertex v, three terms change them, and no other count changes:

    - for each fill edge {a, b}, every common neighbor x != v of a and b
      has one missing pair fewer, inside N or outside it;
    - each x in N loses the missing pairs {v, y} for y in out, the
      neighbors of x outside N and other than v;
    - each x in N gains, for each new neighbor a in N - N[x], the pairs
      {a, y} with y in out not adjacent to a.

    stop, when given, is polled once per elimination: before the fill
    counts are first computed, then after each elimination but the last.
    Once it returns true the rest of the order is finished by minimum
    degree (ties to the lowest id), which needs no fill counts: that tail
    is graph.min_degree_sweep, eliminating each vertex it yields.  The order
    is a permutation of the active vertices either way, and its width is
    exact.
    """
    adj = list(g._adj)
    active = g.active_mask
    order = []
    width = 0
    if stop is None or not stop():
        # An inactive vertex holds n * n, above every fill count, so the
        # first minimum is the lowest-id active vertex of least fill.
        done = g.n * g.n
        fill = [done] * g.n
        for v in bits(active):
            fill[v] = fill_count_in_masks(adj, v)
        while active:
            v = fill.index(min(fill))
            bv = 1 << v
            nb = adj[v]
            width = max(width, nb.bit_count())
            # The three terms, from the masks before the elimination.
            rest = nb
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                row = adj[x] & ~bv
                # The fill edges {x, b} with b > x: each takes 1 from
                # every common neighbor of x and b but v.
                miss = rest & ~row
                while miss:
                    high = miss & -miss
                    miss ^= high
                    common = row & adj[high.bit_length() - 1]
                    while common:
                        lc = common & -common
                        common ^= lc
                        fill[lc.bit_length() - 1] -= 1
                # The change to x's own count is 0 when out is empty.
                out = row & ~nb
                if out:
                    f = fill[x] - out.bit_count()
                    new = nb & ~row & ~low
                    while new:
                        la = new & -new
                        new ^= la
                        f += (out & ~adj[la.bit_length() - 1]).bit_count()
                    fill[x] = f
            _eliminate_in_place(adj, v)
            fill[v] = done
            active &= ~bv
            order.append(v)
            if not active or (stop is not None and stop()):
                break
    # The minimum-degree tail, from the masks as the stop left them.
    for v, d in min_degree_sweep(adj, active):
        order.append(v)
        width = max(width, d)
        _eliminate_in_place(adj, v)
    return EliminationOrder(tuple(order), width)


def best_upper_bound(g: Graph, stop=None) -> EliminationOrder:
    """The min-fill order, the first solution of every solve.

    stop is passed on to min_fill_order.  A function, not an alias, so
    that it looks up min_fill_order when called and a wrapper put on that
    name sees every solve's run.
    """
    return min_fill_order(g, stop)

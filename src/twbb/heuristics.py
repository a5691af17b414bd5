"""The greedy elimination orders that give every solve its upper bound.

Each component's first solution is a minimum-degree order:
graph.min_degree_sweep, the sweep minwidth_lb runs too, eliminating each
vertex it yields (ties to the lowest id).  It is cheap and needs no
deadline poll, so every component holds a valid order.  Min-fill runs
after it only when that order is wider than the component's root lower
bound: neither heuristic dominates the other (Bodlaender & Koster,
"Treewidth computations I. Upper bounds", Inf. & Comp. 208, 2010), and a
minimum-degree order that meets the bound is already optimal.

Min-fill repeatedly eliminates the vertex whose elimination adds the
fewest edges, ties going to the lowest vertex id, so the order is a
deterministic function of the graph.  Every fill count is computed once
and then updated by the change each elimination makes to it, so a step
costs time in its neighborhood and the fill edges it adds, not in a
recount of every vertex within distance two of it.  A solve's deadline
abandons the run after the elimination it interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _eliminate_in_place, bits, fill_count_in_masks, min_degree_sweep


@dataclass(frozen=True)
class EliminationOrder:
    """An elimination order of every active vertex, with its cached width."""

    vertices: tuple[int, ...]
    width: int


def min_degree_order(g: Graph) -> EliminationOrder:
    """Greedy order of least degree at each step; ties go to the lowest id.

    graph.min_degree_sweep, eliminating each vertex it yields.  It polls
    no stop: it is the valid order that every component holds.
    """
    adj = list(g._adj)
    order = []
    width = 0
    for v, d in min_degree_sweep(adj, g.active_mask):
        order.append(v)
        width = max(width, d)
        _eliminate_in_place(adj, v)
    return EliminationOrder(tuple(order), width)


def min_fill_order(g: Graph, stop=None) -> EliminationOrder | None:
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
    Once it returns true the run is abandoned and the result is None.
    """
    if stop is not None and stop():
        return None
    adj = list(g._adj)
    active = g.active_mask
    order = []
    width = 0
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
        if active and stop is not None and stop():
            return None
    return EliminationOrder(tuple(order), width)


def best_upper_bound(g: Graph, stop=None, lb=None) -> EliminationOrder:
    """The first solution of every solve: min-degree, then maybe min-fill.

    lb is the graph's root lower bound.  Min-fill runs only when the
    minimum-degree order is wider than lb, or when no lb is given; its
    order is held when it finished and is no wider.  stop is passed on to
    min_fill_order, whose first poll catches a stop that fired earlier.
    min_fill_order is looked up when called, so that a wrapper put on
    that name sees every solve's run.
    """
    order = min_degree_order(g)
    if lb is not None and order.width <= lb:
        return order
    fill = min_fill_order(g, stop)
    return order if fill is None or fill.width > order.width else fill

"""Upper-bound heuristics: the minimum-degree and min-fill orders."""

import itertools
import random

from conftest import clique, complete_bipartite, cycle, degree, fill_edges, grid, path, star
from twbb import (
    Graph,
    PartialKTreeSpec,
    best_upper_bound,
    gen_partial_ktree,
    min_fill_order,
    mycielski,
    width_of_order,
)
from twbb import heuristics
from twbb.heuristics import min_degree_order
from twbb.oracle import exact_treewidth


def test_min_fill_is_exact_on_chordal_graphs():
    # zero-fill vertices always exist in a chordal graph, so the greedy
    # order has width equal to the treewidth
    for g in (path(6), star(4), clique(5), Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (4, 6)])):
        assert min_fill_order(g).width == exact_treewidth(g).treewidth


def test_min_fill_known_widths():
    assert min_fill_order(cycle(5)).width == 2
    assert min_fill_order(complete_bipartite(2, 3)).width == 2
    assert min_fill_order(grid(3, 3)).width == 3
    assert min_fill_order(mycielski(cycle(5))).width == 5


def test_min_fill_tie_breaks_to_lowest_id():
    assert min_fill_order(path(3)).vertices == (0, 1, 2)
    assert min_fill_order(clique(4)).vertices == (0, 1, 2, 3)


def test_orders_are_permutations_with_true_widths():
    for fn in (min_fill_order, min_degree_order, best_upper_bound):
        for g in (cycle(6), grid(2, 4), complete_bipartite(3, 3), Graph(3, [])):
            o = fn(g)
            assert sorted(o.vertices) == list(g.vertices)
            assert width_of_order(g, o.vertices) == o.width


def test_best_upper_bound_empty_graph():
    order = best_upper_bound(Graph(0, []))
    assert order.vertices == () and order.width == 0


def test_a_stop_abandons_min_fill():
    g = mycielski(cycle(5))
    assert min_fill_order(g, lambda: False) == min_fill_order(g)
    polls = [0]

    def stop_after(k):
        def stop():
            polls[0] += 1
            return polls[0] > k

        return stop

    for k in range(g.n + 1):
        polls[0] = 0
        o = min_fill_order(g, stop_after(k))
        # once per elimination, and never after it fired
        assert polls[0] == min(k + 1, g.n)
        if k < g.n:
            assert o is None
        else:
            assert o == min_fill_order(g)
    assert min_fill_order(Graph(0, []), lambda: True) is None


def test_minimum_degree_order_breaks_ties_to_the_lowest_id():
    assert min_degree_order(path(4)).vertices == (0, 1, 2, 3)
    assert min_degree_order(star(3)).vertices == (1, 2, 0, 3)
    # a clique on 0-3 (fill 0, degree 3) beside a 4-cycle (fill 1, degree 2)
    k4_c4 = Graph(
        8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    )
    assert min_fill_order(k4_c4).vertices[0] == 0
    assert min_degree_order(k4_c4).vertices[0] == 4


def test_best_upper_bound_runs_min_fill_only_above_the_bound(monkeypatch):
    runs = []
    min_fill = heuristics.min_fill_order

    def spy(g, stop=None):
        runs.append(g)
        return min_fill(g, stop)

    monkeypatch.setattr(heuristics, "min_fill_order", spy)
    rng = random.Random(8)
    wins = set()
    for _ in range(120):
        n = rng.randint(8, 30)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randint(n, 3 * n)))
        md, mf = min_degree_order(g), min_fill(g)
        # min-fill's order is held when no wider, so ties keep it
        best = md if md.width < mf.width else mf
        wins.add((md.width > mf.width) - (md.width < mf.width))
        for lb in (None, *range(md.width + 1)):
            runs.clear()
            # with no bound, min-fill always runs
            above = lb is None or md.width > lb
            assert best_upper_bound(g, lb=lb) == (best if above else md)
            assert len(runs) == above
            # a stop abandons min-fill and keeps the minimum-degree order
            assert best_upper_bound(g, lambda: True, lb) == md
    # either heuristic may be the narrower one
    assert wins == {-1, 0, 1}


def test_no_elimination_follows_a_stop(monkeypatch):
    # min-degree eliminates before min-fill's first poll; once the stop
    # fires, nothing is eliminated
    g = mycielski(mycielski(cycle(5)))
    fired = []
    late = []
    eliminate = heuristics._eliminate_in_place

    def spy(adj, v):
        late.append(bool(fired))
        eliminate(adj, v)

    md = min_degree_order(g)
    monkeypatch.setattr(heuristics, "_eliminate_in_place", spy)
    for k in (0, 1, 5, g.n - 1):
        fired.clear()
        late.clear()
        polls = []

        def stop():
            polls.append(None)
            if len(polls) > k:
                fired.append(None)
            return bool(fired)

        o = best_upper_bound(g, stop, 0)
        assert o == md and fired
        assert late == [False] * (g.n + k)


def reference_order(g, k):
    """k min-fill eliminations, then minimum degree, each by a full scan."""
    order = []
    while len(g):
        if len(order) < k:
            v = min(g.vertices, key=lambda u: (len(fill_edges(g, u)), u))
        else:
            v = min(g.vertices, key=lambda u: (degree(g, u), u))
        order.append(v)
        g = g.eliminate(v)
    return tuple(order)


def test_min_degree_order_matches_a_full_scan():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(10, 40)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randint(n, 3 * n)))
        o = min_degree_order(g)
        assert o.vertices == reference_order(g, 0)
        assert width_of_order(g, o.vertices) == o.width


def test_min_fill_matches_a_full_scan():
    # the counts are updated by delta after each elimination; a full scan
    # recounts every fill from the graph's edges
    graphs = []
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graphs.append(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
    rng = random.Random(19)
    for n in range(2, 31):
        pairs = list(itertools.combinations(range(n), 2))
        for m in sorted({len(pairs) * i // 8 for i in range(9)}):
            graphs.append(Graph(n, rng.sample(pairs, m)))
    for seed in range(12):
        spec = PartialKTreeSpec(rng.randint(12, 40), rng.randint(2, 10), rng.randint(0, 60), seed)
        graphs.append(gen_partial_ktree(spec))
    for g in graphs:
        o = min_fill_order(g)
        assert o.vertices == reference_order(g, g.n)
        assert width_of_order(g, o.vertices) == o.width

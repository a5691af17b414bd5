"""Upper-bound heuristic: the min-fill order."""

from conftest import clique, complete_bipartite, cycle, grid, path, star
from twbb import Graph, best_upper_bound, min_fill_order, mycielski, width_of_order
from twbb.heuristics import EliminationOrder
from twbb.oracle import exact_treewidth


def test_elimination_order_behaves_like_a_sequence():
    o = EliminationOrder((2, 0, 1), 1)
    assert len(o) == 3
    assert list(o) == [2, 0, 1]
    assert o[0] == 2


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
    for fn in (min_fill_order, best_upper_bound):
        for g in (cycle(6), grid(2, 4), complete_bipartite(3, 3), Graph(3, [])):
            o = fn(g)
            assert sorted(o.vertices) == list(g.vertices)
            assert width_of_order(g, o.vertices) == o.width


def test_best_upper_bound_empty_graph():
    order = best_upper_bound(Graph(0, []))
    assert order.vertices == () and order.width == 0

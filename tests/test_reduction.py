"""Forced eliminations and forced edge additions."""

import random

from conftest import clique, complete_bipartite, cycle, star
from twbb import Graph, minor_min_width, reduce_state
from twbb.heuristics import min_fill_order
from twbb.oracle import exact_treewidth


def k4_minus_edge():
    return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_clique_fully_reduces():
    out = reduce_state(clique(5))
    assert out.forced_prefix == (0, 1, 2, 3, 4)
    assert out.g_value == 4
    assert len(out.graph) == 0
    assert out.changed


def test_cycle_clears_when_bound_allows():
    out = reduce_state(cycle(6), lb=2)
    assert len(out.forced_prefix) == 6
    assert out.g_value == 2
    assert len(out.graph) == 0


def test_cycle_untouched_below_threshold():
    g = cycle(6)
    out = reduce_state(g, lb=1)
    assert not out.changed
    assert out.graph is g
    assert out.g_value == 0


def test_star_elimination_order():
    # leaves go first in id order; once one leaf is left the center follows
    out = reduce_state(star(4))
    assert out.forced_prefix == (1, 2, 3, 0, 4)
    assert out.g_value == 1
    assert len(out.graph) == 0


def test_g_value_only_grows():
    out = reduce_state(clique(5), g_value=7)
    assert out.g_value == 7


def test_running_width_widens_the_gate():
    # lb=0 alone does nothing on a 6-cycle, but a running width of 2
    # already proves the answer is >= 2, which frees the degree-2 rule
    out = reduce_state(cycle(6), g_value=2, lb=0)
    assert len(out.graph) == 0 and out.g_value == 2


def test_edge_addition_bipartite():
    out = reduce_state(complete_bipartite(2, 3), ub=2, reductions=False)
    assert out.edges_added == {(0, 1)}
    assert out.graph.has_edge(0, 1)
    assert not out.graph.has_edge(2, 3)


def test_edge_addition_threshold():
    g = k4_minus_edge()
    out = reduce_state(g, ub=1, reductions=False)
    assert out.edges_added == {(0, 1)} and out.graph.is_clique(out.graph.active_mask)
    assert not reduce_state(g, ub=2, reductions=False).changed
    assert not reduce_state(cycle(5), ub=2, reductions=False).changed


def test_joint_fixed_point_cascades():
    # the added (0, 1) edge turns every degree-2 vertex simplicial
    out = reduce_state(complete_bipartite(2, 3), ub=2)
    assert out.edges_added == {(0, 1)}
    assert len(out.graph) == 0
    assert out.g_value == 2


def test_reduce_state_flags():
    g = complete_bipartite(2, 3)
    only_edges = reduce_state(g, ub=2, reductions=False)
    assert only_edges.forced_prefix == () and only_edges.edges_added == {(0, 1)}
    only_elims = reduce_state(cycle(6), lb=2)
    assert len(only_elims.forced_prefix) == 6 and not only_elims.edges_added


def test_fixed_point_is_stable():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.45])
        lb = minor_min_width(g)
        ub = min_fill_order(g).width
        out = reduce_state(g, lb=lb, ub=ub)
        again = reduce_state(out.graph, g_value=out.g_value, lb=lb, ub=ub)
        assert not again.changed
        assert again.g_value == out.g_value


def test_reductions_preserve_the_answer():
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.4])
        tw = exact_treewidth(g).treewidth
        lb = minor_min_width(g)
        ub = min_fill_order(g).width
        out = reduce_state(g, lb=lb, ub=ub)
        rest = exact_treewidth(out.graph).treewidth if len(out.graph) else 0
        assert max(out.g_value, rest) == tw
        # forced vertices really are gone, in order, without repeats
        assert len(set(out.forced_prefix)) == len(out.forced_prefix)
        assert all(v not in out.graph.vertices for v in out.forced_prefix)

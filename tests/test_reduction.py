"""Forced eliminations and forced edge additions."""

import random

from conftest import adjacent, clique, complete_bipartite, cycle, disjoint_union, run_reductions, star
from twbb import Graph, minor_min_width
from twbb.heuristics import min_fill_order
from twbb.oracle import exact_treewidth


def k4_minus_edge():
    return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_clique_fully_reduces():
    rest, forced, g_value, added = run_reductions(clique(5))
    assert forced == (0, 1, 2, 3, 4)
    assert g_value == 4
    assert len(rest) == 0
    assert forced or added


def test_cycle_clears_when_bound_allows():
    rest, forced, g_value, _ = run_reductions(cycle(6), lb=2)
    assert len(forced) == 6
    assert g_value == 2
    assert len(rest) == 0


def test_cycle_untouched_below_threshold():
    rest, forced, g_value, added = run_reductions(cycle(6), lb=1)
    assert not (forced or added)
    assert rest == cycle(6)
    assert g_value == 0


def test_star_elimination_order():
    # leaves go first in id order; once one leaf is left the center follows
    rest, forced, g_value, _ = run_reductions(star(4))
    assert forced == (1, 2, 3, 0, 4)
    assert g_value == 1
    assert len(rest) == 0


def test_g_value_only_grows():
    _, _, g_value, _ = run_reductions(clique(5), g_value=7)
    assert g_value == 7


def test_running_width_widens_the_gate():
    # lb=0 alone does nothing on a 6-cycle, but a running width of 2
    # already proves the answer is >= 2, which frees the degree-2 rule
    rest, _, g_value, _ = run_reductions(cycle(6), g_value=2, lb=0)
    assert len(rest) == 0 and g_value == 2
    # the gate widens mid-call too: eliminating the clique raises g to 4,
    # which frees the cycle's degree-2 vertices in the same call
    rest, forced, g_value, _ = run_reductions(disjoint_union(clique(5), cycle(6)), lb=1)
    assert forced == tuple(range(11)) and len(rest) == 0 and g_value == 4


def test_edge_addition_bipartite():
    rest, _, _, added = run_reductions(complete_bipartite(2, 3), ub=2, reductions=False)
    assert added == {(0, 1)}
    assert adjacent(rest, 0, 1)
    assert not adjacent(rest, 2, 3)


def test_edge_addition_threshold():
    g = k4_minus_edge()
    rest, _, _, added = run_reductions(g, ub=1, reductions=False)
    assert added == {(0, 1)} and rest == clique(4)
    for h in (g, cycle(5)):
        _, forced, _, added = run_reductions(h, ub=2, reductions=False)
        assert not (forced or added)


def test_joint_fixed_point_cascades():
    # the added (0, 1) edge turns every degree-2 vertex simplicial
    rest, _, g_value, added = run_reductions(complete_bipartite(2, 3), ub=2)
    assert added == {(0, 1)}
    assert len(rest) == 0
    assert g_value == 2


def test_reduction_flags():
    _, forced, _, added = run_reductions(complete_bipartite(2, 3), ub=2, reductions=False)
    assert forced == () and added == {(0, 1)}
    _, forced, _, added = run_reductions(cycle(6), lb=2)
    assert len(forced) == 6 and not added


def test_fixed_point_is_stable():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.45])
        lb = minor_min_width(g)
        ub = min_fill_order(g).width
        rest, _, g_value, _ = run_reductions(g, lb=lb, ub=ub)
        _, forced, again, added = run_reductions(rest, g_value=g_value, lb=lb, ub=ub)
        assert not (forced or added)
        assert again == g_value


def test_reductions_preserve_the_answer():
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randint(1, 9)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.4])
        tw = exact_treewidth(g).treewidth
        lb = minor_min_width(g)
        ub = min_fill_order(g).width
        rest, forced, g_value, _ = run_reductions(g, lb=lb, ub=ub)
        rest_tw = exact_treewidth(rest).treewidth if len(rest) else 0
        assert max(g_value, rest_tw) == tw
        # forced vertices really are gone, in order, without repeats
        assert len(set(forced)) == len(forced)
        assert all(v not in rest.vertices for v in forced)

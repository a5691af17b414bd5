"""Tree decomposition construction and validation."""

import itertools
import random

import pytest
from conftest import cycle, grid
from twbb import (
    Graph,
    GraphError,
    TreeDecomposition,
    build_decomposition,
    validate_decomposition,
    width_of_order,
)
from twbb.oracle import exact_treewidth


def random_graph(rng, n, p=0.4):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, [e for e in pairs if rng.random() < p])


def test_build_decomposition_rejects_bad_orders():
    g = cycle(4)
    for order in ((0, 1, 2), (0, 1, 2, 2), (0, 1, 2, 5), (0, 1, 2, 3, 3)):
        with pytest.raises(GraphError):
            build_decomposition(g, order)


def test_build_square_decomposition():
    td = build_decomposition(cycle(4), (0, 1, 2, 3))
    assert td.bags == (
        frozenset({0, 1, 3}),
        frozenset({1, 2, 3}),
        frozenset({2, 3}),
        frozenset({3}),
    )
    assert td.tree_edges == ((0, 1), (1, 2), (2, 3))
    assert td.width == 2
    assert validate_decomposition(cycle(4), td)


def test_build_decomposition_with_isolated_and_inactive_vertices():
    # vertex 3 is isolated and vertex 4 inactive; a bag with no neighbors
    # hangs on the next bag
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (2, 5)])
    g = g.induced([0, 1, 2, 3, 5, 6])
    td = build_decomposition(g, (3, 0, 6, 1, 5, 2))
    assert td.bags == (
        frozenset({3}),
        frozenset({0, 1, 2}),
        frozenset({5, 6}),
        frozenset({1, 2}),
        frozenset({2, 5}),
        frozenset({2}),
    )
    assert td.tree_edges == ((0, 1), (1, 3), (2, 4), (3, 5), (4, 5))
    assert validate_decomposition(g, td)


def test_trivial_decompositions():
    td = build_decomposition(Graph(0, []), ())
    assert td.bags == () and td.width == -1
    assert validate_decomposition(Graph(0, []), td)

    td = build_decomposition(Graph(1, []), (0,))
    assert td.bags == (frozenset({0}),) and td.width == 0
    assert validate_decomposition(Graph(1, []), td)


def test_disconnected_graph_still_yields_a_tree():
    g = Graph(4, [(0, 1), (2, 3)])
    td = build_decomposition(g, (0, 1, 2, 3))
    assert validate_decomposition(g, td)
    assert td.width == 1


def test_validator_finds_each_problem():
    one = Graph(1, [])
    two = Graph(2, [(0, 1)])

    r = validate_decomposition(one, TreeDecomposition((), ((0, 1),)))
    assert not r and "no bags" in r.problem

    bag0 = frozenset({0})
    r = validate_decomposition(one, TreeDecomposition((bag0,), ((0, 1),)))
    assert "does not join" in r.problem
    r = validate_decomposition(one, TreeDecomposition((bag0, bag0), ((0, 0),)))
    assert "does not join" in r.problem
    r = validate_decomposition(
        one, TreeDecomposition((bag0, bag0), ((0, 1), (1, 0)))
    )
    assert "duplicate" in r.problem
    r = validate_decomposition(one, TreeDecomposition((bag0, bag0), ()))
    assert "do not form a tree" in r.problem
    bags4 = (bag0, bag0, bag0, bag0)
    r = validate_decomposition(
        one, TreeDecomposition(bags4, ((0, 1), (1, 2), (0, 2)))
    )
    assert "connected tree" in r.problem

    r = validate_decomposition(two, TreeDecomposition((frozenset({0, 1, 2}),), ()))
    assert "non-vertex 2" in r.problem
    r = validate_decomposition(Graph(2, []), TreeDecomposition((bag0,), ()))
    assert "vertex 1 is in no bag" in r.problem
    r = validate_decomposition(
        two, TreeDecomposition((frozenset({0}), frozenset({1})), ((0, 1),))
    )
    assert "edge (0, 1)" in r.problem
    r = validate_decomposition(
        one,
        TreeDecomposition((bag0, frozenset(), bag0), ((0, 1), (1, 2))),
    )
    assert "connected subtree" in r.problem


def test_every_order_gives_a_valid_decomposition():
    rng = random.Random(9)
    for _ in range(250):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        td = build_decomposition(g, order)
        assert validate_decomposition(g, td)
        assert td.width == width_of_order(g, order)


def test_best_decomposition_width_is_the_treewidth():
    for g in (cycle(5), grid(2, 3), Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])):
        best = min(
            build_decomposition(g, p).width
            for p in itertools.permutations(range(g.n))
        )
        assert best == exact_treewidth(g).treewidth

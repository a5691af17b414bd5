"""Tree decomposition construction and validation."""

import itertools
import random

import pytest
from conftest import cycle, grid, induced, path, star
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
    g = induced(g, [0, 1, 2, 3, 5, 6])
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


def reference_validate(g, td):
    """validate_decomposition's verdict and message, read off the definition."""
    bags, edges, nb = td.bags, td.tree_edges, len(td.bags)
    if not bags and edges:
        return False, "tree_edges given but there are no bags"
    keys = []
    for a, b in edges:
        if not (0 <= a < nb and 0 <= b < nb) or a == b:
            return False, f"tree edge ({a}, {b}) does not join two distinct bags"
        key = (min(a, b), max(a, b))
        if key in keys:
            return False, f"duplicate tree edge {key}"
        keys.append(key)
    if bags and len(edges) != nb - 1:
        return False, f"tree_edges do not form a tree: {len(edges)} edges for {nb} bags"

    def connected(nodes):
        # grow from the first node along the tree edges inside nodes
        inside = [e for e in edges if e[0] in nodes and e[1] in nodes]
        reached = set(nodes[:1])
        while grown := {x for e in inside if reached & set(e) for x in e} - reached:
            reached |= grown
        return len(reached) == len(nodes)

    if not connected(list(range(nb))):
        return False, "tree_edges do not form a connected tree"
    for i, bag in enumerate(bags):
        if set(bag) - set(g.vertices):
            return False, f"bag {i} contains non-vertex {min(set(bag) - set(g.vertices))}"
    for v in g.vertices:
        if not any(v in bag for bag in bags):
            return False, f"vertex {v} is in no bag"
    for u, v in g.edges():
        if not any(u in bag and v in bag for bag in bags):
            return False, f"edge ({u}, {v}) is not inside any bag"
    for v in g.vertices:
        if not connected([i for i, bag in enumerate(bags) if v in bag]):
            return False, f"bags containing vertex {v} do not form a connected subtree"
    return True, None


def corrupt(rng, g, td):
    """td with one random change: a bag vertex dropped or added, a tree edge
    dropped, added or retargeted, or a bag appended."""
    bags, edges = list(td.bags), list(td.tree_edges)
    nb = len(bags)
    kind = rng.randrange(6)
    if kind == 0 and nb:
        i = rng.randrange(nb)
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]) or [0])}
    elif kind == 1 and nb:
        i = rng.randrange(nb)
        bags[i] = bags[i] | {rng.randrange(g.n + 1)}
    elif kind == 2 and edges:
        del edges[rng.randrange(len(edges))]
    elif kind == 3:
        edges.append((rng.randrange(-1, nb + 1), rng.randrange(nb + 1)))
    elif kind == 4 and edges:
        k = rng.randrange(len(edges))
        edges[k] = (edges[k][0], rng.randrange(nb + 1))
    else:
        bags.append(frozenset(rng.sample(range(g.n + 1), rng.randint(0, min(2, g.n + 1)))))
    return TreeDecomposition(tuple(bags), tuple(edges))


def test_validator_matches_the_definition():
    rng = random.Random(22)
    invalid = 0
    for case in range(20000):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, rng.random())
        g = induced(g, [v for v in g.vertices if rng.random() < 0.9])
        order = g.vertices
        rng.shuffle(order)
        td = build_decomposition(g, order)
        # the same tree, its edges in another order and orientation
        edges = [e if rng.random() < 0.5 else e[::-1] for e in td.tree_edges]
        rng.shuffle(edges)
        td = TreeDecomposition(td.bags, tuple(edges))
        for _ in range(rng.choice((0, 1, 1, 2))):
            td = corrupt(rng, g, td)
        report = validate_decomposition(g, td)
        want = reference_validate(g, td)
        assert (report.valid, report.problem) == want, (case, g.edges(), td)
        invalid += not want[0]
    assert invalid >= 8000


def test_long_stars_and_paths_validate():
    # 20,000 bags: every bag of a star holds the hub, which is listed
    # first on every tree edge; a path's edges are listed from its far end
    g = star(19999)
    bags = (frozenset({0}),) + tuple(frozenset({0, i}) for i in range(1, 20000))
    edges = tuple((0, i) for i in range(1, 20000))
    assert validate_decomposition(g, TreeDecomposition(bags, edges))
    g = path(20001)
    bags = tuple(frozenset({i, i + 1}) for i in range(20000))
    edges = tuple((i + 1, i) for i in reversed(range(19999)))
    assert validate_decomposition(g, TreeDecomposition(bags, edges))


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

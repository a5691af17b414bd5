"""Graph core: construction, rewriting operations, and order widths."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from conftest import clique, complete_bipartite, cycle, path, star
from twbb import Graph, GraphError, connected_components, width_of_order
from twbb.graph import bits, forced_in_masks, mask_of


def random_graph_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        return Graph(n, picks)

    return build()


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(-1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_basic_inspection():
    g = Graph(4, [(0, 1), (1, 2), (0, 1)])
    assert g.n == 4
    assert len(g) == 4
    assert g.num_edges() == 2
    assert g.vertices == [0, 1, 2, 3]
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(1) == {0, 2}
    assert g.degree(3) == 0


def test_bits_and_mask_helpers():
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2]) == 0b101


def test_eliminate_connects_neighbors():
    g = cycle(4).eliminate(0)
    assert not g.has_vertex(0)
    assert g.has_edge(1, 3)
    assert sorted(g.vertices) == [1, 2, 3]
    # original is untouched
    assert cycle(4).has_vertex(0)


def test_eliminate_clique_gives_smaller_clique():
    assert clique(4).eliminate(0) == clique(4).induced([1, 2, 3])


def test_remove_vertex_adds_no_fill():
    g = cycle(4).remove_vertex(0)
    assert not g.has_edge(1, 3)


def test_fill_edges():
    g = cycle(4)
    assert g.fill_edges(0) == {(1, 3)}
    assert g.fill_count(0) == 1
    assert clique(4).fill_count(2) == 0


def test_simplicial_predicates():
    g = path(4)
    assert g.is_simplicial(0)
    assert not g.is_simplicial(1)
    assert clique(5).is_simplicial(3)
    # isolated vertices are simplicial but not almost simplicial
    iso = Graph(2, [])
    assert iso.is_simplicial(0)
    assert not iso.is_almost_simplicial(0)


def test_almost_simplicial():
    # a degree-1 vertex and any simplicial vertex with a neighbor qualify
    assert path(4).is_almost_simplicial(0)
    assert clique(4).is_almost_simplicial(1)
    # cycle vertices: dropping either neighbor leaves a single vertex
    assert cycle(5).is_almost_simplicial(2)
    # complete bipartite center: N(0) = three pairwise non-adjacent leaves
    assert not complete_bipartite(1, 3).is_almost_simplicial(0)
    # wheel rim vertex: neighbors hub + two rim; dropping one rim works
    wheel = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    assert wheel.is_almost_simplicial(1)
    assert not wheel.is_almost_simplicial(0)


def _forced_reference(g, v):
    """(simplicial, almost simplicial) for v by brute force over N(v)."""
    nb = g.neighbors(v)

    def is_clique(vs):
        return all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))

    return is_clique(nb), any(is_clique(nb - {x}) for x in nb)


def _check_forced(g):
    for v in g.vertices:
        simplicial, almost = _forced_reference(g, v)
        assert g.is_almost_simplicial(v) == almost
        deg = g.degree(v)
        for lb in range(g.n + 1):
            expected = simplicial or (deg <= lb and almost)
            assert forced_in_masks(g._adj, v, lb) == expected, (g.edges(), v, lb)


def test_forced_matches_brute_force_on_small_graphs():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in range(1 << len(pairs)):
            _check_forced(Graph(n, [e for k, e in enumerate(pairs) if picks >> k & 1]))


def test_forced_matches_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(2, 12)
        p = rng.random()
        pairs = itertools.combinations(range(n), 2)
        _check_forced(Graph(n, [e for e in pairs if rng.random() < p]))


def test_with_edges_and_induced():
    g = path(3).with_edges([(0, 2)])
    assert g.has_edge(0, 2)
    sub = g.induced([0, 1])
    assert sub.has_edge(0, 1)
    assert not sub.has_vertex(2)
    assert sub.num_edges() == 1


def test_width_of_order():
    assert width_of_order(path(4), (0, 1, 2, 3)) == 1
    assert width_of_order(cycle(4), (0, 1, 2, 3)) == 2
    assert width_of_order(clique(5), (4, 3, 2, 1, 0)) == 4
    assert width_of_order(Graph(3, []), (2, 0, 1)) == 0
    with pytest.raises(GraphError):
        width_of_order(path(3), (0, 1))
    with pytest.raises(GraphError):
        width_of_order(path(3), (0, 1, 1))


def test_connected_components():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = connected_components(g)
    assert comps == [{0, 1}, {2, 3, 4}, {5}]
    assert connected_components(Graph(0, [])) == []


def test_equality_and_hash():
    a = cycle(4)
    b = Graph(4, [(1, 2), (0, 1), (2, 3), (0, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.eliminate(0)


@given(random_graph_strategy())
def test_eliminate_leaves_clique_property(g):
    for v in g.vertices:
        nb = g.neighbors_mask(v)
        after = g.eliminate(v)
        assert after.is_clique(nb)
        assert not after.has_vertex(v)
        assert len(after) == len(g) - 1


@given(random_graph_strategy())
def test_any_permutation_width_bounds(g):
    w = width_of_order(g, g.vertices)
    assert 0 <= w < len(g)
    # the first eliminated vertex contributes its full degree
    assert w >= min(g.degree(v) for v in g.vertices)

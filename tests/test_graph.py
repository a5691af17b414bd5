"""Graph core: construction, rewriting operations, and order widths."""

import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import (
    clique,
    complete_bipartite,
    cycle,
    degree,
    fill_edges,
    induced,
    neighbors,
    path,
)
from twbb import Graph, GraphError, connected_components, width_of_order
from twbb.graph import bits, fill_count_in_masks, forced_in_masks


def random_graph_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        return Graph(n, picks)

    return build()


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError, match="vertex count must be nonnegative"):
        Graph(-1)
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


def test_edges_are_the_adjacent_active_pairs():
    # the definition, pair by pair, on graphs with isolated and eliminated ids
    rng = random.Random(7)
    graphs = [Graph(0), Graph(1), Graph(5), Graph(6, [(4, 5)])]
    for _ in range(200):
        n = rng.randrange(1, 16)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        for v in rng.sample(range(n), rng.randrange(n + 1)):
            g = g.eliminate(v)
            graphs.append(g)
    for g in graphs:
        active = set(g.vertices)
        want = [
            (u, v)
            for u, v in itertools.combinations(range(g.n), 2)
            if u in active and v in active and (g._adj[u] >> v) & 1
        ]
        assert g.edges() == want


def test_vertices_are_the_active_ids_in_order():
    rng = random.Random(8)
    graphs = [Graph(0), Graph(1), Graph(70)]
    for _ in range(200):
        n = rng.randrange(1, 200)
        graphs.append(Graph._from_masks(n, [0] * n, rng.getrandbits(n)))
    for _ in range(100):
        n = rng.randrange(1, 16)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
        for v in rng.sample(range(n), rng.randrange(n + 1)):
            g = g.eliminate(v)
            graphs.append(g)
    for g in graphs:
        assert g.vertices == list(bits(g.active_mask))


def test_vertices_is_linear_in_n():
    # walking bits() over 200,000 ids took 2.19 s, and a string walk
    # 0.010 s (2-core Xeon, Python 3.11); the cap leaves a wide margin
    g = Graph(200_000)
    t0 = time.perf_counter()
    assert len(g.vertices) == 200_000
    assert time.perf_counter() - t0 < 0.5


def test_bits_and_mask_helpers():
    assert list(bits(0b101101)) == [0, 2, 3, 5]


def test_eliminate_connects_neighbors():
    g = cycle(4)
    after = g.eliminate(0)
    assert after.vertices == [1, 2, 3]
    assert after.edges() == [(1, 2), (1, 3), (2, 3)]
    # original is untouched
    assert g == cycle(4)


def test_eliminate_clique_gives_smaller_clique():
    assert clique(4).eliminate(0) == induced(clique(4), [1, 2, 3])


def test_fill_edges():
    assert fill_edges(cycle(4), 0) == {(1, 3)}
    assert fill_count_in_masks(cycle(4)._adj, 0) == 1
    assert fill_count_in_masks(clique(4)._adj, 2) == 0
    assert fill_count_in_masks(Graph(2, [])._adj, 0) == 0
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        for v in g.vertices:
            assert fill_count_in_masks(g._adj, v) == len(fill_edges(g, v))


def test_simplicial_predicates():
    # a simplicial vertex may go first under any lower bound
    assert forced_in_masks(path(4)._adj, 0, 0)
    assert not forced_in_masks(path(4)._adj, 1, 0)
    assert forced_in_masks(clique(5)._adj, 3, 0)
    # an isolated vertex is simplicial
    assert forced_in_masks(Graph(2, [])._adj, 0, 0)


def test_almost_simplicial():
    # almost simplicial vertices go first once the bound reaches their degree
    # cycle vertices: dropping either neighbor leaves a single vertex
    assert forced_in_masks(cycle(5)._adj, 2, 2)
    assert not forced_in_masks(cycle(5)._adj, 2, 1)
    # complete bipartite center: N(0) = three pairwise non-adjacent leaves
    assert not forced_in_masks(complete_bipartite(1, 3)._adj, 0, 3)
    # wheel rim vertex: neighbors hub + two rim; dropping one rim works
    wheel = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    assert forced_in_masks(wheel._adj, 1, 3)
    assert not forced_in_masks(wheel._adj, 1, 2)
    assert not forced_in_masks(wheel._adj, 0, 4)


def _forced_reference(g, v):
    """(simplicial, almost simplicial) for v by brute force over N(v)."""
    nb = neighbors(g, v)
    edges = set(g.edges())

    def is_clique(vs):
        return all(e in edges for e in itertools.combinations(sorted(vs), 2))

    return is_clique(nb), any(is_clique(nb - {x}) for x in nb)


def _check_forced(g):
    for v in g.vertices:
        simplicial, almost = _forced_reference(g, v)
        deg = degree(g, v)
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
    assert comps == [((0, 1), path(2)), ((2, 3, 4), path(3)), ((5,), Graph(1))]
    assert connected_components(Graph(0, [])) == []
    # ids 1 and 5 are inactive; {0, 3, 6} and {2, 4} are relabelled in order
    g = Graph(7, [(0, 6), (6, 3), (2, 4), (1, 5)]).eliminate(1).eliminate(5)
    assert connected_components(g) == [
        ((0, 3, 6), Graph(3, [(0, 2), (1, 2)])),
        ((2, 4), path(2)),
    ]


def test_components_relabel_their_ids_in_order():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 30)
        p = rng.random() * 0.2
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for v in rng.sample(range(n), rng.randint(0, n)):
            g = g.eliminate(v)
        comps = connected_components(g)
        assert sorted(v for ids, _ in comps for v in ids) == g.vertices
        assert [ids[0] for ids, _ in comps] == sorted(ids[0] for ids, _ in comps)
        for ids, sub in comps:
            assert list(ids) == sorted(ids)
            pos = {v: i for i, v in enumerate(ids)}
            edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
            assert sub == Graph(len(ids), edges)
            assert len(connected_components(sub)) == 1


def test_equality_and_hash():
    a = cycle(4)
    b = Graph(4, [(1, 2), (0, 1), (2, 3), (0, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.eliminate(0)


@given(random_graph_strategy())
def test_eliminate_leaves_clique_property(g):
    for v in g.vertices:
        after = g.eliminate(v)
        kept = {e for e in g.edges() if v not in e}
        assert set(after.edges()) == kept | fill_edges(g, v)
        assert after.num_edges() == len(after.edges())
        assert after.vertices == [u for u in g.vertices if u != v]


@given(random_graph_strategy())
def test_any_permutation_width_bounds(g):
    w = width_of_order(g, g.vertices)
    assert 0 <= w < len(g)
    # the first eliminated vertex contributes its full degree
    assert w >= min(degree(g, v) for v in g.vertices)

"""Treewidth lower bounds: min-width, max-cardinality, and minor-min-width."""

import random
import time

import pytest
from conftest import clique, cycle, degree, grid, induced, path, petersen, shuffled, star
from twbb import (
    Graph,
    GraphError,
    RandomGraphSpec,
    gen_random,
    mcs_lb,
    minor_min_width,
    minwidth_lb,
    mycielski,
    queen_graph,
)
from twbb.oracle import exact_treewidth


def test_clique_bounds_are_tight():
    for n in (2, 4, 6):
        g = clique(n)
        assert minwidth_lb(g) == n - 1
        assert mcs_lb(g) == n - 1
        assert minor_min_width(g) == n - 1


def test_cycle_and_tree_bounds():
    for g, want in ((cycle(6), 2), (path(5), 1), (star(5), 1)):
        assert minwidth_lb(g) == want
        assert mcs_lb(g) == want
        assert minor_min_width(g) == want


def test_named_graph_bounds():
    my3 = mycielski(cycle(5))  # treewidth 5
    assert minwidth_lb(my3) == 3
    assert mcs_lb(my3) == 3
    assert minor_min_width(my3) == 4
    q5 = queen_graph(5)  # treewidth 18
    assert mcs_lb(q5) == 12
    assert minor_min_width(q5) == 12
    assert minor_min_width(petersen()) == 4  # tight: treewidth is 4


def test_empty_and_single():
    for g in (Graph(0, []), Graph(1, []), Graph(3, [])):
        assert minwidth_lb(g) == 0
        assert mcs_lb(g) == 0
        assert minor_min_width(g) == 0


def test_all_bounds_sound_on_random_graphs():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.4])
        tw = exact_treewidth(g).treewidth
        assert minwidth_lb(g) <= tw
        assert mcs_lb(g) <= tw
        assert minor_min_width(g) <= tw
        for start in g.vertices:
            assert mcs_lb(g, start=start) <= tw


def test_mcs_lb_best_of_restarts():
    g = mycielski(cycle(5))
    best = max(mcs_lb(g, s) for s in g.vertices)
    assert best >= mcs_lb(g)
    assert best <= exact_treewidth(g, limit=11).treewidth


def test_mcs_lb_depends_on_start():
    g = gen_random(RandomGraphSpec(10, 20, seed=0))
    assert [mcs_lb(g, s) for s in g.vertices] == [3, 4, 3, 3, 3, 3, 4, 3, 3, 3]
    assert mcs_lb(g) == 3
    assert max(mcs_lb(g, s) for s in g.vertices[:2]) == 4 == exact_treewidth(g).treewidth
    for start in (-1, 10):
        with pytest.raises(GraphError):
            mcs_lb(g, start)
    h = induced(g, [v for v in g.vertices if v != 1])
    with pytest.raises(GraphError):
        mcs_lb(h, 1)
    # an empty graph has no valid start either
    assert mcs_lb(Graph(0, [])) == 0
    with pytest.raises(GraphError):
        mcs_lb(Graph(0, []), 5)
    with pytest.raises(GraphError):
        mcs_lb(induced(Graph(3, []), []), 1)


def test_minor_min_width_cap():
    g = queen_graph(5)
    full = minor_min_width(g)
    assert minor_min_width(g, cap=40) == full
    # once the running bound reaches the cap the exact value no longer matters
    assert minor_min_width(g, cap=5) >= 5
    assert minor_min_width(g, cap=0) >= 0


def test_a_stop_cuts_minor_min_width_short():
    # stop is polled once per contraction round, after the round's degree
    # is recorded, and the value so far comes back once it fires
    g = gen_random(RandomGraphSpec(60, 300, seed=0))
    polls = []

    def stop_after(k):
        polls.clear()
        return lambda: polls.append(None) or len(polls) > k

    full = minor_min_width(g, stop=stop_after(10**9))
    rounds = len(polls)
    assert full == minor_min_width(g) and rounds > 3
    values = []
    for k in range(rounds):
        values.append(minor_min_width(g, stop=stop_after(k)))
        assert len(polls) == k + 1
    assert values[0] == min(degree(g, v) for v in g.vertices)
    assert values == sorted(values) and values[-1] == full


def neighbor_sets(vertices, edges):
    nb = {v: set() for v in vertices}
    for a, b in edges:
        nb[a].add(b)
        nb[b].add(a)
    return nb


def least_c_reference(vertices, edges):
    """Minor-min-width with least-c contraction on a dict of sets, run to the end.

    Each round takes the minimum-degree vertex v (ties lowest id), records
    its degree, and contracts into v the neighbor with the fewest common
    neighbors, ties to the smaller degree, then the lower id.
    """
    nb = neighbor_sets(vertices, edges)
    value = 0
    while nb:
        v = min(nb, key=lambda x: (len(nb[x]), x))
        value = max(value, len(nb[v]))
        if not nb[v]:
            del nb[v]
            continue
        u = min(nb[v], key=lambda x: (len(nb[x] & nb[v]), len(nb[x]), x))
        for w in nb.pop(u):
            nb[w].discard(u)
            if w != v:
                nb[w].add(v)
                nb[v].add(w)
    return value


def test_minor_min_width_matches_reference():
    rng = random.Random(12)
    for _ in range(2000):
        n = rng.randint(0, 30)
        p = rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        keep = [v for v in range(n) if rng.random() > 0.1]
        g = induced(Graph(n, edges), keep)
        want = least_c_reference(keep, [(a, b) for a, b in edges if a in keep and b in keep])
        assert minor_min_width(g) == want
        for cap in (2, 5, 9):
            assert min(minor_min_width(g, cap=cap), cap) == min(want, cap)
    # too large for the reference: the values a scan per round gave
    assert minor_min_width(large_tree()) == 1
    assert minor_min_width(shuffled(grid(100, 100), 100)) == 5


def test_least_c_beats_min_degree_neighbor():
    # contracting into the min-degree neighbor gives 3 here
    edges = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (1, 7), (2, 4), (2, 5),
             (3, 5), (3, 6), (4, 6), (4, 7), (5, 7), (6, 7)]
    g = Graph(8, edges)
    assert minor_min_width(g) == least_c_reference(range(8), edges) == 4
    assert exact_treewidth(g).treewidth == 4


def minwidth_reference(vertices, edges):
    """Min-width on a dict of sets: each round removes the minimum-degree
    vertex (ties lowest id), found by a full scan, and records its degree."""
    nb = neighbor_sets(vertices, edges)
    value = 0
    while nb:
        v = min(nb, key=lambda x: (len(nb[x]), x))
        value = max(value, len(nb[v]))
        for w in nb.pop(v):
            nb[w].discard(v)
    return value


def mcs_reference(vertices, edges, start):
    """Max-cardinality search on a dict of sets from start: each step
    labels the unlabeled vertex with the most labeled neighbors (ties
    lowest id), found by a full scan, and records that count."""
    nb = neighbor_sets(vertices, edges)
    count = dict.fromkeys(nb, 0)
    left = set(nb)
    value = 0
    cur = start
    while True:
        value = max(value, count[cur])
        left.discard(cur)
        if not left:
            return value
        for w in nb[cur] & left:
            count[w] += 1
        cur = min(left, key=lambda x: (-count[x], x))


def test_sweep_bounds_match_references():
    # mcs_lb's value depends on its tie rule: ties to the highest id fail
    # here.  minwidth_lb's does not (it is the largest minimum degree of
    # any subgraph, whichever vertex each round removes), so the order of
    # the shared minimum-degree sweep is pinned by min-fill's tail tests.
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(0, 30)
        p = rng.random()
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        keep = [v for v in range(n) if rng.random() > 0.1]
        g = induced(Graph(n, edges), keep)
        sub = [(a, b) for a, b in edges if a in keep and b in keep]
        assert minwidth_lb(g) == minwidth_reference(keep, sub)
        if keep:
            assert mcs_lb(g) == mcs_reference(keep, sub, keep[0])
        for s in keep:
            assert mcs_lb(g, s) == mcs_reference(keep, sub, s)


def large_tree():
    """A random tree on 20,000 vertices with shuffled ids, as `tw bounds` runs it."""
    n = 20000
    perm = list(range(n))
    rng = random.Random(0)
    rng.shuffle(perm)
    return Graph(n, [(perm[i], perm[rng.randrange(i)]) for i in range(1, n)])


def test_sweep_bounds_are_fast_on_a_large_tree():
    # When mcs_lb scanned a list of the unlabeled ids to choose each
    # vertex, it took 7.0 s here alone, and minor_min_width 7.3 s; with
    # degree or count buckets kept as masks, like the minimum-degree
    # sweep's, minwidth_lb, mcs_lb and minor_min_width take 0.25 s, 0.11 s
    # and 0.3 s (2-core Xeon, Python 3.11).  The 2 s bound is about 3x
    # the new total and under a third of either old scan alone.
    g = large_tree()
    t0 = time.perf_counter()
    assert minwidth_lb(g) == 1
    assert mcs_lb(g) == 1
    assert minor_min_width(g) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"{elapsed:.2f} s"

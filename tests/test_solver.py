"""Branch-and-bound solver: exactness, pruning rules, anytime behavior."""

import random
from dataclasses import replace

import pytest
from conftest import (
    clique,
    complete_bipartite,
    cycle,
    disjoint_union,
    grid,
    path,
    petersen,
    star,
)
from twbb import (
    Graph,
    GraphError,
    HeuristicConfig,
    PartialKTreeSpec,
    RandomGraphSpec,
    SearchState,
    SolverConfig,
    expand,
    gen_partial_ktree,
    gen_random,
    mycielski,
    prune_fill_subset,
    prune_mutual_simplicial,
    queen_graph,
    solve,
    width_of_order,
)
from twbb.oracle import exact_treewidth

ALL_OFF = SolverConfig(
    reductions=False,
    edge_addition=False,
    prune_sibling_order=False,
    prune_mutual_simplicial=False,
    prune_fill_subset=False,
    successor_restriction=False,
)

RUNS1 = SolverConfig(ub_heuristic=HeuristicConfig("min-fill", runs=1))

TOGGLES = (
    "reductions",
    "edge_addition",
    "prune_sibling_order",
    "prune_mutual_simplicial",
    "prune_fill_subset",
    "successor_restriction",
)


def myciel(k):
    g = cycle(5)
    for _ in range(k - 2):
        g = mycielski(g)
    return g


def check_report(g, r):
    assert width_of_order(g, r.best_order.vertices) == r.best_width
    assert r.proven_lb <= r.best_width
    assert r.optimal == (r.proven_lb == r.best_width)
    widths = [w for _, w in r.anytime_trace]
    assert widths == sorted(widths, reverse=True) and len(set(widths)) == len(widths)
    assert widths[-1] == r.best_width
    times = [t for t, _ in r.anytime_trace]
    assert times == sorted(times)


@pytest.mark.parametrize(
    "g,want",
    [
        (cycle(5), 2),
        (path(6), 1),
        (clique(6), 5),
        (grid(3, 3), 3),
        (petersen(), 4),
        (complete_bipartite(3, 3), 3),
        (myciel(3), 5),
        (queen_graph(5), 18),
    ],
    ids=["c5", "p6", "k6", "grid33", "petersen", "k33", "myciel3", "queen5"],
)
def test_known_treewidths(g, want):
    r = solve(g)
    assert r.best_width == want and r.optimal
    check_report(g, r)


def test_myciel4_is_ten():
    g = myciel(4)
    r = solve(g)
    assert r.best_width == 10 and r.optimal
    check_report(g, r)


def test_clique_solves_without_search():
    # the root lower bound meets the heuristic width immediately
    r = solve(clique(6))
    assert r.nodes_expanded == 0 and r.optimal


def test_myciel3_closes_at_the_root():
    r = solve(myciel(3))
    assert r.nodes_expanded == 1


def test_empty_and_edgeless():
    r = solve(Graph(0, []))
    assert r.best_width == 0 and r.optimal and r.best_order.vertices == ()
    r = solve(Graph(4, []))
    assert r.best_width == 0 and r.optimal
    assert sorted(r.best_order.vertices) == [0, 1, 2, 3]


def test_disconnected_components():
    g = disjoint_union(cycle(5), clique(4), path(3))
    r = solve(g)
    assert r.best_width == 3 and r.optimal
    assert sorted(r.best_order.vertices) == list(range(12))
    check_report(g, r)


def test_matches_oracle_on_random_graphs():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.45])
        r = solve(g)
        assert r.optimal
        assert r.best_width == exact_treewidth(g).treewidth
        check_report(g, r)


def test_each_toggle_preserves_exactness():
    battery = [petersen(), grid(3, 3), myciel(3), cycle(6), complete_bipartite(3, 3)]
    for g in battery:
        base = solve(g)
        assert base.optimal
        for name in TOGGLES:
            r = solve(g, SolverConfig(**{name: False}))
            assert r.optimal and r.best_width == base.best_width
            # each rule only removes work
            assert base.nodes_expanded <= r.nodes_expanded
        r = solve(g, ALL_OFF)
        assert r.optimal and r.best_width == base.best_width


def test_alternate_lower_bounds():
    for kind in ("mcslb", "mw"):
        cfg = SolverConfig(lb_kind=kind)
        for g, want in ((cycle(5), 2), (grid(3, 3), 3), (petersen(), 4)):
            r = solve(g, cfg)
            assert r.best_width == want and r.optimal


def test_config_validation():
    with pytest.raises(GraphError):
        SolverConfig(lb_kind="nope")
    assert SolverConfig().ub_heuristic == HeuristicConfig("min-fill", runs=100, seed=0)
    custom = HeuristicConfig("min-width", runs=3, seed=7)
    assert SolverConfig(ub_heuristic=custom).ub_heuristic is custom


def test_determinism():
    g = myciel(4)
    a = solve(g)
    b = solve(g)
    assert a.best_width == b.best_width
    assert a.best_order == b.best_order
    assert a.nodes_expanded == b.nodes_expanded
    assert [w for _, w in a.anytime_trace] == [w for _, w in b.anytime_trace]


def test_time_limit_zero_reports_heuristic():
    g = queen_graph(5)
    r = solve(g, SolverConfig(time_limit=0.0))
    assert not r.optimal
    assert r.nodes_expanded == 0
    assert r.proven_lb == 12  # root contraction bound, not yet the optimum
    assert r.best_width >= 18
    check_report(g, r)


def test_should_stop_cancels():
    g = queen_graph(5)
    calls = [0]

    def stop():
        calls[0] += 1
        return calls[0] > 25

    r = solve(g, should_stop=stop)
    assert not r.optimal
    assert r.proven_lb <= r.best_width
    check_report(g, r)


def test_deadline_cuts_the_heuristic_restarts():
    # the 100 min-fill restarts alone take several seconds on this graph
    g = gen_random(RandomGraphSpec(80, 1200, seed=0))
    r = solve(g, SolverConfig(time_limit=0.0))
    assert r.elapsed < 1.0
    assert r.nodes_expanded == 0 and not r.optimal
    check_report(g, r)
    calls = [0]

    def stop():
        calls[0] += 1
        return calls[0] > 3

    r = solve(g, should_stop=stop)
    assert r.elapsed < 1.0
    check_report(g, r)


def test_deadline_cuts_a_root_expansion():
    # bounding every candidate of the root takes several seconds at n=300
    g = gen_random(RandomGraphSpec(300, 1500, seed=0))
    cfg = SolverConfig(time_limit=3.0, ub_heuristic=HeuristicConfig("min-fill", runs=1))
    r = solve(g, cfg)
    assert r.elapsed < cfg.time_limit + 1.0
    assert not r.optimal
    check_report(g, r)


def test_improvement_callback():
    g = myciel(3)
    cfg = SolverConfig(ub_heuristic=HeuristicConfig("max-cardinality", runs=1))
    seen = []
    r = solve(g, cfg, on_improvement=lambda t, w, order: seen.append((t, w, order)))
    assert [w for _, w in r.anytime_trace] == [7, 5]
    assert [(t, w) for t, w, _ in seen] == r.anytime_trace
    for _, w, order in seen:
        assert width_of_order(g, order) == w


def test_expand_requires_two_vertices():
    for g in (Graph(0, []), Graph(1, [])):
        with pytest.raises(GraphError):
            expand(SearchState(g, (), 0, 0, 0), 10, SolverConfig())


def test_expand_plain_children():
    kids = expand(SearchState(cycle(5), (), 0, 0, 0), 10, ALL_OFF)
    assert [k.prefix for k in kids] == [(0,), (1,), (2,), (3,), (4,)]
    assert all((k.g, k.h, k.f) == (2, 2, 2) for k in kids)
    fs = [k.f for k in kids]
    assert fs == sorted(fs)


def test_expand_bounds_out_children():
    # ub equal to every child's bound leaves nothing to explore
    assert expand(SearchState(cycle(5), (), 0, 0, 0), 2, ALL_OFF) == []


def test_expand_successor_restriction():
    cfg = SolverConfig(
        reductions=False,
        edge_addition=False,
        prune_sibling_order=False,
        prune_mutual_simplicial=False,
        prune_fill_subset=False,
    )
    g = complete_bipartite(2, 3)
    s = SearchState(g.eliminate(2), (2,), 2, 2, 2, last=2, last_neighborhood=g._adj[2])
    assert [k.prefix for k in expand(s, 10, cfg)] == [(2, 3), (2, 4)]
    # when every remaining vertex neighbored the last one, all are allowed
    k4 = clique(4)
    s = SearchState(k4.eliminate(3), (3,), 3, 2, 3, last=3, last_neighborhood=k4._adj[3])
    assert [k.prefix for k in expand(s, 10, cfg)] == [(3, 0), (3, 1), (3, 2)]


def test_expand_applies_forced_eliminations():
    # eliminating the hub of a wheel leaves a cycle whose vertices all fall
    # to the degree rule once the running width licenses it
    hub = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    kids = expand(SearchState(hub, (), 0, 0, 0), 10, SolverConfig())
    for k in kids:
        assert len(k.graph) == 0
        assert len(k.prefix) == 5


def test_prune_sibling_order_matches_snapshot():
    cfg = replace(ALL_OFF, prune_sibling_order=True)
    g = cycle(4)
    forbidden = {1: [g._adj[1]]}
    kids = expand(SearchState(g, (), 0, 0, 0), 10, cfg, forbidden)
    assert [k.prefix for k in kids] == [(0,), (2,), (3,)]
    # the rule is off, or the neighborhood no longer matches the snapshot
    kids = expand(SearchState(g, (), 0, 0, 0), 10, ALL_OFF, forbidden)
    assert [k.prefix for k in kids] == [(0,), (1,), (2,), (3,)]
    changed = SearchState(g.with_edges([(1, 3)]), (), 0, 0, 0)
    kids = expand(changed, 10, cfg, forbidden)
    assert (1,) in [k.prefix for k in kids]


def test_prune_mutual_simplicial_cases():
    assert prune_mutual_simplicial([1, 2], path(4), 2) == [1]
    assert prune_mutual_simplicial([0, 1, 2, 3], cycle(4), 2) == [0]
    assert prune_mutual_simplicial([0, 1, 2, 3], clique(4), 3) == [0]
    # the group keeps a leaf (degree 1), not the centre (degree 3)
    assert prune_mutual_simplicial([0, 1, 2, 3], star(3), 2) == [1]
    # below lb 2, a leaf's elimination leaves the centre too wide to count
    assert prune_mutual_simplicial([0, 1, 2, 3], star(3), 1) == [0, 1]
    # vertices that are not simplicial-ish and do not affect each other stay
    assert prune_mutual_simplicial([0, 1, 5], petersen(), 4) == [0, 1, 5]
    assert prune_mutual_simplicial([3], cycle(8), 2) == [3]


def test_prune_fill_subset_cases():
    assert prune_fill_subset([1, 2], path(4)) == [1, 2]
    assert prune_fill_subset([0, 1, 2, 3], path(4)) == [0]
    assert prune_fill_subset([0, 1, 2, 3], star(3)) == [1]
    assert prune_fill_subset([2], star(3)) == [2]


def test_prune_fill_subset_matches_fill_edge_sets():
    def reference(cands, g):
        fills = {v: frozenset(g.fill_edges(v)) for v in cands}
        return [
            v
            for v in cands
            if not any(
                u != v and (fills[u] < fills[v] or (fills[u] == fills[v] and u < v))
                for u in cands
            )
        ]

    rng = random.Random(4)
    for _ in range(3000):
        n = rng.randint(2, 9)
        p = rng.random()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < p])
        for v in rng.sample(range(n), rng.randint(0, n - 2)):
            g = g.eliminate(v)
        verts = list(g.vertices)
        cands = sorted(rng.sample(verts, rng.randint(1, len(verts))))
        assert prune_fill_subset(cands, g) == reference(cands, g)


@pytest.mark.parametrize(
    "spec,cfg,want",
    [
        (PartialKTreeSpec(10, 6, 30, seed=820324079), RUNS1, 5),
        (PartialKTreeSpec(13, 6, 30, seed=412376747), RUNS1, 6),
        (PartialKTreeSpec(50, 10, 20, seed=915233699), SolverConfig(), 10),
        (PartialKTreeSpec(50, 10, 20, seed=1439615510), SolverConfig(), 10),
    ],
    ids=["pk10", "pk13", "pk50a", "pk50b"],
)
def test_mutual_simplicial_keeps_an_optimal_branch(spec, cfg, want):
    # each graph was solved one too wide, and "proven optimal", when the
    # rule counted almost-simplicial vertices at any degree and kept the
    # lowest id of a group rather than a minimum-degree member
    g = gen_partial_ktree(spec)
    if g.n <= 14:
        assert exact_treewidth(g).treewidth == want
    r = solve(g, cfg)
    assert r.optimal and r.best_width == want
    check_report(g, r)

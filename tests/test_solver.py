"""Branch-and-bound solver: exactness, pruning rules, anytime behavior."""

import random
import time
import tracemalloc
from dataclasses import replace

import pytest
from conftest import (
    clique,
    complete_bipartite,
    cycle,
    disjoint_union,
    fill_edges,
    grid,
    myciel,
    path,
    petersen,
    star,
)
from twbb import (
    Graph,
    GraphError,
    PartialKTreeSpec,
    RandomGraphSpec,
    SolverConfig,
    connected_components,
    gen_partial_ktree,
    gen_random,
    min_fill_order,
    minor_min_width,
    prune_fill_subset,
    prune_mutual_simplicial,
    queen_graph,
    solve,
    width_of_order,
)
from twbb import solver, symmetry
from twbb.solver import SearchState
from twbb.oracle import exact_treewidth

ALL_OFF = SolverConfig(
    reductions=False,
    edge_addition=False,
    prune_sibling_order=False,
    prune_mutual_simplicial=False,
    prune_fill_subset=False,
    successor_restriction=False,
)

TOGGLES = (
    "reductions",
    "edge_addition",
    "prune_sibling_order",
    "prune_mutual_simplicial",
    "prune_fill_subset",
    "successor_restriction",
)


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


# Node counts, state_lower_bound calls (the root bound included) and
# orders under one min-fill run.  A change that alters them on purpose
# updates this table and names the cause in CHANGES.md.  The memo only
# closes subtrees that cannot beat the best width, so it moves counts but
# never an order.
PINNED = [
    (
        myciel(4),
        52,
        104,
        (16, 18, 19, 17, 20, 5, 6, 14, 13, 8, 9, 3, 0, 1, 2, 4, 7, 10, 11, 12, 15, 21, 22),
    ),
    (
        queen_graph(5),
        136,
        280,
        (0, 14, 23, 7, 2, 3, 5, 9, 13, 16, 1, 4, 6, 8, 10, 11, 12, 15, 17, 18, 19, 20, 21, 22, 24),
    ),
    (
        gen_random(RandomGraphSpec(25, 50, 5)),
        53,
        118,
        (11, 17, 18, 19, 21, 23, 16, 22, 10, 14, 12, 20, 5, 8, 7, 13, 1, 0, 2, 3, 4, 6, 9, 15, 24),
    ),
    (
        gen_random(RandomGraphSpec(25, 50, 6)),
        25,
        64,
        (8, 10, 22, 1, 3, 7, 19, 5, 16, 6, 13, 23, 12, 18, 0, 20, 11, 14, 15, 2, 4, 9, 17, 21, 24),
    ),
    (
        gen_random(RandomGraphSpec(25, 50, 10)),
        116,
        260,
        (2, 4, 19, 1, 7, 10, 13, 15, 22, 8, 5, 18, 6, 16, 21, 17, 0, 14, 20, 3, 9, 11, 12, 23, 24),
    ),
]


def test_components_are_searched_independently():
    # each component starts from its own heuristic width, forbidden list
    # and memo
    g = disjoint_union(myciel(4), petersen(), gen_random(RandomGraphSpec(25, 50, 6)), cycle(6))
    r = solve(g)
    parts = [(ids, solve(sub)) for ids, sub in connected_components(g)]
    assert r.nodes_expanded == sum(p.nodes_expanded for _, p in parts) > PINNED[0][1]
    assert r.best_width == max(p.best_width for _, p in parts)
    assert r.best_order.vertices == tuple(
        ids[v] for ids, p in parts for v in p.best_order.vertices
    )
    check_report(g, r)


def test_a_component_costs_its_own_size():
    # each isolated vertex is solved as a graph of one vertex, not as a
    # copy of all 2,000 ids
    tracemalloc.start()
    try:
        r = solve(Graph(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.best_width == 0 and r.optimal
    assert sorted(r.best_order.vertices) == list(range(2000))
    assert peak < 8 << 20


def test_component_orders_are_mapped_back():
    # component {i, i + 1000} is solved on ids 0 and 1; its order (0, 1)
    # reaches the caller as (i, i + 1000), in the callback and the report
    g = Graph(2000, [(i, i + 1000) for i in range(1000)])
    seen = []
    r = solve(g, on_improvement=lambda el, w, order: seen.append((w, order)))
    want = tuple(v for i in range(1000) for v in (i, i + 1000))
    assert r.best_width == 1 and r.optimal
    assert r.best_order.vertices == want
    assert seen == [(1, want)]
    check_report(g, r)


@pytest.mark.parametrize(
    "g,nodes,bounds,order",
    PINNED,
    ids=["myciel4", "queen5", "g25-50-s5", "g25-50-s6", "g25-50-s10"],
)
def test_search_is_pinned(monkeypatch, g, nodes, bounds, order):
    calls = []
    lower_bound = solver.state_lower_bound

    def count(graph, cap=None, stop=None):
        calls.append(graph)
        return lower_bound(graph, cap=cap, stop=stop)

    monkeypatch.setattr(solver, "state_lower_bound", count)
    r = solve(g, SolverConfig())
    assert r.optimal
    assert r.nodes_expanded == nodes
    assert len(calls) == bounds
    assert r.best_order.vertices == order


def test_children_lost_on_degree_are_never_bounded(monkeypatch):
    # a candidate whose elimination degree or the state's g reaches ub, or
    # whose child's vertex set is in the memo, is closed before the two
    # filters see it and before its child is built; a reduced child whose
    # vertex set is in the memo gets no second bound
    parent = []
    checked = []
    filtered = []
    reduced = []
    make_children = solver._make_children
    lower_bound = solver.state_lower_bound

    def spy_children(search, s):
        parent.append((search, s))
        try:
            return make_children(search, s)
        finally:
            parent.pop()

    def spy_bound(graph, cap=None, stop=None):
        if parent:
            search, s = parent[-1]
            gone = s.graph.active_mask & ~graph.active_mask
            if gone.bit_count() == 1:
                v = gone.bit_length() - 1
                assert max(s.g, s.graph._adj[v].bit_count()) < search.ub
                checked.append(v)
            elif gone.bit_count() > 1:
                assert graph.active_mask not in search.memo
                reduced.append(graph)
        return lower_bound(graph, cap=cap, stop=stop)

    def spy_filter(prune):
        def spy(candidates, g, *args):
            search, s = parent[-1]
            for v in candidates:
                assert max(s.g, g._adj[v].bit_count()) < search.ub
                assert s.graph.active_mask & ~(1 << v) not in search.memo
            filtered.extend(candidates)
            return prune(candidates, g, *args)

        return spy

    monkeypatch.setattr(solver, "_make_children", spy_children)
    monkeypatch.setattr(solver, "state_lower_bound", spy_bound)
    for name in ("prune_mutual_simplicial", "prune_fill_subset"):
        monkeypatch.setattr(solver, name, spy_filter(getattr(solver, name)))
    for g, nodes, _, _ in PINNED:
        assert solve(g).nodes_expanded == nodes
    assert checked and filtered and reduced


def random_graph(rng, n_lo, n_hi):
    n = rng.randint(n_lo, n_hi)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, rng.sample(pairs, rng.randint(n, min(3 * n, len(pairs)))))


# Treewidths of the 60 graphs random_graph(random.Random(12), 15, 22)
# draws, found by this search without the memo; the oracle stops at 14
# vertices.
MEMO_WIDTHS = [
    5, 3, 6, 7, 8, 7, 5, 5, 6, 8, 6, 6, 3, 7, 7, 4, 3, 4, 4, 4,
    4, 7, 6, 5, 7, 7, 6, 3, 3, 2, 5, 5, 6, 5, 5, 5, 6, 2, 4, 6,
    3, 6, 3, 5, 5, 7, 5, 3, 3, 7, 6, 6, 5, 5, 7, 3, 3, 8, 3, 6,
]


def test_memo_changes_no_width():
    # without the forbidden list, the memo is what closes most revisits
    rng = random.Random(12)
    for want in MEMO_WIDTHS:
        g = random_graph(rng, 15, 22)
        for cfg in (SolverConfig(), SolverConfig(prune_sibling_order=False)):
            r = solve(g, cfg)
            assert r.optimal and r.best_width == want
            check_report(g, r)


def random_circulant(rng, n_lo, n_hi):
    n = rng.randint(n_lo, n_hi)
    steps = rng.sample(range(1, n // 2 + 1), rng.randint(2, max(2, n // 4)))
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in steps])


def test_memo_images_change_no_width(monkeypatch):
    # Circulants are vertex-transitive, so the images of each dead set
    # under their automorphisms close most of the search: these 30 take
    # 395 nodes with the default settings, 3,042 without the images.  Each
    # is solved again without them, and the widths must match.
    rng = random.Random(31)
    graphs = [random_circulant(rng, 12, 18) for _ in range(30)]
    cfgs = (SolverConfig(), SolverConfig(prune_sibling_order=False))
    reports = [[solve(g, cfg) for cfg in cfgs] for g in graphs]
    monkeypatch.setattr(symmetry, "automorphisms", lambda g, stop=None: [])
    nodes = [0, 0]
    for g, rs in zip(graphs, reports):
        for cfg, r in zip(cfgs, rs):
            want = solve(g, cfg)
            assert r.optimal and r.best_width == want.best_width
            check_report(g, r)
            nodes[0] += r.nodes_expanded
            nodes[1] += want.nodes_expanded
    assert nodes[0] < nodes[1] / 2, nodes


def test_full_memo_takes_no_new_states(monkeypatch):
    # room for three vertex sets
    monkeypatch.setattr(solver, "MEMO_STATES", 3)
    sizes = []
    memos = []
    make_children = solver._make_children

    def spy(search, s):
        sizes.append(len(search.memo))
        memos.append(search.memo)
        return make_children(search, s)

    monkeypatch.setattr(solver, "_make_children", spy)
    for g, _, _, order in PINNED[1:]:
        r = solve(g)
        assert r.optimal and r.best_width == width_of_order(g, order)
    sizes += map(len, memos)
    assert max(sizes) == solver.MEMO_STATES


def test_children_the_memo_covers_are_never_built(monkeypatch):
    # a candidate whose child's vertex set the memo holds is closed before
    # it is eliminated or bounded
    parent = []
    hits = []
    make_children = solver._make_children
    settle = solver._Dfs.settle
    eliminate = Graph.eliminate
    lower_bound = solver.state_lower_bound

    def covered(v):
        search, s, _ = parent[-1]
        return s.graph.active_mask & ~(1 << v) in search.memo

    def spy_children(search, s):
        parent.append((search, s, set()))
        try:
            return make_children(search, s)
        finally:
            parent.pop()

    def spy_settle(search, v, nb, key, g):
        # settled while its parent is expanded: a candidate closed
        if parent:
            _, s, built = parent[-1]
            assert key == s.graph.active_mask & ~(1 << v)
            if v not in built and g < search.ub:
                # closed unbuilt below ub, so the memo covered it
                assert covered(v)
                hits.append(v)
        settle(search, v, nb, key, g)

    def spy_eliminate(graph, v):
        if parent and graph is parent[-1][1].graph:
            assert not covered(v)
            parent[-1][2].add(v)
        return eliminate(graph, v)

    def spy_bound(graph, cap=None, stop=None):
        if parent:
            gone = parent[-1][1].graph.active_mask & ~graph.active_mask
            if gone.bit_count() == 1:
                assert not covered(gone.bit_length() - 1)
        return lower_bound(graph, cap=cap, stop=stop)

    monkeypatch.setattr(solver, "_make_children", spy_children)
    monkeypatch.setattr(solver._Dfs, "settle", spy_settle)
    monkeypatch.setattr(Graph, "eliminate", spy_eliminate)
    monkeypatch.setattr(solver, "state_lower_bound", spy_bound)
    for g, nodes, _, _ in PINNED:
        assert solve(g).nodes_expanded == nodes
    assert hits


def forced_edge_family():
    # seeds whose graphs reach one vertex set with and without a forced
    # edge, found by search: about one graph in 1,200 of this size does
    for seed in (2754, 4579, 5242):
        rng = random.Random(seed)
        n = rng.randint(13, 14)
        p = rng.uniform(0.4, 0.6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        yield Graph(n, [e for e in pairs if rng.random() < p])


def test_memo_hits_across_forced_edges_are_sound(monkeypatch):
    # Every graph the memo can have stored under a vertex set is recorded:
    # each built child, before and after the forced rules.  A hit on a
    # graph not recorded under its set differs from every stored one by
    # forced edges alone, since the set fixes the rest of the graph.
    graphs = {}
    parent = []
    hits = {}
    make_children = solver._make_children
    settle = solver._Dfs.settle
    bound = solver._bound
    eliminate = Graph.eliminate

    def note(graph):
        graphs.setdefault(graph.active_mask, set()).add(graph)

    def hit(search, graph):
        if graph.active_mask in search.memo and graph not in graphs[graph.active_mask]:
            hits[search.cfg] += 1

    def spy_children(search, s):
        note(s.graph)
        parent.append((s, set()))
        try:
            children = make_children(search, s)
        finally:
            parent.pop()
        for _, _, state in children or ():
            note(state.graph)
        return children

    def spy_settle(search, v, nb, key, g):
        # settled while its parent is expanded: a candidate closed
        if parent:
            s, built = parent[-1]
            if v not in built and g < search.ub:
                hit(search, eliminate(s.graph, v))
        settle(search, v, nb, key, g)

    def spy_eliminate(graph, v):
        child = eliminate(graph, v)
        if parent and graph is parent[-1][0].graph:
            parent[-1][1].add(v)
            note(child)
        return child

    def spy_bound(search, *args):
        state = bound(search, *args)
        if state is not None and parent:
            hit(search, state.graph)
        return state

    monkeypatch.setattr(solver, "_make_children", spy_children)
    monkeypatch.setattr(solver._Dfs, "settle", spy_settle)
    monkeypatch.setattr(solver, "_bound", spy_bound)
    monkeypatch.setattr(Graph, "eliminate", spy_eliminate)
    for g in forced_edge_family():
        want = exact_treewidth(g).treewidth
        for cfg in (SolverConfig(), SolverConfig(prune_sibling_order=False)):
            hits.setdefault(cfg, 0)
            graphs.clear()
            r = solve(g, cfg)
            assert r.optimal and r.best_width == want
            check_report(g, r)
    assert all(hits.values()) and len(hits) == 2


def test_memo_holds_only_dead_vertex_sets(monkeypatch):
    # A vertex set is stored only when the graph it leaves has no order
    # narrower than the best width.  Eliminating every vertex outside the
    # set from the input leaves that graph, forced edges aside, so its
    # treewidth is at least the component's final width.  Without the
    # forced rules, states are popped at g >= ub, and the third draw of
    # seed 26 stores a set that is not dead unless settle checks g < ub.
    memos = []
    run = solver._Dfs.run

    def spy(dfs, sub, root_lb):
        yield from run(dfs, sub, root_lb)
        memos.append((dfs.memo, dfs.ub))

    monkeypatch.setattr(solver._Dfs, "run", spy)
    rng = random.Random(26)
    both = (SolverConfig(), SolverConfig(prune_sibling_order=False))
    cases = [(g, both) for g in forced_edge_family()]
    cases += [(random_graph(rng, 12, 14), (*both, SolverConfig(reductions=False))) for _ in range(3)]
    checked = 0
    for g, cfgs in cases:
        widths = {}
        for cfg in cfgs:
            memos.clear()
            assert solve(g, cfg).optimal
            for memo, width in memos:
                for key in memo:
                    if key not in widths:
                        rest = g
                        for v in g.vertices:
                            if not (key >> v) & 1:
                                rest = rest.eliminate(v)
                        widths[key] = exact_treewidth(rest).treewidth
                    assert widths[key] >= width
                    checked += 1
    assert checked


LEAF_AT_ROOT_BOUND = [
    (0, 5), (0, 6), (0, 7), (0, 9), (0, 14), (1, 12), (1, 13), (2, 3), (2, 4), (2, 8), (2, 11),
    (3, 4), (3, 12), (4, 6), (4, 7), (4, 8), (4, 11), (4, 13), (4, 15), (5, 6), (5, 7), (5, 13),
    (6, 8), (6, 13), (7, 8), (7, 10), (7, 11), (7, 12), (7, 14), (8, 10), (8, 11), (9, 10),
    (9, 11), (9, 12), (9, 13), (9, 15), (10, 12), (10, 15), (11, 15), (12, 14), (12, 15),
    (13, 15), (14, 15),
]


def test_settling_keeps_the_forbidden_list_exact(monkeypatch):
    # With the sibling rule on, settle never adds a pair that is already
    # forbidden, popping a state takes the forbidden list back to its
    # length when the state was expanded, and a search that is not
    # stopped ends with an empty forbidden list.  With the rule off the
    # list stays empty.
    make_children = solver._make_children
    settle = solver._Dfs.settle
    run = solver._Dfs.run
    branch = {}  # id of a child state -> (the state, its branch vertex)
    path = []  # (state, branch vertex, list length) of each expanded state not yet popped
    inside = []
    counts = {"pops": 0, "settles": 0}

    def spy_children(search, s):
        state, v = branch.get(id(s), (None, None))
        path.append((s, v if state is s else None, len(search.forb)))
        inside.append(s)
        try:
            children = make_children(search, s)
        finally:
            inside.pop()
        for v, _, state in children or ():
            branch[id(state)] = (state, v)
        return children

    def spy_settle(search, v, nb, key, g):
        if not search.cfg.prune_sibling_order:
            assert not search.forb
        assert (v, nb) not in search.forb
        s, bv, mark = path[-1]
        if not inside and (bv, s.graph.active_mask) == (v, key):
            # the last expanded state is popped
            assert len(search.forb) == mark
            path.pop()
            counts["pops"] += 1
        counts["settles"] += 1
        settle(search, v, nb, key, g)

    def spy_run(dfs, sub, root_lb):
        path.clear()
        yield from run(dfs, sub, root_lb)
        assert not dfs.forb

    monkeypatch.setattr(solver, "_make_children", spy_children)
    monkeypatch.setattr(solver._Dfs, "settle", spy_settle)
    monkeypatch.setattr(solver._Dfs, "run", spy_run)
    graphs = [g for g, _, _, _ in PINNED] + list(forced_edge_family())
    graphs.append(disjoint_union(petersen(), gen_random(RandomGraphSpec(25, 50, 6))))
    # min-fill gives 7 here; the first leaf meets the root bound 6 after
    # three of the root's candidates were settled, which ends the search
    graphs.append(Graph(16, LEAF_AT_ROOT_BOUND))
    for g in graphs:
        for cfg in (SolverConfig(), SolverConfig(prune_sibling_order=False)):
            assert solve(g, cfg).optimal
    assert counts["pops"] and counts["settles"] > counts["pops"]


def test_root_bounds_run_before_min_fill(monkeypatch):
    # a stop that fires once min-fill starts leaves the root bound whole
    g = gen_random(RandomGraphSpec(80, 1200, seed=0))
    started = []
    upper_bound = solver.best_upper_bound

    def spy(sub, stop=None):
        started.append(sub)
        return upper_bound(sub, stop)

    monkeypatch.setattr(solver, "best_upper_bound", spy)
    r = solve(g, should_stop=lambda: bool(started))
    assert len(started) == 1 and r.nodes_expanded == 0 and not r.optimal
    # cut at its first contraction round, the bound would read 19
    assert r.proven_lb == minor_min_width(g) == 32
    check_report(g, r)


def test_a_stop_cuts_min_fill_short():
    # finishing min-fill here takes seconds; the stop is polled once per
    # elimination and a minimum-degree tail finishes the order
    g = gen_random(RandomGraphSpec(600, 3000, seed=0))

    def stop_after(k):
        polls = []

        def stop():
            polls.append(None)
            return len(polls) > k

        return stop, polls

    # the root bound runs first; count its polls with a stop that never fires
    root = []
    lb = minor_min_width(g, stop=lambda: root.append(None))
    stop, polls = stop_after(len(root) + 30)
    r = solve(g, should_stop=stop)
    # the root bound's polls, 31 in min-fill, one before the search
    assert len(polls) == len(root) + 32
    assert r.nodes_expanded == 0 and not r.optimal and r.proven_lb == lb
    assert r.best_order.vertices == min_fill_order(g, stop_after(30)[0]).vertices
    # after 30 eliminations min-fill's order is not the minimum-degree
    # one, which it still is after 20
    assert r.best_order.vertices != min_fill_order(g, lambda: True).vertices
    assert width_of_order(g, r.best_order.vertices) == r.best_width
    check_report(g, r)


def test_a_stop_at_a_node_boundary_ends_the_search(monkeypatch):
    # the search polls between an expansion's candidates and once before
    # each node; stop on the poll just before the second node
    g = queen_graph(5)
    polls, ends = [], []
    make_children = solver._make_children

    def spy(search, s):
        children = make_children(search, s)
        ends.append(len(polls))
        return children

    monkeypatch.setattr(solver, "_make_children", spy)
    solve(g, should_stop=lambda: polls.append(None))
    first = ends[0]
    polls.clear()
    ends.clear()
    r = solve(g, should_stop=lambda: polls.append(None) or len(polls) > first)
    assert ends == [first] and len(polls) == first + 1
    assert r.nodes_expanded == 1 and not r.optimal
    assert width_of_order(g, r.best_order.vertices) == r.best_width
    # queen5_5 has treewidth 18
    assert minor_min_width(g) <= r.proven_lb <= 18
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


def test_time_limit_must_be_a_nonnegative_number():
    # a NaN deadline is never reached, so a NaN limit would be ignored
    for bad in (float("nan"), -1.0):
        with pytest.raises(GraphError):
            SolverConfig(time_limit=bad)
    assert SolverConfig(time_limit=0.0).time_limit == 0.0


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


def test_deadline_cuts_the_heuristic_phase():
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
    # the heuristic phase is one run, so the search gets most of a budget
    r = solve(g, SolverConfig(time_limit=2.0))
    assert r.nodes_expanded > 0
    assert r.proven_lb >= minor_min_width(g)
    check_report(g, r)


def test_deadline_cuts_a_root_expansion():
    # bounding every candidate of the root takes several seconds at n=300
    g = gen_random(RandomGraphSpec(300, 1500, seed=0))
    cfg = SolverConfig(time_limit=3.0)
    r = solve(g, cfg)
    assert r.elapsed < cfg.time_limit + 1.0
    assert not r.optimal
    check_report(g, r)


def test_the_candidate_filters_poll_the_stop(monkeypatch):
    # The root of a 50 x 50 grid has 2,500 candidates, and both filters
    # are quadratic in the candidate count.  Before they polled stop(),
    # the longest gap between two polls of this solve was 2.97-4.66 s in
    # three runs, inside prune_mutual_simplicial, and the solve returned
    # after 3.55-5.67 s; with the polls the gap was 0.16-0.28 s and the
    # solve returned after 2.0 s (2-core Xeon, Python 3.11).  The 1.0 s
    # bound leaves a margin of 3.5x over the new gap and is a third of
    # the old one.  The should_stop that records the polls is the
    # deadline itself, so that every poll after the deadline is seen
    # too, up to the solve's return.  The root's expansion must start
    # before the deadline, or the polls timed would be those of the
    # heuristic, the root bound and the automorphism search; it started
    # at 0.6-0.9 s without that search and at 0.7-1.2 s with it.
    perm = list(range(2500))
    random.Random(0).shuffle(perm)
    g = Graph(2500, [(perm[u], perm[v]) for u, v in grid(50, 50).edges()])
    t0 = time.monotonic()
    polls = [t0]
    expansions = []
    make_children = solver._make_children

    def spy(search, s):
        expansions.append(time.monotonic())
        return make_children(search, s)

    def deadline():
        polls.append(time.monotonic())
        return polls[-1] >= t0 + 2.0

    monkeypatch.setattr(solver, "_make_children", spy)
    r = solve(g, should_stop=deadline)
    polls.append(time.monotonic())
    assert expansions and expansions[0] < t0 + 2.0
    gap = max(b - a for a, b in zip(polls, polls[1:]))
    assert gap < 1.0, f"{gap:.2f} s between two polls"
    assert not r.optimal
    check_report(g, r)


def test_the_anytime_contract_holds_at_every_poll():
    # Each graph is solved once for every poll the solve could be stopped
    # at, up to 60: a should_stop that returns true from poll k + 1 on lets
    # k polls pass and stops the run at the next, wherever that falls
    # (min-fill, a root bound, a filter, a node boundary).  Every cut-off
    # report must still hold a valid order of its stated width and a
    # sound proven_lb.
    graphs = [
        gen_random(RandomGraphSpec(n, n * (n - 1) // 2 * (seed % 4 + 1) // 5, seed=seed))
        for n in range(2, 13)
        for seed in range(8)
    ]
    rng = random.Random(23)
    for _ in range(20):
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        halves = [Graph(6, [e for e in pairs if rng.random() < 0.5]) for _ in range(2)]
        graphs.append(disjoint_union(*halves))
    for g in graphs:
        tw = exact_treewidth(g).treewidth
        for cfg in (SolverConfig(), SolverConfig(reductions=False, edge_addition=False)):
            polls = [0]

            def stop():
                polls[0] += 1
                return polls[0] > cut

            cut = float("inf")
            solve(g, cfg, should_stop=stop)
            for cut in range(min(polls[0], 60)):
                polls[0] = 0
                seen = []
                r = solve(g, cfg, on_improvement=lambda t, w, o: seen.append((w, o)), should_stop=stop)
                assert sorted(r.best_order.vertices) == g.vertices
                assert width_of_order(g, r.best_order.vertices) == r.best_width
                assert r.proven_lb <= tw <= r.best_width
                assert not r.optimal or r.best_width == tw
                for w, order in seen:
                    assert width_of_order(g, order) == w


def test_improvement_callback():
    # min-fill gives 4 here and the treewidth is 3
    g = gen_random(RandomGraphSpec(9, 16, seed=554))
    seen = []
    r = solve(g, on_improvement=lambda t, w, order: seen.append((t, w, order)))
    assert [w for _, w in r.anytime_trace] == [4, 3]
    assert r.optimal and exact_treewidth(g).treewidth == 3
    assert [(t, w) for t, w, _ in seen] == r.anytime_trace
    for _, w, order in seen:
        assert width_of_order(g, order) == w


def searcher(ub, cfg, settled=()):
    """A search at best width ub that has settled the (vertex,
    neighborhood) pairs in settled; its memo is empty."""
    search = solver._Dfs(cfg, lambda: False, ub)
    for v, nb in settled:
        search.settle(v, nb, 0, ub)
    return search


def test_a_decision_search_finds_a_leaf_exactly_when_k_reaches_the_treewidth():
    # A search with ub = k + 1 and no incumbent order decides whether the
    # treewidth is at most k: it yields an order exactly when it is, and
    # run to its end it proves min(k + 1, tw).
    rng = random.Random(31)
    decided = 0
    for _ in range(300):
        n = rng.randint(5, 9)
        p = rng.uniform(0.2, 0.8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < p])
        tw = exact_treewidth(g).treewidth
        root_lb = minor_min_width(g)
        for k in range(root_lb - 1, tw + 2):
            for cfg in (SolverConfig(), ALL_OFF):
                dfs = solver._Dfs(cfg, lambda: False, k + 1)
                found = list(dfs.run(g, root_lb))
                assert bool(found) == (k >= tw)
                assert dfs.lb == min(k + 1, tw)
                widths = [w for w, _ in found]
                assert widths == sorted(set(widths), reverse=True)
                for w, order in found:
                    assert width_of_order(g, order) == w <= k
                decided += 1
    assert decided > 1000


def expand(s, ub, cfg, settled=()):
    """The children the search builds for s, in the order it explores them.

    settled lists the (vertex, neighborhood) pairs of the branches settled
    before s is expanded; the memo starts empty, so it closes no child.
    """
    return [state for _, _, state in solver._make_children(searcher(ub, cfg, settled), s)]


def test_expand_plain_children():
    kids = expand(SearchState(cycle(5), (), 0, 0), 10, ALL_OFF)
    assert [k.prefix for k in kids] == [(0,), (1,), (2,), (3,), (4,)]
    assert all((k.g, k.f) == (2, 2) for k in kids)
    fs = [k.f for k in kids]
    assert fs == sorted(fs)


def test_expand_breaks_f_ties_by_vertices_left():
    # eliminating 0 (degree 2) leaves six vertices and nothing forced,
    # while every other child reduces to the empty graph at the same f
    edges = [(0, 1), (0, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6)]
    g = Graph(7, edges + [(3, 4), (3, 6), (4, 5), (5, 6)])
    kids = expand(SearchState(g, (), 0, 0), 10, SolverConfig())
    assert [k.f for k in kids] == [4] * 5
    assert [(k.prefix[0], len(k.graph)) for k in kids] == [(1, 0), (2, 0), (3, 0), (5, 0), (0, 6)]


def test_expand_bounds_out_children():
    # ub equal to every child's bound leaves nothing to explore
    assert expand(SearchState(cycle(5), (), 0, 0), 2, ALL_OFF) == []


def test_expand_successor_restriction():
    cfg = SolverConfig(
        reductions=False,
        edge_addition=False,
        prune_sibling_order=False,
        prune_mutual_simplicial=False,
        prune_fill_subset=False,
    )
    g = complete_bipartite(2, 3)
    s = SearchState(g.eliminate(2), (2,), 2, 2, last_neighborhood=g._adj[2])
    assert [k.prefix for k in expand(s, 10, cfg)] == [(2, 3), (2, 4)]
    # when every remaining vertex neighbored the last one, all are allowed
    k4 = clique(4)
    s = SearchState(k4.eliminate(3), (3,), 3, 3, last_neighborhood=k4._adj[3])
    assert [k.prefix for k in expand(s, 10, cfg)] == [(3, 0), (3, 1), (3, 2)]


def test_expand_applies_forced_eliminations():
    # eliminating the hub of a wheel leaves a cycle whose vertices all fall
    # to the degree rule once the running width licenses it
    hub = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    kids = expand(SearchState(hub, (), 0, 0), 10, SolverConfig())
    for k in kids:
        assert len(k.graph) == 0
        assert len(k.prefix) == 5


def test_prune_sibling_order_matches_snapshot():
    cfg = replace(ALL_OFF, prune_sibling_order=True)
    g = cycle(4)
    settled = [(1, g._adj[1])]
    search = searcher(10, cfg, settled)
    kids = solver._make_children(search, SearchState(g, (), 0, 0))
    assert [k.prefix for _, _, k in kids] == [(0,), (2,), (3,)]
    assert list(search.forb) == settled
    # the rule is off, or the neighborhood no longer matches the snapshot
    kids = expand(SearchState(g, (), 0, 0), 10, ALL_OFF, settled)
    assert [k.prefix for k in kids] == [(0,), (1,), (2,), (3,)]
    changed = SearchState(Graph(g.n, g.edges() + [(1, 3)]), (), 0, 0)
    kids = expand(changed, 10, cfg, settled)
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
        fills = {v: frozenset(fill_edges(g, v)) for v in cands}
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
    "spec,want",
    [
        (PartialKTreeSpec(10, 6, 30, seed=820324079), 5),
        (PartialKTreeSpec(13, 6, 30, seed=412376747), 6),
        (PartialKTreeSpec(50, 10, 20, seed=915233699), 10),
        (PartialKTreeSpec(50, 10, 20, seed=1439615510), 10),
    ],
    ids=["pk10", "pk13", "pk50a", "pk50b"],
)
def test_mutual_simplicial_keeps_an_optimal_branch(spec, want):
    # each graph was solved one too wide, and "proven optimal", when the
    # rule counted almost-simplicial vertices at any degree and kept the
    # lowest id of a group rather than a minimum-degree member
    g = gen_partial_ktree(spec)
    if g.n <= 14:
        assert exact_treewidth(g).treewidth == want
    r = solve(g)
    assert r.optimal and r.best_width == want
    check_report(g, r)

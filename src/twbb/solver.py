"""Anytime branch-and-bound search for exact treewidth.

The solver explores partial elimination orders depth first.  A state
carries the graph left after eliminating a prefix, the width g of that
prefix, and a lower bound h on the width still to come; a state whose
f = max(g, h) reaches the best known width is discarded.  The first
solution is a greedy upper bound, so interrupting the search at any point
still yields a valid order; running to completion proves optimality.

Candidate branches pass four independent rules and two closes before
elimination, in this order: restriction to non-neighbors of the last
eliminated vertex; a forbidden list that stops re-eliminating a vertex
already explored at an earlier sibling while its neighborhood is
unchanged; the closes, which settle a candidate whose elimination degree
already reaches the best width or whose child's vertex set is in the
memo (below); then, on the candidates still open, keeping one
minimum-degree member of each group whose eliminations leave each other
forced (simplicial, or almost simplicial with degree at most the state's
f), and dropping candidates whose fill edges contain a sibling's.  The
survivors' children are built, shrunk by the forced-elimination and
forced-edge rules, bounded, and explored by ascending f, ties going to
the child with fewer vertices left, then to the lower branch vertex.

The graph left after eliminating a set does not depend on the order in
which the set was eliminated, so the search reaches the same state many
times.  A transposition table (the memo; Dow & Korf, "Best-First Search
for Treewidth", AAAI 2007) is the set of dead vertex sets: sets whose
remaining graph has no elimination order narrower than the current best
width ub.  A candidate whose child's vertex set is in the memo is closed
before the filters see it, and a built child whose reduced vertex set is
in it is closed before its second bound, like a child whose bound
reached ub.

Every finished branch is settled in one step (_Dfs.settle): its
branch vertex is forbidden to its later siblings' subtrees, and its
vertex set goes into the memo if the branch's g is below ub.  A branch
finishes when it is closed, keyed by its vertex set before the forced
rules, or when its stack entry is popped after all its children were
explored, keyed by its reduced vertex set.  A search cut short by the
deadline returns without popping, so no state whose subtree it cut is
settled.  The memo takes no new sets once it holds MEMO_STATES of them.

When its root bound leaves a component open, the search finds up to
symmetry.AUTOMORPHISMS automorphisms of the root state's graph H, once,
and settle adds each dead set's image under each of them to the memo
too, every set counting against MEMO_STATES.  Why an image is dead: the
graph that eliminating everything outside a set S leaves of H joins u and
w in S when a path in H joins them through eliminated vertices only, so
an automorphism σ of H maps it onto the graph σ(S) leaves.  By the
argument below, an order of S narrower than ub has the same width on any
search state's graph for S as on that elimination graph, so σ(S) is dead
exactly when S is.

The key is the vertex set alone, although forced edge additions depend
on the best width and on the path taken, so two visits to one set can
carry different graphs: both are the graph the set leaves in the input
plus forced edges.  Each forced edge was added between vertices with at
least ub + 1 common neighbors for the ub of its time, which is at least
the current ub, so every full order narrower than ub creates it anyway.
Hence an order of the set's vertices is narrower than ub on one graph
exactly when it is on the other, with the same width, and the
completions narrower than ub are the same on both graphs.

Why the memo is sound: no completion of a settled branch is narrower
than ub, by induction over settling time.  The bound, which also closes
a state popped unexpanded once ub dropped to its f, drops only
completions at least as wide as ub.  The forced rules, the successor
restriction, mutual-simplicial and fill-subset keep a completion no
wider than the ones they drop inside the branch's own subtree, whose
branches were all settled earlier; for a closed child the forced rules
keep the best completion below ub, so what holds after them holds
before.  The two filters are sound on any subset of the candidates,
since a candidate they drop has a completion no wider in the subtree of
a kept one; so they may run on the open candidates only, the closed ones
having no completion narrower than ub (their g reaches ub, or their set
is in the memo).  The forbidden list and the memo point to branches
settled earlier too.  A completion's width is the larger of the
branch's g and the width of its order of the remaining graph, so when g
is below ub every such order is at least ub wide: the set is dead, and
stays dead as ub only ever drops.

Each solve builds one _Search, which holds what spans components: the
deadline, each component's best order and the improvement trace.  Each
component search is one _Dfs, which holds that search's upper bound,
forbidden list and memo, and yields every narrower order it finds.  It
keeps an explicit stack rather than recursing, because its depth
reaches the number of vertices.  The forbidden list is a dict, which
keeps its pairs in the order they were settled, so it is its own undo
log: popping a stack entry pops the dict's last pairs back to the
length it had before the entry's state was expanded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import minor_min_width as state_lower_bound
from .graph import (
    Graph,
    GraphError,
    _eliminate_in_place,
    bits,
    connected_components,
    fill_touched_in_masks,
    forced_in_masks,
)
from .heuristics import EliminationOrder, best_upper_bound
from .reduction import _reduce_masks

# The memo takes no new vertex sets once it holds this many.  A full set
# takes about 17 MiB at n = 80 and 48 MiB at n = 1,000 (CPython 3.11),
# so it stays within 64 MiB for graphs of up to about 1,500 vertices.
MEMO_STATES = 1 << 18

__all__ = [
    "RunReport",
    "SolverConfig",
    "prune_fill_subset",
    "prune_mutual_simplicial",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Search settings; every rule can be toggled independently.

    time_limit is in seconds, None for no limit.  The initial upper
    bound is always one min-fill run, and every state is bounded by
    minor-min-width.  The memo of dead vertex sets (see the module
    docstring) is always on: it only closes children that cannot beat the
    best width.
    """

    time_limit: float | None = None
    reductions: bool = True
    edge_addition: bool = True
    prune_sibling_order: bool = True
    prune_mutual_simplicial: bool = True
    prune_fill_subset: bool = True
    successor_restriction: bool = True

    def __post_init__(self):
        # not >= 0 also rejects NaN, which no deadline comparison would reach
        if self.time_limit is not None and not self.time_limit >= 0:
            raise GraphError(f"time limit must be a number >= 0: {self.time_limit!r}")


@dataclass(frozen=True)
class SearchState:
    """One node of the search tree.

    graph is what remains after eliminating prefix; g is the width of the
    prefix on the original graph.  Any completion of this state costs at
    least f, the larger of g, a lower bound on the width of the rest and
    the parent's f; inheriting the parent's f keeps it non-decreasing
    along a path.  last_neighborhood is the neighborhood mask of the most
    recently eliminated vertex (branching or forced) at elimination time,
    0 at the root.
    """

    graph: Graph
    prefix: tuple[int, ...]
    g: int
    f: int
    last_neighborhood: int = 0


@dataclass
class RunReport:
    """Outcome of one solve call.

    proven_lb is the best lower bound established (best_width itself once
    the search has finished).  anytime_trace lists (elapsed-seconds,
    width) improvements, starting from the heuristic solution, with
    strictly decreasing widths.
    """

    best_width: int
    best_order: EliminationOrder
    proven_lb: int
    optimal: bool
    nodes_expanded: int
    elapsed: float
    anytime_trace: list[tuple[float, int]]


def prune_mutual_simplicial(candidates: list[int], g: Graph, lb: int, stop=None) -> list[int]:
    """Keep one candidate of each group whose eliminations force each other.

    A makes B when, after eliminating A, the reductions may eliminate B
    next: B is simplicial, or almost simplicial with degree at most lb.
    lb must not exceed the width of any completion of the state; the
    solver passes the state's f.  A and B are linked when each makes the
    other.  Candidates are taken by ascending (degree, id); each one not
    yet reached is kept and drops every candidate it reaches through
    links, never stepping from a vertex to an adjacent one of lower
    degree.

    Why this is sound: when B makes A, a best order starting with B
    continues with A (lb is at most its width, so the forced-elimination
    rule applies), and the graph left after both is the same in either
    order.  Non-adjacent A and B leave each other's degree unchanged, so
    A then B costs what B then A costs.  Adjacent ones both leave the
    second vertex with all of N(A) and N(B) but themselves as neighbors,
    so starting with the one of lower degree is never worse.  No step of
    a chain can lower the best width reachable, so no dropped candidate
    beats the kept one it was reached from.

    stop() is polled once per vertex taken from a group's reach list;
    once it fires, every candidate is returned, since dropping none is
    always sound.
    """
    adj = g._adj
    status = {b: forced_in_masks(adj, b, lb) for b in candidates}
    elim: dict[int, list[int]] = {}

    def makes(a: int, b: int) -> bool:
        if not (adj[a] >> b) & 1:
            # Eliminating a non-neighbor of b leaves b's neighborhood as it
            # is and can only add edges inside it.
            if status[b]:
                return True
            if (adj[a] & adj[b]).bit_count() < 2:
                return False
        after = elim.get(a)
        if after is None:
            after = elim[a] = list(adj)
            _eliminate_in_place(after, a)
        return forced_in_masks(after, b, lb)

    order = sorted(candidates, key=lambda v: (adj[v].bit_count(), v))
    seen: set[int] = set()
    dropped: set[int] = set()
    for k in order:
        if k in seen:
            continue
        seen.add(k)
        reach = [k]
        while reach:
            if stop is not None and stop():
                return list(candidates)
            a = reach.pop()
            da = adj[a].bit_count()
            for b in order:
                if b in seen or ((adj[a] >> b) & 1 and adj[b].bit_count() < da):
                    continue
                if makes(a, b) and makes(b, a):
                    seen.add(b)
                    dropped.add(b)
                    reach.append(b)
    return [v for v in candidates if v not in dropped]


def prune_fill_subset(candidates: list[int], g: Graph, stop=None) -> list[int]:
    """Drop candidates whose fill edges contain another candidate's.

    If fill(A) is a subset of fill(B), eliminating A first is never
    worse, so B is dropped; on equal fill sets the lower id survives.
    Every fill edge of A joins two vertices of T(A), the neighbors of A
    that some fill edge touches, and is a non-edge; so fill(A) is a
    subset of fill(B) exactly when T(A) lies inside B's neighborhood.
    stop() is polled once per candidate; once it fires, every candidate
    is returned.
    """
    adj = g._adj
    touched = {v: fill_touched_in_masks(adj, v) for v in candidates}
    keep = []
    for v in candidates:
        if stop is not None and stop():
            return list(candidates)
        tv, nv = touched[v], adj[v]
        for u in candidates:
            # fill(u) within fill(v), and u wins the tie or v's is larger
            if u != v and not touched[u] & ~nv and (u < v or tv & ~adj[u]):
                break
        else:
            keep.append(v)
    return keep


def _bound(search, graph, prefix, g, f, h_pre, last_nb):
    """Shrink a state by the forced rules and bound it; None once it is closed.

    graph is what remains after prefix, of width g; f is the bound the
    state inherits and h_pre a lower bound for graph.  The enabled forced
    eliminations and edge additions run on a copy, and h is recomputed
    only when they changed the graph, unless the reduced vertex set is in
    search.memo: then the state is dead and None is returned too.
    Without a forced elimination the set is graph's own, which the caller
    has just looked up.
    Edges are added between vertices with ub + 1 common neighbors, one
    more than the search strictly needs: it only looks for widths below
    ub, which ub common neighbors already force.  Threshold ub was
    measured on exact-small as a net loss: fewer nodes, but more forced
    eliminations and edge sweeps per child.
    """
    ub = search.ub
    if max(f, g, h_pre) >= ub:
        return None
    cfg = search.cfg
    h = h_pre
    adj = list(graph._adj)
    act, g, forced, added = _reduce_masks(
        adj, graph.active_mask, g, h_pre, ub if cfg.edge_addition else None, cfg.reductions
    )
    if forced or added:
        if act in search.memo:
            return None
        graph = Graph._from_masks(graph.n, adj, act)
        h = state_lower_bound(graph, cap=ub) if len(graph) >= 2 else 0
    if forced:
        prefix += tuple(v for v, _ in forced)
        last_nb = forced[-1][1]
    f = max(f, g, h)
    if f >= ub:
        return None
    return SearchState(graph, prefix, g, f, last_nb)


def _make_children(search, s: SearchState):
    """Generate, filter, shrink and bound the children of a state.

    search.forb is the forbidden list: the (vertex, neighborhood) pairs
    of the branches settled so far below the states on the current path.
    Re-eliminating a vertex while its neighborhood still equals the one
    it was settled with cannot lead anywhere new: nothing eliminated
    since touched it, so it commutes with those eliminations.  A vertex
    adjacent to the settled one never matches, because its neighborhood
    lost that vertex.

    search is the _Dfs that expands s.  Returns the children, or None
    when search.stop() fires before a candidate; the two candidate
    filters poll it too, and return their input once it fires.  The
    children are (branch vertex, neighborhood at elimination, state)
    tuples in ascending (f, vertices left, vertex) order, so among
    children of equal f the one the forced rules shrank most is explored
    first.  Every other candidate is settled here (see _Dfs.settle), keyed
    by its child's vertex set before the forced rules: first one whose
    elimination degree or the state's g reaches ub, or whose child's
    vertex set is in the memo, so that only the open candidates reach the
    two filters; then, after them, one whose vertex set a sibling's settle
    has since put in the memo, and a built child that _bound closes, on
    its f or on its reduced vertex set being in the memo.
    """
    cfg, forb, ub, memo = search.cfg, search.forb, search.ub, search.memo
    g = s.graph
    adj, active = g._adj, g.active_mask
    cand_mask = active
    if cfg.successor_restriction:
        cand_mask = active & ~s.last_neighborhood or active
    cands = list(bits(cand_mask))
    if forb:
        cands = [v for v in cands if (v, adj[v]) not in forb]
    # (neighborhood, g, vertex set) of each candidate still open
    opened = {}
    for v in cands:
        if search.stop():
            return None
        nbv = adj[v]
        gv = max(s.g, nbv.bit_count())
        key = active & ~(1 << v)
        if gv < ub and key not in memo:
            opened[v] = nbv, gv, key
        else:
            search.settle(v, nbv, key, gv)
    cands = list(opened)
    if cfg.prune_mutual_simplicial and len(cands) > 1:
        cands = prune_mutual_simplicial(cands, g, s.f, search.stop)
    if cfg.prune_fill_subset and len(cands) > 1:
        cands = prune_fill_subset(cands, g, search.stop)

    children = []
    for v in cands:
        if search.stop():
            return None
        nbv, gv, key = opened[v]
        # a sibling settled since the closing pass may have put key in the memo
        if key not in memo:
            child = g.eliminate(v)
            h_pre = state_lower_bound(child, cap=ub)
            state = _bound(search, child, s.prefix + (v,), gv, s.f, h_pre, nbv)
            if state is not None:
                children.append((v, nbv, state))
                continue
        search.settle(v, nbv, key, gv)
    children.sort(key=lambda t: (t[2].f, len(t[2].graph), t[0]))
    return children


class _Dfs:
    """One depth-first search of one component below the width ub.

    stop is the solve's stop poll.  forb is the forbidden list (see
    _make_children), a dict of (vertex, neighborhood) pairs in the order
    they were added, and memo the set of dead vertex-set masks (see the
    module docstring); settle is the one place that adds to either.
    autos holds the automorphisms of the root state's graph, whose
    vertex set is root_set, and settle adds each dead set's images too.
    nodes counts expansions, and lb is the lower bound the search has
    proven.  Every state is bounded by state_lower_bound, looked up at
    each call.
    """

    def __init__(self, cfg: SolverConfig, stop, ub: int):
        self.cfg = cfg
        self.stop = stop
        self.ub = ub
        self.forb: dict[tuple[int, int], None] = {}
        self.memo: set[int] = set()
        self.autos: list[tuple[int, ...]] = []
        self.root_set = 0
        self.nodes = 0
        self.lb = 0

    def settle(self, v: int, nb: int, key: int, g: int) -> None:
        """Settle a finished branch: v, eliminated with neighborhood nb.

        The pair (v, nb) is forbidden until the branch's parent is popped;
        with prune_sibling_order off the list stays empty.  key, the
        branch's vertex set, goes into the memo when its width so far g is
        below ub, which makes it dead, and so does its image under each
        of autos.  A key already in the memo adds nothing: it went in with
        its images or as one, and when autos is the whole group, the
        images of an image are images too.
        """
        if self.cfg.prune_sibling_order:
            self.forb[v, nb] = None
        memo = self.memo
        if g >= self.ub or key in memo or len(memo) >= MEMO_STATES:
            return
        memo.add(key)
        # an image is the root's set less the image of what key lacks
        gone = self.root_set ^ key
        for sigma in self.autos:
            if len(memo) >= MEMO_STATES:
                break
            image = 0
            for x in bits(gone):
                image |= 1 << sigma[x]
            memo.add(self.root_set ^ image)

    def run(self, sub: Graph, root_lb: int):
        """Search sub, yielding each narrower (width, order) found.

        root_lb is a lower bound on sub.  The generator ends when the
        search is exhausted, with lb the final ub, or when stop() fires,
        with lb the root's bound.
        """
        root = _bound(self, sub, (), 0, root_lb, root_lb, 0)
        # a root its bound closes leaves nothing to search: lb is ub
        self.lb = root.f if root is not None else self.ub
        if root is not None:
            from .symmetry import automorphisms

            self.autos = automorphisms(root.graph, self.stop)
            self.root_set = root.graph.active_mask
        # Each entry is (children left, forbidden-list mark, branch vertex,
        # its neighborhood, the state it leads to).  The mark is the list's
        # length before the state was expanded.  Popping an entry pops the
        # list back to its mark, then settles its branch in the parent;
        # popping the root ends the search.
        forb, stack = self.forb, []
        v, nbv, s = None, 0, root
        while s is not None:
            mark, children = len(forb), ()
            if s.f < self.ub:
                if self.stop():
                    return
                self.nodes += 1
                if len(s.graph) < 2:
                    self.ub = s.g
                    yield s.g, s.prefix + tuple(s.graph.vertices)
                    if s.g <= self.lb:
                        # nothing beats the root bound: unwind every entry
                        stack.clear()
                        mark = 0
                else:
                    children = _make_children(self, s)
                    if children is None:
                        return
            stack.append((iter(children), mark, v, nbv, s))
            while (nxt := next(stack[-1][0], None)) is None:
                _, mark, v, nbv, s = stack.pop()
                while len(forb) > mark:
                    forb.popitem()
                if not stack:
                    self.lb = self.ub
                    return
                self.settle(v, nbv, s.graph.active_mask, s.g)
            v, nbv, s = nxt


class _Search:
    """One solve: what spans its components.

    That is its settings, its deadline and stop poll, and what it has
    found so far.  nodes counts expansions over all components, best holds each
    component's best (width, order) on the component's own ids, ids the
    input graph's ids they stand for (see connected_components), and
    trace the improvements of the width over all of them.
    """

    def __init__(self, cfg: SolverConfig, should_stop=None, on_improvement=None):
        self.cfg = cfg
        self.t0 = time.monotonic()
        self.deadline = None if cfg.time_limit is None else self.t0 + cfg.time_limit
        self.should_stop = should_stop
        self.on_improvement = on_improvement
        self.nodes = 0
        self.best: list[tuple[int, tuple[int, ...]]] = []
        self.ids: list[tuple[int, ...]] = []
        self.trace: list[tuple[float, int]] = []

    def stop(self) -> bool:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return True
        return self.should_stop is not None and self.should_stop()

    def width(self) -> int:
        return max((w for w, _ in self.best), default=0)

    def order(self) -> tuple[int, ...]:
        return tuple(ids[v] for ids, (_, vs) in zip(self.ids, self.best) for v in vs)

    def emit(self):
        """Record the width over all components if it dropped."""
        width = self.width()
        if not self.trace or width < self.trace[-1][1]:
            el = time.monotonic() - self.t0
            self.trace.append((el, width))
            if self.on_improvement is not None:
                self.on_improvement(el, width, self.order())


def solve(
    g: Graph,
    cfg: SolverConfig | None = None,
    on_improvement=None,
    should_stop=None,
) -> RunReport:
    """Find the treewidth of g, anytime.

    Runs per connected component, reporting the max width, the summed
    node count and one merged improvement trace.  Each component is
    solved as a graph on its own ids 0..k-1 (see connected_components),
    so it costs its own size, not g's; its orders are mapped back to g's
    ids before on_improvement and the report see them.
    on_improvement(elapsed, width, order) is called synchronously for the
    initial heuristic solution and every improvement.  The search stops once
    cfg.time_limit seconds have passed or should_stop() returns true;
    both are checked once per elimination of each component's min-fill
    run, between branch candidates, at node boundaries and inside the
    two candidate filters, once per candidate or reached vertex; a
    filter cut short keeps every candidate.  A stop during min-fill
    finishes its order by minimum degree, and a component whose min-fill
    run starts after the stop is ordered by minimum degree from the
    start.  Each component's root minor-min-width runs before its
    min-fill run and polls once per contraction round too, and the
    automorphism search of a component its root bound leaves open polls
    once per refinement splitter.  So a solve returns within the time
    limit plus, for each component, one minimum-degree tail and one
    contraction round, plus one bounded child, one filter step or one
    refinement split.  A root bound cut short keeps the degrees
    it recorded, at least the minimum degree, so only a solve stopped
    before a component's root bound finishes reports a weaker proven_lb.
    Every solve that is not cut short is deterministic for a given
    configuration.
    """
    search = _Search(cfg or SolverConfig(), should_stop, on_improvement)
    comps = connected_components(g)
    lbs = []
    for ids, sub in comps:
        lbs.append(state_lower_bound(sub, stop=search.stop))
        order = best_upper_bound(sub, search.stop)
        search.best.append((order.width, order.vertices))
        search.ids.append(ids)
    search.emit()
    for i, (_, sub) in enumerate(comps):
        if search.stop():
            break
        dfs = _Dfs(search.cfg, search.stop, search.best[i][0])
        # each order the search yields is component i's new best
        for search.best[i] in dfs.run(sub, lbs[i]):
            search.emit()
        search.nodes += dfs.nodes
        lbs[i] = dfs.lb

    best_width = search.width()
    proven_lb = min(max(lbs, default=0), best_width)
    return RunReport(
        best_width,
        EliminationOrder(search.order(), best_width),
        proven_lb,
        proven_lb == best_width,
        search.nodes,
        time.monotonic() - search.t0,
        search.trace,
    )

"""Anytime branch-and-bound search for exact treewidth.

The solver explores partial elimination orders depth first.  A state
carries the graph left after eliminating a prefix, the width g of that
prefix, and a lower bound h on the width still to come; a state whose
f = max(g, h) reaches the best known width is discarded.  The first
solution is a greedy upper bound, so interrupting the search at any point
still yields a valid order; running to completion proves optimality.

Candidate branches are filtered by four independent rules before
elimination: restriction to non-neighbors of the last eliminated vertex,
a forbidden list that stops re-eliminating a vertex already explored at
an earlier sibling while its neighborhood is unchanged, keeping one
minimum-degree member of each group of candidates whose eliminations
leave each other forced (simplicial, or almost simplicial with degree
at most the state's f), and dropping candidates whose fill edges contain
a sibling's.  Surviving children are then shrunk by the forced-elimination
and forced-edge rules before being bounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bounds import mcs_lb, minwidth_lb
from .bounds import minor_min_width as state_lower_bound
from .graph import (
    Graph,
    GraphError,
    _eliminate_in_place,
    bits,
    connected_components,
    fill_edges_in_masks,
)
from .heuristics import EliminationOrder, HeuristicConfig, best_upper_bound
from .reduction import _reduce_masks, forced_in_masks

__all__ = [
    "LB_KINDS",
    "RunReport",
    "SearchState",
    "SolverConfig",
    "expand",
    "prune_fill_subset",
    "prune_mutual_simplicial",
    "solve",
]

LB_KINDS = ("mmw", "mcslb", "mw")


@dataclass(frozen=True)
class SolverConfig:
    """Search settings; every rule can be toggled independently.

    seed feeds the randomized restarts of the initial upper-bound
    heuristic (the search itself is deterministic).  ub_heuristic, when
    given, overrides the default of min-fill with 100 seeded restarts.
    """

    time_limit: float | None = None
    seed: int = 0
    reductions: bool = True
    edge_addition: bool = True
    prune_sibling_order: bool = True
    prune_mutual_simplicial: bool = True
    prune_fill_subset: bool = True
    successor_restriction: bool = True
    ub_heuristic: HeuristicConfig | None = None
    lb_kind: str = "mmw"

    def __post_init__(self):
        if self.lb_kind not in LB_KINDS:
            raise GraphError(f"unknown lower bound kind: {self.lb_kind!r}")

    def heuristic(self) -> HeuristicConfig:
        if self.ub_heuristic is not None:
            return self.ub_heuristic
        return HeuristicConfig("min-fill", runs=100, seed=self.seed)


@dataclass(frozen=True)
class SearchState:
    """One node of the search tree.

    graph is what remains after eliminating prefix; g is the width of the
    prefix on the original graph and h a lower bound on the width of the
    rest.  Any completion of this state costs at least f; f also inherits
    the parent's f, which keeps it non-decreasing along a path even when
    h drops, so f >= max(g, h) with equality except after such a drop.
    last is the most recently eliminated vertex (branching or forced) and
    last_neighborhood its neighborhood mask at elimination time.
    """

    graph: Graph
    prefix: tuple[int, ...]
    g: int
    h: int
    f: int
    last: int | None = None
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


def _h_factory(kind: str):
    if kind == "mmw":
        return state_lower_bound
    if kind == "mcslb":
        return lambda g, cap=None: mcs_lb(g)
    if kind == "mw":
        return lambda g, cap=None: minwidth_lb(g)
    raise GraphError(f"unknown lower bound kind: {kind!r}")


def prune_mutual_simplicial(candidates: list[int], g: Graph, lb: int) -> list[int]:
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
    """
    if len(candidates) < 2:
        return list(candidates)
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


def prune_fill_subset(candidates: list[int], g: Graph) -> list[int]:
    """Drop candidates whose fill edges contain another candidate's.

    If fill(A) is a subset of fill(B), eliminating A first is never
    worse, so B is dropped; on equal fill sets the lower id survives.
    """
    if len(candidates) < 2:
        return list(candidates)
    fills = {v: frozenset(fill_edges_in_masks(g._adj, v)) for v in candidates}
    keep = []
    for v in candidates:
        fv = fills[v]
        for u in candidates:
            if u == v:
                continue
            fu = fills[u]
            if fu < fv or (fu == fv and u < v):
                break
        else:
            keep.append(v)
    return keep


def _reduce(graph: Graph, g_value: int, lb: int, ub: int, cfg: SolverConfig):
    """The enabled forced eliminations and edge additions, on a copy.

    Returns (graph, g_value, forced, last_nb): graph is the one passed in
    when nothing changed, and last_nb is the neighborhood mask the last
    forced vertex had when it was eliminated.
    """
    if not (cfg.reductions or cfg.edge_addition):
        return graph, g_value, [], None
    adj = list(graph._adj)
    act, g_value, forced, added, last_nb = _reduce_masks(
        adj, graph.active_mask, g_value, lb, ub, cfg.reductions, cfg.edge_addition
    )
    if forced or added:
        graph = Graph._from_masks(graph.n, adj, act)
    return graph, g_value, forced, last_nb


def _make_children(s: SearchState, ub: int, cfg: SolverConfig, forb, h_func):
    """Generate, filter, shrink and bound the children of a state.

    forb is the forbidden list: it maps a vertex to the neighborhood
    masks it had when an earlier sibling finished exploring it.
    Re-eliminating the vertex while its neighborhood still equals one of
    them cannot lead anywhere new: nothing eliminated since touched it,
    so it commutes with those eliminations.  A vertex adjacent to the
    sibling never matches, because its neighborhood lost the sibling.

    Returns (children, closed).  children holds (branch-vertex,
    neighborhood-at-elimination, state) triples in ascending (f, vertex)
    order; closed holds the same pair data for candidates discarded
    because their bound already reached ub, which are as concluded as an
    explored sibling for forbidden-list purposes.
    """
    g = s.graph
    active = g.active_mask
    if cfg.successor_restriction and s.last is not None:
        cand_mask = active & ~s.last_neighborhood
        if not cand_mask:
            cand_mask = active
    else:
        cand_mask = active
    cands = list(bits(cand_mask))
    if cfg.prune_sibling_order and forb:
        cands = [v for v in cands if g._adj[v] not in forb.get(v, ())]
    if cfg.prune_mutual_simplicial and len(cands) > 1:
        cands = prune_mutual_simplicial(cands, g, s.f)
    if cfg.prune_fill_subset and len(cands) > 1:
        cands = prune_fill_subset(cands, g)

    children = []
    closed = []
    for v in cands:
        nbv = g._adj[v]
        deg = nbv.bit_count()
        gv = s.g if s.g >= deg else deg
        child_graph = g.eliminate(v)
        h_pre = h_func(child_graph, cap=ub)
        if max(s.f, gv, h_pre) >= ub:
            closed.append((v, nbv))
            continue
        final_graph, gv2, forced, lnb = _reduce(child_graph, gv, h_pre, ub, cfg)
        prefix = s.prefix + (v,) + tuple(forced)
        last, last_nb = (forced[-1], lnb) if forced else (v, nbv)
        h_post = h_pre
        if final_graph is not child_graph:
            h_post = h_func(final_graph, cap=ub) if len(final_graph) >= 2 else 0
        f = max(s.f, gv2, h_post)
        if f >= ub:
            closed.append((v, nbv))
            continue
        state = SearchState(final_graph, prefix, gv2, h_post, f, last, last_nb)
        children.append((v, nbv, state))
    children.sort(key=lambda t: (t[2].f, t[0]))
    return children, closed


def expand(
    s: SearchState,
    ub: int,
    cfg: SolverConfig,
    forbidden: dict[int, list[int]] | None = None,
) -> list[SearchState]:
    """Children of a state with all enabled rules applied, ascending by f.

    forbidden is a fixed forbidden list for the sibling-order rule, in
    the engine's form: vertex -> neighborhood masks at which it is closed.
    """
    if len(s.graph) < 2:
        raise GraphError("expand requires a state with at least two vertices")
    h_func = _h_factory(cfg.lb_kind)
    children, _ = _make_children(s, ub, cfg, forbidden or {}, h_func)
    return [state for _, _, state in children]


class _Frame:
    __slots__ = ("state", "branch", "branch_nb", "children", "idx", "entries")

    def __init__(self, state, branch, branch_nb):
        self.state = state
        self.branch = branch
        self.branch_nb = branch_nb
        self.children = None
        self.idx = 0
        self.entries = []


def _solve_component(
    sub: Graph,
    cfg: SolverConfig,
    h_func,
    ub: int,
    best: tuple[int, ...],
    root_lb: int,
    deadline: float | None,
    should_stop,
    report,
):
    """Search one connected component.

    ub/best come from the heuristic and root_lb from a lower bound on
    the intact component.  report(width, order) is called on each
    improvement.  Returns (width, order, proven_lb, optimal, nodes,
    interrupted).
    """
    if root_lb >= ub:
        return ub, best, ub, True, 0, False

    root_graph, g0, forced_l, lnb = _reduce(sub, 0, root_lb, ub, cfg)
    forced = tuple(forced_l)
    last, last_nb = (forced[-1], lnb) if forced else (None, 0)

    lb = max(root_lb, g0)
    if len(root_graph) < 2:
        width = g0
        if width < ub:
            ub, best = width, forced + tuple(root_graph.vertices)
            report(ub, best)
        return ub, best, ub, True, 1, False

    h_root = h_func(root_graph, cap=None)
    lb = max(lb, h_root)
    f0 = max(g0, h_root)
    if f0 >= ub:
        return ub, best, ub, True, 1, False

    root = SearchState(root_graph, forced, g0, h_root, f0, last, last_nb)
    forb: dict[int, list[int]] = {}

    stack = [_Frame(root, None, 0)]
    nodes = 0
    interrupted = False

    def pop_frame():
        fr = stack.pop()
        for v in reversed(fr.entries):
            forb[v].pop()
        if stack and fr.branch is not None:
            forb.setdefault(fr.branch, []).append(fr.branch_nb)
            stack[-1].entries.append(fr.branch)

    while stack:
        fr = stack[-1]
        if fr.children is None:
            s = fr.state
            if s.f >= ub:
                pop_frame()
                continue
            if should_stop is not None and should_stop():
                interrupted = True
                break
            if deadline is not None and time.monotonic() >= deadline:
                interrupted = True
                break
            nodes += 1
            if len(s.graph) < 2:
                ub, best = s.g, s.prefix + tuple(s.graph.vertices)
                report(ub, best)
                if ub <= lb:
                    return ub, best, ub, True, nodes, False
                pop_frame()
                continue
            fr.children, closed = _make_children(s, ub, cfg, forb, h_func)
            if cfg.prune_sibling_order:
                for v, nbmask in closed:
                    forb.setdefault(v, []).append(nbmask)
                    fr.entries.append(v)
            continue
        if fr.idx < len(fr.children):
            bv, nbv, child = fr.children[fr.idx]
            fr.idx += 1
            stack.append(_Frame(child, bv, nbv))
            continue
        pop_frame()

    if interrupted:
        return ub, best, lb, False, nodes, True
    return ub, best, ub, True, nodes, False


def solve(
    g: Graph,
    cfg: SolverConfig | None = None,
    on_improvement=None,
    should_stop=None,
) -> RunReport:
    """Find the treewidth of g, anytime.

    Runs per connected component, reporting the max width, the summed
    node count and one merged improvement trace.  on_improvement(elapsed,
    width, order) is called synchronously for the initial heuristic
    solution and every improvement; should_stop() is polled at node
    boundaries for cooperative cancellation.  Completed runs are fully
    deterministic for a given configuration.
    """
    cfg = cfg or SolverConfig()
    t0 = time.monotonic()
    deadline = t0 + cfg.time_limit if cfg.time_limit is not None else None
    h_func = _h_factory(cfg.lb_kind)
    hcfg = cfg.heuristic()

    comps = connected_components(g)
    trace: list[tuple[float, int]] = []
    if not comps:
        el = time.monotonic() - t0
        trace.append((el, 0))
        if on_improvement is not None:
            on_improvement(el, 0, ())
        return RunReport(0, EliminationOrder((), 0), 0, True, 0, el, trace)

    subs = [g.induced(c) for c in comps]
    comp_best: list[tuple[int, tuple[int, ...]]] = []
    comp_lb: list[int] = []
    for sub in subs:
        w, order = best_upper_bound(sub, hcfg)
        comp_best.append((w, order.vertices))
        comp_lb.append(h_func(sub, cap=None))

    def global_order() -> tuple[int, ...]:
        out: list[int] = []
        for _, vs in comp_best:
            out.extend(vs)
        return tuple(out)

    def emit(width: int):
        if not trace or width < trace[-1][1]:
            el = time.monotonic() - t0
            trace.append((el, width))
            if on_improvement is not None:
                on_improvement(el, width, global_order())

    emit(max(w for w, _ in comp_best))

    total_nodes = 0
    for i, sub in enumerate(subs):
        out_of_time = deadline is not None and time.monotonic() >= deadline
        cancelled = should_stop is not None and should_stop()
        if out_of_time or cancelled:
            continue

        def report(width, order, _i=i):
            comp_best[_i] = (width, order)
            emit(max(w for w, _ in comp_best))

        w, order, lb, _opt, nodes, _ = _solve_component(
            sub,
            cfg,
            h_func,
            comp_best[i][0],
            comp_best[i][1],
            comp_lb[i],
            deadline,
            should_stop,
            report,
        )
        comp_best[i] = (w, order)
        comp_lb[i] = lb
        total_nodes += nodes

    best_width = max(w for w, _ in comp_best)
    proven_lb = max(comp_lb)
    optimal = proven_lb >= best_width
    if optimal:
        proven_lb = best_width
    elapsed = time.monotonic() - t0
    return RunReport(
        best_width,
        EliminationOrder(global_order(), best_width),
        proven_lb,
        optimal,
        total_nodes,
        elapsed,
        trace,
    )

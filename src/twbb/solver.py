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
    fill_touched_in_masks,
    forced_in_masks,
)
from .heuristics import EliminationOrder, HeuristicConfig, best_upper_bound
from .reduction import _reduce_masks

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

    ub_heuristic gives the initial upper bound and holds the only seed;
    the search itself is deterministic.
    """

    time_limit: float | None = None
    reductions: bool = True
    edge_addition: bool = True
    prune_sibling_order: bool = True
    prune_mutual_simplicial: bool = True
    prune_fill_subset: bool = True
    successor_restriction: bool = True
    ub_heuristic: HeuristicConfig = HeuristicConfig("min-fill", runs=100)
    lb_kind: str = "mmw"

    def __post_init__(self):
        if self.lb_kind not in LB_KINDS:
            raise GraphError(f"unknown lower bound kind: {self.lb_kind!r}")


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
    Every fill edge of A joins two vertices of T(A), the neighbors of A
    that some fill edge touches, and is a non-edge; so fill(A) is a
    subset of fill(B) exactly when T(A) lies inside B's neighborhood.
    """
    if len(candidates) < 2:
        return list(candidates)
    adj = g._adj
    touched = {v: fill_touched_in_masks(adj, v) for v in candidates}
    keep = []
    for v in candidates:
        tv, nv = touched[v], adj[v]
        for u in candidates:
            # fill(u) within fill(v), and u wins the tie or v's is larger
            if u != v and not touched[u] & ~nv and (u < v or tv & ~adj[u]):
                break
        else:
            keep.append(v)
    return keep


def _bound(graph, prefix, g, f, h_pre, last, last_nb, ub, cfg, h_func):
    """Shrink a state by the forced rules and bound it; None once f >= ub.

    graph is what remains after prefix, of width g; f is the bound the
    state inherits and h_pre a lower bound for graph.  The enabled forced
    eliminations and edge additions run on a copy, and h is recomputed
    only when they changed the graph.
    """
    if max(f, g, h_pre) >= ub:
        return None
    h = h_pre
    adj = list(graph._adj)
    act, g, forced, added = _reduce_masks(
        adj, graph.active_mask, g, h_pre, ub if cfg.edge_addition else None, cfg.reductions
    )
    if forced or added:
        graph = Graph._from_masks(graph.n, adj, act)
        h = h_func(graph, cap=ub) if len(graph) >= 2 else 0
    if forced:
        prefix += tuple(v for v, _ in forced)
        last, last_nb = forced[-1]
    f = max(f, g, h)
    if f >= ub:
        return None
    return SearchState(graph, prefix, g, h, f, last, last_nb)


def _make_children(s: SearchState, ub: int, cfg: SolverConfig, forb, h_func, stop):
    """Generate, filter, shrink and bound the children of a state.

    forb is the forbidden list: it maps a vertex to the neighborhood
    masks it had when an earlier sibling finished exploring it.
    Re-eliminating the vertex while its neighborhood still equals one of
    them cannot lead anywhere new: nothing eliminated since touched it,
    so it commutes with those eliminations.  A vertex adjacent to the
    sibling never matches, because its neighborhood lost the sibling.

    Returns (children, closed), or None when stop() fires before a
    candidate.  children holds (branch-vertex, neighborhood-at-
    elimination, state) triples in ascending (f, vertex) order; closed
    holds the same pair data for candidates discarded because their
    bound already reached ub, which are as concluded as an explored
    sibling for forbidden-list purposes.
    """
    g = s.graph
    active = g.active_mask
    cand_mask = active
    if cfg.successor_restriction and s.last is not None:
        cand_mask = active & ~s.last_neighborhood or active
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
        if stop():
            return None
        nbv = g._adj[v]
        gv = max(s.g, nbv.bit_count())
        child = g.eliminate(v)
        h_pre = h_func(child, cap=ub)
        state = _bound(child, s.prefix + (v,), gv, s.f, h_pre, v, nbv, ub, cfg, h_func)
        if state is None:
            closed.append((v, nbv))
        else:
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
    children, _ = _make_children(s, ub, cfg, forbidden or {}, h_func, lambda: False)
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
    root_lb: int,
    stop,
    report,
):
    """Search one connected component.

    ub comes from the heuristic and root_lb from a lower bound on the
    intact component.  report(width, order) is called on each
    improvement.  Returns (proven_lb, nodes); proven_lb is the final
    width unless stop() cut the search short.
    """
    root = _bound(sub, (), 0, root_lb, root_lb, None, 0, ub, cfg, h_func)
    if root is None:
        return ub, 0
    lb = root.f
    forb: dict[int, list[int]] = {}
    stack = [_Frame(root, None, 0)]
    nodes = 0

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
            if stop():
                return lb, nodes
            nodes += 1
            if len(s.graph) < 2:
                ub = s.g
                report(ub, s.prefix + tuple(s.graph.vertices))
                if ub <= lb:
                    break
                pop_frame()
                continue
            made = _make_children(s, ub, cfg, forb, h_func, stop)
            if made is None:
                return lb, nodes
            fr.children, closed = made
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
    return ub, nodes


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
    solution and every improvement.  The search stops once
    cfg.time_limit seconds have passed or should_stop() returns true;
    both are checked between heuristic runs (run 0 always completes),
    between branch candidates and at node boundaries.  Completed runs
    are fully deterministic for a given configuration.
    """
    cfg = cfg or SolverConfig()
    t0 = time.monotonic()
    deadline = t0 + cfg.time_limit if cfg.time_limit is not None else None

    def stop() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return should_stop is not None and should_stop()

    h_func = _h_factory(cfg.lb_kind)
    subs = [g.induced(c) for c in connected_components(g)]
    comp_best: list[tuple[int, tuple[int, ...]]] = []
    comp_lb: list[int] = []
    for sub in subs:
        w, order = best_upper_bound(sub, cfg.ub_heuristic, stop)
        comp_best.append((w, order.vertices))
        comp_lb.append(h_func(sub, cap=None))

    def global_order() -> tuple[int, ...]:
        out: list[int] = []
        for _, vs in comp_best:
            out.extend(vs)
        return tuple(out)

    trace: list[tuple[float, int]] = []

    def emit():
        width = max((w for w, _ in comp_best), default=0)
        if not trace or width < trace[-1][1]:
            el = time.monotonic() - t0
            trace.append((el, width))
            if on_improvement is not None:
                on_improvement(el, width, global_order())

    emit()

    total_nodes = 0
    for i, sub in enumerate(subs):
        if stop():
            break

        def report(width, order, _i=i):
            comp_best[_i] = (width, order)
            emit()

        comp_lb[i], nodes = _solve_component(
            sub, cfg, h_func, comp_best[i][0], comp_lb[i], stop, report
        )
        total_nodes += nodes

    best_width = max((w for w, _ in comp_best), default=0)
    proven_lb = min(max(comp_lb, default=0), best_width)
    optimal = proven_lb == best_width
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

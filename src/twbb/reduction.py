"""Forced eliminations and forced edge additions for search states.

Two sound rewrites shrink a state before it is branched on:

* a simplicial vertex can always be eliminated first, and an
  almost-simplicial vertex can be eliminated first when its degree is at
  most a known lower bound on the state's answer;
* an edge {u, v} can be added whenever u and v share at least ub + 1
  common neighbors, because any elimination order of width < ub + 1 would
  create that edge anyway.

Both preserve the state's optimal completion width, so a solver may apply
them eagerly.  ``_reduce_masks`` runs the two to a joint fixed point on
scratch adjacency masks; the solver calls it directly on every child, and
``reduce_state`` is the same fixed point on a Graph, with either rule
switchable off, for the oracle cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    _eliminate_in_place,
    almost_simplicial_in_masks,
    bits,
    clique_in_masks,
)

__all__ = ["ReductionOutcome", "reduce_state"]


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of reducing a state.

    graph: the reduced graph.
    forced_prefix: vertices eliminated, in application order; they extend
        the partial elimination order of the state that was reduced.
    g_value: the running width after folding in the degrees of the forced
        eliminations (each at its elimination time).
    edges_added: edges added by the common-neighbor rule, as (u, v) pairs
        with u < v.  Endpoints may have been eliminated by a later round.
    """

    graph: Graph
    forced_prefix: tuple[int, ...]
    g_value: int
    edges_added: frozenset[tuple[int, int]]

    @property
    def changed(self) -> bool:
        return bool(self.forced_prefix or self.edges_added)


def forced_in_masks(adj: list[int], v: int, lb: int) -> bool:
    """True when v may be eliminated first: it is simplicial, or almost
    simplicial with degree at most lb (a lower bound on the answer)."""
    nb = adj[v]
    if clique_in_masks(adj, nb):
        return True
    return nb.bit_count() <= lb and almost_simplicial_in_masks(adj, v)


def _reduction_sweep(
    adj: list[int], active: int, g_value: int, lb: int, forced: list[int]
) -> tuple[int, int, int | None]:
    """Eliminate forced vertices until none qualifies.

    Scans active vertices in ascending id order and restarts after every
    elimination, so the result is deterministic.  Returns the new active
    mask, the new g value, and the neighborhood mask the last forced
    vertex had when it was eliminated (None when nothing fired).
    """
    last_nb = None
    while True:
        fired = False
        for v in bits(active):
            if not forced_in_masks(adj, v, lb):
                continue
            nb = adj[v]
            deg = nb.bit_count()
            if deg > g_value:
                g_value = deg
            _eliminate_in_place(adj, v)
            active &= ~(1 << v)
            forced.append(v)
            last_nb = nb
            fired = True
            break
        if not fired:
            return active, g_value, last_nb


def _edge_addition_sweep(
    adj: list[int], active: int, ub: int, added: list[tuple[int, int]]
) -> bool:
    """Add every edge forced by the common-neighbor rule; True if any was."""
    need = ub + 1
    any_added = False
    while True:
        cand = [v for v in bits(active) if adj[v].bit_count() >= need]
        batch = []
        for i, u in enumerate(cand):
            au = adj[u]
            for v in cand[i + 1 :]:
                if (au >> v) & 1:
                    continue
                if (au & adj[v]).bit_count() >= need:
                    batch.append((u, v))
        if not batch:
            return any_added
        for u, v in batch:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        added.extend(batch)
        any_added = True


def _reduce_masks(
    adj: list[int],
    active: int,
    g_value: int,
    lb: int,
    ub: int | None,
    do_reductions: bool,
    do_edge_addition: bool,
) -> tuple[int, int, list[int], list[tuple[int, int]], int | None]:
    """Joint fixed point over scratch masks, updated in place.

    Returns the new active mask, the new g value, the forced eliminations,
    the added edges, and the neighborhood mask of the last forced vertex
    (None when nothing was forced).
    """
    forced: list[int] = []
    added: list[tuple[int, int]] = []
    last_nb = None
    while True:
        if do_reductions:
            gate = lb if lb >= g_value else g_value
            active, g_value, nb = _reduction_sweep(adj, active, g_value, gate, forced)
            if nb is not None:
                last_nb = nb
        if not (do_edge_addition and ub is not None):
            return active, g_value, forced, added, last_nb
        if not _edge_addition_sweep(adj, active, ub, added):
            return active, g_value, forced, added, last_nb
        if not do_reductions:
            return active, g_value, forced, added, last_nb


def reduce_state(
    g: Graph,
    g_value: int = 0,
    lb: int = 0,
    ub: int | None = None,
    *,
    reductions: bool = True,
    add_edges: bool = True,
) -> ReductionOutcome:
    """Run forced eliminations and forced edge additions to a joint fixed point.

    Each elimination round gates the almost-simplicial rule on
    max(lb, current g_value), since the running width is itself a valid
    lower bound on the state's answer.  Edge addition needs a known upper
    bound; pass ub=None (or add_edges=False) to skip it.
    """
    adj = list(g._adj)
    active, g_value, forced, added, _ = _reduce_masks(
        adj, g.active_mask, g_value, lb, ub, reductions, add_edges
    )
    if not forced and not added:
        return ReductionOutcome(g, (), g_value, frozenset())
    reduced = Graph._from_masks(g.n, adj, active)
    return ReductionOutcome(reduced, tuple(forced), g_value, frozenset(added))

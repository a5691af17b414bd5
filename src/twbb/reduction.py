"""Forced eliminations and forced edge additions for search states.

Two sound rewrites shrink a state before it is branched on:

* a simplicial vertex can always be eliminated first, and an
  almost-simplicial vertex can be eliminated first when its degree is at
  most a known lower bound on the state's answer;
* an edge {u, v} can be added whenever u and v share at least ub + 1
  common neighbors, because any elimination order of width < ub + 1 would
  create that edge anyway.

Both preserve the state's optimal completion width, so a solver may apply
them eagerly.  The forced-vertex test is ``graph.forced_in_masks``.
``_reduce_masks`` runs the two rules to a joint fixed point on scratch
adjacency masks; the solver calls it directly on every child, and
``reduce_state`` is the same fixed point on a Graph for the oracle
cross-checks.  Each rule has one off-switch: ``reductions=False`` skips
the eliminations and ``ub=None`` skips edge addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _eliminate_in_place, bits, forced_in_masks

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


def _reduction_sweep(
    adj: list[int], active: int, g_value: int, lb: int, forced: list[tuple[int, int]]
) -> tuple[int, int]:
    """Eliminate forced vertices, lowest id first, until none qualifies.

    lb gates the almost-simplicial rule and stays fixed through the sweep.
    Appends (vertex, neighborhood mask at elimination) to forced and
    returns the new active mask and g value.
    """
    while True:
        v = next((v for v in bits(active) if forced_in_masks(adj, v, lb)), None)
        if v is None:
            return active, g_value
        nb = adj[v]
        deg = nb.bit_count()
        if deg > g_value:
            g_value = deg
        _eliminate_in_place(adj, v)
        active &= ~(1 << v)
        forced.append((v, nb))


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
) -> tuple[int, int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Joint fixed point over scratch masks, updated in place.

    Edge addition runs exactly when ub is not None.  Returns the new
    active mask, the new g value, the forced eliminations as (vertex,
    neighborhood mask at elimination) pairs, and the added edges.
    """
    forced: list[tuple[int, int]] = []
    added: list[tuple[int, int]] = []
    while True:
        if do_reductions:
            gate = lb if lb >= g_value else g_value
            active, g_value = _reduction_sweep(adj, active, g_value, gate, forced)
        grew = ub is not None and _edge_addition_sweep(adj, active, ub, added)
        if not (grew and do_reductions):
            return active, g_value, forced, added


def reduce_state(
    g: Graph,
    g_value: int = 0,
    lb: int = 0,
    ub: int | None = None,
    *,
    reductions: bool = True,
) -> ReductionOutcome:
    """Run forced eliminations and forced edge additions to a joint fixed point.

    Each elimination round gates the almost-simplicial rule on
    max(lb, current g_value), since the running width is itself a valid
    lower bound on the state's answer.  Edge addition needs a known upper
    bound; ub=None skips it, and reductions=False skips the eliminations.
    """
    adj = list(g._adj)
    active, g_value, forced, added = _reduce_masks(
        adj, g.active_mask, g_value, lb, ub, reductions
    )
    if not forced and not added:
        return ReductionOutcome(g, (), g_value, frozenset())
    reduced = Graph._from_masks(g.n, adj, active)
    return ReductionOutcome(
        reduced, tuple(v for v, _ in forced), g_value, frozenset(added)
    )

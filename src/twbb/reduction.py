"""Forced eliminations and forced edge additions for search states.

Two sound rewrites shrink a state before it is branched on:

* a simplicial vertex can always be eliminated first, and an
  almost-simplicial vertex can be eliminated first when its degree is at
  most a known lower bound on the state's answer;
* an edge {u, v} can be added whenever u and v share at least ub + 1
  common neighbors, because any elimination order of width < ub + 1 would
  create that edge anyway.  The solver passes its best width as ub,
  although ub common neighbors would already do for a search below ub;
  that tighter threshold expanded fewer nodes but cost more in all.

Both preserve the state's optimal completion width, so a solver may apply
them eagerly.  The forced-vertex test is ``graph.forced_in_masks``.
``_reduce_masks`` runs the two rules to a joint fixed point on scratch
adjacency masks; the solver calls it on every child, and the oracle
cross-checks call it on a copy of a graph's masks.  Each rule has one
off-switch: ``do_reductions=False`` skips the eliminations and
``ub=None`` skips edge addition.
"""

from __future__ import annotations

from .graph import _eliminate_in_place, bits, forced_in_masks


def _reduction_sweep(
    adj: list[int], active: int, g_value: int, lb: int, forced: list[tuple[int, int]]
) -> tuple[int, int]:
    """Eliminate forced vertices, lowest id first, until none qualifies.

    lb gates the almost-simplicial rule and stays fixed through the sweep.
    Appends (vertex, neighborhood mask at elimination) to forced and
    returns the new active mask and g value.
    """
    while True:
        rest = active
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if forced_in_masks(adj, v, lb):
                break
            rest ^= low
        else:
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

    Each elimination round gates the almost-simplicial rule on
    max(lb, current g_value), since the running width is itself a valid
    lower bound on the state's answer.  Edge addition runs exactly when
    ub is not None.  Returns the new active mask, the new g value, the
    forced eliminations as (vertex, neighborhood mask at elimination)
    pairs, and the added edges.
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


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
``_reduce_masks`` runs both rules to a fixed point in one loop on scratch
adjacency masks: each turn applies the first rule that fires, either one
forced elimination (the lowest-id forced vertex) or, when no vertex is
forced, one batch of forced edges, and the loop ends when neither fires.
The almost-simplicial gate is max(lb, g), recomputed after every
elimination, since the running width is itself a lower bound on the
answer.  The solver calls it on every child, and the oracle
cross-checks call it on a copy of a graph's masks.  Each rule has one
off-switch: ``do_reductions=False`` skips the eliminations and
``ub=None`` skips edge addition.
"""

from __future__ import annotations

from .graph import _eliminate_in_place, bits, forced_in_masks


def _reduce_masks(
    adj: list[int],
    active: int,
    g_value: int,
    lb: int,
    ub: int | None,
    do_reductions: bool,
) -> tuple[int, int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Apply the first forced rule that fires until none does.

    Works on scratch masks, updated in place.  A turn eliminates the
    lowest-id vertex that ``forced_in_masks`` accepts under the gate
    max(lb, g_value), taken afresh each turn; when there is none and ub
    is not None, it adds every missing edge whose endpoints share at
    least ub + 1 common neighbors, all in one batch.  Returns the new
    active mask, the new g value, the forced eliminations as (vertex,
    neighborhood mask at elimination) pairs, and the added edges.
    """
    forced: list[tuple[int, int]] = []
    added: list[tuple[int, int]] = []
    while True:
        if do_reductions:
            gate = lb if lb >= g_value else g_value
            rest = active
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                if forced_in_masks(adj, v, gate):
                    break
                rest ^= low
            if rest:
                nb = adj[v]
                deg = nb.bit_count()
                if deg > g_value:
                    g_value = deg
                _eliminate_in_place(adj, v)
                active ^= low
                forced.append((v, nb))
                continue
        if ub is not None:
            need = ub + 1
            cand = [v for v in bits(active) if adj[v].bit_count() >= need]
            batch = [
                (u, v)
                for i, u in enumerate(cand)
                for v in cand[i + 1 :]
                if not (adj[u] >> v) & 1 and (adj[u] & adj[v]).bit_count() >= need
            ]
            if batch:
                for u, v in batch:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                added.extend(batch)
                continue
        return active, g_value, forced, added

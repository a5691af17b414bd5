"""Automorphisms of a graph, by individualization and refinement.

The search (McKay & Piperno, "Practical graph isomorphism, II", J. Symbolic
Computation 2014) works on ordered partitions of the active vertices.  A
partition is a list of vertices, lab, cut into cells: cell[v] is the
position where v's cell starts and size[p] the length of the cell that
starts at p.  Refinement splits cells until each vertex of a cell has as
many neighbours in every cell as the others (an equitable partition).  It
keeps a queue of splitter cells: a dequeued splitter splits each cell by
its members' neighbour counts in the splitter, parts by ascending count.
Every choice it makes depends on positions and counts, never on ids, so
isomorphic inputs are refined alike, and the trace of a refinement, the
list of its splits (cell position, then each part's count and size), is
the same on both.

The left path individualizes the first vertex of the first non-singleton
cell, refines, and repeats until every cell is a singleton; its leaf lab
is λ.  A right path individualizes some vertex of the same cell at each
level and is followed only while each refinement's trace equals the
left's at that level, so its cell sizes agree with the left's.  Each
right leaf ρ gives σ = λ[i] -> ρ[i], kept only if it maps every edge to
an edge, so every σ returned is an automorphism whatever refinement
does.  Levels are taken deepest first: the automorphisms that fix the
first k vertices of the left path are those fixing the first k + 1,
composed with one automorphism for each vertex w that the (k + 1)-st can
be mapped to, found as the first automorphism below w.
"""

from __future__ import annotations

from .graph import bits

# At most this many non-identity automorphisms are returned.
AUTOMORPHISMS = 32
# The search gives up after this many refinements.
REFINEMENTS = 256


class _Stopped(Exception):
    """The budget ran out or stop() fired."""


class _Detector:
    """One automorphism search: each vertex's neighbour list, the stop poll
    and the refinements left."""

    def __init__(self, nbrs, stop):
        self.nbrs = nbrs
        self.stop = stop
        self.budget = REFINEMENTS

    def refine(self, lab, cell, size, cells, queue, trace, expect=None):
        """Refine the partition in place, splitting by each queued cell.

        cells is the partition's number of cells; returns the refined one,
        or None as soon as the trace, appended to trace, departs from
        expect when that is given.  A partition of singletons splits no
        further, so it ends the loop.
        """
        if self.budget <= 0:
            raise _Stopped
        self.budget -= 1
        nbrs, stop = self.nbrs, self.stop
        queued = set(queue)
        for s in queue:  # the loop sees the parts appended below
            if cells == len(lab):
                break
            if stop is not None and stop():
                raise _Stopped
            queued.discard(s)
            count: dict[int, int] = {}
            for x in lab[s : s + size[s]]:
                for w in nbrs[x]:
                    count[w] = count.get(w, 0) + 1
            hit: dict[int, list[int]] = {}
            for w in count:
                if size[cell[w]] > 1:
                    hit.setdefault(cell[w], []).append(w)
            for t in sorted(hit):
                k = size[t]
                by: dict[int, list[int]] = {}
                if len(hit[t]) < k:
                    by[0] = [x for x in lab[t : t + k] if x not in count]
                for w in hit[t]:
                    by.setdefault(count[w], []).append(w)
                if len(by) == 1:
                    continue
                counts = sorted(by)
                split = (t, tuple((c, len(by[c])) for c in counts))
                if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != split):
                    return None
                trace.append(split)
                parts = [sorted(by[c]) for c in counts]
                cells += len(parts) - 1
                # a cell split whole from a queued one is queued whole; else
                # its first largest part may stay out
                sizes = [len(part) for part in parts]
                skip = 0 if t in queued else sizes.index(max(sizes))
                p = t
                for i, part in enumerate(parts):
                    lab[p : p + len(part)] = part
                    size[p] = len(part)
                    for x in part:
                        cell[x] = p
                    if i != skip and p not in queued:
                        queue.append(p)
                        queued.add(p)
                    p += len(part)
        if expect is not None and len(trace) != len(expect):
            return None
        return cells

    def child(self, state, t, w, expect=None):
        """The partition with w individualized at the front of cell t,
        refined, and its trace; (None, trace) when it departs from expect."""
        lab, cell, size, cells = list(state[0]), list(state[1]), list(state[2]), state[3]
        k = size[t]
        i = lab.index(w, t, t + k)
        lab[t], lab[i] = w, lab[t]
        size[t], size[t + 1] = 1, k - 1
        for x in lab[t + 1 : t + k]:
            cell[x] = t + 1
        cell[w] = t
        trace: list = []
        cells = self.refine(lab, cell, size, cells + 1, [t], trace, expect)
        return (None if cells is None else (lab, cell, size, cells)), trace


def _target(lab, size):
    """The position of the first cell with more than one vertex, or None."""
    p = 0
    while p < len(lab) and size[p] == 1:
        p += 1
    return p if p < len(lab) else None


def automorphisms(g, stop=None) -> list[tuple[int, ...]]:
    """Up to AUTOMORPHISMS non-identity automorphisms of g, in a fixed order.

    Each is a tuple over 0..g.n - 1 that maps active ids to active ids and
    fixes the inactive ones.  stop() is polled once per splitter the
    refinement dequeues; when it fires, or after REFINEMENTS refinements,
    the automorphisms found so far are returned.  The group is complete
    when fewer than AUTOMORPHISMS are returned and neither limit was hit.
    """
    adj = g._adj
    verts = g.vertices
    if len(verts) < 2:
        return []
    nbrs = [list(bits(a)) for a in adj]
    det = _Detector(nbrs, stop)
    # one cell of every vertex, which as the first splitter splits by degree
    lab, cell, size = list(verts), [0] * g.n, [0] * len(verts)
    size[0] = len(verts)
    group: list[tuple[int, ...]] = [tuple(range(g.n))]
    try:
        cells = det.refine(lab, cell, size, 1, [0], [])
        # the left path: at each level the partition, its target cell and
        # the trace of the refinement below it
        levels = []
        state = (lab, cell, size, cells)
        t = _target(lab, size)
        while t is not None:
            nxt, trace = det.child(state, t, state[0][t])
            levels.append((state, t, trace))
            state = nxt
            t = _target(state[0], state[2])
        leaf = state[0]

        def image(right):
            sigma = list(range(g.n))
            for x, y in zip(leaf, right):
                sigma[x] = y
            for v in verts:
                m = 0
                for u in nbrs[v]:
                    m |= 1 << sigma[u]
                if m != adj[sigma[v]]:
                    return None
            return tuple(sigma)

        def below(state, j, w):
            # the first automorphism below w individualized in a right
            # partition at level j
            _, t, trace = levels[j]
            nxt = det.child(state, t, w, trace)[0]
            if nxt is None:
                return None
            if j + 1 == len(levels):
                return image(nxt[0])
            t = levels[j + 1][1]
            for x in nxt[0][t : t + nxt[2][t]]:
                sigma = below(nxt, j + 1, x)
                if sigma is not None:
                    return sigma
            return None

        for k in reversed(range(len(levels))):
            state, t, _ = levels[k]
            fixing = list(group)
            for w in state[0][t + 1 : t + state[2][t]]:
                tau = below(state, k, w)
                if tau is not None:
                    group += [tuple(tau[x] for x in h) for h in fixing]
                    if len(group) > AUTOMORPHISMS:
                        raise _Stopped
    except _Stopped:
        pass
    return group[1 : AUTOMORPHISMS + 1]

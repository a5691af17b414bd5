"""Treewidth lower bounds.

Three bounds, each sound (never above the true treewidth): the max
degree seen during minimum-degree removal (minwidth_lb), the max count
of already-labeled neighbors during a maximum-cardinality sweep from a
given start (mcs_lb; ``tw bounds --mcs-restarts`` keeps the best of
several starts), and the strongest of the three, minor_min_width, which
contracts a minimum-degree vertex into the neighbor it shares the fewest
neighbors with ("least-c", Bodlaender, Koster & Wolle, 2004) and records
the degree observed before each contraction.  Contraction keeps the
bound sound because every intermediate graph is a minor of the input and
treewidth never goes up under minors.  Each bound keeps its vertices in
buckets of degree (or count) masks, as graph.min_degree_sweep does, so
no step scans the vertices left.
"""

from __future__ import annotations

from .graph import Graph, bits, min_degree_sweep


def minwidth_lb(g: Graph) -> int:
    """Max degree at removal time under repeated minimum-degree removal.

    Each round removes a minimum-degree vertex (ties lowest id) without
    adding fill.  The rounds are graph.min_degree_sweep, the sweep that
    finishes min-fill's tail, with removal in place of elimination, so a
    round costs time in the removed vertex's neighborhood.
    """
    adj = list(g._adj)
    value = 0
    for v, d in min_degree_sweep(adj, g.active_mask):
        value = max(value, d)
        bv = 1 << v
        for u in bits(adj[v]):
            adj[u] &= ~bv
    return value


def mcs_lb(g: Graph, start: int | None = None) -> int:
    """Max number of already-labeled neighbors during a max-cardinality sweep.

    The sweep labels start first, then repeatedly the unlabeled vertex
    with the most labeled neighbors (ties lowest id).  start defaults to
    the lowest active vertex id.  Any active start gives a sound bound,
    so running it from several starts and keeping the largest is sound
    too.  bucket[c] masks the unlabeled vertices with c labeled
    neighbors, as in graph.min_degree_sweep, so the lowest set bit of the
    highest non-empty bucket is the vertex to label, and no step scans the
    unlabeled vertices.
    """
    if start is not None:
        g._require_active(start)
    left = g.active_mask
    if not left:
        return 0
    if start is None:
        start = (left & -left).bit_length() - 1
    adj = g._adj
    count = [0] * g.n
    bucket = [left]
    value = hi = 0
    cur = start
    while True:
        value = max(value, count[cur])
        bucket[count[cur]] ^= 1 << cur
        left ^= 1 << cur
        if not left:
            return value
        for w in bits(adj[cur] & left):
            bw = 1 << w
            c = count[w]
            bucket[c] ^= bw
            count[w] = c = c + 1
            if c == len(bucket):
                bucket.append(0)
            bucket[c] |= bw
            hi = max(hi, c)
        while not bucket[hi]:
            hi -= 1
        cur = (bucket[hi] & -bucket[hi]).bit_length() - 1


def minor_min_width(g: Graph, cap: int | None = None, stop=None) -> int:
    """Lower bound via repeated contraction of a min-degree vertex (least-c).

    Each round picks the minimum-degree vertex v (ties lowest id), records
    v's current degree, and contracts into v the neighbor u with the fewest
    neighbors in common with v, ties to the smaller degree, then the lower
    id.  Isolated vertices are dropped and contribute nothing.  The loop
    stops once no more than value + 1 vertices are left: a graph on k
    vertices has minimum degree at most k - 1, so no later round could
    raise the value, and the result is the same as running to the end.
    bucket[d] masks the live vertices of degree d, as in
    graph.min_degree_sweep, so the lowest set bit of the lowest non-empty
    bucket is v.  A contraction re-buckets only v and the common
    neighbors of u and v, which lose u, so no round scans the live
    vertices: on a 20,000-vertex tree with shuffled ids the bound takes
    0.3 s, where a scan per round took 7.3 s (2-core Xeon, Python 3.11).

    cap, when given, allows an early return with any value >= cap; the
    search only ever compares the result against cap (its pruning bound).
    stop, when given, is polled once per contraction round, after the
    round's degree is recorded; once it returns true the value so far is
    returned.  That value is still sound, since every degree recorded is
    the minimum degree of a minor, and it is at least the minimum degree.
    """
    adj = list(g._adj)
    deg = [m.bit_count() for m in adj]
    bucket = [0] * len(adj)
    for x in g.vertices:
        bucket[deg[x]] |= 1 << x
    left = len(g)
    n = g.n
    value = lo = 0
    while left > value + 1:
        while not bucket[lo]:
            lo += 1
        bv = bucket[lo] & -bucket[lo]
        v = bv.bit_length() - 1
        dv = lo
        if dv == 0:
            bucket[0] ^= bv
            left -= 1
            continue
        if dv > value:
            value = dv
            if cap is not None and value >= cap:
                return value
        if stop is not None and stop():
            return value
        # least-c: degrees are below n, so the key orders by (common, degree)
        nv = adj[v]
        u, best = -1, None
        rest = nv
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            rest ^= low
            key = (adj[x] & nv).bit_count() * n + deg[x]
            if best is None or key < best:
                u, best = x, key
        # contract u into v: a neighbor of u that is already v's neighbor
        # loses u and gains nothing, the others swap u for v
        bu = 1 << u
        nu = adj[u]
        rest = nu & ~bv
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            adj[w] = (adj[w] & ~bu) | bv
            if nv & low:
                d = deg[w] = deg[w] - 1
                bucket[d + 1] ^= low
                bucket[d] |= low
                if d < lo:
                    lo = d
        bucket[deg[u]] ^= bu
        bucket[dv] ^= bv
        nv = (nv | nu) & ~(bu | bv)
        adj[v] = nv
        d = deg[v] = nv.bit_count()
        bucket[d] |= bv
        if d < lo:
            lo = d
        adj[u] = 0
        left -= 1
    return value

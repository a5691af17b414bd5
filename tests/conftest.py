"""Shared graph builders, plain graph references and engine drivers.

neighbors, adjacent, degree and fill_edges read a graph through
g.edges() alone, so that they stay independent of the engine's masks.
induced keeps a graph's ids and deactivates the rest.  run_reductions
drives the solver's own forced-rule fixed point.
"""

import itertools

from twbb import Graph
from twbb.reduction import _reduce_masks


def clique(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    """Center 0 with the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    return Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )


def disjoint_union(*graphs):
    offset = 0
    edges = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def induced(g, vertices):
    """The subgraph of g on the given active vertices, keeping g's ids."""
    keep = 0
    for v in vertices:
        assert (g.active_mask >> v) & 1, v
        keep |= 1 << v
    adj = [g._adj[v] & keep if (keep >> v) & 1 else 0 for v in range(g.n)]
    return Graph._from_masks(g.n, adj, keep)


def neighbors(g, v):
    return {b if a == v else a for a, b in g.edges() if v in (a, b)}


def adjacent(g, u, v):
    return (min(u, v), max(u, v)) in g.edges()


def degree(g, v):
    return len(neighbors(g, v))


def fill_edges(g, v):
    """Pairs (a, b), a < b, of v's neighbors that eliminating v would connect."""
    edges = set(g.edges())
    nb = sorted(neighbors(g, v))
    return {e for e in itertools.combinations(nb, 2) if e not in edges}


def run_reductions(g, g_value=0, lb=0, ub=None, reductions=True):
    """The solver's forced rules on a copy of g's masks.

    Returns (reduced graph, forced vertices in order, g value, added edges).
    """
    adj = list(g._adj)
    active, g_value, forced, added = _reduce_masks(adj, g.active_mask, g_value, lb, ub, reductions)
    return Graph._from_masks(g.n, adj, active), tuple(v for v, _ in forced), g_value, set(added)

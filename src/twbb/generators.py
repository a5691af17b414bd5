"""Instance generators and named graph constructions.

All randomness comes from ``random.Random`` seeded with the spec's seed
(CPython's Mersenne Twister), so every spec maps to one byte-identical
graph on any platform.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .graph import Graph, GraphError

__all__ = [
    "PartialKTreeSpec",
    "RandomGraphSpec",
    "gen_partial_ktree",
    "gen_random",
    "mycielski",
    "queen_graph",
]


@dataclass(frozen=True)
class RandomGraphSpec:
    """n vertices with m edges sampled uniformly without replacement."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"negative vertex count: {self.n}")
        limit = self.n * (self.n - 1) // 2
        if not 0 <= self.m <= limit:
            raise GraphError(f"edge count {self.m} outside 0..{limit}")


@dataclass(frozen=True)
class PartialKTreeSpec:
    """A random k-tree on n vertices with p percent of its edges removed."""

    n: int
    k: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 0 or self.n < self.k + 1:
            raise GraphError(f"need n >= k+1, got n={self.n} k={self.k}")
        if not 0 <= self.p <= 100:
            raise GraphError(f"removal percentage {self.p} outside 0..100")


def gen_random(spec: RandomGraphSpec) -> Graph:
    """Uniform random graph; connectivity is not enforced.

    Samples m ranks into the lexicographic list of vertex pairs and
    unranks each one in closed form, so it draws the same graph as
    sampling that list, without building it.  Row i holds the pairs
    (i, j), j > i, and the q = n - 2 - i rows after it hold q(q + 1) / 2
    pairs; rank k lies in the row whose q is the largest with
    q(q + 1) / 2 <= total - 1 - k.
    """
    rng = random.Random(spec.seed)
    n = spec.n
    total = n * (n - 1) // 2
    edges = []
    for k in rng.sample(range(total), spec.m):
        i = n - 2 - (math.isqrt(8 * (total - 1 - k) + 1) - 1) // 2
        edges.append((i, k + 1 - i * (2 * n - i - 3) // 2))
    return Graph(n, edges)


def gen_partial_ktree(spec: PartialKTreeSpec) -> Graph:
    """Random k-tree minus floor(p percent) of its edges.

    The k-tree grows from K_{k+1} by repeatedly attaching a fresh vertex
    to a k-clique chosen uniformly among the k-cliques created by the
    construction itself (the k-subsets of the initial clique, then the
    k-cliques each attachment spawns).
    """
    rng = random.Random(spec.seed)
    n, k = spec.n, spec.k
    edges = set(itertools.combinations(range(k + 1), 2))
    cliques = [frozenset(c) for c in itertools.combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        q = cliques[rng.randrange(len(cliques))]
        for u in q:
            edges.add((u, v))
        for u in q:
            cliques.append((q - {u}) | {v})
    remove = len(edges) * spec.p // 100
    if remove:
        dropped = set(rng.sample(sorted(edges), remove))
        edges -= dropped
    return Graph(n, sorted(edges))


def mycielski(g: Graph) -> Graph:
    """Mycielskian of g: one shadow per vertex plus an apex.

    Raises the chromatic number without creating triangles; iterating it
    on C_5 yields the classic myciel benchmark family.  Shadow ids are
    offset by g.n, so every id of g must be active: raises GraphError
    otherwise.
    """
    n = g.n
    if len(g) != n:
        raise GraphError(f"mycielski needs every id active, got {len(g)} of {n}")
    base = list(g.edges())
    out = list(base)
    for u, v in base:
        out.append((u, n + v))
        out.append((v, n + u))
    for i in range(n):
        out.append((n + i, 2 * n))
    return Graph(2 * n + 1, out)


def queen_graph(rows: int, cols: int | None = None) -> Graph:
    """Queen moves on a rows x cols board; vertices are squares, row-major."""
    if cols is None:
        cols = rows
    if rows < 0 or cols < 0:
        raise GraphError(f"negative board size: {rows} x {cols}")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                rr, cc = r + dr, c + dc
                while 0 <= rr < rows and 0 <= cc < cols:
                    b = rr * cols + cc
                    edges.add((a, b) if a < b else (b, a))
                    rr += dr
                    cc += dc
    return Graph(rows * cols, sorted(edges))

"""Tree decompositions built from elimination orders, and their checker.

An elimination order of width w yields a tree decomposition of width w:
eliminate along the order, take one bag per vertex (the vertex plus its
neighbors when it is eliminated), and hang each bag on the bag of the
earliest of those neighbors.  ``validate_decomposition`` checks the
result independently and is used to vouch for every decomposition this
package emits.  It searches no graph: one union-find pass over the tree
edges finds a cycle, and each vertex's bags form a subtree exactly when
one fewer tree edge than it has bags joins two of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Graph, bits, eliminations

__all__ = [
    "TreeDecomposition",
    "ValidationReport",
    "build_decomposition",
    "validate_decomposition",
]


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by node id plus the edges of the bag tree."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        """Max bag size minus one; -1 for the empty decomposition."""
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_decomposition; falsy when invalid."""

    valid: bool
    problem: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def build_decomposition(g: Graph, order) -> TreeDecomposition:
    """Turn an elimination order into a tree decomposition of equal width.

    Eliminates along the order by graph.eliminations, the pass
    width_of_order reads its width from, so the two agree.  Bag i
    holds order[i] plus its neighbors when it is eliminated, and attaches
    to the bag of the earliest of those neighbors; a bag with none
    attaches to the next bag so the tree stays connected even when the
    graph is not.
    """
    vs = tuple(order)
    pos = {v: i for i, v in enumerate(vs)}
    bags = []
    edges = []
    for i, nb in enumerate(eliminations(g, vs)):
        later = list(bits(nb))
        bags.append(frozenset((vs[i], *later)))
        if i < len(vs) - 1:
            edges.append((i, min((pos[u] for u in later), default=i + 1)))
    return TreeDecomposition(tuple(bags), tuple(edges))


def validate_decomposition(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """Independently check a decomposition against its graph.

    Checks, in order: the bag graph is a tree, every bag holds only active
    vertices, every active vertex appears in some bag, every edge lies
    inside some bag, and each vertex's bags induce a connected subtree.
    The report names the first violation found.
    """
    bags = [frozenset(b) for b in td.bags]
    nb = len(bags)
    edges = list(td.tree_edges)

    if nb == 0:
        if edges:
            return ValidationReport(False, "tree_edges given but there are no bags")
    else:
        seen = set()
        for a, b in edges:
            if not (0 <= a < nb and 0 <= b < nb) or a == b:
                return ValidationReport(
                    False, f"tree edge ({a}, {b}) does not join two distinct bags"
                )
            key = (min(a, b), max(a, b))
            if key in seen:
                return ValidationReport(False, f"duplicate tree edge {key}")
            seen.add(key)
        if len(edges) != nb - 1:
            return ValidationReport(
                False,
                f"tree_edges do not form a tree: {len(edges)} edges for {nb} bags",
            )
        # nb - 1 edges form a tree exactly when none closes a cycle
        up = list(range(nb))

        def root(a: int) -> int:
            while up[a] != a:
                up[a] = up[up[a]]
                a = up[a]
            return a

        for a, b in edges:
            a, b = root(a), root(b)
            if a == b:
                return ValidationReport(False, "tree_edges do not form a connected tree")
            up[a] = b

    active = set(g.vertices)
    for i, bag in enumerate(bags):
        foreign = bag - active
        if foreign:
            return ValidationReport(
                False, f"bag {i} contains non-vertex {min(foreign)}"
            )
    in_bags: dict[int, set[int]] = {v: set() for v in active}
    for i, bag in enumerate(bags):
        for v in bag:
            in_bags[v].add(i)
    for v in g.vertices:
        if not in_bags[v]:
            return ValidationReport(False, f"vertex {v} is in no bag")

    for u, v in g.edges():
        if not (in_bags[u] & in_bags[v]):
            return ValidationReport(False, f"edge ({u}, {v}) is not inside any bag")

    # in a tree, the k bags holding v are connected exactly when k - 1
    # tree edges join two of them
    joined = Counter(v for a, b in edges for v in bags[a] & bags[b])
    for v in g.vertices:
        if joined[v] != len(in_bags[v]) - 1:
            return ValidationReport(
                False, f"bags containing vertex {v} do not form a connected subtree"
            )

    return ValidationReport(True, None)

"""Graph and decomposition file formats.

Readers: DIMACS coloring files (``.col``, ``p edge`` header with ``e u v``
lines) and PACE treewidth graphs (``.gr``, ``p tw`` header with bare edge
lines).  Writers: PACE graphs and PACE tree decompositions (``.td``).
All formats are 1-indexed on disk; graphs in memory are 0-indexed.  One
leading byte-order mark is ignored, and lines are split into tokens on
any run of whitespace.
"""

from __future__ import annotations

import logging
import sys

from .decomposition import TreeDecomposition
from .graph import Graph

__all__ = [
    "ParseError",
    "parse_dimacs_col",
    "parse_pace_gr",
    "parse_pace_td",
    "write_pace_gr",
    "write_pace_td",
]

log = logging.getLogger("twbb.formats")


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    """Yield (line number, line, tokens) for each line that is neither blank nor a comment.

    One leading byte-order mark is dropped first.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if line and line[0] != "c":
            yield lineno, line, line.split()


def _ints(lineno: int, line: str, tokens: list[str], problem: str) -> list[int]:
    """The tokens of a line as integers; any other token is a ParseError naming the problem."""
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise ParseError(lineno, f"{problem}: {line!r}") from None


def _header(lineno, line, parts, seen, name, kinds, size) -> list[int]:
    """The counts of a file's one header line: size tokens, the second one in kinds.

    seen says whether a header came before; name is the header's name in messages.
    """
    if seen:
        raise ParseError(lineno, f"duplicate {name} header")
    if len(parts) != size or parts[1] not in kinds:
        raise ParseError(lineno, f"malformed {name} header: {line!r}")
    counts = _ints(lineno, line, parts[2:], f"malformed {name} header")
    if min(counts) < 0:
        raise ParseError(lineno, f"negative counts in header: {line!r}")
    return counts


def _parse_graph(text: str, kinds: tuple[str, ...], edge_prefix: str | None) -> Graph:
    """The graph of a file whose header's second token is in kinds.

    Edge lines start with edge_prefix, if there is one.  Graph merges
    duplicate edges, in either orientation.
    """
    n = None
    edges = []
    for lineno, line, parts in _content_lines(text):
        if parts[0] == "p":
            n, declared_m = _header(lineno, line, parts, n is not None, "problem", kinds, 4)
            if n > sys.maxsize:
                raise ParseError(lineno, f"vertex count too large: {line!r}")
            continue
        if edge_prefix is not None:
            if parts[0] != edge_prefix:
                raise ParseError(lineno, f"unrecognized line: {line!r}")
            parts = parts[1:]
        if len(parts) != 2:
            raise ParseError(lineno, f"expected an edge line, got: {line!r}")
        if n is None:
            raise ParseError(lineno, "edge line before problem header")
        u, v = _ints(lineno, line, parts, "non-integer endpoint")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"endpoint out of range 1..{n}: {line!r}")
        if u == v:
            raise ParseError(lineno, f"self-loop on vertex {u}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError(1, "missing problem header")
    g = Graph(n, edges)
    m = g.num_edges()
    if declared_m != m:
        log.warning("header declares %d edges but %d distinct edges parsed", declared_m, m)
    return g


def parse_dimacs_col(text: str) -> Graph:
    """Parse a DIMACS coloring file; duplicate edges are merged."""
    return _parse_graph(text, ("edge", "edges", "col"), "e")


def parse_pace_gr(text: str) -> Graph:
    """Parse a PACE treewidth graph file; duplicate edges are merged."""
    return _parse_graph(text, ("tw",), None)


def write_pace_gr(g: Graph) -> str:
    """Serialize a graph in PACE form; inactive vertices become isolated."""
    lines = [f"p tw {g.n} {g.num_edges()}"]
    for u, v in g.edges():
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def write_pace_td(td: TreeDecomposition, n: int) -> str:
    """Serialize a tree decomposition in PACE form.

    n is the vertex count of the underlying graph, recorded in the header.
    """
    max_bag = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        inside = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i} {inside}".rstrip())
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def parse_pace_td(text: str) -> tuple[TreeDecomposition, int]:
    """Parse a PACE tree decomposition; returns (decomposition, graph n)."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges = []
    for lineno, line, parts in _content_lines(text):
        if parts[0] == "s":
            header = _header(lineno, line, parts, header is not None, "solution", ("td",), 5)
            header_line = lineno
            continue
        if header is None:
            raise ParseError(lineno, "content before solution header")
        num_bags, _, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(lineno, f"malformed bag line: {line!r}")
            bag_id, *inside = _ints(lineno, line, parts[1:], "malformed bag line")
            if not (1 <= bag_id <= num_bags):
                raise ParseError(lineno, f"bag id out of range: {bag_id}")
            if bag_id in bags:
                raise ParseError(lineno, f"duplicate bag {bag_id}")
            if any(not (1 <= v <= n) for v in inside):
                raise ParseError(lineno, f"bag vertex out of range 1..{n}")
            bags[bag_id] = frozenset(v - 1 for v in inside)
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected a tree edge line, got: {line!r}")
        a, b = _ints(lineno, line, parts, "non-integer bag id")
        if not (1 <= a <= num_bags and 1 <= b <= num_bags):
            raise ParseError(lineno, f"tree edge out of range: {line!r}")
        edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError(1, "missing solution header")
    num_bags, max_bag, n = header
    if len(bags) < num_bags:
        # bag ids are distinct and in range, so one of the first len(bags) + 1 is missing
        missing = next(i for i in range(1, len(bags) + 2) if i not in bags)
        raise ParseError(header_line, f"bag {missing} never defined")
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    largest = max((len(b) for b in ordered), default=0)
    if largest != max_bag:
        raise ParseError(header_line, f"header max bag size {max_bag}, largest bag {largest}")
    return TreeDecomposition(ordered, tuple(edges)), n

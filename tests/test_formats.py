"""Reading and writing coloring graphs, PACE graphs, and decompositions."""

import logging
import random

import pytest
from conftest import clique, cycle, grid, path
from twbb import (
    Graph,
    ParseError,
    TreeDecomposition,
    build_decomposition,
    parse_dimacs_col,
    parse_pace_gr,
    parse_pace_td,
    validate_decomposition,
    write_pace_gr,
    write_pace_td,
)

COL_K3 = """c a triangle
p edge 3 3
e 1 2
e 2 3
e 1 3
"""


def test_parse_col():
    g = parse_dimacs_col(COL_K3)
    assert g == clique(3)


def test_parse_col_header_variants():
    for token in ("edge", "edges", "col"):
        g = parse_dimacs_col(f"p {token} 2 1\ne 1 2\n")
        assert g.n == 2 and g.edges() == [(0, 1)]


def test_duplicate_edges_merge():
    g = parse_dimacs_col("p edge 2 3\ne 1 2\ne 1 2\ne 2 1\n")
    assert g.num_edges() == 1


def test_edge_count_mismatch_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="twbb.formats"):
        parse_dimacs_col("p edge 2 3\ne 1 2\n")
    assert any("declares 3 edges but 1" in m for m in caplog.messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="twbb.formats"):
        parse_dimacs_col("p edge 2 1\ne 1 2\n")
    assert not caplog.messages


def test_parse_gr():
    g = parse_pace_gr("c path\np tw 3 2\n1 2\n2 3\n\n")
    assert g == path(3)


def test_byte_order_mark_is_ignored():
    gr = "c path\np tw 3 2\n1 2\n2 3\n"
    col = "p edge 3 2\ne 1 2\ne 2 3\n"
    td = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
    assert parse_pace_gr("\ufeff" + gr) == parse_pace_gr(gr) == path(3)
    assert parse_dimacs_col("\ufeff" + col) == parse_dimacs_col(col) == path(3)
    assert parse_pace_td("\ufeff" + td) == parse_pace_td(td)
    # only one, and only at the start
    with pytest.raises(ParseError, match="^line 1: "):
        parse_pace_gr("\ufeff\ufeff" + gr)


def _messy_text(rng, n, edges, declared, dimacs):
    """A graph file with the given header counts, written as untidily as the formats allow.

    Each edge appears once or more, in either orientation; comment and blank
    lines, tabs, runs of spaces and CRLF line ends fall in between.
    """
    seps = (" ", "\t", "  ", " \t ")
    kind, prefix = ("edge", ["e"]) if dimacs else ("tw", [])
    header = "p" + rng.choice(seps) + rng.choice(seps).join((kind, str(n), str(declared)))
    lines = ["c generated", "", header]
    body = []
    for u, v in edges:
        for _ in range(rng.choice((1, 1, 2, 3))):
            a, b = (u, v) if rng.random() < 0.5 else (v, u)
            body.append(rng.choice(seps).join(prefix + [str(a + 1), str(b + 1)]))
    rng.shuffle(body)
    for line in body:
        lines.append(rng.choice(("", " ", "\t")) + line + rng.choice(("", " ", "\t")))
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "c note", "   ", "c\t1 2")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n"))


def test_messy_files_parse_to_their_graph(caplog):
    rng = random.Random(11)
    for _ in range(400):
        n = rng.choice((0, 1, 2, rng.randint(3, 14)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < rng.random()]
        expected = Graph(n, edges)
        declared = rng.choice((len(edges), len(edges), len(edges) + 1, 2 * len(edges)))
        for dimacs, parse in ((False, parse_pace_gr), (True, parse_dimacs_col)):
            text = _messy_text(rng, n, edges, declared, dimacs)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="twbb.formats"):
                assert parse(text) == expected, text
            warned = any("distinct edges parsed" in m for m in caplog.messages)
            assert warned == (declared != len(edges)), text


# Malformed DIMACS files: (text, the line it fails on) and the message.
COL_ERRORS = {
    ("p edge 2 1\ne 1 1\n", 2): "self-loop on vertex 1",
    ("p edge 2 1\ne 1 3\n", 2): "endpoint out of range 1..2: 'e 1 3'",
    ("p edge 2 1\ne 1 x\n", 2): "non-integer endpoint: 'e 1 x'",
    ("e 1 2\np edge 2 1\n", 1): "edge line before problem header",
    ("", 1): "missing problem header",
    ("c nothing\n", 1): "missing problem header",
    ("p edge 2 1\np edge 2 1\n", 2): "duplicate problem header",
    ("p foo 2 1\ne 1 2\n", 1): "malformed problem header: 'p foo 2 1'",
    ("p edge -1 0\n", 1): "negative counts in header: 'p edge -1 0'",
    ("p edge 2 1\nx 1 2\n", 2): "unrecognized line: 'x 1 2'",
    ("p edge 99999999999999999999 0\n", 1): (
        "vertex count too large: 'p edge 99999999999999999999 0'"
    ),
}


@pytest.mark.parametrize("text,lineno", list(COL_ERRORS))
def test_col_errors(text, lineno):
    with pytest.raises(ParseError) as info:
        parse_dimacs_col(text)
    assert info.value.line == lineno
    assert str(info.value) == f"line {lineno}: {COL_ERRORS[text, lineno]}"


def test_gr_errors():
    cases = (
        ("p tw 3 2\n1 2 3\n", 2),
        ("p edge 3 2\n1 2\n", 1),
        # a vertex count that no list can hold
        ("c big\np tw 99999999999999999999 0\n", 2),
    )
    for text, lineno in cases:
        with pytest.raises(ParseError) as info:
            parse_pace_gr(text)
        assert info.value.line == lineno


def test_gr_round_trip():
    rng = random.Random(3)
    graphs = [clique(5), cycle(7), grid(3, 4), Graph(4, []), Graph(0, [])]
    for _ in range(20):
        n = rng.randint(1, 12)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        graphs.append(Graph(n, [e for e in pairs if rng.random() < 0.3]))
    for g in graphs:
        assert parse_pace_gr(write_pace_gr(g)) == g


def test_gr_write_inactive_vertices():
    g = cycle(4).eliminate(0)
    text = write_pace_gr(g)
    assert text.splitlines()[0] == "p tw 4 3"
    back = parse_pace_gr(text)
    assert set(back.edges()) == set(g.edges())


def test_td_round_trip():
    for g in (cycle(4), grid(2, 3), clique(5)):
        td = build_decomposition(g, sorted(g.vertices))
        back, n = parse_pace_td(write_pace_td(td, g.n))
        assert back == td and n == g.n
        assert validate_decomposition(g, back)


def test_td_edgeless_header():
    g = Graph(3, [])
    td = build_decomposition(g, (0, 1, 2))
    text = write_pace_td(td, 3)
    lines = text.splitlines()
    assert lines[0] == "s td 3 1 3"
    assert lines[1:4] == ["b 1 1", "b 2 2", "b 3 3"]
    back, n = parse_pace_td(text)
    assert back == td and n == 3


def test_td_empty():
    td = TreeDecomposition((), ())
    text = write_pace_td(td, 0)
    assert text == "s td 0 0 0\n"
    back, n = parse_pace_td(text)
    assert back == td and n == 0


def test_td_empty_bag_round_trips():
    td = TreeDecomposition((frozenset(), frozenset({0})), ((0, 1),))
    back, n = parse_pace_td(write_pace_td(td, 1))
    assert back == td and n == 1


TD_ERRORS = [
    ("b 1 1\ns td 1 1 1\n", 1),
    ("s td 1 1 1\ns td 1 1 1\nb 1 1\n", 2),
    ("s td x 1 1\nb 1 1\n", 1),
    ("s td 1 1\nb 1 1\n", 1),
    ("s td 1 1 1\nb 1 1\nb 1 1\n", 3),
    ("s td 1 1 1\nb 2 1\n", 2),
    ("s td 1 1 1\nb\n", 2),
    ("s td 1 1 1\nb 1 5\n", 2),
    ("s td 2 1 1\nb 1 1\nb 2 1\n1 3\n", 4),
    ("s td 1 1 1\nb 1 1\n1 2 3\n", 3),
    ("s td 2 1 1\nb 1 1\n", 1),
    ("s td 1 2 1\nb 1 1\n", 1),
    ("", 1),
]


@pytest.mark.parametrize("text,lineno", TD_ERRORS, ids=[text for text, _ in TD_ERRORS])
def test_td_errors(text, lineno):
    with pytest.raises(ParseError) as info:
        parse_pace_td(text)
    assert info.value.line == lineno
    assert f"line {lineno}:" in str(info.value)


def test_td_missing_bag_costs_what_the_file_holds():
    # a header may declare far more bags than the file holds
    cases = (
        ("s td 1000000000000 0 0\n", 1),
        ("s td 1000000000000 1 1\nb 1 1\nb 2\n", 3),
        ("s td 4 1 1\nb 4 1\nb 1\nb 2\n", 3),
    )
    for text, missing in cases:
        with pytest.raises(ParseError, match=f"^line 1: bag {missing} never defined$"):
            parse_pace_td(text)


def test_td_header_checks_point_at_the_header():
    for text in ("c note\ns td 2 1 1\nb 1 1\n", "c note\ns td 1 2 1\nb 1 1\n"):
        with pytest.raises(ParseError) as info:
            parse_pace_td(text)
        assert info.value.line == 2


def test_td_negative_header_counts():
    for text in ("s td 1 0 -3\nb 1\n", "s td -2 0 4\n"):
        with pytest.raises(ParseError) as info:
            parse_pace_td(text)
        assert info.value.line == 1

"""Command line interface, run in process through main()."""

import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from conftest import cycle
import twbb.cli
from twbb import (
    RandomGraphSpec,
    SolverConfig,
    gen_random,
    mycielski,
    parse_pace_gr,
    parse_pace_td,
    queen_graph,
    validate_decomposition,
    width_of_order,
    write_pace_gr,
)
from twbb.cli import RULE_FLAGS, main

C5_COL = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"


@pytest.fixture
def c5_gr(tmp_path):
    p = tmp_path / "c5.gr"
    p.write_text(write_pace_gr(cycle(5)))
    return str(p)


@pytest.fixture
def myciel3_gr(tmp_path):
    p = tmp_path / "myciel3.gr"
    p.write_text(write_pace_gr(mycielski(cycle(5))))
    return str(p)


def test_solve_text_output(c5_gr, capsys):
    assert main(["solve", c5_gr]) == 0
    out = capsys.readouterr().out
    assert "width 2 (optimal)" in out
    assert "order:" in out


def test_solve_json(myciel3_gr, capsys):
    assert main(["solve", myciel3_gr, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_width"] == 5 and payload["optimal"]
    assert payload["n"] == 11 and payload["m"] == 20
    g = mycielski(cycle(5))
    assert width_of_order(g, payload["best_order"]) == 5
    widths = [step["width"] for step in payload["anytime_trace"]]
    assert widths == sorted(set(widths), reverse=True)
    assert widths[-1] == 5
    for step in payload["anytime_trace"]:
        assert width_of_order(g, step["order"]) == step["width"]


def test_solve_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(C5_COL))
    assert main(["solve", "-"]) == 0
    assert "width 2 (optimal)" in capsys.readouterr().out


def test_solve_writes_decomposition(myciel3_gr, tmp_path, capsys):
    td_path = tmp_path / "out.td"
    assert main(["solve", myciel3_gr, "--td", str(td_path)]) == 0
    td, n = parse_pace_td(td_path.read_text())
    g = mycielski(cycle(5))
    assert n == g.n
    assert td.width == 5
    assert validate_decomposition(g, td)


def test_solve_time_limited_exit_code(tmp_path, capsys):
    p = tmp_path / "queen5.gr"
    p.write_text(write_pace_gr(queen_graph(5)))
    assert main(["solve", str(p), "--time-limit", "0"]) == 2
    out = capsys.readouterr().out
    assert "best found (lb 12)" in out
    for bad in ("nan", "-1"):
        assert main(["solve", str(p), "--time-limit", bad]) == 1
        assert "error: time limit" in capsys.readouterr().err


@pytest.fixture
def solve_configs(monkeypatch):
    """The SolverConfig of every solve that tw solve runs, in order."""
    seen = []
    real = twbb.cli.solve
    monkeypatch.setattr(
        twbb.cli, "solve", lambda g, cfg, **kw: seen.append(cfg) or real(g, cfg, **kw)
    )
    return seen


def test_solve_defaults_are_the_library_defaults(c5_gr, solve_configs, capsys):
    assert main(["solve", c5_gr]) == 0
    assert solve_configs == [SolverConfig()]


def test_each_solve_flag_sets_its_field(c5_gr, solve_configs, capsys):
    # every rule of SolverConfig has exactly one flag that turns it off
    rule_fields = {f.name for f in fields(SolverConfig) if f.type in (bool, "bool")}
    assert {field for field, _, _ in RULE_FLAGS} == rule_fields
    for field, flag, _ in RULE_FLAGS:
        assert main(["solve", c5_gr, flag]) == 0
        assert solve_configs.pop() == replace(SolverConfig(), **{field: False})
    capsys.readouterr()


def test_solve_all_toggles(c5_gr, capsys):
    args = [
        "solve",
        c5_gr,
        "--no-reduce",
        "--no-edge-add",
        "--no-prune-sibling",
        "--no-prune-mutual",
        "--no-prune-fill",
        "--no-successor",
    ]
    assert main(args) == 0
    assert "width 2 (optimal)" in capsys.readouterr().out


def test_bounds(myciel3_gr, capsys):
    assert main(["bounds", myciel3_gr, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mw"], payload["mcslb"], payload["mmw"]) == (3, 3, 4)
    assert main(["bounds", myciel3_gr, "--mcs-restarts", "11"]) == 0
    text = capsys.readouterr().out
    assert "mmw    4" in text and "best of 11 starts" in text


def test_bounds_reports_the_starts_tried(tmp_path, capsys):
    # a graph has only len(g) vertices to start the sweep from
    p = tmp_path / "g.gr"
    p.write_text(write_pace_gr(gen_random(RandomGraphSpec(9, 16, seed=554))))
    assert main(["bounds", str(p), "--mcs-restarts", "100"]) == 0
    assert "best of 9 starts: 3" in capsys.readouterr().out


def test_bounds_needs_a_start(c5_gr, capsys):
    assert main(["bounds", c5_gr, "--mcs-restarts", "0"]) == 1
    assert "error: restarts must be at least 1" in capsys.readouterr().err


def test_oracle(c5_gr, capsys):
    assert main(["oracle", c5_gr]) == 0
    assert "treewidth 2" in capsys.readouterr().out
    assert main(["oracle", c5_gr, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["treewidth"] == 2 and len(payload["order"]) == 5
    assert main(["oracle", c5_gr, "--limit", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_random(tmp_path, capsys):
    out = tmp_path / "g.gr"
    assert main(["gen", "random", "--n", "15", "--m", "30", "--seed", "2", "--out", str(out)]) == 0
    g = parse_pace_gr(out.read_text())
    assert g.n == 15 and g.num_edges() == 30
    assert main(["gen", "random", "--n", "15", "--m", "30", "--seed", "2"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gen_pktree_stdout(capsys):
    assert main(["gen", "pktree", "--n", "9", "--k", "3"]) == 0
    g = parse_pace_gr(capsys.readouterr().out)
    assert g.n == 9 and g.num_edges() == 3 * 4 // 2 + 5 * 3


def test_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ["bench", "random", "--n", "7", "--m", "10", "--count", "2", "--out", str(out)]
    assert main(args) == 0
    err = capsys.readouterr().err
    agg = json.loads(err)["aggregate"]
    assert agg["count"] == 2 and agg["optimal_rate"] == 1.0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,") and len(lines) == 3


def test_bench_jsonl_stdout(capsys):
    args = ["bench", "pktree", "--n", "8", "--k", "3", "--count", "2", "--format", "jsonl"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["best_width"] == 3
    assert "aggregate" in json.loads(lines[-1])


def test_bench_rejects_count_below_one(capsys):
    for count in ("0", "-2"):
        assert main(["bench", "random", "--n", "7", "--m", "10", "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: count must be at least 1" in captured.err


def test_error_exits(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.gr")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 1\n")
    assert main(["solve", str(bad)]) == 1
    assert "self-loop" in capsys.readouterr().err
    assert main(["gen", "random", "--n", "4", "--m", "99"]) == 1
    assert "error:" in capsys.readouterr().err
    # input that cannot be read is an error, not a traceback
    raw = tmp_path / "raw.gr"
    raw.write_bytes(b"c ok\n\xff\xfe\x00p tw 3 2\n")
    assert main(["solve", str(raw)]) == 1
    assert f"error: line 2: {raw} is not UTF-8 text" in capsys.readouterr().err
    big = tmp_path / "big.gr"
    big.write_text("p tw 99999999999999999999 0\n")
    assert main(["solve", str(big)]) == 1
    assert "error: line 1: vertex count too large" in capsys.readouterr().err


def _python(*args, stdin=None, **kwargs):
    """Run a fresh interpreter that imports this checkout's twbb."""
    pkg_root = str(Path(twbb.__file__).parent.parent)
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
        **kwargs,
    )


def test_a_graph_too_large_to_hold_is_an_error(tmp_path):
    # Graph allocates one mask per declared vertex before the first edge
    # is read: 8 GB here.  The child caps its own address space first,
    # so the allocation fails at once instead of filling memory.
    resource = pytest.importorskip("resource")
    limit = 1500 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    p = tmp_path / "huge.gr"
    p.write_text("p tw 1000000000 0\n")
    proc = _python("-m", "twbb.cli", "solve", str(p), preexec_fn=cap)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: out of memory\n"


def test_main_builds_its_parser_once(c5_gr, capsys):
    assert main(["oracle", c5_gr]) == 0
    parser = twbb.cli._build_parser()
    assert main(["solve", c5_gr]) == 0
    assert twbb.cli._build_parser() is parser


def test_usage_errors_exit_one(capsys):
    usage_errors = (
        [],
        ["solve"],
        ["frobnicate"],
        ["solve", "x", "--ub", "bogus"],
        ["solve", "x", "--ub", "min-fill"],
        ["solve", "x", "--lb", "mmw"],
        ["-v", "solve", "x"],
    )
    for args in usage_errors:
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 1
        capsys.readouterr()


def test_extensionless_header_sniff(tmp_path, capsys):
    p = tmp_path / "instance"
    p.write_text("c comment\np tw 3 2\n1 2\n2 3\n")
    assert main(["oracle", str(p)]) == 0
    assert "treewidth 1" in capsys.readouterr().out
    p.write_text(C5_COL)
    assert main(["oracle", str(p)]) == 0
    assert "treewidth 2" in capsys.readouterr().out


def test_header_sniff_reads_tokens(tmp_path, monkeypatch, capsys):
    # any run of whitespace separates the header's tokens, as in the parsers
    p = tmp_path / "instance"
    for header in ("p\ttw 3 2", "p  tw 3 2", "  p \t tw\t3 2"):
        text = f"c comment\n{header}\n1 2\n2 3\n"
        p.write_text(text)
        assert main(["oracle", str(p)]) == 0
        assert "treewidth 1" in capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["solve", "-"]) == 0
        assert "width 1 (optimal)" in capsys.readouterr().out


def test_byte_order_mark_is_ignored(tmp_path, monkeypatch, capsys):
    gr = write_pace_gr(cycle(5))
    for name, text in (("c5.gr", gr), ("c5.col", C5_COL), ("c5", gr), ("c5", C5_COL)):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["solve", str(p)]) == 0
        assert "width 2 (optimal)" in capsys.readouterr().out
    for text in (gr, C5_COL):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        assert main(["solve", "-"]) == 0
        assert "width 2 (optimal)" in capsys.readouterr().out


def test_bench_seed0_is_the_first_seed(capsys):
    args = ["bench", "random", "--n", "7", "--m", "10", "--count", "2", "--seed0", "3"]
    assert main([*args, "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["instance"] for line in lines[:-1]] == [
        "random-n7-m10-s3",
        "random-n7-m10-s4",
    ]


# Modules that only tw bench or a malformed header needs.
NOT_AT_START = ("logging", "hashlib", "csv", "twbb.bench")


def test_import_loads_only_what_solve_runs():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import twbb.cli\n"
        f"print(sorted(m for m in {NOT_AT_START!r} if m in set(sys.modules) - before))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_solve_leaves_logging_unloaded(c5_gr):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from twbb.cli import main\n"
        f"assert main(['solve', {c5_gr!r}]) == 0\n"
        "print('logging' in set(sys.modules) - before)\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_header_warning_is_the_bare_message_on_stderr():
    # pytest's own log handlers would catch the record in process, so the
    # last-resort handler only shows in a fresh interpreter
    proc = _python("-m", "twbb.cli", "solve", "-", stdin="p tw 3 3\n1 2\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "header declares 3 edges but 1 distinct edges parsed\n"
    assert "width 1 (optimal)" in proc.stdout

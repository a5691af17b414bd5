"""The package names that perfbench/layers.py wraps for `run.py --trace 1`.

The tracer replaces module-level names of the package while a pass runs,
so it only sees calls the package makes through those names.  This test
reads the tracer as it is and checks that every name it wraps still
exists and is still called by an ordinary solve.
"""

import importlib.util
import sys
from pathlib import Path

from conftest import cycle
from twbb import mycielski, write_pace_gr
from twbb.cli import main as cli_main

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_name_the_package_defines(monkeypatch):
    layers = load_layers(monkeypatch)
    for name, owner, attr in layers.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_solve_reaches_every_layer(monkeypatch, tmp_path, capsys):
    layers = load_layers(monkeypatch)
    src = tmp_path / "myciel3.gr"
    src.write_text(write_pace_gr(mycielski(cycle(5))))
    with layers.Tracer() as tracer:
        assert cli_main(["solve", str(src), "--json"]) == 0
    capsys.readouterr()
    spans = tracer.spans()
    for name in (
        "bounds.h",
        "solver.make_children",
        "reduction.reduce",
        "heuristics.min_fill_order",
        "graph.eliminate",
    ):
        assert spans[name]["calls"] > 0, f"{name} recorded no calls"

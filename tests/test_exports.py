"""Every exported name resolves, and the graph layer exports nothing unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import twbb

ROOT = Path(__file__).resolve().parent.parent
GRAPH = ROOT / "src" / "twbb" / "graph.py"


def test_every_exported_name_resolves():
    modules = [twbb] + [
        importlib.import_module(f"twbb.{info.name}")
        for info in pkgutil.iter_modules(twbb.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_star_import():
    namespace = {}
    exec("from twbb import *", namespace)
    assert set(twbb.__all__) <= namespace.keys()


def _referenced(node, skip=()):
    """Names and attribute names used under node, outside the nodes in skip."""
    if node in skip:
        return set()
    out = set()
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= _referenced(child, skip)
    return out


def test_graph_module_keeps_only_what_the_package_calls():
    # The surface: public functions of twbb.graph and public methods and
    # properties of Graph.  A member counts as called when package or
    # benchmark code outside the surface names it, or when the body of a
    # called member does.
    graph = ast.parse(GRAPH.read_text())
    cls = next(d for d in graph.body if isinstance(d, ast.ClassDef) and d.name == "Graph")
    surface = {
        d.name: d
        for d in graph.body + cls.body
        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
    }
    used = _referenced(graph, skip=list(surface.values()))
    for path in sorted((ROOT / "src" / "twbb").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path != GRAPH:
            used |= _referenced(ast.parse(path.read_text()))
    done = set()
    while todo := (used & surface.keys()) - done:
        for name in todo:
            used |= _referenced(surface[name])
        done |= todo
    unused = sorted(surface.keys() - used)
    assert not unused, f"nothing in src/twbb or perfbench calls {unused}"

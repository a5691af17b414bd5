"""Every exported name resolves, and the package defines nothing unused."""

import ast
import importlib
import pkgutil
from pathlib import Path

import twbb

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twbb"
# The brute-force reference the subset DP of exact_treewidth is tested against.
EXEMPT = {("oracle", "exact_treewidth_permutations")}


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


def test_package_keeps_only_what_it_calls():
    # The surface: public top-level functions and classes of every module
    # in src/twbb, and the public methods and properties of public classes.
    # A member counts as called when package or benchmark code outside the
    # surface names it, or when the body of a called member does.
    surface = {}
    code = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        code.append(tree)
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_"):
                surface[(path.stem, d.name)] = d
                if isinstance(d, ast.ClassDef):
                    for m in d.body:
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                            surface[(path.stem, f"{d.name}.{m.name}")] = m
    code += [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*(_referenced(tree, skip=list(surface.values())) for tree in code))
    done = set()
    while todo := {k for k in surface if k[1].rpartition(".")[2] in used} - done:
        for key in todo:
            member = surface[key]
            used |= _referenced(member, skip=[d for d in surface.values() if d is not member])
        done |= todo
    unused = sorted(name for _, name in surface.keys() - done - EXEMPT)
    assert not unused, f"nothing in src/twbb or perfbench calls {unused}"

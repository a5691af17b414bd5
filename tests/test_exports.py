"""Every exported name resolves."""

import importlib
import pkgutil

import twbb


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

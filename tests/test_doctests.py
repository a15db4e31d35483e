"""The examples in the docstrings of ``src/bandkh`` run as tests."""

import doctest
import importlib
import pkgutil

import bandkh


def test_src_doctests_pass():
    modules = [bandkh] + [importlib.import_module(f"bandkh.{info.name}")
                          for info in pkgutil.iter_modules(bandkh.__path__)]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.attempted for r in results) >= 9
    assert sum(r.failed for r in results) == 0

"""Runs the docstring examples of the package modules.

``pytest --doctest-modules`` would also import ``steklovfem.__main__``,
which exits on import, so the modules are listed here instead.
"""

import doctest
import importlib

MODULES = ("mesh", "fem", "eigen", "interp", "analysis", "cli")


def test_docstring_examples():
    results = [doctest.testmod(importlib.import_module(f"steklovfem.{name}"))
               for name in MODULES]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 25

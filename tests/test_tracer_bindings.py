"""The benchmark tracer (perfbench/tracing.py) binds treecast names by string.

A rename in treecast would only surface in a traced benchmark run; this test
makes it fail here instead.  The tracer module is imported, never edited.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("perfbench.tracing")
    assert tracing.FUNCTIONS and tracing.METHODS

    missing = []
    for _, module, attr in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for _, module, cls, attr in tracing.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    # tracing.tree_counts walks trees through these node classes
    boosting = importlib.import_module("treecast.boosting")
    missing += [f"treecast.boosting.{name}" for name in ("Leaf", "Split")
                if not isinstance(getattr(boosting, name, None), type)]
    assert not missing, f"names the benchmark tracer binds are gone: {missing}"

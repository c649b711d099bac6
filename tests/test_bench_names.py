"""The benchmark's tracer wraps avglie functions by name: `BOUNDARIES` and
`COUNTED` in perfbench/tracing.py.  A name that no longer resolves would
crash every traced run, so each must still name a function of its avglie
module.  The tables are read from the source: nothing under perfbench/ is
imported or written."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
TABLES = ("BOUNDARIES", "COUNTED")


def traced_names():
    """(layer, function name) for every entry of the two tables."""
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in TABLES
    }
    assert sorted(tables) == sorted(TABLES)
    return [(layer, name) for t in tables.values() for layer, names in t.items() for name in names]


def test_traced_names_resolve():
    names = traced_names()
    assert names
    missing = [
        f"{layer}.{name}"
        for layer, name in names
        if not callable(getattr(importlib.import_module(f"avglie.{layer}"), name, None))
    ]
    assert missing == []

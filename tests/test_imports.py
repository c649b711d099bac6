"""Every name a module of avglie imports is used in that module.  A change
that moves code between modules tends to leave imports behind.
`__init__` is skipped: it imports names to export them."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "avglie")


def unused_imports(source):
    """The names bound by the imports of source that it never reads,
    sorted; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, prod as product\n"
        "def f(x: osp) -> int:\n"
        "    return comb(x, 2)\n"
    )
    assert unused_imports(source) == ["os", "product"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                names = unused_imports(fh.read())
            if names:
                unused[name] = names
    assert unused == {}


def private_definitions(sources):
    """[(name, times named)] for the private functions, methods and classes
    of the module texts in sources, counting the names, attributes and
    imports of every module outside the definition itself.  A name stands
    for every definition that bears it: a method is not told from another
    class's method of the same name."""
    trees = [ast.parse(text) for text in sources]
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]

    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or (
            node.name if isinstance(node, ast.alias) else None)

    total = {}
    for tree in trees:
        for node in ast.walk(tree):
            total[named(node)] = total.get(named(node), 0) + 1
    # a definition naming itself, as a recursive call does, does not use it
    return [(d.name, total.get(d.name, 0) - sum(named(n) == d.name for n in ast.walk(d)))
            for d in defs]


def test_the_check_finds_unused_helpers():
    sources = [
        "def _used():\n    return 1\n"
        "def _unused():\n    return _unused()\n"
        "class _Kept:\n    def _method(self):\n        pass\n",
        "from m import _used\nx = _used() + m._Kept\n",
    ]
    assert private_definitions(sources) == [
        ("_used", 2), ("_unused", 0), ("_Kept", 1), ("_method", 0)
    ]


def test_every_private_helper_is_used():
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    counts = private_definitions(sources)
    assert len(counts) > 60
    assert sorted(name for name, n in counts if n == 0) == []

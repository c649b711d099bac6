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

"""Every name a module of avglie imports is used in that module, every
private helper is named outside its own body, and every public function,
class or method is exported, named in avglie, or listed with its caller
outside it; an attribute read on a field names no method of another
class.  A change that moves code between modules, or moves a check to
another idiom, tends to leave imports and helpers behind.  `__init__` is
skipped by the import check: it imports names to export them."""

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


def named(node):
    """The name a node reads: a name, an attribute or an import."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or (
        node.name if isinstance(node, ast.alias) else None)


def name_counts(trees, keep=None):
    """How often each name is read, counting only the nodes keep accepts."""
    total = {}
    for tree in trees:
        for node in ast.walk(tree):
            if keep is None or keep(node):
                total[named(node)] = total.get(named(node), 0) + 1
    return total


def times_named(total, d, keep=None):
    # a definition naming itself, as a recursive call does, does not use it
    return total.get(d.name, 0) - sum(
        named(n) == d.name and (keep is None or keep(n)) for n in ast.walk(d))


FIELD_CLASSES = ("Field", "Rationals", "PrimeField")


def off_a_field(node):
    """False for an attribute read on a field, f.x, fld.x, field.x or
    <y>.field.x: it names no method of a class other than the fields."""
    v = getattr(node, "value", None)
    return not (isinstance(node, ast.Attribute) and (
        getattr(v, "id", None) in ("f", "fld", "field") or getattr(v, "attr", None) == "field"))


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
    total = name_counts(trees)
    return [(d.name, times_named(total, d)) for d in defs]


def unnamed_public_definitions(sources):
    """The public module-level functions and classes, and the public
    methods of those classes, of the module texts in sources that no module
    names outside the definition itself, as "name" or "Class.name", sorted.
    The imports of `__init__` count as names, so an exported definition is
    named; as for private helpers, a name stands for every definition that
    bears it, but an attribute read on a field (`off_a_field`) names only a
    method of a field class: `f.neg(x)` names `Field.neg`, not `Matrix.neg`."""
    trees = [ast.parse(text) for text in sources]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node, None))
            if isinstance(node, ast.ClassDef):
                keep = None if node.name in FIELD_CLASSES else off_a_field
                defs += [(f"{node.name}.{m.name}", m, keep) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
    totals = {keep: name_counts(trees, keep) for keep in (None, off_a_field)}
    return sorted(q for q, d, keep in defs
                  if not d.name.startswith("_") and times_named(totals[keep], d, keep) == 0)


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


def test_the_check_finds_unnamed_public_definitions():
    sources = [
        "from .m import exported\n",
        "def exported():\n    return exported()\n"
        "def unnamed():\n    return unnamed()\n"
        "def helper():\n    return 1\n"
        "class Kept:\n    def used(self):\n        return helper()\n"
        "    def unused(self):\n        return self.used()\n"
        "    def _private(self):\n        pass\n",
        "x = Kept()\n",
        # f.neg and self.field.neg name the field's neg, not the container's
        "class Field:\n    def neg(self, x):\n        return x\n"
        "class Box:\n    def neg(self):\n        return self\n"
        "    def twice(self, f):\n        return f.neg(self.field.neg(1))\n",
        "y = Box().twice(Field())\n",
    ]
    assert unnamed_public_definitions(sources) == ["Box.neg", "Kept.unused", "unnamed"]


# The public definitions that no module of avglie names, each with its
# caller outside it or the reason a test-only one is kept.
OUTSIDE_CALLERS = {
    "Cochain.random": "perfbench/workloads.py, the cochain of the delta_alie probes",
    "AltMap.eval_vectors": "perfbench/workloads.py, the probe multilinear.eval_vectors_ms",
    "LieAlgebra.bracket_vec": "perfbench/inputs.py, tools/gen_fixtures.py: scrambled brackets",
    "LieAlgebra.from_pairs": "perfbench/inputs.py, tools/gen_fixtures.py, the README tour",
    "perturbed_section": "tools/cli_sweep.py, its perturbed-section documents",
    "realize_cocycle": "perfbench/tracing.py, tools/cli_sweep.py",
    "pair_doc": "perfbench/inputs.py, tools/gen_fixtures.py",
    "bare_matrix_doc": "tools/cli_sweep.py, its section documents",
    "lie_doc": "tests only: the emitter of the lie_algebra kind, which no command writes",
    "Field.div": "tests only: the field API stays complete, and test_fields pins division",
    "PrimeField.elements": "tests only: the order affine_points and the searches follow",
    "Matrix.scale": "tests only: the loop oracles build action matrices with it",
    "WellsResult.difference_is_zero": "tests only: the acceptance criteria read the "
                                      "difference cocycle through it",
}


def test_every_public_definition_is_exported_named_or_listed():
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    assert unnamed_public_definitions(sources) == sorted(OUTSIDE_CALLERS)

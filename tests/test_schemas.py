"""`documents.SCHEMAS` as a grammar: documents drawn from it parse, emit
back byte for byte and break when a key is left out; and the README's
table of kinds names the keys it states."""

import copy
import os
import re
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avglie import documents as docs
from avglie.cohomology import Cochain
from avglie.errors import ParseError
from avglie.extensions import ExtensionData, NonAbelianCocycle
from avglie.homotopy import CrossedModule
from avglie.lie import AveragingLieAlgebra, LieAlgebra, Representation

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# canonical scalar strings: each is what the field's format writes back
SCALARS = {
    "Q": ["0", "1", "-1", "2", "-3", "1/2", "-2/3", "5/4"],
    "F2": ["0", "1"],
    "F3": ["0", "1", "2"],
}
DIMS = st.integers(0, 3)


def document_keys(kind):
    """The keys of a document of kind after `kind` and `field`: every entry
    of its schema but the naturals read from a nested document."""
    return [key for key, typ, _ in docs.SCHEMAS[kind]
            if not (isinstance(typ, str) and "." in typ)]


def linear(draw, field, typ, dims):
    """A matrix, tensor or alternating map document of the given shape."""
    if typ == "mat" and dims == [None, None]:  # a bare matrix has any shape
        dims = [draw(DIMS), draw(DIMS)]
    count = comb(dims[0], dims[1]) * dims[2] if typ == "alt" else prod(dims)
    entries = draw(st.lists(st.sampled_from(SCALARS[field]), min_size=count, max_size=count))
    if typ == "alt":
        return {"arity": dims[1], "dim": dims[0], "vdim": dims[2], "entries": entries}
    return {"shape": dims, "entries": entries}


@st.composite
def documents(draw, kind, field):
    """A valid document of kind over field, drawn entry by entry from its
    schema; the four rules the types leave out are drawn by hand."""
    doc, v = {"kind": kind, "field": field}, {}
    for key, typ, shape in docs.SCHEMAS[kind]:
        if typ == "nat":
            v[key] = doc[key] = draw(DIMS)
        elif typ in docs.SCHEMAS:
            v[key] = doc[key] = draw(documents(typ, field))
        elif typ is docs._degree:
            v[key] = doc[key] = draw(st.integers(1, 3))
        elif typ is docs._dims:
            v["n0"], v["n1"] = doc[key] = [draw(DIMS), draw(DIMS)]
        elif typ is docs._theta:
            shape = [v["dim"]] * (v["degree"] - 1) + [v["vdim"]]
            doc[key] = None if v["degree"] == 1 else linear(draw, field, "ten", shape)
        elif typ is docs._operators:  # P0, P1 and P2 all present or all null
            v[key] = draw(st.booleans())
            doc[key] = linear(draw, field, "mat", [v["n0"], v["n0"]]) if v[key] else None
        elif "." in typ:
            first, *path = typ.split(".")
            v[key] = v[first]
            for hop in path:
                v[key] = v[key][hop]
        elif typ.endswith("?") and not (v["P0"] if kind == "two_term" else draw(st.booleans())):
            doc[key] = None
        else:
            dims = [v[s] if isinstance(s, str) else s for s in shape]
            doc[key] = linear(draw, field, typ.rstrip("?"), dims)
    return doc


def averaging(doc):
    field, dim, bracket, P = docs.parse_averaging(doc)
    return AveragingLieAlgebra(LieAlgebra(field, dim, bracket), P)


def representation(doc):
    base, vdim, psi, Q = docs.parse_representation(doc)
    return Representation(averaging(base), vdim, psi, Q)


def cochain(doc):
    rep, *values = docs.parse_cochain(doc)
    return docs.cochain_doc(representation(rep), Cochain(*values))


def cocycle(doc):
    base, coef, *values = docs.parse_cocycle(doc)
    return docs.cocycle_doc(NonAbelianCocycle(averaging(base), averaging(coef), *values))


def extension(doc):
    base, coef, total, *values = docs.parse_extension(doc)
    return docs.extension_doc(ExtensionData(*map(averaging, (base, coef, total)), *values))


def pair(doc):
    base, coef, p = docs.parse_pair(doc)
    return docs.pair_doc(averaging(base), averaging(coef), p)


def crossed(doc):
    g0, g1, d, rho = docs.parse_crossed(doc)
    return docs.crossed_doc(CrossedModule(averaging(g1), averaging(g0), d, rho))


# each kind's document through its library objects, no law checked, and back
REEMIT = {
    "lie_algebra": lambda doc: docs.lie_doc(LieAlgebra(*docs.parse_lie(doc))),
    "averaging_lie_algebra": lambda doc: docs.averaging_doc(averaging(doc)),
    "representation": lambda doc: docs.representation_doc(representation(doc)),
    "cochain": cochain,
    "nonabelian_cocycle": cocycle,
    "extension": extension,
    "automorphism_pair": pair,
    "two_term": lambda doc: docs.two_term_doc(*docs.parse_two_term(doc)),
    "crossed_module": crossed,
    "matrix": lambda doc: docs.bare_matrix_doc(docs.parse_bare_matrix(doc)),
}


def key_paths(obj, prefix=()):
    """The path of every key of obj and of the objects nested in it whose
    value is not null."""
    for key, value in obj.items():
        if value is not None:
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from key_paths(value, prefix + (key,))


def without(doc, path):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(docs.KINDS), st.sampled_from(sorted(SCALARS)), st.data())
def test_drawn_documents_round_trip_and_need_every_key(kind, field, data):
    doc = data.draw(documents(kind, field))
    docs.parse_nested(doc)
    assert docs.dump_document(REEMIT[kind](doc)) == docs.dump_document(doc)
    for path in key_paths(doc):
        if path == ("kind",):  # read by load_document, before any parser
            continue
        if path == ("s",):  # an optional section may be left out
            assert docs.parse_extension(without(doc, path))[-1] is None
            continue
        with pytest.raises(ParseError):
            docs.parse_nested(without(doc, path))


def readme_payloads():
    """kind -> the keys its row of the README's table names: the names in
    backticks outside parentheses."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("Kinds and their payloads"):]
    table = table[:table.index("\n\n", table.index("| kind"))]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        _, kind, payload, _ = line.split("|")
        payload = re.sub(r"\([^)]*\)", "", payload)
        rows[kind.strip().strip("`")] = re.findall(r"`(\w+)`", payload)
    return rows


def test_the_readme_table_names_the_schema_keys():
    assert readme_payloads() == {kind: document_keys(kind) for kind in docs.KINDS}

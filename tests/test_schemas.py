"""`documents.SCHEMAS` as a grammar: documents drawn from it parse, emit
back byte for byte and break when a key is left out; and the README's
table of kinds names the keys it states."""

import copy
import functools
import glob
import os
import re
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avglie import documents as docs
from avglie.errors import ParseError, ValidationError

from conftest import FIXTURES

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


# each kind's emitter: a tuple object is written from its parts
EMITTERS = {
    "lie_algebra": docs.lie_doc,
    "averaging_lie_algebra": docs.averaging_doc,
    "representation": docs.representation_doc,
    "cochain": docs.cochain_doc,
    "nonabelian_cocycle": docs.cocycle_doc,
    "extension": docs.extension_doc,
    "automorphism_pair": docs.pair_doc,
    "two_term": docs.two_term_doc,
    "crossed_module": docs.crossed_doc,
    "matrix": docs.bare_matrix_doc,
}


def reemit(kind, doc):
    """doc through its library objects, built by `documents.OBJECTS` with
    no law checked at any depth, and back."""
    with pytest.MonkeyPatch.context() as mp:
        for name, nested in (("realize_averaging", "averaging_lie_algebra"),
                             ("realize_representation", "representation")):
            mp.setattr(docs, name, functools.partial(docs.unchecked, nested))
        x = docs.unchecked(kind, doc)
    return EMITTERS[kind](*x) if isinstance(x, tuple) else EMITTERS[kind](x)


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
    assert docs.dump_document(reemit(kind, doc)) == docs.dump_document(doc)
    for path in key_paths(doc):
        if path == ("kind",):  # read by load_document, before any parser
            continue
        if path == ("s",):  # an optional section may be left out
            assert docs.parse_extension(without(doc, path))[-1] is None
            continue
        with pytest.raises(ParseError):
            docs.parse_nested(without(doc, path))


REALIZE = {
    "averaging_lie_algebra": docs.realize_averaging,
    "representation": docs.realize_representation,
    "cochain": docs.realize_cochain,
    "nonabelian_cocycle": docs.realize_cocycle,
    "extension": docs.realize_extension,
    "crossed_module": docs.realize_crossed,
}


def assert_realize_agrees_with_check(doc):
    """realize_<kind> returns the object `check` built when `check` passes,
    and otherwise raises ValidationError with the verdict `check` returns,
    or raises when a nested document breaks a law; any other exception
    propagates."""
    kind = doc["kind"]
    try:
        verdict, _ = docs.check(doc)
    except ValidationError as exc:
        verdict = exc.verdict
    if verdict:
        assert REALIZE[kind](doc) == docs.unchecked(kind, doc)
        return
    with pytest.raises(ValidationError) as got:
        REALIZE[kind](doc)
    assert got.value.verdict == verdict


def test_realize_agrees_with_check_on_every_fixture():
    seen = set()
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.json"), recursive=True)):
        doc = docs.load_document(path)
        if doc["kind"] in REALIZE:
            assert_realize_agrees_with_check(doc)
            seen.add(doc["kind"])
    assert seen == set(REALIZE) - {"cochain"}  # no fixture is a cochain


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(REALIZE)), st.sampled_from(sorted(SCALARS)), st.data())
def test_realize_agrees_with_check_on_drawn_documents(kind, field, data):
    assert_realize_agrees_with_check(data.draw(documents(kind, field)))


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

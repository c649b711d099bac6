import dataclasses
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from avglie import documents as docs
from avglie.errors import ParseError
from avglie.fields import GF, QQ
from avglie.lie import adjoint_representation
from avglie.linalg import Matrix, Tensor
from avglie.multilinear import AltMap

from conftest import FIXTURES, fixture_path, g2_averaging, is_canonical_q


def test_fixture_round_trips_byte_identical():
    for name in (
        "identity_averaging.json",
        "double2.json",
        "adjoint_rep.json",
        "strict_two_term.json",
        "crossed_adjoint.json",
        "cocycle_adjoint.json",
        "extension_f3.json",
        "pair_f3_identity.json",
    ):
        path = fixture_path(name)
        obj = docs.load_document(path)
        text = docs.dump_document(obj)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text


def test_emit_parse_identity_for_averaging():
    a = g2_averaging(QQ, "proj")
    doc = docs.averaging_doc(a)
    again = docs.realize_averaging(doc)
    assert again == a


def test_emit_parse_identity_for_representation():
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    doc = docs.representation_doc(r)
    again = docs.realize_representation(doc)
    assert again == r


def test_emit_parse_identity_for_extension():
    obj = docs.load_document(fixture_path("extension_abelian_f3.json"))
    e = docs.realize_extension(obj)
    assert docs.extension_doc(e) == obj


def test_scalar_strings_are_exact():
    a = g2_averaging(QQ, "proj")
    doc = docs.averaging_doc(a)
    text = docs.dump_document(doc)
    assert '"1"' in text and '"0"' in text
    assert "0.0" not in text


def test_parse_rejects_shape_mismatch():
    obj = docs.load_document(fixture_path("identity_averaging.json"))
    obj["P"]["shape"] = [2, 3]
    with pytest.raises(ParseError):
        docs.parse_averaging(obj)


def test_parse_rejects_bad_scalars():
    obj = docs.load_document(fixture_path("identity_averaging.json"))
    obj["bracket"]["entries"][0] = "0.5"
    with pytest.raises(ParseError):
        docs.parse_averaging(obj)


def test_parse_rejects_field_mismatch_in_nested_documents():
    obj = docs.load_document(fixture_path("extension_f3.json"))
    obj["base"]["field"] = "F5"
    with pytest.raises(ParseError):
        docs.parse_extension(obj)


def test_parse_rejects_wrong_length():
    obj = docs.load_document(fixture_path("identity_averaging.json"))
    obj["bracket"]["entries"].append("0")
    with pytest.raises(ParseError):
        docs.parse_averaging(obj)


def test_load_rejects_unknown_kind(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "mystery", "field": "Q"}))
    with pytest.raises(ParseError):
        docs.load_document(bad)
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    with pytest.raises(ParseError):
        docs.load_document(notjson)


def test_prime_field_documents_round_trip():
    obj = docs.load_document(fixture_path("extension_split_f2.json"))
    e = docs.realize_extension(obj)
    assert e.total.field == GF(2)
    assert docs.dump_document(docs.extension_doc(e)) == docs.dump_document(obj)


def relative_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def test_gen_fixtures_reproduces_the_committed_fixtures(tmp_path):
    # the tool writes next to itself, so run a copy beside a link to src
    repo = os.path.dirname(os.path.abspath(FIXTURES))
    (tmp_path / "tools").mkdir()
    shutil.copy(os.path.join(repo, "tools", "gen_fixtures.py"), tmp_path / "tools")
    os.symlink(os.path.join(repo, "src"), tmp_path / "src")
    subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "gen_fixtures.py")],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    made = tmp_path / "fixtures"
    names = relative_files(made)
    assert names == relative_files(FIXTURES)
    assert len(names) == 29
    for name in names:
        with open(made / name, "rb") as fh, open(fixture_path(name), "rb") as want:
            assert fh.read() == want.read(), name


def held_scalars(obj):
    """Every scalar in the matrices, tensors and multilinear maps that obj
    holds, through tuples, lists and dataclass fields."""
    if isinstance(obj, Matrix):
        yield from obj.flat()
    elif isinstance(obj, Tensor):
        yield from obj.entries
    elif isinstance(obj, AltMap):
        yield from obj.flat()
    elif dataclasses.is_dataclass(obj):
        for value in vars(obj).values():
            yield from held_scalars(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from held_scalars(value)


def test_q_fixtures_hold_only_canonical_scalars():
    """Every Q fixture's object, its own laws unchecked, holds only ints
    and Fractions with denominator > 1."""
    seen = 0
    for name in relative_files(FIXTURES):
        if not name.endswith(".json"):
            continue
        obj = docs.load_document(fixture_path(name))
        if obj["field"] != "Q":
            continue
        value = docs.unchecked(obj["kind"], obj)
        scalars = list(held_scalars(value))
        assert scalars, name
        assert all(is_canonical_q(x) for x in scalars), name
        seen += 1
    assert seen == 19


def test_plain_integer_entries_read_as_the_scalar_parser_reads_them():
    entries = ["-0", "007", "13", "-1", "8" * 1200, "-" + "3" * 999]
    for field in (QQ, GF(7)):
        obj = {"shape": [1, len(entries)], "entries": entries}
        m = docs.parse_matrix(field, obj, "matrix", "P")
        assert list(m.entries[0]) == [field.parse(x) for x in entries]


@pytest.mark.parametrize("entry", ["1\n", "１", "٣", "0,0", "F7"])
def test_entries_take_plain_ascii_digits_only(entry):
    obj = {"shape": [1, 2], "entries": ["1", entry]}
    with pytest.raises(ParseError, match=r"^matrix: P: not a rational scalar: "):
        docs.parse_matrix(QQ, obj, "matrix", "P")


def test_non_ascii_digits_exit_as_parse_errors(tmp_path):
    for name, edit in (("scalar", lambda obj: obj["P"]["entries"].__setitem__(0, "１")),
                       ("newline", lambda obj: obj["P"]["entries"].__setitem__(0, "1\n")),
                       ("tag", lambda obj: obj.__setitem__("field", "F7\n"))):
        obj = docs.load_document(fixture_path("identity_averaging.json"))
        edit(obj)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run([sys.executable, "-m", "avglie.cli", "check", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2, name
        assert json.loads(proc.stdout)["clause"] == "parse-error"


PINNED_PARSE_SWEEP = os.path.join(os.path.dirname(__file__), "data", "parse_sweep.txt")


def test_parse_sweep_matches_the_pinned_output():
    """Every single fault at every key path of every fixture, and a seeded
    sample of two faults, gives the pinned exit codes and messages under
    `check` and `check --field-check`, and no run raises.  A change that
    alters a parse error on purpose rewrites the pin:
    python tools/parse_sweep.py > tests/data/parse_sweep.txt"""
    tools = os.path.join(os.path.dirname(__file__), "..", "tools")
    spec = importlib.util.spec_from_file_location(
        "parse_sweep", os.path.join(tools, "parse_sweep.py")
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    cwd = os.getcwd()
    lines = sweep.sweep_lines()
    assert os.getcwd() == cwd
    assert not [line for line in lines if "!" in line]
    with open(PINNED_PARSE_SWEEP, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    assert len(lines) == len(pinned)
    differ = [(got, want) for got, want in zip(lines, pinned) if got != want]
    assert not differ, differ[:5]

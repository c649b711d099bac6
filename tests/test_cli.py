import importlib.util
import json
import os
import subprocess
import sys

import pytest
from conftest import fixture_path

CLI = [sys.executable, "-m", "avglie.cli"]


def run_cli(*args):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    report = None
    if proc.stdout.strip():
        report = json.loads(proc.stdout)
    return proc.returncode, report, proc.stderr


def test_check_valid_fixtures_exit_zero():
    for name in (
        "identity_averaging.json",
        "double2.json",
        "double3_P.json",
        "embedding_tensor.json",
        "adjoint_rep.json",
        "strict_two_term.json",
        "crossed_adjoint.json",
        "cocycle_adjoint.json",
        "extension_f3.json",
        "extension_split_f2.json",
    ):
        code, report, _ = run_cli("check", fixture_path(name))
        assert code == 0, name
        assert report["status"] == "pass"


BROKEN = {
    "broken/antisymmetry.json": "antisymmetry",
    "broken/jacobi.json": "jacobi",
    "broken/averaging_eq1.json": "eq1",
    "broken/representation_chain2.json": "rep-chain-2",
    "broken/two_term_L6.json": "L6",
    "broken/two_term_A2.json": "A2",
    "broken/crossed_peiffer.json": "cm-peiffer",
    "broken/cocycle_A.json": "(A)",
    "broken/cocycle_D.json": "(D)",
    "broken/extension_exactness.json": "exactness",
    "broken/pair_alpha_operator.json": "alpha-operator",
}


def test_check_broken_fixtures_report_clauses():
    for name, clause in BROKEN.items():
        code, report, _ = run_cli("check", fixture_path(name))
        assert code == 1, name
        assert report["status"] == "fail"
        assert report["clause"] == clause
        assert report["witness"] is not None


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, _ = run_cli("check", str(bad))
    assert code == 2
    assert report["clause"] == "parse-error"


def test_field_check_only(tmp_path):
    code, report, _ = run_cli(
        "check", fixture_path("broken/jacobi.json"), "--field-check"
    )
    # scalars parse fine even though the algebra is invalid
    assert code == 0 and report["status"] == "pass"


def test_usage_errors_exit_four():
    proc = subprocess.run(CLI + ["bogus"], capture_output=True, text=True)
    assert proc.returncode == 4
    proc = subprocess.run(
        CLI + ["cohomology", fixture_path("adjoint_rep.json"), "--degree", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    # one document per command: an extra operand is not silently dropped
    for args in (
        ["extension", "build", fixture_path("cocycle_adjoint.json"), "missing.json"],
        [
            "homotopy",
            "check",
            fixture_path("strict_two_term.json"),
            fixture_path(os.path.join("broken", "jacobi.json")),
        ],
    ):
        proc = subprocess.run(CLI + args, capture_output=True, text=True)
        assert proc.returncode == 4, args


def test_reports_are_deterministic():
    out1 = subprocess.run(
        CLI + ["check", fixture_path("adjoint_rep.json")], capture_output=True, text=True
    ).stdout
    out2 = subprocess.run(
        CLI + ["check", fixture_path("adjoint_rep.json")], capture_output=True, text=True
    ).stdout
    assert out1 == out2


def test_cohomology_command():
    code, report, _ = run_cli(
        "cohomology", fixture_path("adjoint_rep.json"), "--degree", "2"
    )
    assert code == 0
    data = report["data"]
    assert data["dim_cochains"] == 2 + 4
    assert (
        data["dim_cohomology"]
        == data["dim_cochains"] - data["rank_delta"] - data["rank_delta_prev"]
    )


@pytest.mark.parametrize(
    "name, code, clause",
    [
        ("cocycle_adjoint.json", 0, None),
        ("broken/cocycle_A.json", 1, "(A)"),
        ("broken/cocycle_D.json", 1, "(D)"),
    ],
)
def test_extension_build_checks_the_cocycle_once(monkeypatch, capsys, name, code, clause):
    """The clauses of the cocycle are checked by build_extension alone, and
    a broken cocycle still reports its clause."""
    from avglie import extensions
    from avglie.cli import main

    calls = []
    check = extensions.check_cocycle

    def counted(c):
        calls.append(c)
        return check(c)

    monkeypatch.setattr(extensions, "check_cocycle", counted)
    assert main(["extension", "build", fixture_path(name)]) == code
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["clause"] == clause


def test_extension_build_extract_round_trip(tmp_path):
    built = tmp_path / "ext.json"
    code, report, _ = run_cli(
        "extension", "build", fixture_path("cocycle_adjoint.json"),
        "--output", str(built),
    )
    assert code == 0
    code, report, _ = run_cli("check", str(built))
    assert code == 0
    back = tmp_path / "cocycle.json"
    code, report, _ = run_cli(
        "extension", "extract", str(built), "--output", str(back)
    )
    assert code == 0
    with open(fixture_path("cocycle_adjoint.json")) as fh:
        original = json.load(fh)
    with open(back) as fh:
        extracted = json.load(fh)
    assert extracted == original


def test_extension_extract_with_user_section(tmp_path):
    import avglie.documents as docs
    from avglie.fields import GF
    from avglie.linalg import Matrix

    # the perturbed section shifts the extracted data but stays valid
    section = Matrix(GF(3), [[1], [1]])
    secfile = tmp_path / "section.json"
    secfile.write_text(docs.dump_document(docs.bare_matrix_doc(section)))
    out = tmp_path / "cocycle.json"
    code, report, _ = run_cli(
        "extension", "extract", fixture_path("extension_f3.json"),
        "--section", str(secfile), "--output", str(out),
    )
    assert code == 0
    code, report, _ = run_cli("check", str(out))
    assert code == 0


def test_extension_extract_rejects_a_misshapen_section(tmp_path):
    import avglie.documents as docs
    from avglie.fields import GF, QQ
    from avglie.linalg import Matrix

    cases = (
        (Matrix(GF(3), [[1]]), "section wants shape (2, 1), document has (1, 1)"),
        (Matrix(QQ, [[1], [0]]), "section over Q, extension over F3"),
    )
    for k, (section, message) in enumerate(cases):
        secfile = tmp_path / f"section{k}.json"
        secfile.write_text(docs.dump_document(docs.bare_matrix_doc(section)))
        code, report, _ = run_cli(
            "extension", "extract", fixture_path("extension_f3.json"),
            "--section", str(secfile),
        )
        assert code == 2
        assert report["clause"] == "parse-error"
        assert message in report["notes"]["message"]


def test_a_bare_matrix_names_its_key_in_parse_errors(tmp_path):
    bad = tmp_path / "matrix.json"
    bad.write_text(json.dumps({"kind": "matrix", "field": "F3",
                               "matrix": {"shape": [2], "entries": []}}))
    for argv in (("check", str(bad)),
                 ("extension", "extract", fixture_path("extension_f3.json"),
                  "--section", str(bad))):
        code, report, _ = run_cli(*argv)
        assert code == 2, argv
        assert report["notes"]["message"] == "matrix: matrix must be 2-dimensional", argv


def test_unwritable_output_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, report, err = run_cli(
        "extension", "build", fixture_path("cocycle_adjoint.json"),
        "--output", str(target),
    )
    assert code == 4
    assert report is None
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_indeterminate_exit_code(capsys):
    from avglie.cli import EXIT_INDETERMINATE, _finish, _report

    code = _finish(_report("indeterminate", notes={"reason": "candidate space"}))
    assert code == EXIT_INDETERMINATE == 3
    captured = capsys.readouterr()
    assert "indeterminate" in captured.out


def test_extension_audit():
    code, report, _ = run_cli("extension", "audit", fixture_path("extension_f3.json"))
    assert code == 0
    assert report["data"]["round_trip"] == "equivalent"


def test_extension_audit_scrambled_basis_fixture():
    code, report, _ = run_cli(
        "check", fixture_path("extension_f3_scrambled.json")
    )
    assert code == 0
    code, report, _ = run_cli(
        "extension", "audit", fixture_path("extension_f3_scrambled.json")
    )
    assert code == 0
    assert report["data"]["round_trip"] == "equivalent"


def test_cohomology_zero_module():
    for degree in ("1", "2", "3"):
        code, report, _ = run_cli(
            "cohomology", fixture_path("zero_module_rep.json"), "--degree", degree
        )
        assert code == 0
        assert report["data"]["dim_cochains"] == 0
        assert report["data"]["dim_cohomology"] == 0


def test_cohomology_over_budget_is_indeterminate(tmp_path):
    from avglie.cohomology import Cochain
    from avglie.documents import dump_document, representation_doc
    from avglie.fields import QQ
    from avglie.lie import AveragingLieAlgebra, LieAlgebra, trivial_representation
    from avglie.linalg import Matrix

    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 8), Matrix.zero(QQ, 8, 8))
    path = tmp_path / "abelian8.json"
    path.write_text(dump_document(representation_doc(trivial_representation(a, 8))))
    code, report, _ = run_cli("cohomology", str(path), "--degree", "4")
    assert code == 3
    assert report["status"] == "indeterminate"
    cells = Cochain.dimension(8, 8, 5) * Cochain.dimension(8, 8, 4)
    assert str(cells) in report["notes"]["reason"]


def test_wells_identity_and_noninducible():
    code, report, _ = run_cli(
        "wells", fixture_path("extension_f3.json"), fixture_path("pair_f3_identity.json"),
        "--lift",
    )
    assert code == 0
    assert report["data"]["inducible"] is True
    assert "gamma" in report["data"]
    code, report, _ = run_cli(
        "wells",
        fixture_path("extension_f3.json"),
        fixture_path("pair_f3_noninducible.json"),
    )
    assert code == 1
    assert report["clause"] == "wells-nonzero"
    assert report["data"]["inducible"] is False


def test_wells_abelian_route():
    code, report, _ = run_cli(
        "wells",
        fixture_path("extension_abelian_f3.json"),
        fixture_path("pair_abelian_f3_obstructed.json"),
        "--abelian",
    )
    assert code == 1
    assert report["data"]["compatible_pair"] is True
    assert report["data"]["zero_class"] is False


def test_wells_decides_a_pair_over_q_with_nonabelian_coefficients(tmp_path, capsys):
    """Heisenberg coefficients over Q: (E1) leaves phi free in the centre,
    and the pair halves chi, so no point of that line satisfies (E2)."""
    from avglie import cli
    from avglie.documents import dump_document, extension_doc, pair_doc
    from avglie.extensions import AutomorphismPair, NonAbelianCocycle, build_extension
    from avglie.fields import QQ
    from avglie.lie import AveragingLieAlgebra, LieAlgebra
    from avglie.linalg import Matrix, Tensor
    from avglie.multilinear import AltMap
    from conftest import heisenberg

    base = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 2), Matrix.zero(QQ, 2, 2))
    coef = AveragingLieAlgebra.validate(heisenberg(QQ), Matrix.zero(QQ, 3, 3))
    c = NonAbelianCocycle.validate(
        base, coef, AltMap(QQ, 2, 2, 3, [(0, 0, 1)]), Tensor.zero(QQ, (2, 3, 3)),
        Matrix.zero(QQ, 3, 2),
    )
    ext_path, pair_path = tmp_path / "extension.json", tmp_path / "pair.json"
    ext_path.write_text(dump_document(extension_doc(build_extension(c))))
    pair = AutomorphismPair(Matrix.identity(QQ, 3), Matrix(QQ, [[2, 0], [0, 1]]))
    pair_path.write_text(dump_document(pair_doc(base, coef, pair)))
    for flags in ([], ["--lift"]):
        assert cli.main(["wells", str(ext_path), str(pair_path)] + flags) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clause"] == "wells-nonzero"
        assert report["data"]["inducible"] is False


def test_wells_abelian_class_disagreeing_with_the_equivalence_solve_is_an_error(
    monkeypatch, capsys
):
    """`abelian_wells` decides the zero class twice, by `is_coboundary` on
    the difference and by the equivalence solve; read a zero class as
    obstructed, or drop the witness, and it raises InternalError, which
    `wells --abelian` reports as an error line with exit 1."""
    import avglie.documents as docs
    import avglie.extensions as ext
    from avglie import cli
    from avglie.errors import InternalError

    ext_path, pair_path = fixture_path("extension_f3.json"), fixture_path("pair_f3_identity.json")
    e = docs.realize_extension(docs.load_document(ext_path))
    _, _, pair = docs.unchecked("automorphism_pair", docs.load_document(pair_path))
    argv = ["wells", ext_path, pair_path, "--abelian"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    for name in ("is_coboundary", "cocycles_equivalent"):
        with monkeypatch.context() as m:
            m.setattr(ext, name, lambda *a: None)
            with pytest.raises(InternalError):
                ext.abelian_wells(pair, e)
            assert cli.main(argv) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, name


def test_wells_reads_the_extension_through_one_section(tmp_path, monkeypatch, capsys):
    """`wells --abelian --lift` on an extension without a stored section
    solves for the default section once, builds (s | i) once and extracts
    the extension's cocycle once, for all four readers of the extension;
    it transforms the cocycle once and checks the pair at most twice."""
    from dataclasses import replace

    import avglie.documents as docs
    import avglie.extensions as ext
    from avglie import cli
    from avglie.linalg import Matrix

    e = docs.realize_extension(docs.load_document(fixture_path("extension_abelian_f3.json")))
    e = replace(e, s=None)
    f = e.total.field
    ident = ext.AutomorphismPair(Matrix.identity(f, e.coef.dim), Matrix.identity(f, e.base.dim))
    ext_path, pair_path = tmp_path / "extension.json", tmp_path / "pair.json"
    ext_path.write_text(docs.dump_document(docs.extension_doc(e)))
    pair_path.write_text(docs.dump_document(docs.pair_doc(e.base, e.coef, ident)))
    calls = {name: [] for name in ("default_section", "_section_basis", "_extract",
                                   "transform_cocycle", "check_automorphism_pair")}
    for name, seen in calls.items():
        def wrapper(*args, _inner=getattr(ext, name), _seen=seen):
            _seen.append(args[0])
            return _inner(*args)
        monkeypatch.setattr(ext, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)
    assert cli.main(["wells", str(ext_path), str(pair_path), "--abelian", "--lift"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["inducible"] is True and "gamma" in report["data"]
    assert len(calls["default_section"]) == 1
    assert len(calls["_section_basis"]) == 1
    # the other calls read the transformed cocycles off their own total spaces
    assert sum(isinstance(src, ext.ExtensionData) for src in calls["_extract"]) == 1
    assert len(calls["transform_cocycle"]) == 1
    assert len(calls["check_automorphism_pair"]) <= 2


def test_wells_pair_mismatch():
    code, report, _ = run_cli(
        "wells",
        fixture_path("extension_f3.json"),
        fixture_path("pair_abelian_f3_obstructed.json"),
    )
    assert code == 1
    assert report["clause"] == "pair-extension-mismatch"


def test_homotopy_conversions_round_trip(tmp_path):
    crossed = tmp_path / "crossed.json"
    code, report, _ = run_cli(
        "homotopy", "strict-to-crossed", fixture_path("strict_two_term.json"),
        "--output", str(crossed),
    )
    assert code == 0
    with open(crossed) as fh:
        got = json.load(fh)
    with open(fixture_path("crossed_adjoint.json")) as fh:
        want = json.load(fh)
    assert got == want
    back = tmp_path / "two_term.json"
    code, _, _ = run_cli(
        "homotopy", "crossed-to-strict", str(crossed), "--output", str(back)
    )
    assert code == 0
    with open(back) as fh:
        round_tripped = json.load(fh)
    with open(fixture_path("strict_two_term.json")) as fh:
        assert round_tripped == json.load(fh)


def test_homotopy_semidirect_emits_valid_document(tmp_path):
    out = tmp_path / "semi.json"
    code, _, _ = run_cli(
        "homotopy", "semidirect", fixture_path("crossed_adjoint.json"),
        "--output", str(out),
    )
    assert code == 0
    code, report, _ = run_cli("check", str(out))
    assert code == 0 and report["status"] == "pass"


def test_emitted_documents_reparse_and_validate(tmp_path):
    """Emit-parse-validate closure for every conversion command."""
    conversions = [
        ("homotopy", "strict-to-crossed", "strict_two_term.json"),
        ("homotopy", "crossed-to-strict", "crossed_adjoint.json"),
        ("homotopy", "semidirect", "crossed_adjoint.json"),
        ("extension", "build", "cocycle_adjoint.json"),
        ("extension", "extract", "extension_f3.json"),
    ]
    for k, (cmd, sub, fixture) in enumerate(conversions):
        out = tmp_path / f"out{k}.json"
        code, _, _ = run_cli(cmd, sub, fixture_path(fixture), "--output", str(out))
        assert code == 0, (cmd, sub)
        code, report, _ = run_cli("check", str(out))
        assert code == 0 and report["status"] == "pass", (cmd, sub)


def test_skeletal_cocycle_conversion(tmp_path):
    # build a skeletal document by stripping the chain map from a module
    # structure: the adjoint representation viewed as d = 0
    import avglie.documents as docs
    from avglie.homotopy import TwoTermLinf, HomotopyAveraging
    from avglie.lie import adjoint_representation
    from avglie.linalg import Matrix, Tensor
    from avglie.multilinear import AltMap
    from conftest import g2_averaging
    from avglie.fields import QQ

    r = adjoint_representation(g2_averaging(QQ, "proj"))
    l2_01 = Tensor.build(QQ, (2, 2, 2), lambda i, a, b: r.psi.get(i, b, a))
    t = TwoTermLinf(
        QQ, 2, 2, Matrix.zero(QQ, 2, 2), r.base.algebra.bracket, l2_01,
        AltMap.zero(QQ, 2, 3, 2),
    )
    p = HomotopyAveraging(r.base.P, r.Q, AltMap.zero(QQ, 2, 2, 2))
    skeletal = tmp_path / "skeletal.json"
    skeletal.write_text(docs.dump_document(docs.two_term_doc(t, p)))
    cochain = tmp_path / "cochain.json"
    code, report, _ = run_cli(
        "homotopy", "skeletal-to-cocycle", str(skeletal), "--output", str(cochain)
    )
    assert code == 0
    code, report, _ = run_cli("check", str(cochain))
    assert code == 0 and report["data"]["is_cocycle"] is True
    back = tmp_path / "skeletal2.json"
    code, _, _ = run_cli(
        "homotopy", "cocycle-to-skeletal", str(cochain), "--output", str(back)
    )
    assert code == 0
    assert json.loads(back.read_text()) == json.loads(skeletal.read_text())


def one_dim_documents():
    """Valid documents over Q on one-dimensional spaces, so every dimension,
    shape entry, arity and degree the tests below replace is 1."""
    from avglie import documents as docs
    from avglie.cohomology import Cochain
    from avglie.extensions import NonAbelianCocycle, build_extension
    from avglie.fields import QQ
    from avglie.homotopy import triple_to_skeletal
    from avglie.lie import AveragingLieAlgebra, LieAlgebra, trivial_representation
    from avglie.linalg import Matrix, Tensor
    from avglie.multilinear import AltMap

    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 1), Matrix.identity(QQ, 1))
    r = trivial_representation(a, 1)
    c = NonAbelianCocycle(
        a, a, AltMap.zero(QQ, 1, 2, 1), Tensor.zero(QQ, (1, 1, 1)), Matrix.zero(QQ, 1, 1)
    )
    return {
        "extension": docs.extension_doc(build_extension(c)),
        "lie": docs.lie_doc(a.algebra),
        "matrix": docs.bare_matrix_doc(Matrix.identity(QQ, 1)),
        "representation": docs.representation_doc(r),
        "cochain": docs.cochain_doc(r, Cochain.zero(QQ, 1, 1, 1)),
        "two_term": docs.two_term_doc(*triple_to_skeletal(a, r, Cochain.zero(QQ, 1, 1, 3))),
    }


BOOLEAN_NATURALS = [
    ("lie", ["dim"]),
    ("lie", ["bracket", "shape", 0]),
    ("matrix", ["matrix", "shape", 1]),
    ("representation", ["vdim"]),
    ("representation", ["base", "dim"]),
    ("representation", ["Q", "shape", 0]),
    ("cochain", ["degree"]),
    ("cochain", ["f", "arity"]),
    ("cochain", ["f", "dim"]),
    ("cochain", ["f", "vdim"]),
    ("two_term", ["dims", 1]),
    ("two_term", ["P2", "dim"]),
]


@pytest.mark.parametrize(
    "name, path",
    BOOLEAN_NATURALS,
    ids=[".".join(map(str, [name] + path)) for name, path in BOOLEAN_NATURALS],
)
@pytest.mark.parametrize("field_check", [False, True], ids=["check", "field-check"])
@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
def test_json_booleans_and_floats_are_not_naturals(
    tmp_path, capsys, name, path, field_check, value
):
    """A parse error, not a pass (bool is a subclass of int) and not a
    traceback (a float sub-document dim or altmap arity reached comb)."""
    from avglie.cli import main

    obj = one_dim_documents()[name]
    target = obj
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] == 1
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj))
    argv = ["check", str(doc)] + ["--field-check"] * field_check
    assert main(argv) == 0
    capsys.readouterr()
    target[path[-1]] = value
    doc.write_text(json.dumps(obj))
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["clause"] == "parse-error"


NESTED_SCALARS = [
    (
        "representation",
        ["base", "P"],
        "1/x",
        "averaging_lie_algebra: P: not a rational scalar: '1/x'",
    ),
    (
        "extension",
        ["total", "bracket"],
        "banana",
        "averaging_lie_algebra: bracket: not a rational scalar: 'banana'",
    ),
]


@pytest.mark.parametrize(
    "name, path, bad, message",
    NESTED_SCALARS,
    ids=[".".join([name] + path) for name, path, _, _ in NESTED_SCALARS],
)
@pytest.mark.parametrize("field_check", [False, True], ids=["check", "field-check"])
def test_scalars_of_nested_documents_are_parsed(
    tmp_path, capsys, name, path, bad, message, field_check
):
    """--field-check parses every sub-document too, and reports the parse
    error that plain check reports."""
    from avglie.cli import main

    obj = one_dim_documents()[name]
    target = obj
    for key in path:
        target = target[key]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(obj))
    argv = ["check", str(doc)] + ["--field-check"] * field_check
    assert main(argv) == 0
    capsys.readouterr()
    target["entries"][0] = bad
    doc.write_text(json.dumps(obj))
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert (report["clause"], report["notes"]["message"]) == ("parse-error", message)


def test_count_witnesses_print_counts_not_residues(tmp_path, capsys):
    """The dimensions in an exactness witness are counts: over F2 a total
    dimension of 4 prints as 4, not as its residue 0."""
    from avglie.cli import main
    from avglie.documents import dump_document, extension_doc
    from avglie.extensions import ExtensionData
    from avglie.fields import GF
    from avglie.lie import AveragingLieAlgebra, LieAlgebra
    from avglie.linalg import Matrix

    F2 = GF(2)

    def abelian(n):
        return AveragingLieAlgebra.validate(LieAlgebra.abelian(F2, n), Matrix.zero(F2, n, n))

    e = ExtensionData(
        abelian(1), abelian(1), abelian(4), Matrix.zero(F2, 4, 1), Matrix.zero(F2, 1, 4)
    )
    path = tmp_path / "extension.json"
    path.write_text(dump_document(extension_doc(e)))
    assert main(["check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clause"] == "exactness"
    assert report["witness"] == {"indices": [], "lhs": ["4"], "rhs": ["2"]}


def test_one_parser_serves_every_call(capsys):
    """A usage error between two valid in-process calls prints what a
    freshly built parser prints, and leaves the next call unchanged."""
    from avglie import cli

    valid = ["check", fixture_path("double2.json")]
    assert cli.main(valid) == 0
    first = capsys.readouterr()
    for argv in (
        ["bogus"],
        ["check"],
        ["cohomology", fixture_path("adjoint_rep.json"), "--degree", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 4
        got = capsys.readouterr()
        fresh = cli.build_parser()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
            fresh.error("--degree must be between 1 and 4")
        want = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        assert got.err.startswith("usage: avglie ")
        assert cli.main(valid) == 0
        assert capsys.readouterr() == first


TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
PINNED_SWEEP = os.path.join(os.path.dirname(__file__), "data", "cli_sweep.txt")


def test_cli_sweep_matches_the_pinned_output():
    """Every CLI command on every fixture gives the pinned exit code and
    digests of stdout, stderr and written file.  A change that alters an
    answer on purpose rewrites the pin:
    python tools/cli_sweep.py > tests/data/cli_sweep.txt"""
    spec = importlib.util.spec_from_file_location(
        "cli_sweep", os.path.join(TOOLS, "cli_sweep.py")
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    cwd = os.getcwd()
    lines = sweep.sweep_lines()
    assert os.getcwd() == cwd
    with open(PINNED_SWEEP, encoding="utf-8") as fh:
        pinned = fh.read().splitlines()
    assert len(lines) == len(pinned)
    differ = [(got, want) for got, want in zip(lines, pinned) if got != want]
    assert not differ, differ[:5]

"""Acceptance suite: ten exact, oracle-backed criteria, one per test.

Each test prints a single PASS line on success (run with -s to see them);
every tolerance is zero because all arithmetic is exact.
"""

import random
import sys
from itertools import product

from avglie import documents as docs
from avglie.cohomology import (
    Cochain,
    cohomology_report,
    delta_alie,
    is_coboundary,
    is_cocycle,
)
from avglie.extensions import (
    AutomorphismPair,
    ExtensionData,
    NonAbelianCocycle,
    _phi_satisfies,
    abelian_wells,
    audit_round_trip,
    build_extension,
    check_cocycle,
    check_extension,
    check_split_semidirect,
    cocycles_equivalent,
    compatible_pairs,
    exact_sequence_audit,
    extension_automorphisms,
    extensions_equivalent,
    extract_cocycle,
    lift_automorphism,
    project_automorphism,
    wells_class,
)
from avglie.fields import GF, QQ
from avglie.homotopy import (
    HomotopyAveraging,
    TwoTermLinf,
    check_homotopy_averaging,
    check_two_term,
    crossed_semidirect,
    crossed_to_strict,
    skeletal_equivalent,
    skeletal_to_triple,
    strict_to_crossed,
    triple_to_skeletal,
)
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    check_averaging,
    check_lie,
    trivial_representation,
)
from avglie.linalg import Matrix, Tensor, enumerate_linear_maps, vec_sub
from avglie.multilinear import AltMap

from conftest import fixture_path, representation_family
from test_cohomology import brute_force_cohomology_dim, small_f2_instances
from test_extensions import dim1, random_cocycles
from test_homotopy import (
    literal_semidirect_bracket,
    random_crossed_modules,
    random_skeletal_instances,
)


def note(msg):
    print(msg)
    sys.stdout.flush()


VALID_FIXTURES = (
    "identity_averaging.json",
    "double2.json",
    "double3_P.json",
    "double3_Q2.json",
    "double3_Q3.json",
    "embedding_tensor.json",
    "adjoint_rep.json",
    "strict_two_term.json",
    "crossed_adjoint.json",
)

BROKEN_FIXTURES = {
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


def validate_document(obj):
    """Verdict of the full validator for a parsed document."""
    from avglie.cli import _check_dispatch

    verdict, _ = _check_dispatch(obj)
    return verdict


def test_criterion_1_axiom_suite():
    for name in VALID_FIXTURES:
        obj = docs.load_document(fixture_path(name))
        v = validate_document(obj)
        assert v.ok, f"{name} failed at {v.clause}"
    for name, clause in BROKEN_FIXTURES.items():
        obj = docs.load_document(fixture_path(name))
        v = validate_document(obj)
        assert not v.ok and v.clause == clause, (name, v.clause)
    note(
        f"ACCEPTANCE 1: PASS - {len(VALID_FIXTURES)} example fixtures valid, "
        f"{len(BROKEN_FIXTURES)} broken fixtures fail with their named clauses"
    )


def test_criterion_2_complex_property():
    checks = 0
    for field in (QQ, GF(5)):
        rng = random.Random(20240802)
        reps = representation_family(field, rng)
        assert any(not r.base.is_abelian() for r in reps)
        assert any(not r.base.P.is_zero() and not r.Q.is_zero() for r in reps)
        for r in reps:
            for degree in (1, 2):
                for _ in range(100):
                    c = Cochain.random(rng, field, r.dim, r.vdim, degree)
                    assert delta_alie(r, delta_alie(r, c)).is_zero()
                    checks += 1
    assert checks == 2 * 5 * 2 * 100
    note(f"ACCEPTANCE 2: PASS - delta^2 = 0 exactly on {checks} random cochains")


def test_criterion_3_cohomology_oracle():
    trivial = trivial_representation(
        AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 1), Matrix.zero(QQ, 1, 1)),
        1,
    )
    assert cohomology_report(trivial, 1)["dim_cohomology"] == 1
    assert cohomology_report(trivial, 2)["dim_cohomology"] == 1
    rng = random.Random(7)
    compared = 0
    for r in small_f2_instances(rng):
        for degree in (1, 2, 3):
            if Cochain.dimension(r.dim, r.vdim, degree) > 12:
                continue
            got = cohomology_report(r, degree)["dim_cohomology"]
            assert got == brute_force_cohomology_dim(r, degree)
            compared += 1
    assert compared >= 6
    note(
        "ACCEPTANCE 3: PASS - trivial instance has first and second dimension 1; "
        f"matrix ranks match the brute-force oracle on {compared} degree checks"
    )


def test_criterion_4_extension_round_trips():
    rng = random.Random(20240803)
    audited = 0
    for field, count in ((GF(2), 25), (GF(3), 25), (QQ, 5)):
        for c in random_cocycles(rng, field, count):
            e = build_extension(c)
            assert extract_cocycle(e) == c
            assert audit_round_trip(e).ok
            audited += 1
    # a scrambled-basis extension audits through the same tau construction
    from test_extensions import adjoint_cocycle

    e = build_extension(adjoint_cocycle(GF(3)))
    S = Matrix(GF(3), [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    Sinv = S.inverse()
    bracket = Tensor.build(
        GF(3),
        (4, 4, 4),
        lambda i, j, k: Sinv.matvec(e.total.algebra.bracket_vec(S.col(i), S.col(j)))[k],
    )
    scrambled = ExtensionData.validate(
        e.base,
        e.coef,
        AveragingLieAlgebra.validate(
            LieAlgebra.validate(GF(3), 4, bracket), Sinv.mul(e.total.P).mul(S)
        ),
        Sinv.mul(e.i),
        e.p.mul(S),
        None,
    )
    assert audit_round_trip(scrambled).ok
    note(
        f"ACCEPTANCE 4: PASS - extract-after-build identity and tau-equivalence "
        f"on {audited} random cocycles plus a scrambled-basis extension"
    )


def enumerate_valid_cocycles_f2(gP, hQ):
    F2 = GF(2)
    out = []
    for psival, phival in product(range(2), repeat=2):
        cand = NonAbelianCocycle(
            gP,
            hQ,
            AltMap.zero(F2, 1, 2, 1),
            Tensor(F2, (1, 1, 1), [psival]),
            Matrix(F2, [[phival]]),
        )
        if check_cocycle(cand).ok:
            out.append(cand)
    return out


def bucket_cocycles_by_brute_force(cocycles):
    F2 = GF(2)
    classes = []
    for cand in cocycles:
        placed = False
        for cls in classes:
            rep = cls[0]
            witness = any(
                _phi_satisfies(cand, rep, phi)
                for phi in enumerate_linear_maps(
                    cand.base.dim, cand.coef.dim, F2
                )
            )
            # the solver must agree with the brute-force oracle
            assert witness == (cocycles_equivalent(cand, rep) is not None)
            if witness:
                cls.append(cand)
                placed = True
                break
        if not placed:
            classes.append([cand])
    return classes


def enumerate_extensions_f2(gP, hQ):
    """All short exact sequences with one-dimensional kernel and quotient."""
    F2 = GF(2)
    out = []
    brackets = []
    for a, b in product(range(2), repeat=2):

        def entry(i, j, k, image=(a, b)):
            if (i, j) == (0, 1):
                return image[k]
            if (i, j) == (1, 0):
                return F2.neg(image[k])
            return 0

        t = Tensor.build(F2, (2, 2, 2), entry)
        if check_lie(F2, 2, t).ok:
            brackets.append(t)
    ivecs = [(0, 1), (1, 0), (1, 1)]
    for t in brackets:
        lie = LieAlgebra(F2, 2, t)
        for U in enumerate_linear_maps(2, 2, F2):
            if not check_averaging(lie, U).ok:
                continue
            total = AveragingLieAlgebra(lie, U)
            for iv in ivecs:
                i = Matrix.from_cols(F2, [iv], 2)
                # the unique nonzero functional annihilating the kernel
                pvec = next(
                    v
                    for v in ((0, 1), (1, 0), (1, 1))
                    if (v[0] * iv[0] + v[1] * iv[1]) % 2 == 0
                )
                p = Matrix(F2, [list(pvec)])
                e = ExtensionData(gP, hQ, total, i, p, None)
                if check_extension(e).ok:
                    out.append(e)
    return out


def bucket_extensions(extensions):
    classes = []
    for e in extensions:
        for cls in classes:
            if extensions_equivalent(e, cls[0]) is not None:
                cls.append(e)
                break
        else:
            classes.append([e])
    return classes


def test_criterion_5_classification_counts():
    F2 = GF(2)
    results = []
    for p, q in product(range(2), repeat=2):
        gP, hQ = dim1(F2, p), dim1(F2, q)
        cocycles = enumerate_valid_cocycles_f2(gP, hQ)
        cocycle_classes = bucket_cocycles_by_brute_force(cocycles)
        extensions = enumerate_extensions_f2(gP, hQ)
        extension_classes = bucket_extensions(extensions)
        assert len(cocycle_classes) == len(extension_classes), (p, q)
        results.append((p, q, len(cocycle_classes), len(extensions)))
    note(
        "ACCEPTANCE 5: PASS - cocycle classes match extension classes at "
        + ", ".join(
            f"(P={p},Q={q}): {n} classes from {m} raw extensions"
            for p, q, n, m in results
        )
    )


def f2_fixtures_for_wells():
    split = docs.realize_extension(
        docs.load_document(fixture_path("extension_split_f2.json"))
    )
    F2 = GF(2)
    twisted_cocycle = NonAbelianCocycle(
        dim1(F2, 0),
        dim1(F2, 0),
        AltMap.zero(F2, 1, 2, 1),
        Tensor(F2, (1, 1, 1), [1]),
        Matrix(F2, [[1]]),
    )
    return [split, build_extension(twisted_cocycle)]


def test_criterion_6_wells_inducibility():
    projected = 0
    for e in f2_fixtures_for_wells():
        for gamma in extension_automorphisms(e):
            pair = project_automorphism(e, gamma)
            w = wells_class(pair, e)
            assert w.inducible is True
            lifted = lift_automorphism(pair, e, w.phi)
            back = project_automorphism(e, lifted)
            assert (back.beta, back.alpha) == (pair.beta, pair.alpha)
            projected += 1
    # non-inducible pairs exist only once the scalar group is larger than
    # the one of F2 at these dimensions; the F3 fixtures provide them
    noninducible = 0
    ext3 = docs.realize_extension(docs.load_document(fixture_path("extension_f3.json")))
    bad3 = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[2]]))
    ab3 = docs.realize_extension(
        docs.load_document(fixture_path("extension_abelian_f3.json"))
    )
    badab = AutomorphismPair(Matrix(GF(3), [[2]]), Matrix(GF(3), [[1]]))
    for e, pair in ((ext3, bad3), (ab3, badab)):
        w = wells_class(pair, e)
        assert w.inducible is False
        lifts = [
            g
            for g in extension_automorphisms(e)
            if project_automorphism(e, g).beta == pair.beta
            and project_automorphism(e, g).alpha == pair.alpha
        ]
        assert lifts == []
        noninducible += 1
    # the identity pair has zero Wells class on every shipped extension
    for name in (
        "extension_split_f2.json",
        "extension_f3.json",
        "extension_abelian_f3.json",
    ):
        e = docs.realize_extension(docs.load_document(fixture_path(name)))
        n, m = e.base.dim, e.coef.dim
        ident = AutomorphismPair(
            Matrix.identity(e.total.field, m), Matrix.identity(e.total.field, n)
        )
        w = wells_class(ident, e)
        assert w.difference_is_zero() and w.inducible is True
    note(
        f"ACCEPTANCE 6: PASS - {projected} enumerated automorphisms project to "
        f"inducible pairs with verified lifts; {noninducible} declared "
        "non-inducible pairs confirmed by exhaustive search; identity class zero"
    )


def test_criterion_7_exact_sequence():
    audited = []
    for e in f2_fixtures_for_wells():
        report = exact_sequence_audit(e)
        assert report["ok"], report
        audited.append((report["aut_total"], report["pairs_audited"]))
    ext3 = docs.realize_extension(docs.load_document(fixture_path("extension_f3.json")))
    report = exact_sequence_audit(ext3)
    assert report["ok"]
    audited.append((report["aut_total"], report["pairs_audited"]))
    note(
        "ACCEPTANCE 7: PASS - kernel of the projection equals the fixing "
        "subgroup and kernel of the Wells map equals its image on "
        + ", ".join(f"{a} automorphisms / {p} pairs" for a, p in audited)
    )


def test_criterion_8_correspondences():
    rng = random.Random(20240805)
    skeletal_count = 0
    for field in (QQ, GF(2)):
        for a, r, c in random_skeletal_instances(rng, field, 10):
            t, p = triple_to_skeletal(a, r, c)
            a2, r2, c2 = skeletal_to_triple(t, p)
            assert (a2, r2, c2) == (a, r, c)
            assert is_cocycle(r2, c2)
            t2, p2 = triple_to_skeletal(a2, r2, c2)
            assert (t2, p2) == (t, p)
            skeletal_count += 1
    strict_count = 0
    for field in (QQ, GF(3)):
        for cm in random_crossed_modules(rng, field, 10):
            t, p = crossed_to_strict(cm)
            assert strict_to_crossed(t, p) == cm
            t2, p2 = crossed_to_strict(strict_to_crossed(t, p))
            assert (t2, p2) == (t, p)
            strict_count += 1
    # exhaustive equivalence-vs-coboundary agreement at dims (1, 1) over F2
    F2 = GF(2)
    structures = []
    for cval, p0, p1 in product(range(2), repeat=3):
        t = TwoTermLinf(
            F2,
            1,
            1,
            Matrix.zero(F2, 1, 1),
            Tensor.zero(F2, (1, 1, 1)),
            Tensor(F2, (1, 1, 1), [cval]),
            AltMap.zero(F2, 1, 3, 1),
        )
        p = HomotopyAveraging(
            Matrix(F2, [[p0]]), Matrix(F2, [[p1]]), AltMap.zero(F2, 1, 2, 1)
        )
        if check_two_term(t).ok and check_homotopy_averaging(t, p).ok:
            structures.append((t, p))
    pairs_checked = 0
    for x in structures:
        for y in structures:
            same_base = (
                x[0].l2_01 == y[0].l2_01
                and x[1].P0 == y[1].P0
                and x[1].P1 == y[1].P1
            )
            w = skeletal_equivalent(x, y)
            if not same_base:
                assert w is None
                continue
            # cocycles at these dimensions are forced to zero, so the
            # coboundary test of the difference must accept
            _, rx, cx = skeletal_to_triple(*x)
            _, _, cy = skeletal_to_triple(*y)
            diff = vec_sub(rx.field, cy.vectorize(), cx.vectorize())
            diff = Cochain.from_vector(rx.field, rx.dim, rx.vdim, 3, diff)
            assert is_coboundary(rx, diff) is not None
            assert w is not None
            pairs_checked += 1
    assert pairs_checked > 0
    note(
        f"ACCEPTANCE 8: PASS - {skeletal_count} skeletal and {strict_count} strict "
        f"round trips are data-identical; equivalence matches coboundary "
        f"testing on {pairs_checked} exhaustive pairs"
    )


def test_criterion_9_split_case():
    e = docs.realize_extension(
        docs.load_document(fixture_path("extension_split_f2.json"))
    )
    c = extract_cocycle(e)
    assert c.chi.is_zero() and c.Phi.is_zero()
    v = check_split_semidirect(e)
    assert v.ok
    cpairs = compatible_pairs(e)
    for pair in cpairs:
        cochain, zero = abelian_wells(pair, e)
        assert zero
    assert v.notes["aut_total"] == v.notes["compatible_pairs"] * v.notes["kernel_fixing"]
    note(
        "ACCEPTANCE 9: PASS - split fixture extracts the zero cocycle, the "
        f"class vanishes on all {len(cpairs)} compatible pairs, the section "
        f"splits the projection, and {v.notes['aut_total']} = "
        f"{v.notes['compatible_pairs']} x {v.notes['kernel_fixing']}"
    )


def test_criterion_10_bracket_discrepancy():
    cm = docs.realize_crossed(docs.load_document(fixture_path("crossed_adjoint.json")))
    literal = literal_semidirect_bracket(cm)
    v = check_lie(QQ, cm.g0.dim + cm.g1.dim, literal)
    assert not v.ok and v.clause == "antisymmetry"
    total = crossed_semidirect(cm)
    assert check_averaging(total.algebra, total.P).ok
    note(
        "ACCEPTANCE 10: PASS - the literal bracket text breaks antisymmetry on "
        "the adjoint crossed module; the corrected bracket yields a verified "
        "averaging operator"
    )

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

import avglie.documents as docs
import avglie.extensions as ext
from avglie.errors import DimensionMismatch, ValidationError
from avglie.extensions import (
    AutomorphismPair,
    ExtensionData,
    NonAbelianCocycle,
    abelian_wells,
    audit_round_trip,
    averaging_automorphisms,
    build_extension,
    check_algebra_automorphism,
    check_automorphism_pair,
    check_cocycle,
    check_compatible_pair,
    check_extension,
    check_split_semidirect,
    cocycles_equivalent,
    compatible_pairs,
    default_section,
    exact_sequence_audit,
    extension_automorphisms,
    extensions_equivalent,
    extract_cocycle,
    induced_representation,
    lift_automorphism,
    perturbed_section,
    project_automorphism,
    transform_cocycle,
    wells_class,
)
from avglie.fields import GF, QQ
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    adjoint_representation,
    trivial_representation,
)
from avglie.linalg import Matrix, Tensor, block_matrix, solve_affine
from avglie.multilinear import AltMap

from conftest import fixture_path, g2_averaging, heisenberg, random_matrix


def dim1(field, scalar=0):
    return AveragingLieAlgebra.validate(
        LieAlgebra.abelian(field, 1), Matrix(field, [[scalar]])
    )


def adjoint_cocycle(field, which="proj"):
    a = g2_averaging(field, which)
    psi = Tensor.build(field, (2, 2, 2), lambda i, b, j: a.algebra.bracket.get(i, j, b))
    return NonAbelianCocycle(
        a, a, AltMap.zero(field, 2, 2, 2), psi, Matrix.zero(field, 2, 2)
    )


def rep_cocycle(r):
    """Zero cocycle of a representation viewed over an abelian coefficient
    algebra carrying Q."""
    field = r.field
    coef = AveragingLieAlgebra.validate(LieAlgebra.abelian(field, r.vdim), r.Q)
    return NonAbelianCocycle(
        r.base,
        coef,
        AltMap.zero(field, r.dim, 2, r.vdim),
        r.psi,
        Matrix.zero(field, r.vdim, r.dim),
    )


def random_cocycles(rng, field, count):
    """Valid cocycles with nonzero chi and Phi: extract seed extensions
    through randomly perturbed sections."""
    seeds = [
        adjoint_cocycle(field, "proj"),
        adjoint_cocycle(field, "id"),
        rep_cocycle(adjoint_representation(g2_averaging(field, "proj"))),
        rep_cocycle(
            trivial_representation(
                AveragingLieAlgebra.validate(
                    heisenberg(field), Matrix.identity(field, 3)
                ),
                1,
                Matrix.identity(field, 1),
            )
        ),
    ]
    out = []
    while len(out) < count:
        seed = rng.choice(seeds)
        e = build_extension(seed)
        mu = random_matrix(rng, field, seed.coef.dim, seed.base.dim)
        out.append(extract_cocycle(e, perturbed_section(e, mu)))
    return out


# ---------------------------------------------------------------------------
# Cocycle conditions.


def test_trivial_and_adjoint_cocycles_valid():
    c = adjoint_cocycle(QQ)
    v = check_cocycle(c)
    assert v.ok and v.notes["d_d1_agree"]
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    assert check_cocycle(rep_cocycle(r)).ok


def test_cocycle_clause_a_falsifier():
    coefs = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 2), Matrix.zero(QQ, 2, 2))
    base = g2_averaging(QQ, "zero")
    # psi_e1, psi_e2 with nonzero commutator but zero bracket image
    psi = Tensor.build(
        QQ,
        (2, 2, 2),
        lambda i, a, b: QQ.one if (i, a, b) in ((0, 0, 1), (1, 1, 0)) else QQ.zero,
    )
    c = NonAbelianCocycle(base, coefs, AltMap.zero(QQ, 2, 2, 2), psi, Matrix.zero(QQ, 2, 2))
    v = check_cocycle(c)
    assert not v.ok and v.clause == "(A)"


def test_cocycle_clause_d_falsifier_and_d1_agreement():
    F2 = GF(2)
    for p, q, psi, u in product(range(2), repeat=4):
        c = NonAbelianCocycle(
            dim1(F2, p),
            dim1(F2, q),
            AltMap.zero(F2, 1, 2, 1),
            Tensor(F2, (1, 1, 1), [psi]),
            Matrix(F2, [[u]]),
        )
        v = check_cocycle(c)
        assert v.notes["d_d1_agree"], (p, q, psi, u)
        expected_c = (q * psi * (p - q)) % 2 == 0
        expected_d = (q * psi * u) % 2 == 0
        if expected_c and not expected_d:
            assert v.clause == "(D)"
        if not expected_c:
            assert v.clause == "(C)"


def test_d_d1_agreement_exhaustive_f2_dims_11():
    F2 = GF(2)
    agreements = 0
    for p, q, psi, u in product(range(2), repeat=4):
        c = NonAbelianCocycle(
            dim1(F2, p),
            dim1(F2, q),
            AltMap.zero(F2, 1, 2, 1),
            Tensor(F2, (1, 1, 1), [psi]),
            Matrix(F2, [[u]]),
        )
        v = check_cocycle(c)
        assert v.notes["d_holds"] == v.notes["d1_holds"]
        agreements += 1
    assert agreements == 16


# ---------------------------------------------------------------------------
# Build / extract round trips.


def test_build_extension_semidirect_case():
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    e = build_extension(rep_cocycle(r))
    # with a zero cocycle the operator is block diagonal
    assert e.total.P.col(0)[2:] == (0, 0)
    assert check_extension(e).ok
    c = extract_cocycle(e)
    assert c.chi.is_zero() and c.Phi.is_zero()


def test_extract_build_round_trip_random(rng):
    for field in (GF(2), GF(3)):
        for c in random_cocycles(rng, field, 10):
            e = build_extension(c)
            back = extract_cocycle(e)
            assert back == c
    for c in random_cocycles(rng, QQ, 3):
        e = build_extension(c)
        assert extract_cocycle(e) == c


def test_build_extract_audit_round_trip(rng):
    for c in random_cocycles(rng, GF(3), 5):
        e = build_extension(c)
        assert audit_round_trip(e).ok


def test_audit_round_trip_scrambled_basis(rng):
    """An extension whose total space uses a shuffled basis still audits."""
    c = adjoint_cocycle(GF(3))
    e = build_extension(c)
    # conjugate the total space by a permutation-like invertible map
    S = Matrix(GF(3), [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    Sinv = S.inverse()
    f = GF(3)
    bracket = Tensor.build(
        f,
        (4, 4, 4),
        lambda i, j, k: Sinv.matvec(e.total.algebra.bracket_vec(S.col(i), S.col(j)))[k],
    )
    total = AveragingLieAlgebra.validate(
        LieAlgebra.validate(f, 4, bracket), Sinv.mul(e.total.P).mul(S)
    )
    scrambled = ExtensionData.validate(
        e.base, e.coef, total, Sinv.mul(e.i), e.p.mul(S), None
    )
    assert audit_round_trip(scrambled).ok


def test_two_sections_give_equivalent_cocycles(rng):
    c = adjoint_cocycle(QQ)
    e = build_extension(c)
    mu = random_matrix(rng, QQ, 2, 2)
    c1 = extract_cocycle(e)
    c2 = extract_cocycle(e, perturbed_section(e, mu))
    eq = cocycles_equivalent(c1, c2)
    assert eq is not None
    # the witness is the difference of the sections pulled back
    assert eq == Matrix.zero(QQ, 2, 2).sub(mu)


def test_default_section_properties():
    c = adjoint_cocycle(QQ)
    e = build_extension(c)
    s = default_section(e)
    assert e.p.mul(s) == Matrix.identity(QQ, 2)
    # canonical coordinates: the section picks the plain embedding
    assert s == Matrix.from_cols(QQ, [(1, 0, 0, 0), (0, 1, 0, 0)], 4)


def test_default_section_with_permuted_projection():
    """The canonical preimage follows the pivot structure of the
    projection, so permuting coordinates permutes the section rows."""
    F3 = GF(3)
    c = adjoint_cocycle(F3)
    e = build_extension(c)
    # swap the roles of the first two total coordinates
    S = Matrix(F3, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    Sinv = S.inverse()
    f = F3
    bracket = Tensor.build(
        f,
        (4, 4, 4),
        lambda i, j, k: Sinv.matvec(e.total.algebra.bracket_vec(S.col(i), S.col(j)))[k],
    )
    total = AveragingLieAlgebra.validate(
        LieAlgebra.validate(f, 4, bracket), Sinv.mul(e.total.P).mul(S)
    )
    permuted = ExtensionData.validate(
        e.base, e.coef, total, Sinv.mul(e.i), e.p.mul(S), None
    )
    s = default_section(permuted)
    assert permuted.p.mul(s) == Matrix.identity(F3, 2)
    assert s == Matrix.from_cols(F3, [(0, 1, 0, 0), (1, 0, 0, 0)], 4)


def test_extract_rejects_non_section():
    c = adjoint_cocycle(QQ)
    e = build_extension(c)
    with pytest.raises(ValidationError) as exc:
        extract_cocycle(e, Matrix.zero(QQ, 4, 2))
    assert exc.value.verdict.clause == "section"


def test_every_reader_of_a_section_names_a_non_section():
    # s = 0 has p s = 0: each function reading (s | i) reports `section`
    e = docs.realize_extension(docs.load_document(fixture_path("extension_f3.json")))
    F3 = GF(3)
    ident = AutomorphismPair(Matrix.identity(F3, 1), Matrix.identity(F3, 1))
    zero = Matrix.zero(F3, 2, 1)
    e0 = replace(e, s=zero)
    for call in (
        lambda: extract_cocycle(e, zero),
        lambda: audit_round_trip(e0),
        lambda: wells_class(ident, e0),
        lambda: project_automorphism(e0, Matrix.identity(F3, 2)),
        lambda: lift_automorphism(ident, e0, Matrix.zero(F3, 1, 1)),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.verdict.clause == "section"


def test_a_singular_basis_is_a_named_clause():
    # unvalidated data with p i != 0: the section s = i has p s = I, but
    # (s | i) is singular
    e = extension_f3()
    F3 = GF(3)
    bad = replace(e, p=Matrix(F3, [[0, 1]]), s=e.i)
    ident = AutomorphismPair(Matrix.identity(F3, 1), Matrix.identity(F3, 1))
    for call in (
        lambda: extract_cocycle(bad),
        lambda: audit_round_trip(bad),
        lambda: wells_class(ident, bad),
        lambda: project_automorphism(bad, Matrix.identity(F3, 2)),
        lambda: lift_automorphism(ident, bad, Matrix.zero(F3, 1, 1)),
        lambda: check_split_semidirect(bad),
        lambda: extensions_equivalent(bad, e),
        lambda: extensions_equivalent(e, bad),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.verdict.clause == "tau-invertible"


def test_equivalence_reflexive_and_absent(rng):
    cs = random_cocycles(rng, GF(2), 4)
    for c in cs:
        assert cocycles_equivalent(c, c) is not None
    # distinct classes over dims (1,1): found exhaustively below
    F2 = GF(2)
    c1 = NonAbelianCocycle(
        dim1(F2), dim1(F2), AltMap.zero(F2, 1, 2, 1), Tensor(F2, (1, 1, 1), [0]),
        Matrix(F2, [[0]]),
    )
    c2 = NonAbelianCocycle(
        dim1(F2), dim1(F2), AltMap.zero(F2, 1, 2, 1), Tensor(F2, (1, 1, 1), [0]),
        Matrix(F2, [[1]]),
    )
    eq = cocycles_equivalent(c1, c2)
    assert eq is None
    # brute force over both candidate maps agrees
    from avglie.extensions import _phi_satisfies

    assert not any(
        _phi_satisfies(c1, c2, Matrix(F2, [[t]]))
        for t in range(2)
    )


def heisenberg_cocycles(f, chis):
    """Cocycles with abelian base of dim 2, Heisenberg coefficients,
    P = Q = 0, psi = 0, Phi = 0 and chi(e0, e1) from chis; unvalidated,
    since a chi outside the centre breaks (A)."""
    h = AveragingLieAlgebra.validate(heisenberg(f), Matrix.zero(f, 3, 3))
    base = AveragingLieAlgebra.validate(LieAlgebra.abelian(f, 2), Matrix.zero(f, 2, 2))
    psi = Tensor.zero(f, (2, 3, 3))
    return [
        NonAbelianCocycle(base, h, AltMap(f, 2, 2, 3, [chi]), psi, Matrix.zero(f, 3, 2))
        for chi in chis
    ]


def test_equivalence_over_q_nonabelian_center_is_decided():
    """Coefficients with a nontrivial center over Q: (E1) leaves phi free
    in the center, and (E2), linear once (E1) holds, rules out every
    point of that line, not only the canonical one."""
    c1, c2 = heisenberg_cocycles(QQ, [(0, 0, 1), (0, 0, 0)])
    assert check_cocycle(c1).ok and check_cocycle(c2).ok
    assert cocycles_equivalent(c1, c2) is None


def test_equivalence_over_q_heisenberg_family():
    # with psi = Phi = 0 over an abelian base, (E2) reads 0 = chi - chi'
    # on every phi that (E1) and (E3) allow, phi = 0 among them
    chis = [(0, 0, 0), (0, 0, 1), (0, 0, Fraction(-1, 2)), (1, 0, 0), (2, -1, 3)]
    cocycles = heisenberg_cocycles(QQ, chis)
    for (chi1, c1), (chi2, c2) in product(zip(chis, cocycles), repeat=2):
        eq = cocycles_equivalent(c1, c2)
        if chi1 == chi2:
            assert eq == Matrix.zero(QQ, 3, 2)
        else:
            assert eq is None


def test_equivalence_needs_no_enumeration_limit(monkeypatch):
    F2 = GF(2)
    c1, c2 = heisenberg_cocycles(F2, [(0, 0, 1), (0, 0, 0)])
    assert cocycles_equivalent(c1, c2) is None
    monkeypatch.setattr(ext, "ENUM_LIMIT", 1)
    assert cocycles_equivalent(c1, c2) is None


def test_equivalence_with_two_to_the_eighteen_candidates():
    # (E1) puts each of the 6 columns of phi in the 3-dim centre of
    # heisenberg + F2^2: 2^18 points, none of which satisfies (E2)
    F2 = GF(2)
    h = LieAlgebra.from_pairs(F2, 5, {(0, 1): (0, 0, 1, 0, 0)})
    coef = AveragingLieAlgebra.validate(h, Matrix.zero(F2, 5, 5))
    base = AveragingLieAlgebra.validate(LieAlgebra.abelian(F2, 6), Matrix.zero(F2, 6, 6))
    psi = Tensor.zero(F2, (6, 5, 5))
    chi = AltMap(F2, 6, 2, 5, [(0, 0, 1, 0, 0)] + [(0,) * 5] * 14)
    c1 = NonAbelianCocycle.validate(base, coef, chi, psi, Matrix.zero(F2, 5, 6))
    c2 = NonAbelianCocycle.validate(
        base, coef, AltMap.zero(F2, 6, 2, 5), psi, Matrix.zero(F2, 5, 6)
    )
    _, kernel = solve_affine(*ext._equivalence_linear_system(c1, c2, False))
    assert len(kernel) == 18
    assert cocycles_equivalent(c1, c2) is None


# ---------------------------------------------------------------------------
# Transformation and the Wells machinery.


def test_transform_identity_and_inverse(rng):
    for c in random_cocycles(rng, GF(3), 5):
        n, m = c.base.dim, c.coef.dim
        ident = AutomorphismPair(
            Matrix.identity(c.base.field, m), Matrix.identity(c.base.field, n)
        )
        assert transform_cocycle(ident, c) == c
    c = adjoint_cocycle(QQ)
    beta = Matrix(QQ, [[1, 0], [1, 1]])
    alpha = Matrix(QQ, [[1, 0], [1, 1]])
    # this pair is an automorphism pair of (g2, proj) on both sides?
    v = check_automorphism_pair(AutomorphismPair(beta, alpha), c.base, c.coef)
    if v.ok:
        pair = AutomorphismPair(beta, alpha)
        inv = AutomorphismPair(beta.inverse(), alpha.inverse())
        assert transform_cocycle(inv, transform_cocycle(pair, c)) == c


def test_transform_preserves_validity(rng):
    F3 = GF(3)
    c = adjoint_cocycle(F3)
    pairs = 0
    for beta in averaging_automorphisms(c.coef):
        for alpha in averaging_automorphisms(c.base):
            out = transform_cocycle(AutomorphismPair(beta, alpha), c)
            assert check_cocycle(out).ok
            pairs += 1
    assert pairs == len(averaging_automorphisms(c.coef)) ** 2


def extension_f3():
    gP = dim1(GF(3), 1)
    hQ = dim1(GF(3), 1)
    e_lie = LieAlgebra.from_pairs(GF(3), 2, {(0, 1): (0, 1)})
    total = AveragingLieAlgebra.validate(e_lie, Matrix.identity(GF(3), 2))
    return ExtensionData.validate(
        gP, hQ, total, Matrix(GF(3), [[0], [1]]), Matrix(GF(3), [[1, 0]]),
        Matrix(GF(3), [[1], [0]]),
    )


def test_wells_identity_pair():
    e = extension_f3()
    ident = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[1]]))
    w = wells_class(ident, e)
    assert w.difference_is_zero() and w.inducible is True
    gamma = lift_automorphism(ident, e, w.phi)
    pair = project_automorphism(e, gamma)
    assert pair.beta == ident.beta and pair.alpha == ident.alpha


def test_wells_noninducible_pair_confirmed_by_enumeration():
    e = extension_f3()
    bad = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[2]]))
    w = wells_class(bad, e)
    assert w.inducible is False
    lifts = [
        g
        for g in extension_automorphisms(e)
        if project_automorphism(e, g).alpha == bad.alpha
        and project_automorphism(e, g).beta == bad.beta
    ]
    assert lifts == []


def test_every_projected_pair_is_inducible_and_lifts():
    e = extension_f3()
    for gamma in extension_automorphisms(e):
        pair = project_automorphism(e, gamma)
        w = wells_class(pair, e)
        assert w.inducible is True
        lifted = lift_automorphism(pair, e, w.phi)
        back = project_automorphism(e, lifted)
        assert back.beta == pair.beta and back.alpha == pair.alpha
        # the lifted map is a genuine member of the enumerated group
        assert lifted in extension_automorphisms(e)


def test_wells_verdict_section_independent(rng):
    e = extension_f3()
    for gamma in extension_automorphisms(e)[:3]:
        pair = project_automorphism(e, gamma)
        mu = random_matrix(rng, GF(3), 1, 1)
        s2 = perturbed_section(e, mu)
        w1 = wells_class(pair, e)
        w2 = wells_class(pair, replace(e, s=s2))
        assert w1.inducible == w2.inducible
    bad = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[2]]))
    s2 = perturbed_section(e, Matrix(GF(3), [[2]]))
    assert wells_class(bad, replace(e, s=s2)).inducible is False


def test_projection_section_independent(rng):
    e = extension_f3()
    for gamma in extension_automorphisms(e):
        p1 = project_automorphism(e, gamma)
        p2 = project_automorphism(
            replace(e, s=perturbed_section(e, Matrix(GF(3), [[1]]))), gamma
        )
        assert p1.alpha == p2.alpha and p1.beta == p2.beta


def some_automorphisms(a):
    """All automorphisms of a over F_p; over Q the diagonal ones with
    entries in {1, -1, 2}."""
    if a.field.finite:
        return averaging_automorphisms(a)
    diagonals = (
        Matrix(a.field, [[d if r == k else 0 for k in range(a.dim)] for r, d in enumerate(ds)])
        for ds in product((1, -1, 2), repeat=a.dim)
    )
    return [g for g in diagonals if check_algebra_automorphism(a, g, "g")]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
def test_another_section_is_the_extension_with_that_section(rng, field):
    # replace(e, s=s2) reads e as the explicit extraction through s2 does
    for c in random_cocycles(rng, field, 4):
        e = build_extension(c)
        n, m = c.base.dim, c.coef.dim
        s2 = perturbed_section(e, random_matrix(rng, field, m, n))
        e2, c2, T = replace(e, s=s2), extract_cocycle(e, s2), s2.hstack(e.i)
        assert extract_cocycle(e2) == c2
        v = audit_round_trip(e2)
        assert v.ok and v.notes["tau"] == T and v.notes["rebuilt"] == build_extension(c2)
        betas, alphas = some_automorphisms(c.coef), some_automorphisms(c.base)
        ident = AutomorphismPair(Matrix.identity(field, m), Matrix.identity(field, n))
        for pair in [ident] + [AutomorphismPair(rng.choice(betas), rng.choice(alphas))
                               for _ in range(2)]:
            w, t = wells_class(pair, e2), transform_cocycle(pair, c2)
            assert w.delta_chi == t.chi.sub(c2.chi) and w.delta_psi == t.psi.sub(c2.psi)
            assert w.delta_phi == t.Phi.sub(c2.Phi) and w.phi == cocycles_equivalent(t, c2)
            assert w.inducible == wells_class(pair, e).inducible
            if not w.inducible:
                continue
            gamma = lift_automorphism(pair, e2, w.phi)
            grid = [[pair.alpha, Matrix.zero(field, n, m)], [w.phi.mul(pair.alpha), pair.beta]]
            assert gamma == T.mul(block_matrix(field, grid)).mul(T.inverse())
            assert gamma.mul(e.i) == e.i.mul(pair.beta) and e.p.mul(gamma).mul(s2) == pair.alpha
            assert project_automorphism(e2, gamma) == pair == project_automorphism(e, gamma)


def test_project_requires_kernel_preservation():
    # a swap on the split abelian extension moves the kernel off itself
    F2 = GF(2)
    c = NonAbelianCocycle(
        dim1(F2), dim1(F2), AltMap.zero(F2, 1, 2, 1), Tensor.zero(F2, (1, 1, 1)),
        Matrix.zero(F2, 1, 1),
    )
    e = build_extension(c)
    swap = Matrix(F2, [[0, 1], [1, 0]])
    with pytest.raises(ValidationError) as exc:
        project_automorphism(e, swap)
    assert exc.value.verdict.clause == "restriction"


def test_lift_rejects_bad_witness():
    # a non-inducible pair cannot be lifted by any claimed witness; the
    # post-construction verification must catch it
    e = extension_f3()
    bad = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[2]]))
    with pytest.raises(ValidationError) as exc:
        lift_automorphism(bad, e, Matrix.zero(GF(3), 1, 1))
    assert exc.value.verdict.clause == "gamma-bracket"


def test_any_witness_lifts_tiny_identity_pair():
    # on the dim-(1,1) fixture all linear maps witness the identity pair;
    # each one produces a valid, distinct lift
    e = extension_f3()
    ident = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[1]]))
    lifts = {
        lift_automorphism(ident, e, Matrix(GF(3), [[t]])) for t in range(3)
    }
    assert len(lifts) == 3
    for gamma in lifts:
        back = project_automorphism(e, gamma)
        assert back.beta == ident.beta and back.alpha == ident.alpha


def test_exact_sequence_audit_f3():
    e = extension_f3()
    report = exact_sequence_audit(e)
    assert report["ok"]
    assert report["aut_total"] == 6
    assert report["pairs_audited"] == 4
    assert report["image_size"] == 2


# ---------------------------------------------------------------------------
# Abelian specialization.


def abelian_obstructed_extension():
    F3 = GF(3)
    gP = dim1(F3, 0)
    hQ = dim1(F3, 0)
    c = NonAbelianCocycle(
        gP, hQ, AltMap.zero(F3, 1, 2, 1), Tensor(F3, (1, 1, 1), [1]), Matrix(F3, [[1]])
    )
    return build_extension(c)


def test_abelian_wells_obstructed_pair():
    e = abelian_obstructed_extension()
    rep = induced_representation(e)
    pair = AutomorphismPair(Matrix(GF(3), [[2]]), Matrix(GF(3), [[1]]))
    assert check_compatible_pair(pair, rep).ok
    cochain, zero = abelian_wells(pair, e)
    assert not zero
    assert wells_class(pair, e).inducible is False
    # exhaustive lift search agrees
    lifts = [
        g
        for g in extension_automorphisms(e)
        if project_automorphism(e, g).beta == pair.beta
        and project_automorphism(e, g).alpha == pair.alpha
    ]
    assert lifts == []


def test_abelian_wells_identity_zero_class():
    e = abelian_obstructed_extension()
    ident = AutomorphismPair(Matrix(GF(3), [[1]]), Matrix(GF(3), [[1]]))
    cochain, zero = abelian_wells(ident, e)
    assert zero and cochain.is_zero()


def test_abelian_wells_rejects_incompatible_pair():
    F3 = GF(3)
    e = abelian_obstructed_extension()
    pair = AutomorphismPair(Matrix(F3, [[1]]), Matrix(F3, [[2]]))
    rep = induced_representation(e)
    assert not check_compatible_pair(pair, rep).ok
    with pytest.raises(ValidationError) as exc:
        abelian_wells(pair, e)
    assert exc.value.verdict.clause == "compatible"


def test_abelian_wells_rejects_nonabelian_coefficients():
    c = adjoint_cocycle(QQ)
    e = build_extension(c)
    ident = AutomorphismPair(Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    with pytest.raises(ValidationError) as exc:
        abelian_wells(ident, e)
    assert exc.value.verdict.clause == "abelian"


def split_f2_extension():
    F2 = GF(2)
    c = NonAbelianCocycle(
        dim1(F2), dim1(F2), AltMap.zero(F2, 1, 2, 1), Tensor.zero(F2, (1, 1, 1)),
        Matrix.zero(F2, 1, 1),
    )
    return build_extension(c)


def test_split_semidirect_counts():
    e = split_f2_extension()
    v = check_split_semidirect(e)
    assert v.ok
    assert v.notes["aut_total"] == v.notes["compatible_pairs"] * v.notes["kernel_fixing"]
    # trivial structure: the kernel-fixing group is the unipotent part
    assert v.notes["compatible_pairs"] == 1
    assert v.notes["aut_total"] == 2


def test_split_semidirect_dims_1_2():
    """A split extension with a two-dimensional kernel and nontrivial
    compatible-pair group."""
    F2 = GF(2)
    gP = dim1(F2, 0)
    hQ = AveragingLieAlgebra.validate(LieAlgebra.abelian(F2, 2), Matrix.zero(F2, 2, 2))
    c = NonAbelianCocycle(
        gP, hQ, AltMap.zero(F2, 1, 2, 2), Tensor.zero(F2, (1, 2, 2)),
        Matrix.zero(F2, 2, 1),
    )
    e = build_extension(c)
    v = check_split_semidirect(e)
    assert v.ok
    assert v.notes["aut_total"] == v.notes["compatible_pairs"] * v.notes["kernel_fixing"]


def test_split_rejects_twisted_extension():
    e = abelian_obstructed_extension()
    with pytest.raises(ValidationError) as exc:
        check_split_semidirect(e)
    assert exc.value.verdict.clause == "section-operator"


def test_nonsplit_wells_vanishes_on_compatible_identity_only():
    # on the split fixture, every compatible pair has zero class
    e = split_f2_extension()
    rep = induced_representation(e)
    for pair in compatible_pairs(e):
        cochain, zero = abelian_wells(pair, e)
        assert zero


def test_extensions_equivalent_search():
    e1 = split_f2_extension()
    e2 = split_f2_extension()
    assert extensions_equivalent(e1, e2) is not None
    twisted = abelian_obstructed_extension()
    with pytest.raises(DimensionMismatch):
        extensions_equivalent(e1, twisted)

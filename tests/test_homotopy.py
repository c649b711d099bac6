from itertools import product

import pytest

from avglie.cohomology import Cochain, assemble_delta_matrix, delta_alie, is_cocycle
from avglie import documents as docs
from avglie.errors import DimensionMismatch, ValidationError
from avglie.fields import GF, QQ
from avglie.homotopy import (
    CrossedModule,
    HomotopyAveraging,
    TwoTermLinf,
    check_crossed_module,
    check_homotopy_averaging,
    check_two_term,
    crossed_semidirect,
    crossed_to_strict,
    is_skeletal,
    is_strict,
    semidirect_bracket,
    skeletal_equivalent,
    skeletal_to_triple,
    strict_to_crossed,
    triple_to_skeletal,
)
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    adjoint_representation,
    check_averaging,
    check_lie,
    psi_tensor,
    trivial_representation,
)
from avglie.linalg import Matrix, Tensor, kernel_basis, sparse_matrices, vec_add
from avglie.multilinear import AltMap

from conftest import (
    fixture_path,
    g2,
    g2_averaging,
    heisenberg,
    random_tensor,
    scramble_representation,
)


def adjoint_two_term(field, which="proj"):
    """The identity chain map with the algebra acting on itself."""
    a = g2_averaging(field, which)
    g = a.algebra
    l2_01 = Tensor.build(field, (2, 2, 2), lambda i, x, b: g.bracket.get(i, x, b))
    t = TwoTermLinf(
        field, 2, 2, Matrix.identity(field, 2), g.bracket, l2_01, AltMap.zero(field, 2, 3, 2)
    )
    p = HomotopyAveraging(a.P, a.P, AltMap.zero(field, 2, 2, 2))
    return t, p


def module_two_term(r: Representation):
    """d = 0 with the bracket acting through a representation."""
    f = r.field
    n0, n1 = r.dim, r.vdim
    l2_01 = Tensor.build(f, (n0, n1, n1), lambda i, a, b: r.psi.get(i, b, a))
    t = TwoTermLinf(
        f,
        n0,
        n1,
        Matrix.zero(f, n0, n1),
        r.base.algebra.bracket,
        l2_01,
        AltMap.zero(f, n0, 3, n1),
    )
    p = HomotopyAveraging(r.base.P, r.Q, AltMap.zero(f, n0, 2, n1))
    return t, p


def test_adjoint_two_term_is_valid_and_strict():
    t, p = adjoint_two_term(QQ)
    assert check_two_term(t).ok
    v = check_homotopy_averaging(t, p)
    assert v.ok and v.notes["a3_sides_agree"]
    assert is_strict(t, p) and not is_skeletal(t)


def test_module_structure_is_valid():
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    t, p = module_two_term(r)
    assert check_two_term(t).ok
    assert check_homotopy_averaging(t, p).ok
    assert is_skeletal(t) and is_strict(t, p)


def test_all_zero_operators_are_averaging():
    t, _ = adjoint_two_term(QQ)
    p = HomotopyAveraging(
        Matrix.zero(QQ, 2, 2), Matrix.zero(QQ, 2, 2), AltMap.zero(QQ, 2, 2, 2)
    )
    assert check_homotopy_averaging(t, p).ok


def test_l6_falsifier():
    pairs = {(0, 1, 1): 1, (1, 0, 1): -1, (1, 2, 0): 1, (2, 1, 0): -1}
    bad = Tensor.build(QQ, (3, 3, 3), lambda i, j, k: QQ.coerce(pairs.get((i, j, k), 0)))
    t = TwoTermLinf(
        QQ,
        3,
        1,
        Matrix.zero(QQ, 3, 1),
        bad,
        Tensor.zero(QQ, (3, 1, 1)),
        AltMap.zero(QQ, 3, 3, 1),
    )
    v = check_two_term(t)
    assert not v.ok and v.clause == "L6" and v.witness.indices == (0, 1, 2)


def test_a2_falsifier():
    t, _ = adjoint_two_term(QQ)
    bad = Matrix(QQ, [[0, 0], [0, 1]])
    p = HomotopyAveraging(bad, bad, AltMap.zero(QQ, 2, 2, 2))
    v = check_homotopy_averaging(t, p)
    assert not v.ok and v.clause == "A2"


def test_invalid_base_raises():
    pairs = {(0, 1, 1): 1, (1, 0, 1): -1, (1, 2, 0): 1, (2, 1, 0): -1}
    bad = Tensor.build(QQ, (3, 3, 3), lambda i, j, k: QQ.coerce(pairs.get((i, j, k), 0)))
    t = TwoTermLinf(
        QQ, 3, 1, Matrix.zero(QQ, 3, 1), bad, Tensor.zero(QQ, (3, 1, 1)),
        AltMap.zero(QQ, 3, 3, 1),
    )
    p = HomotopyAveraging(
        Matrix.zero(QQ, 3, 3), Matrix.zero(QQ, 1, 1), AltMap.zero(QQ, 3, 2, 1)
    )
    with pytest.raises(ValidationError) as exc:
        check_homotopy_averaging(t, p)
    assert exc.value.verdict.clause == "L6"


# ---------------------------------------------------------------------------
# Skeletal <-> cocycle correspondence.


def random_skeletal_instances(rng, field, count):
    """Valid skeletal structures from random alternating 3-cocycles."""
    out = []
    reps = [
        adjoint_representation(g2_averaging(field, "proj")),
        adjoint_representation(g2_averaging(field, "id")),
        scramble_representation(
            rng, adjoint_representation(g2_averaging(field, "proj"))
        ),
        trivial_representation(
            AveragingLieAlgebra.validate(heisenberg(field), Matrix.identity(field, 3)),
            1,
            Matrix.identity(field, 1),
        ),
    ]
    while len(out) < count:
        r = rng.choice(reps)
        m = assemble_delta_matrix(r, 3)
        # restrict to alternating theta: impose theta(i,j) + theta(j,i) = 0
        # and theta(i,i) = 0 as extra linear rows
        nf = Cochain.dimension(r.dim, r.vdim, 3) - r.dim**2 * r.vdim
        extra = []
        for i in range(r.dim):
            for j in range(i, r.dim):
                for v in range(r.vdim):
                    row = [field.zero] * m.cols
                    row[nf + (i * r.dim + j) * r.vdim + v] = field.one
                    if i != j:
                        row[nf + (j * r.dim + i) * r.vdim + v] = field.add(
                            row[nf + (j * r.dim + i) * r.vdim + v], field.one
                        )
                    extra.append(row)
        big = Matrix(
            field, [list(r_) for r_ in m.entries] + extra, cols=m.cols
        )
        basis = kernel_basis(big)
        if not basis:
            coords = [field.zero] * m.cols
        else:
            coords = [field.zero] * m.cols
            for vec in basis:
                t = (
                    rng.randrange(field.p)
                    if field.finite
                    else rng.randrange(-2, 3)
                )
                coords = [
                    field.add(c, field.mul(field.coerce(t), x))
                    for c, x in zip(coords, vec)
                ]
        c = Cochain.from_vector(field, r.dim, r.vdim, 3, coords)
        assert is_cocycle(r, c)
        out.append((r.base, r, c))
    return out


def test_skeletal_triple_round_trips(rng):
    for field in (QQ, GF(2)):
        for a, r, c in random_skeletal_instances(rng, field, 10):
            t, p = triple_to_skeletal(a, r, c)
            assert is_skeletal(t)
            assert check_homotopy_averaging(t, p).ok
            a2, r2, c2 = skeletal_to_triple(t, p)
            assert a2 == a and r2 == r and c2 == c
            t2, p2 = triple_to_skeletal(a2, r2, c2)
            assert t2 == t and p2 == p


def test_triple_to_skeletal_rejects_noncocycle():
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    # degree 3 over (dim 2, vdim 2): no f slots, eight dense theta slots
    bad = None
    for k in range(8):
        c = Cochain.from_vector(QQ, 2, 2, 3, [int(i == k) for i in range(8)])
        if not is_cocycle(r, c):
            bad = c
            break
    assert bad is not None
    with pytest.raises(ValidationError) as exc:
        triple_to_skeletal(r.base, r, bad)
    assert exc.value.verdict.clause == "cocycle"


def test_triple_to_skeletal_rejects_nonalternating_theta():
    # trivial instance: every cochain is a cocycle, including ones whose
    # dense component has no alternating counterpart
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 1), Matrix.zero(QQ, 1, 1))
    r = trivial_representation(a, 1)
    c = Cochain.from_vector(QQ, 1, 1, 3, [QQ.coerce(1)])
    assert is_cocycle(r, c)
    with pytest.raises(ValidationError) as exc:
        triple_to_skeletal(a, r, c)
    assert exc.value.verdict.clause == "theta-alternating"


def test_skeletal_equivalence_round_trip(rng):
    for a, r, c in random_skeletal_instances(rng, GF(2), 5):
        x = triple_to_skeletal(a, r, c)
        # shift by a coboundary of a random degree-2 cochain
        g = Cochain.random(rng, GF(2), r.dim, r.vdim, 2)
        shifted = Cochain.from_vector(
            GF(2), r.dim, r.vdim, 3, vec_add(GF(2), c.vectorize(), delta_alie(r, g).vectorize())
        )
        if AltMap.from_dense(r.dim, shifted.theta) is None:
            continue
        y = triple_to_skeletal(a, r, shifted)
        w = skeletal_equivalent(x, y)
        assert w is not None
        assert delta_alie(r, w).f == y[0].l3.sub(x[0].l3)
        wr = skeletal_equivalent(y, x)
        assert wr is not None


def test_skeletal_equivalence_distinct_classes_absent():
    """With all structure zero every cochain is closed and nothing is
    exact, so a nonzero homotopy component can never be equivalent to the
    zero one; the rank oracle confirms the class count."""
    F2 = GF(2)
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(F2, 2), Matrix.zero(F2, 2, 2))
    r = trivial_representation(a, 1)
    from avglie.cohomology import cohomology_report

    assert cohomology_report(r, 3)["dim_cohomology"] >= 1
    zero = triple_to_skeletal(a, r, Cochain.zero(F2, 2, 1, 3))
    theta = Tensor(F2, (2, 2, 1), [0, 1, 1, 0])
    nonzero = triple_to_skeletal(a, r, Cochain(F2, 2, 1, 3, AltMap.zero(F2, 2, 3, 1), theta))
    assert skeletal_equivalent(zero, nonzero) is None
    assert skeletal_equivalent(nonzero, nonzero) is not None


def test_example_strict_structure_with_identity_operator():
    t, p = adjoint_two_term(QQ, "id")
    assert check_two_term(t).ok
    assert check_homotopy_averaging(t, p).ok
    assert is_strict(t, p)


def test_skeletal_equivalence_mismatched_base_is_absent():
    x = module_two_term(adjoint_representation(g2_averaging(QQ, "proj")))
    y = module_two_term(adjoint_representation(g2_averaging(QQ, "id")))
    assert skeletal_equivalent(x, y) is None


def test_skeletal_equivalence_exhaustive_f2_dims_1_1():
    """At dims (1,1) every valid skeletal structure embeds the zero cocycle,
    so same-base instances must always be equivalent; agreement with the
    coboundary test is checked instance by instance."""
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
    assert len(structures) >= 4
    for x in structures:
        for y in structures:
            same_base = (
                x[0].l2_00 == y[0].l2_00
                and x[0].l2_01 == y[0].l2_01
                and x[1].P0 == y[1].P0
                and x[1].P1 == y[1].P1
            )
            w = skeletal_equivalent(x, y)
            if not same_base:
                assert w is None
            else:
                # both cocycles are zero here, so the difference is a
                # coboundary exactly when a witness exists
                assert w is not None


# ---------------------------------------------------------------------------
# Strict <-> crossed module correspondence.


def random_crossed_modules(rng, field, count):
    out = []
    # adjoint: algebra acting on itself along the identity
    for which in ("proj", "id"):
        a = g2_averaging(field, which)
        rho = Tensor.build(
            field, (2, 2, 2), lambda i, x, b: a.algebra.bracket.get(i, x, b)
        )
        out.append(CrossedModule(a, a, Matrix.identity(field, 2), rho))
    # ideal inclusion: the span of the image inside the dim-2 algebra
    a = g2_averaging(field, "proj")
    sub = AveragingLieAlgebra.validate(
        LieAlgebra.abelian(field, 1), Matrix.zero(field, 1, 1)
    )
    d = Matrix(field, [[0], [1]])
    rho = Tensor.build(field, (2, 1, 1), lambda i, x, b: field.one if i == 0 else field.zero)
    out.append(CrossedModule(sub, a, d, rho))
    # abelian kernel with zero chain map: any representation qualifies
    r = adjoint_representation(g2_averaging(field, "proj"))
    abel = AveragingLieAlgebra.validate(LieAlgebra.abelian(field, 2), r.Q)
    rho2 = Tensor.build(field, (2, 2, 2), lambda i, x, b: r.psi.get(i, b, x))
    out.append(CrossedModule(abel, r.base, Matrix.zero(field, 2, 2), rho2))
    while len(out) < count:
        out.append(out[rng.randrange(4)])
    return out[:count]


def test_crossed_module_examples_valid(rng):
    for cm in random_crossed_modules(rng, QQ, 6):
        assert check_crossed_module(cm).ok


def test_kernel_of_averaging_morphism_is_crossed_module():
    # projection onto the first coordinate is an averaging morphism
    # (g2, diag(1,0)) -> (abelian 1, identity); its kernel is the ideal
    a = g2_averaging(QQ, "proj")
    sub = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 1), Matrix.zero(QQ, 1, 1))
    d = Matrix(QQ, [[0], [1]])
    rho = Tensor.build(QQ, (2, 1, 1), lambda i, x, b: QQ.one if i == 0 else QQ.zero)
    cm = CrossedModule(sub, a, d, rho)
    assert check_crossed_module(cm).ok


def test_peiffer_falsifier():
    g1 = AveragingLieAlgebra.validate(g2(QQ), Matrix.zero(QQ, 2, 2))
    g0 = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 1), Matrix.zero(QQ, 1, 1))
    cm = CrossedModule(g1, g0, Matrix.zero(QQ, 1, 2), Tensor.zero(QQ, (1, 2, 2)))
    v = check_crossed_module(cm)
    assert not v.ok and v.clause == "cm-peiffer"


def test_strict_crossed_round_trips(rng):
    for field in (QQ, GF(3)):
        for cm in random_crossed_modules(rng, field, 5):
            t, p = crossed_to_strict(cm)
            assert is_strict(t, p)
            cm2 = strict_to_crossed(t, p)
            assert cm2 == cm
            t2, p2 = crossed_to_strict(cm2)
            assert t2 == t and p2 == p
    t, p = adjoint_two_term(QQ)
    cm = strict_to_crossed(t, p)
    assert check_crossed_module(cm).ok
    t2, p2 = crossed_to_strict(cm)
    assert (t2, p2) == (t, p)


def test_strict_to_crossed_requires_strictness(rng):
    instances = random_skeletal_instances(rng, GF(2), 6)
    found = False
    for a, r, c in instances:
        if c.f.is_zero() and c.theta.is_zero():
            continue
        t, p = triple_to_skeletal(a, r, c)
        found = True
        with pytest.raises(ValidationError) as exc:
            strict_to_crossed(t, p)
        assert exc.value.verdict.clause == "strict"
    if not found:
        pytest.skip("random draw produced only zero cocycles")


def test_crossed_semidirect_is_averaging(rng):
    for cm in random_crossed_modules(rng, QQ, 6):
        total = crossed_semidirect(cm)
        assert check_averaging(total.algebra, total.P).ok
        assert total.dim == cm.g0.dim + cm.g1.dim


def test_crossed_semidirect_matches_strict_bracket(rng):
    # on a strict structure the semidirect bracket reads the mixed bracket
    t, p = adjoint_two_term(QQ)
    cm = strict_to_crossed(t, p)
    total = crossed_semidirect(cm)
    f = QQ
    n0 = 2
    for i in range(2):
        for a in range(2):
            got = total.algebra.bracket_basis(i, n0 + a)[n0:]
            want = t.l2_01.fibre(i, a)
            assert got == want


def literal_semidirect_bracket(cm):
    """Eq. (5) as printed reads rho_y k for the middle term, so both action
    terms hit the second argument; on basis pairs that is the corrected
    bracket with its [level-1, level-0] -> level-1 block set to zero."""
    f = cm.g0.field
    n0 = cm.g0.dim
    t = semidirect_bracket(cm)
    return Tensor.build(
        f,
        t.shape,
        lambda i, j, k: f.zero if i >= n0 and j < n0 and k >= n0 else t.get(i, j, k),
    )


def test_eq5_literal_text_breaks_antisymmetry(rng):
    cm = random_crossed_modules(rng, QQ, 1)[0]
    literal = literal_semidirect_bracket(cm)
    v = check_lie(QQ, cm.g0.dim + cm.g1.dim, literal)
    assert not v.ok and v.clause == "antisymmetry"
    corrected = semidirect_bracket(cm)
    assert check_lie(QQ, cm.g0.dim + cm.g1.dim, corrected).ok


def transposed_action(f, t):
    """psi[i, b, a] = rho[i, a, b], entry by entry: between a crossed
    module's rho, whose fibre (i, a) is rho_{e_i} h_a, and the action
    tensor of a representation, whose matrix i has that as column a."""
    return Tensor.build(f, t.shape, lambda i, b, a: t.get(i, a, b))


def test_action_tensor_of_a_crossed_action_is_its_transpose(rng):
    for f in (GF(2), GF(3), QQ):
        for n0, n1 in product(range(4), range(4)):
            rho = random_tensor(rng, f, (n0, n1, n1))
            psi = psi_tensor(f, n1, rho.matrices())
            assert psi == transposed_action(f, rho)
            assert Tensor.of_sparse(f, rho.shape, sparse_matrices(psi, transpose=True)) == rho


def test_operators_of_the_wrong_shape_are_refused():
    """A P0 or a P1 of the wrong shape is refused before any axiom is
    evaluated, each on its own: documents cannot carry one, so only a
    library caller reaches the guard."""
    t, p = docs.parse_two_term(docs.load_document(fixture_path("strict_two_term.json")))
    assert (t.n0, t.n1) == (2, 2)
    assert check_homotopy_averaging(t, p)
    for P0, P1 in ((Matrix.zero(QQ, 3, 2), p.P1), (p.P0, Matrix.zero(QQ, 2, 3))):
        with pytest.raises(DimensionMismatch, match="^operator shape mismatch$"):
            check_homotopy_averaging(t, HomotopyAveraging(P0, P1, p.P2))

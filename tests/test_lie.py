import random
from itertools import product
from math import comb

import pytest

import oracle_blocks
from avglie.errors import DimensionMismatch, ValidationError
from avglie.fields import GF, QQ
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    adjoint_representation,
    check_averaging,
    check_embedding_tensor,
    check_leibniz,
    check_lie,
    check_representation,
    double_construction,
    embedding_to_averaging,
    induced_leibniz,
    semidirect_product,
    sum_bracket,
    trivial_representation,
)
from avglie.homotopy import CrossedModule, semidirect_bracket
from avglie.linalg import Matrix, Tensor, block_matrix, enumerate_linear_maps
from avglie.multilinear import AltMap

from conftest import (
    g2,
    g2_averaging,
    heisenberg,
    random_matrix,
    random_tensor,
    scramble_averaging,
)


def test_validate_lie_abelian_and_dim2():
    for dim in (1, 2, 3):
        assert LieAlgebra.abelian(QQ, dim).is_abelian()
    g = g2(QQ)
    assert check_lie(QQ, 2, g.bracket).ok
    assert g.bracket_basis(0, 1) == (0, 1)
    assert g.bracket_basis(1, 0) == (0, -1)


def test_antisymmetry_violation_reported():
    t = Tensor.build(
        QQ, (2, 2, 2), lambda i, j, k: QQ.one if (k == 0 and i != j) else QQ.zero
    )
    v = check_lie(QQ, 2, t)
    assert not v.ok and v.clause == "antisymmetry"
    assert v.witness.indices == (0, 1)
    with pytest.raises(ValidationError) as exc:
        LieAlgebra.validate(QQ, 2, t)
    assert exc.value.verdict.clause == "antisymmetry"


def test_alternating_diagonal_enforced_in_characteristic_two():
    # over F2 the pairwise antisymmetry is vacuous; the diagonal is not
    t = Tensor.build(GF(2), (1, 1, 1), lambda i, j, k: 1)
    v = check_lie(GF(2), 1, t)
    assert not v.ok and v.clause == "antisymmetry" and v.witness.indices == (0, 0)


def test_jacobi_violation_reported():
    pairs = {(0, 1, 1): 1, (1, 0, 1): -1, (1, 2, 0): 1, (2, 1, 0): -1}
    t = Tensor.build(QQ, (3, 3, 3), lambda i, j, k: QQ.coerce(pairs.get((i, j, k), 0)))
    v = check_lie(QQ, 3, t)
    assert not v.ok and v.clause == "jacobi" and v.witness.indices == (0, 1, 2)
    with pytest.raises(ValidationError) as exc:
        LieAlgebra.validate(QQ, 3, t)
    assert exc.value.verdict.clause == "jacobi"


def test_identity_is_averaging_on_everything():
    for g in (g2(QQ), heisenberg(QQ), LieAlgebra.abelian(QQ, 3)):
        assert check_averaging(g, Matrix.identity(QQ, g.dim)).ok


def test_abelian_admits_every_operator(rng):
    g = LieAlgebra.abelian(GF(3), 2)
    for P in enumerate_linear_maps(2, 2, GF(3)):
        assert check_averaging(g, P).ok


def test_averaging_shape_guard():
    with pytest.raises(DimensionMismatch):
        check_averaging(g2(QQ), Matrix.identity(QQ, 3))


def test_left_right_verdicts_agree_on_random_candidates(rng):
    g = g2(GF(3))
    agree = 0
    for P in enumerate_linear_maps(2, 2, GF(3)):
        v = check_averaging(g, P)
        assert v.notes["sides_agree"]
        agree += 1
    assert agree == 81
    h = heisenberg(QQ)
    for _ in range(40):
        P = random_matrix(rng, QQ, 3, 3)
        assert check_averaging(h, P).notes["sides_agree"]


def test_double_construction_two_copies():
    big, ops = double_construction(g2(QQ), 2)
    assert big.dim == 4 and len(ops) == 2
    # both returned operators coincide for two copies and they average
    assert ops[0] == ops[1]
    assert check_averaging(big, ops[0]).ok
    # the swap-style operator: first block reads the second copy
    assert ops[0].col(2) == (1, 0, 0, 0)
    assert ops[0].col(0) == (0, 0, 0, 0)


def test_double_construction_three_copies():
    big, ops = double_construction(g2(QQ), 3)
    assert big.dim == 6 and len(ops) == 3
    for op in ops:
        assert check_averaging(big, op).ok


def test_double_construction_abelian_stays_abelian():
    big, _ = double_construction(LieAlgebra.abelian(QQ, 2), 2)
    assert big.is_abelian()


def test_induced_leibniz():
    a = g2_averaging(QQ, "id")
    leib = induced_leibniz(a)
    assert leib.bracket == a.algebra.bracket
    z = g2_averaging(QQ, "zero")
    assert induced_leibniz(z).bracket.is_zero()
    proj = g2_averaging(QQ, "proj")
    lb = induced_leibniz(proj)
    assert check_leibniz(QQ, 2, lb.bracket).ok
    # {e1, e2} = [P e1, e2] = e2; {e2, _} = [0, _] = 0
    assert tuple(lb.bracket.get(0, 1, k) for k in range(2)) == (0, 1)
    assert tuple(lb.bracket.get(1, 0, k) for k in range(2)) == (0, 0)


def test_induced_leibniz_on_doubled_algebra():
    """Hand evaluation of {X, Y} = [P(X), Y] on the four-dimensional basis."""
    big, ops = double_construction(g2(QQ), 2)
    a = AveragingLieAlgebra.validate(big, ops[0])
    lb = induced_leibniz(a).bracket

    def row(i, j):
        return tuple(lb.get(i, j, k) for k in range(4))

    # P kills the first copy entirely
    for i in (0, 1):
        for j in range(4):
            assert row(i, j) == (0, 0, 0, 0)
    # P maps the second copy onto the first: {E2, .} = [E0, .], {E3, .} = [E1, .]
    assert row(2, 1) == (0, 1, 0, 0)
    assert row(2, 3) == (0, 0, 0, 1)
    assert row(2, 0) == (0, 0, 0, 0)
    assert row(2, 2) == (0, 0, 0, 0)
    assert row(3, 0) == (0, -1, 0, 0)
    assert row(3, 2) == (0, 0, 0, -1)
    assert row(3, 1) == (0, 0, 0, 0)
    assert row(3, 3) == (0, 0, 0, 0)


def test_double_construction_randomized_small_algebras(rng):
    for base in (heisenberg(GF(5)), g2(GF(5)), LieAlgebra.abelian(GF(5), 2)):
        for copies in (2, 3):
            big, ops = double_construction(base, copies)
            for op in ops:
                assert check_averaging(big, op).ok


def test_embedding_tensor_exhaustive_dims_1_1():
    F2 = GF(2)
    g = LieAlgebra.abelian(F2, 1)
    for c in range(2):
        psi = Tensor(F2, (1, 1, 1), [c])
        for t in range(2):
            T = Matrix(F2, [[t]])
            # the identity requires t*t*c = 0 on the one-dimensional module
            assert check_embedding_tensor(g, 1, psi, T).ok == ((t * t * c) % 2 == 0)


def test_embedding_tensor_examples():
    g = g2(QQ)
    psi_ad = Tensor.build(QQ, (2, 2, 2), lambda i, b, j: g.bracket.get(i, j, b))
    assert check_embedding_tensor(g, 2, psi_ad, Matrix.zero(QQ, 2, 2)).ok
    assert check_embedding_tensor(g, 2, psi_ad, Matrix.identity(QQ, 2)).ok
    a = embedding_to_averaging(g, 2, psi_ad, Matrix.identity(QQ, 2))
    assert a.dim == 4 and check_averaging(a.algebra, a.P).ok


def test_embedding_tensor_exhaustive_equivalence_over_f2():
    """T is an embedding tensor exactly when its operator averages."""
    F2 = GF(2)
    g = g2(F2)
    psi_ad = Tensor.build(F2, (2, 2, 2), lambda i, b, j: g.bracket.get(i, j, b))
    semi = semidirect_product(g, 2, psi_ad)
    good = bad = 0
    for T in enumerate_linear_maps(2, 2, F2):
        rows = [[F2.zero] * 4 for _ in range(4)]
        for a in range(2):
            for r in range(2):
                rows[r][2 + a] = T[r, a]
        verdict_T = check_embedding_tensor(g, 2, psi_ad, T).ok
        verdict_P = check_averaging(semi, Matrix(F2, rows)).ok
        assert verdict_T == verdict_P
        good += verdict_T
        bad += not verdict_T
    assert good > 0 and bad > 0
    with pytest.raises(ValidationError) as exc:
        bad_T = next(
            T
            for T in enumerate_linear_maps(2, 2, F2)
            if not check_embedding_tensor(g, 2, psi_ad, T).ok
        )
        embedding_to_averaging(g, 2, psi_ad, bad_T)
    assert exc.value.verdict.clause == "embedding-tensor"


def test_random_embedding_verdict_matches_direct_evaluation(rng):
    F2 = GF(2)
    g = g2(F2)
    psi_ad = Tensor.build(F2, (2, 2, 2), lambda i, b, j: g.bracket.get(i, j, b))
    mats = [
        Matrix(F2, [[psi_ad.get(i, a, b) for b in range(2)] for a in range(2)])
        for i in range(2)
    ]
    for T in enumerate_linear_maps(2, 2, F2):
        expect = True
        for u in range(2):
            for v in range(2):
                tu, tv = T.col(u), T.col(v)
                lhs = g.bracket_vec(tu, tv)
                act = Matrix.zero(F2, 2, 2)
                for k, c in enumerate(tu):
                    if c:
                        act = act.add(mats[k].scale(c))
                rhs = T.matvec(act.col(v))
                if lhs != rhs:
                    expect = False
        assert check_embedding_tensor(g, 2, psi_ad, T).ok == expect


def test_adjoint_representation_always_valid(rng):
    for which in ("id", "proj", "zero"):
        r = adjoint_representation(g2_averaging(QQ, which))
        assert check_representation(r.base, r.vdim, r.psi, r.Q).ok
    scrambled, _ = scramble_averaging(rng, g2_averaging(QQ, "proj"))
    assert adjoint_representation(scrambled)


def test_trivial_representation_accepts_any_q(rng):
    a = g2_averaging(QQ, "proj")
    for _ in range(5):
        Q = random_matrix(rng, QQ, 3, 3)
        assert trivial_representation(a, 3, Q)


def test_representation_falsifier_over_f2():
    """Adjoint action with a wrong operator must fail a named chain."""
    F2 = GF(2)
    a = AveragingLieAlgebra.validate(g2(F2), Matrix.identity(F2, 2))
    r = adjoint_representation(a)
    seen = set()
    for Q in enumerate_linear_maps(2, 2, F2):
        v = check_representation(a, 2, r.psi, Q)
        if not v.ok:
            seen.add(v.clause)
            assert v.witness is not None
    assert seen <= {"rep-chain-1", "rep-chain-2"} and seen


def test_representation_chain2_falsifier_over_q():
    a = g2_averaging(QQ, "id")
    r = adjoint_representation(a)
    v = check_representation(a, 2, r.psi, Matrix(QQ, [[2, 0], [0, 2]]))
    assert not v.ok and v.clause == "rep-chain-2"


# ---------------------------------------------------------------------------
# sum_bracket and block_matrix against the entry-by-entry formulas.


def random_map(rng, f, rows, cols):
    return Matrix.from_flat(f, rows, cols, random_tensor(rng, f, (rows, cols)).entries)


def random_sum_data(rng):
    """Random brackets, actions and cocycle parts over F2, F3, F5 and Q
    with both summands of dims 0-3; nothing is validated."""
    for f, n, m in product((GF(2), GF(3), GF(5), QQ), range(4), range(4)):
        g = LieAlgebra(f, n, random_tensor(rng, f, (n, n, n)))
        h = LieAlgebra(f, m, random_tensor(rng, f, (m, m, m)))
        chi_entries = random_tensor(rng, f, (comb(n, 2) * m,)).entries
        chi = AltMap.from_flat(f, n, 2, m, chi_entries)
        yield f, g, h, random_tensor(rng, f, (n, m, m)), chi


def test_sum_bracket_matches_the_entry_formulas():
    rng = random.Random(6601)
    for f, g, h, psi, chi in random_sum_data(rng):
        n, m = g.dim, h.dim
        assert sum_bracket(g, h, psi, chi) == oracle_blocks.extension_bracket(g, h, psi, chi)
        zero_chi = AltMap.zero(f, n, 2, m)
        assert sum_bracket(g, h, psi) == oracle_blocks.extension_bracket(g, h, psi, zero_chi)
        flat = LieAlgebra.abelian(f, m)
        assert sum_bracket(g, flat, psi) == oracle_blocks.semidirect_product_bracket(g, m, psi)
        rho = random_tensor(rng, f, (n, m, m))
        cm = CrossedModule(
            AveragingLieAlgebra(h, Matrix.zero(f, m, m)),
            AveragingLieAlgebra(g, Matrix.zero(f, n, n)),
            random_map(rng, f, n, m),
            rho,
        )
        assert semidirect_bracket(cm) == oracle_blocks.crossed_bracket(g, h, rho)


def test_double_construction_matches_the_entry_formulas():
    rng = random.Random(6604)
    for f, copies in product((GF(2), GF(3), QQ), (2, 3, 4)):
        algebras = [LieAlgebra.abelian(f, 0), g2(f), heisenberg(f)]
        algebras.append(scramble_averaging(rng, g2_averaging(f, "proj"))[0].algebra)
        for g in algebras:
            big, ops = double_construction(g, copies)
            assert (big.bracket, ops) == oracle_blocks.double_construction(g, copies)


def test_block_matrix_matches_the_entry_formulas():
    rng = random.Random(6602)
    for f, n, m in product((GF(2), GF(3), GF(5), QQ), range(4), range(4)):
        P, Q = random_map(rng, f, n, n), random_map(rng, f, m, m)
        Phi, T = random_map(rng, f, m, n), random_map(rng, f, n, m)
        zero_nm, zero_mn = Matrix.zero(f, n, m), Matrix.zero(f, m, n)
        ident_n, ident_m = Matrix.identity(f, n), Matrix.identity(f, m)
        got = (
            block_matrix(f, [[P, zero_nm], [Phi, Q]]),
            block_matrix(f, [[zero_nm], [ident_m]]),
            block_matrix(f, [[ident_n, zero_nm]]),
            block_matrix(f, [[ident_n], [zero_mn]]),
        )
        assert got == oracle_blocks.extension_maps(P, Q, Phi)
        diag = block_matrix(f, [[P, zero_nm], [zero_mn, Q]])
        assert diag == oracle_blocks.block_diagonal(P, Q)
        P_T = block_matrix(
            f, [[Matrix.zero(f, n, n), T], [zero_mn, Matrix.zero(f, m, m)]]
        )
        assert P_T == oracle_blocks.embedding_operator(n, T)
    F3 = GF(3)
    with pytest.raises(DimensionMismatch):
        block_matrix(F3, [[Matrix.zero(F3, 1, 1), Matrix.zero(F3, 2, 1)]])
    with pytest.raises(DimensionMismatch):
        block_matrix(F3, [[Matrix.zero(F3, 1, 1)], [Matrix.zero(F3, 1, 2)]])
    with pytest.raises(DimensionMismatch):
        block_matrix(F3, [[Matrix.zero(QQ, 1, 1)]])

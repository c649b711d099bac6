import random
from fractions import Fraction
from itertools import combinations, product

import oracle_linalg
import pytest
from conftest import densified, is_canonical_q, random_matrix
from hypothesis import given, settings, strategies as st
from oracle_linalg import reference_rref

from avglie.errors import DimensionMismatch, FieldTooLarge
from avglie.fields import GF, QQ
from avglie.linalg import (
    Matrix,
    Tensor,
    enumerate_linear_maps,
    kernel_basis,
    minors,
    rank,
    solve_affine,
)


def test_rank_examples():
    assert rank(Matrix.zero(QQ, 3, 3)) == 0
    assert rank(Matrix.identity(QQ, 4)) == 4
    # second row is twice the first
    assert rank(Matrix(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 5)) == []
    z = kernel_basis(Matrix.zero(QQ, 2, 3))
    assert z == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    f2 = kernel_basis(Matrix(GF(2), [[1, 1]]))
    assert f2 == [(1, 1)]


def test_solve_affine_examples():
    m = Matrix.identity(QQ, 3)
    b = (Fraction(1), Fraction(2), Fraction(3))
    part, ker = solve_affine(m, b)
    assert part == b and ker == []
    assert solve_affine(Matrix.zero(QQ, 2, 2), (Fraction(1), Fraction(0))) is None
    part, ker = solve_affine(Matrix(QQ, [[1, 2], [2, 4]]), (Fraction(1), Fraction(2)))
    assert part == (1, 0)
    assert ker == [(-2, 1)]


def test_solve_affine_solution_exactness(rng):
    for _ in range(50):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        m = Matrix(
            QQ,
            [[Fraction(rng.randrange(-3, 4)) for _ in range(cols)] for _ in range(rows)],
        )
        x = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(cols))
        b = m.matvec(x)
        part, ker = solve_affine(m, b)
        assert m.matvec(part) == b
        for v in ker:
            assert m.matvec(v) == tuple([QQ.zero] * rows)


@settings(max_examples=60)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
)
def test_rank_nullity(rows, cols, flat):
    m = Matrix.from_flat(QQ, rows, cols, [Fraction(x) for x in flat[: rows * cols]])
    assert rank(m) + len(kernel_basis(m)) == cols
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.matvec(v))


def test_solvability_matches_rank_criterion(rng):
    F3 = GF(3)
    for _ in range(100):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = Matrix(
            F3, [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)]
        )
        b = tuple(rng.randrange(3) for _ in range(rows))
        aug = m.hstack(Matrix.from_cols(F3, [b], rows_hint=rows))
        assert (solve_affine(m, b) is not None) == (rank(aug) == rank(m))


def test_enumerate_linear_maps_order_and_count():
    F2 = GF(2)
    ones = list(enumerate_linear_maps(1, 1, F2))
    assert [m.flat() for m in ones] == [(0,), (1,)]
    four = list(enumerate_linear_maps(2, 1, F2))
    assert len(four) == 4
    F3 = GF(3)
    all81 = list(enumerate_linear_maps(2, 2, F3))
    assert len(all81) == 81
    assert len(set(all81)) == 81


def test_enumerate_linear_maps_partitioning():
    with pytest.raises(FieldTooLarge):
        next(enumerate_linear_maps(1, 1, QQ))


def test_matrix_inverse_and_det():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m.mul(inv) == Matrix.identity(QQ, 2)
    assert oracle_linalg.det(m) == Fraction(-2)
    assert Matrix(QQ, [[1, 2], [2, 4]]).inverse() is None
    assert Matrix(GF(5), [[2]]).inverse() == Matrix(GF(5), [[3]])


def test_tensor_shapes_and_access():
    t = Tensor(QQ, (2, 2), [1, 2, 3, 4])
    assert t.get(1, 0) == 3
    with pytest.raises(DimensionMismatch):
        Tensor(QQ, (2, 2), [1, 2, 3])
    z = Tensor.zero(GF(2), (2, 3))
    assert z.is_zero()


def test_empty_shapes():
    z = Matrix.zero(QQ, 0, 3)
    assert rank(z) == 0
    assert len(kernel_basis(z)) == 3
    part, ker = solve_affine(z, ())
    assert part == (QQ.zero,) * 3
    n = Matrix.zero(QQ, 3, 0)
    assert rank(n) == 0
    assert kernel_basis(n) == []


def draw_matrix(data, field, rows, cols, density=100):
    """A rows x cols matrix whose entries are nonzero with about the given
    percent chance: small integers, any residue over a large prime field,
    and fractions with denominators up to 97 over Q."""
    size = rows * cols
    big = field.finite and field.p > 97
    values = data.draw(
        st.lists(
            st.integers(0, field.p - 1) if big else st.integers(-5, 5),
            min_size=size,
            max_size=size,
        )
    )
    mask = data.draw(st.lists(st.integers(0, 99), min_size=size, max_size=size))
    entries = [x if m < density else 0 for x, m in zip(values, mask)]
    if field is QQ:
        dens = data.draw(st.lists(st.integers(1, 97), min_size=size, max_size=size))
        entries = [Fraction(n, d) for n, d in zip(entries, dens)]
    return Matrix.from_flat(field, rows, cols, entries)


def assert_solvers_match_oracle(m, rhs):
    assert rank(m) == oracle_linalg.rank(m)
    assert kernel_basis(m) == oracle_linalg.kernel_basis(m)
    assert m.inverse() == oracle_linalg.inverse(m)
    for b in rhs:
        assert solve_affine(m, b) == oracle_linalg.solve_affine(m, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(7), GF(2**31 - 1)]),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from([5, 10, 20, 30, 50, 100]),
    st.data(),
)
def test_rref_matches_full_row_reference(field, rows, cols, density, data):
    """RREF, and the solvers reading one reduction each, against the
    full-row reference and the two-reduction oracle built on it: ranks,
    kernels, inverses, and points for a consistent right-hand side m x and
    an arbitrary one, often inconsistent and given as plain integers that
    the solve must coerce.  Most matrices drawn are sparse."""
    m = draw_matrix(data, field, rows, cols, density)
    assert m.rref() == reference_rref(m)
    x = draw_matrix(data, field, cols, 1).col(0)
    b = data.draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    assert_solvers_match_oracle(m, [m.matvec(x), b])


def test_rref_matches_reference_on_every_f2_augmented_identity():
    F2 = GF(2)
    ident = Matrix.identity(F2, 3)
    rhs = list(product(range(2), repeat=3))
    for flat in product(range(2), repeat=9):
        m = Matrix.from_flat(F2, 3, 3, flat)
        aug = m.hstack(ident)
        assert aug.rref() == reference_rref(aug)
        assert_solvers_match_oracle(m, rhs)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(7)]),
    st.sampled_from(["tall", "wide", "square", "no rows", "no columns"]),
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([10, 30, 60, 100]),
    st.data(),
)
def test_rank_in_any_order_matches_reference(field, shape, k, extra, density, data):
    """rank eliminates the shorter side of m with the lines of the other
    side numbered sparsest first.  Rank is invariant under transposing and
    permuting, so on tall, wide, square and empty matrices rank(m) equals
    the full-row reference rank of m, of its transpose and of m with its
    rows and columns permuted."""
    rows, cols = {
        "tall": (k + extra, k),
        "wide": (k, k + extra),
        "square": (k, k),
        "no rows": (0, k),
        "no columns": (k, 0),
    }[shape]
    m = draw_matrix(data, field, rows, cols, density)
    mt = Matrix.from_cols(field, m.entries, rows_hint=cols)
    assert (mt.rows, mt.cols) == (cols, rows)
    rperm = data.draw(st.permutations(range(rows)))
    cperm = data.draw(st.permutations(range(cols)))
    mp = Matrix(field, [[m[r, c] for c in cperm] for r in rperm], cols=cols)
    expected = oracle_linalg.rank(m)
    for a in (m, mt, mp):
        assert oracle_linalg.rank(a) == expected
        assert rank(a) == expected


def born_sparse(m):
    """m's twin born on the sparse rows of its nonzero entries."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in m.entries]
    return Matrix._of_sparse(m.field, rows, m.cols)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(7)]),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from([10, 30, 60, 100]),
    st.data(),
)
def test_born_sparse_matrix_solves_as_its_dense_twin(field, rows, cols, density, data):
    """A matrix born on sparse rows has the rank, RREF, inverse, kernel
    and solutions of its dense twin, over Q with denominators and over F_p,
    0 x k and k x 0 shapes included.  The solvers read its kept rows, not
    dense entries, and leave those rows as they were."""
    dense = draw_matrix(data, field, rows, cols, density)
    sparse = born_sparse(dense)
    kept = [dict(row) for row in sparse._sparse]
    x = draw_matrix(data, field, cols, 1).col(0)
    b = data.draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    assert rank(sparse) == rank(dense)
    assert sparse.rref() == dense.rref()
    assert sparse.inverse() == dense.inverse()
    assert kernel_basis(sparse) == kernel_basis(dense)
    for rhs in (dense.matvec(x), b):
        assert solve_affine(sparse, rhs) == solve_affine(dense, rhs)
    assert not densified(sparse) and sparse._sparse == kept
    assert sparse == dense and (sparse.rows, sparse.cols) == (rows, cols)
    assert densified(sparse)


def prod_of_denominators(m):
    out = 1
    for x in m.flat():
        out *= Fraction(x).denominator
    return out


def integral_matrix(rng, field, rows, cols):
    return Matrix(field, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.sampled_from([20, 50, 100]), st.data())
def test_q_solver_outputs_are_canonical(rows, cols, density, data):
    """Over Q every value the solvers return is an int where it is
    integral and a Fraction only where there is a denominator, on
    integral matrices and on matrices with denominators alike."""
    m = draw_matrix(data, QQ, rows, cols, density)
    integral = m.scale(prod_of_denominators(m))
    for a in (m, integral):
        b = data.draw(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
        values = list(a.flat()) + list(a.rref()[0].flat())
        for v in kernel_basis(a):
            values += v
        sol = solve_affine(a, b)
        if sol is not None:
            values += sol[0]
            for v in sol[1]:
                values += v
        if rows == cols:
            values.append(oracle_linalg.det(a))
            inv = a.inverse()
            if inv is not None:
                values += inv.flat()
        assert all(is_canonical_q(x) for x in values)


def test_minors_match_gaussian_determinants():
    """Every minor of every size, by cofactor expansion, against
    the elimination determinant of the submatrix, on seeded random square and rectangular
    matrices; over Q the minors are canonical, and ints on integral
    matrices."""
    rng = random.Random(7)
    for field in (QQ, GF(2), GF(3)):
        for n in range(7):
            for shape in ((n, n), (n, max(n - 2, 0))):
                drawn = (random_matrix(rng, field, *shape), integral_matrix(rng, field, *shape))
                for P, whole in zip(drawn, (False, True)):
                    det = minors(P)
                    for k in range(min(shape) + 1):
                        for t in combinations(range(P.cols), k):
                            for s in combinations(range(P.rows), k):
                                d = det(s, t)
                                sub = Matrix(field, [[P[i, j] for j in t] for i in s], cols=k)
                                assert d == oracle_linalg.det(sub), (field, P, s, t)
                                if field is QQ:
                                    assert is_canonical_q(d)
                                    assert type(d) is int or not whole

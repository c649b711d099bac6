"""The validators and differential tables that work on sparse matrices,
against their loop forms: every validator stated on sparse matrices against
`oracle_validators` on drawn maps, operators and structure constants, each
0, I, one nonzero entry or dense (a zero column is an absent key on the
sparse side), with and without a spoiled constant; and `delta_rows`
against the differential of `oracle_delta` on operators with zero rows and
columns.  The linear clauses of the searches and of cocycle equivalence,
`extensions._product_rows`, `_commutator_rows` and `_e2_rows`, are read
against the products they stand for, evaluated directly."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb

from hypothesis import given, settings, strategies as st

import oracle_delta
import oracle_validators as oracle
from avglie import extensions as ext
from avglie import homotopy as hom
from avglie import lie
from avglie.cohomology import Cochain, assemble_delta_matrix, delta_rows
from avglie.errors import ValidationError
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, Tensor, vec_basis
from avglie.multilinear import AltMap
from conftest import dense_invertible, g2, heisenberg, scramble_representation
from test_cohomology import sparse_product_is_zero

FIELDS = (GF(2), GF(3), QQ)


def verdict(fn, *args):
    """A validator's answer: ok, clause, witness and notes of its verdict
    (None when it returns None), or the verdict of the ValidationError it
    raises."""
    try:
        v = fn(*args)
    except ValidationError as exc:
        return "raised", verdict(lambda: exc.verdict)
    if v is None:
        return None
    return v.ok, v.clause, v.witness and v.witness.as_strings(), v.notes


def agree(lib_fn, oracle_fn, *args):
    assert verdict(lib_fn, *args) == verdict(oracle_fn, *args), (lib_fn.__name__, args)


def scalars(f, nonzero=False):
    if f.finite:
        return st.integers(1 if nonzero else 0, f.p - 1).map(f.coerce)
    values = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)] + ([] if nonzero else [0, 0])
    return st.sampled_from(values).map(f.coerce)


@st.composite
def entries(draw, f, size):
    """size scalars: all 0, one nonzero, or dense."""
    kind = draw(st.sampled_from(("zero", "single", "dense")))
    flat = [f.zero] * size
    if kind == "single" and size:
        flat[draw(st.integers(0, size - 1))] = draw(scalars(f, True))
    elif kind == "dense":
        flat = [draw(scalars(f)) for _ in range(size)]
    return flat


@st.composite
def maps(draw, f, rows, cols):
    """A rows x cols matrix: 0, I when square, one nonzero entry, or dense."""
    if rows == cols and draw(st.integers(0, 3)) == 0:
        return Matrix.identity(f, rows)
    return Matrix.from_flat(f, rows, cols, draw(entries(f, rows * cols)))


def operators(f, n):
    return maps(f, n, n)


@st.composite
def lie_algebras(draw, f):
    """One of `algebras(f)`, now and then with one structure constant moved."""
    g = draw(st.sampled_from(algebras(f)))
    if draw(st.integers(0, 4)) == 0:
        flat = list(g.bracket.entries)
        k = draw(st.integers(0, len(flat) - 1))
        flat[k] = f.add(flat[k], draw(scalars(f, True)))
        g = lie.LieAlgebra(f, g.dim, Tensor(f, g.bracket.shape, flat))
    return g


def algebras(f):
    doubled, _ = lie.double_construction(g2(f), 2)
    return [g2(f), heisenberg(f), doubled, lie.LieAlgebra.abelian(f, 2)]


@st.composite
def instances(draw):
    """(g, P, vdim, psi, Q), with at most one constant spoiled: g acts on
    itself by ad or trivially on a space of dimension 1 or 2."""
    f = draw(st.sampled_from(FIELDS))
    g = draw(st.sampled_from(algebras(f)))
    if draw(st.booleans()):
        vdim, psi = g.dim, lie.psi_tensor(f, g.dim, g.bracket.matrices())
    else:
        vdim = draw(st.integers(1, 2))
        psi = Tensor.zero(f, (g.dim, vdim, vdim))
    P, Q = draw(operators(f, g.dim)), draw(operators(f, vdim))
    spoilt = draw(st.sampled_from((None, "bracket", "P", "psi", "Q")))
    if spoilt is not None:
        x = {"bracket": g.bracket, "P": P, "psi": psi, "Q": Q}[spoilt]
        flat = list(x.entries if isinstance(x, Tensor) else x.flat())
        k = draw(st.integers(0, len(flat) - 1))
        flat[k] = f.add(flat[k], draw(scalars(f, True)))
        if spoilt == "bracket":
            g = lie.LieAlgebra(f, g.dim, Tensor(f, g.bracket.shape, flat))
        elif spoilt == "psi":
            psi = Tensor(f, psi.shape, flat)
        else:
            x = Matrix.from_flat(f, x.rows, x.cols, flat)
            P, Q = (x, Q) if spoilt == "P" else (P, x)
    return g, P, vdim, psi, Q


@settings(max_examples=300, deadline=None)
@given(instances())
def test_sparse_validators_match_the_loop_oracles(inst):
    g, P, vdim, psi, Q = inst
    agree(lie.check_averaging, oracle.check_averaging, g, P)
    agree(lie.check_lie_representation, oracle.check_lie_representation, g, vdim, psi)
    base = lie.AveragingLieAlgebra(g, P)
    agree(lie.check_representation, oracle.check_representation, base, vdim, psi, Q)


@settings(max_examples=200, deadline=None)
@given(instances(), st.data())
def test_leibniz_and_embedding_tensors_match_the_loop_oracles(inst, data):
    g, P, vdim, psi, Q = inst
    f, n = g.field, g.dim
    # {x, y} = [P x, y]: a Leibniz bracket when P is averaging
    bracket = Tensor.build(
        f, (n, n, n), lambda i, j, k: g.bracket_vec(P.col(i), vec_basis(f, n, j))[k])
    agree(lie.check_leibniz, oracle.check_leibniz, f, n, bracket)
    T = data.draw(maps(f, n, vdim))
    agree(lie.check_embedding_tensor, oracle.check_embedding_tensor, g, vdim, psi, T)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bracket_morphisms_and_automorphisms_match_the_loop_oracles(data):
    f = data.draw(st.sampled_from(FIELDS))
    src, dst = data.draw(lie_algebras(f)), data.draw(lie_algebras(f))
    phi = data.draw(maps(f, dst.dim, src.dim))
    for increasing, swap in product((False, True), repeat=2):
        agree(lie.bracket_morphism_mismatch, oracle.bracket_morphism_mismatch,
              "phi", phi, src, dst, increasing, swap)
    a = lie.AveragingLieAlgebra(src, data.draw(operators(f, src.dim)))
    g = data.draw(operators(f, src.dim))
    agree(ext.check_algebra_automorphism, oracle.check_algebra_automorphism, a, g, "g")


@st.composite
def cocycles(draw):
    """A triple over g: on g itself by ad, or on an abelian algebra by a
    drawn action, with drawn chi, Phi and operators."""
    f = draw(st.sampled_from(FIELDS))
    g = draw(lie_algebras(f))
    n, P = g.dim, draw(operators(f, g.dim))
    if draw(st.booleans()):
        h, psi = g, lie.psi_tensor(f, n, g.bracket.matrices())
    else:
        h = lie.LieAlgebra.abelian(f, draw(st.integers(1, 2)))
        psi = Tensor(f, (n, h.dim, h.dim), draw(entries(f, n * h.dim * h.dim)))
    m = h.dim
    Q = P if h is g and draw(st.booleans()) else draw(operators(f, m))
    chi = AltMap.from_flat(f, n, 2, m, draw(entries(f, comb(n, 2) * m)))
    return ext.NonAbelianCocycle(lie.AveragingLieAlgebra(g, P), lie.AveragingLieAlgebra(h, Q),
                                 chi, psi, draw(maps(f, m, n)))


@settings(max_examples=200, deadline=None)
@given(cocycles())
def test_cocycles_match_the_loop_oracle(c):
    agree(ext.check_cocycle, oracle.check_cocycle, c)


@st.composite
def crossed_modules(draw):
    """g acting on itself by its bracket, or on an abelian algebra by a
    drawn action, through a drawn d."""
    f = draw(st.sampled_from(FIELDS))
    g = draw(lie_algebras(f))
    n0, P0 = g.dim, draw(operators(f, g.dim))
    if draw(st.booleans()):
        g1, rho = g, g.bracket
    else:
        g1 = lie.LieAlgebra.abelian(f, draw(st.integers(1, 2)))
        rho = Tensor(f, (n0, g1.dim, g1.dim), draw(entries(f, n0 * g1.dim ** 2)))
    n1 = g1.dim
    P1 = P0 if g1 is g and draw(st.booleans()) else draw(operators(f, n1))
    return hom.CrossedModule(lie.AveragingLieAlgebra(g1, P1), lie.AveragingLieAlgebra(g, P0),
                             draw(maps(f, n0, n1)), rho)


@settings(max_examples=200, deadline=None)
@given(crossed_modules())
def test_crossed_modules_match_the_loop_oracle(cm):
    agree(hom.check_crossed_module, oracle.check_crossed_module, cm)


@st.composite
def two_terms(draw):
    """A level-0 bracket acting on itself or on a level 1 of dimension 1
    or 2, with a drawn d, Jacobiator and operators; a level 0 of dimension
    1 lets L4 hold and L5 fail."""
    f = draw(st.sampled_from(FIELDS))
    g = draw(st.one_of(lie_algebras(f), st.just(lie.LieAlgebra.abelian(f, 1))))
    n0 = g.dim
    if draw(st.booleans()):
        n1, l2_01 = n0, g.bracket
    else:
        n1 = draw(st.integers(1, 2))
        l2_01 = Tensor(f, (n0, n1, n1), draw(entries(f, n0 * n1 * n1)))
    l3 = AltMap.from_flat(f, n0, 3, n1, draw(entries(f, comb(n0, 3) * n1)))
    t = hom.TwoTermLinf(f, n0, n1, draw(maps(f, n0, n1)), g.bracket, l2_01, l3)
    P0 = draw(operators(f, n0))
    P1 = P0 if n1 == n0 and draw(st.booleans()) else draw(operators(f, n1))
    P2 = AltMap.from_flat(f, n0, 2, n1, draw(entries(f, comb(n0, 2) * n1)))
    return t, hom.HomotopyAveraging(P0, P1, P2)


@settings(max_examples=200, deadline=None)
@given(two_terms())
def test_two_term_structures_match_the_loop_oracles(tp):
    t, p = tp
    agree(hom.check_two_term, oracle.check_two_term, t)
    agree(hom.check_homotopy_averaging, oracle.check_homotopy_averaging, t, p)


def test_only_the_right_sided_averaging_identity_fails():
    # [e_1, e_0] = e_1 and P e_1 = e_0: the left-sided identity holds, but
    # P[e_1, P e_1] = e_0 != 0 = [P e_1, P e_1]
    f = GF(2)
    g = lie.LieAlgebra(f, 2, Tensor(f, (2, 2, 2), [0, 0, 0, 0, 0, 1, 0, 0]))
    P = Matrix(f, [[0, 1], [0, 0]])
    v = lie.check_averaging(g, P)
    assert v.ok and v.notes == {"right_holds": False, "sides_agree": False}
    agree(lie.check_averaging, oracle.check_averaging, g, P)


def representations(f, rng):
    """Adjoint modules, Q = P, whose P has zero rows and columns, is 0, or
    is invertible with at least 5 of its 9 entries nonzero: a scrambled
    P = 1 + N on the Heisenberg algebra, N sending e_0 and e_1 into the
    centre."""
    doubled, ops = lie.double_construction(g2(f), 2)
    heis = heisenberg(f)
    unipotent = Matrix(f, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    reps = [
        lie.adjoint_representation(lie.AveragingLieAlgebra.validate(a, P))
        for a, P in ((doubled, ops[0]), (heis, Matrix.zero(f, 3, 3)), (heis, unipotent))
    ]
    unscrambled = reps[2]
    while sum(map(bool, reps[2].base.P.flat())) < 5:
        reps[2] = scramble_representation(rng, unscrambled, dense_invertible)
    return reps


def test_delta_rows_match_the_oracle_differential(rng):
    for f in FIELDS:
        reps = representations(f, rng)
        zero_lines, zero, dense = (r.base.P for r in reps)
        assert not any(zero_lines.entries[-1]) and not any(zero_lines.col(0))
        assert zero.is_zero() and dense.inverse() is not None
        for r in reps:
            mats = [assemble_delta_matrix(r, deg) for deg in range(4)]
            for deg, m in enumerate(mats):
                rows = delta_rows(r, deg)
                for k in range(m.cols):
                    e = Cochain.from_vector(f, r.dim, r.vdim, deg, vec_basis(f, m.cols, k))
                    want = oracle_delta.delta_alie(r, e).vectorize()
                    assert tuple(row.get(k, f.zero) for row in rows) == want
            for low, high in zip(mats, mats[1:]):
                assert sparse_product_is_zero(high, low)


def dot(f, row, x):
    """A linear form times the vector x: the form a dense list, or a
    {column: coefficient} dict that stores no zeros."""
    if isinstance(row, dict):
        assert all(row.values()), row
        items = row.items()
    else:
        items = enumerate(row)
    acc = f.zero
    for c, y in items:
        acc = f.add(acc, f.mul(y, x[c]))
    return acc


def forms_agree(f, rows, x, want):
    assert len(rows) == len(want)
    assert [dot(f, row, x) for row in rows] == list(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_and_commutator_rows_match_the_products(data):
    f = data.draw(st.sampled_from(FIELDS))
    a, b, c, d = (data.draw(st.integers(1, 3)) for _ in range(4))
    L, R, X = data.draw(maps(f, a, b)), data.draw(maps(f, c, d)), data.draw(maps(f, b, c))
    forms_agree(f, ext._product_rows(f, L, R), X.flat(), L.mul(X).mul(R).flat())
    P1, P2 = data.draw(operators(f, c)), data.draw(operators(f, b))
    forms_agree(f, ext._commutator_rows(f, P1, P2), X.flat(), X.mul(P1).sub(P2.mul(X)).flat())


@settings(max_examples=200, deadline=None)
@given(cocycles(), st.data())
def test_e2_rows_match_the_clause(ca, data):
    # one pair (x, y) after another, row t: entry t of
    # psi_x phi e_y - psi'_y phi e_x - phi [e_x, e_y]
    f, n, m = ca.base.field, ca.base.dim, ca.coef.dim
    cb = replace(ca, psi=Tensor(f, (n, m, m), data.draw(entries(f, n * m * m))))
    phi = data.draw(maps(f, m, n))
    psi, psi_ = oracle.psi_matrices(f, m, ca.psi), oracle.psi_matrices(f, m, cb.psi)
    want = []
    for x, y in combinations(range(n), 2):
        v = psi[x].matvec(phi.col(y))
        v = [f.sub(s, t) for s, t in zip(v, psi_[y].matvec(phi.col(x)))]
        v = [f.sub(s, t) for s, t in zip(v, phi.matvec(ca.base.algebra.bracket_basis(x, y)))]
        want += v
    forms_agree(f, ext._e2_rows(ca, cb), phi.flat(), want)

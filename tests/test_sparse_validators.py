"""The validators and differential tables that work on sparse matrices,
against their loop forms: `check_averaging`, `check_lie_representation`
and `check_representation` against `oracle_validators` on drawn operators
with and without a spoiled constant, and `delta_rows` against the
differential of `oracle_delta` on operators with zero rows and columns."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle_delta
import oracle_validators as oracle
from avglie import lie
from avglie.cohomology import Cochain, assemble_delta_matrix, delta_rows
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, Tensor, vec_basis
from conftest import dense_invertible, g2, heisenberg, scramble_representation
from test_cohomology import sparse_product_is_zero

FIELDS = (GF(2), GF(3), QQ)


def verdict(v):
    return v.ok, v.clause, v.witness and v.witness.as_strings(), v.notes


def agree(lib_fn, oracle_fn, *args):
    assert verdict(lib_fn(*args)) == verdict(oracle_fn(*args)), (lib_fn.__name__, args)


def scalars(f, nonzero=False):
    if f.finite:
        return st.integers(1 if nonzero else 0, f.p - 1).map(f.coerce)
    values = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)] + ([] if nonzero else [0, 0])
    return st.sampled_from(values).map(f.coerce)


@st.composite
def operators(draw, f, n):
    """An n x n matrix: 0, I, one nonzero entry, or dense."""
    kind = draw(st.sampled_from(("zero", "identity", "single", "dense")))
    if kind == "identity":
        return Matrix.identity(f, n)
    rows = [[f.zero] * n for _ in range(n)]
    if kind == "single":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(scalars(f, True))
    elif kind == "dense":
        rows = [[draw(scalars(f)) for _ in range(n)] for _ in range(n)]
    return Matrix(f, rows)


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
        vdim, psi = g.dim, lie.psi_tensor(f, g.dim, g.ad)
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

import random

import pytest
from conftest import is_canonical_q, random_scalar
from oracle_linalg import det

from avglie.errors import DimensionMismatch
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, vec_add, vec_scale, vec_zero
from avglie.multilinear import AltMap, MultiMap

F3 = GF(3)


def random_altmap(rng, field, dim, arity, vdim):
    n = len(AltMap.zero(field, dim, arity, vdim).comps)
    return AltMap.from_flat(
        field, dim, arity, vdim, [rng.randrange(field.p) for _ in range(n * vdim)]
    )


def test_alternating_and_dense_maps_never_equal():
    # arity 1: both kinds store one component per basis vector
    comps = [(1,), (2,)]
    a = AltMap(F3, 2, 1, 1, comps)
    m = MultiMap(F3, 2, 1, 1, comps)
    assert a.comps == m.comps
    assert a != m and m != a
    assert a == AltMap(F3, 2, 1, 1, comps) and m == MultiMap(F3, 2, 1, 1, comps)


def test_arithmetic_refuses_other_kinds_and_shapes():
    a = AltMap(F3, 2, 1, 1, [(1,), (2,)])
    m = MultiMap(F3, 2, 1, 1, [(1,), (2,)])
    others = [
        m,
        AltMap.zero(F3, 2, 1, 2),
        AltMap.zero(F3, 3, 1, 1),
        AltMap.zero(GF(5), 2, 1, 1),
    ]
    for other in others:
        for op in (a.add, a.sub):
            with pytest.raises(DimensionMismatch):
                op(other)
    for op in (m.add, m.sub):
        with pytest.raises(DimensionMismatch):
            op(a)
    assert a.sub(a).is_zero() and a.add(a.neg()).is_zero()
    assert m.sub(m) == MultiMap.zero(F3, 2, 1, 1)


def test_dense_round_trip_on_random_maps():
    rng = random.Random(7)
    for dim, arity, vdim in ((3, 2, 2), (4, 3, 1), (4, 2, 3), (2, 0, 2)):
        for _ in range(5):
            a = random_altmap(rng, F3, dim, arity, vdim)
            dense = a.to_dense()
            assert type(dense) is MultiMap and dense.is_alternating()
            assert dense.to_alternating() == a
            assert AltMap.from_flat(F3, dim, arity, vdim, a.flat()) == a
            assert MultiMap.from_flat(F3, dim, arity, vdim, dense.flat()) == dense


def test_from_flat_rejects_wrong_length():
    for cls, n in ((AltMap, 3), (MultiMap, 9)):
        cls.from_flat(QQ, 3, 2, 1, [0] * n)
        for bad in (n - 1, n + 1):
            with pytest.raises(DimensionMismatch):
                cls.from_flat(QQ, 3, 2, 1, [0] * bad)


def eval_vectors_by_gaussian_minors(a, vecs):
    """The sum over increasing tuples t of det(rows t of the vectors as
    columns) times a(e_t), each minor by Gaussian elimination."""
    f = a.field
    out = vec_zero(f, a.vdim)
    for t, comp in zip(a.tuples(), a.comps):
        if a.arity:
            d = det(Matrix(f, [[vecs[c][r] for c in range(a.arity)] for r in t]))
            out = vec_add(f, out, vec_scale(f, d, comp))
    return out


def test_eval_vectors_matches_gaussian_minors():
    rng = random.Random(11)
    for field in (QQ, F3, GF(2)):
        for dim, arity, vdim in ((3, 2, 2), (4, 3, 1), (4, 2, 3), (2, 0, 2), (5, 3, 2), (2, 3, 1)):
            for _ in range(4):
                size = len(AltMap.zero(field, dim, arity, vdim).flat())
                flat = [random_scalar(rng, field) for _ in range(size)]
                a = AltMap.from_flat(field, dim, arity, vdim, flat)
                vecs = [[random_scalar(rng, field) for _ in range(dim)] for _ in range(arity)]
                got = a.eval_vectors(vecs)
                assert got == eval_vectors_by_gaussian_minors(a, vecs)
                if field is QQ:
                    assert all(is_canonical_q(x) for x in got)
    with pytest.raises(DimensionMismatch):
        AltMap.zero(F3, 3, 2, 1).eval_vectors([(1, 0, 0), (0, 1)])

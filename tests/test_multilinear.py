import random

import pytest
from conftest import is_canonical_q, random_scalar
from oracle_linalg import det

from avglie.errors import DimensionMismatch
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, Tensor, vec_add, vec_scale, vec_zero
from avglie.multilinear import AltMap, increasing_tuples

F3 = GF(3)


def test_alternating_and_dense_maps_never_equal():
    # arity 1: the map and its dense tensor hold the same entries in order
    a = AltMap(F3, 2, 1, 1, [(1,), (2,)])
    t = a.to_dense()
    assert t.entries == a.flat()
    assert a != t and t != a
    assert a == AltMap(F3, 2, 1, 1, [(1,), (2,)]) and t == Tensor(F3, (2, 1), [1, 2])


def test_arithmetic_refuses_other_kinds_and_shapes():
    a = AltMap(F3, 2, 1, 1, [(1,), (2,)])
    m = Tensor(F3, (2, 1), [1, 2])
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
    tensors = [a, Matrix(F3, [[1], [2]]), Tensor.zero(F3, (1, 2)), Tensor.zero(F3, (2, 1, 1))]
    tensors.append(Tensor.zero(GF(5), (2, 1)))
    for other in tensors:
        for op in (m.add, m.sub):
            with pytest.raises(DimensionMismatch):
                op(other)
    assert a.sub(a).is_zero() and a.add(AltMap.zero(F3, 2, 1, 1).sub(a)).is_zero()
    assert m.sub(m) == Tensor.zero(F3, (2, 1)) and m.add(Tensor.zero(F3, (2, 1)).sub(m)).is_zero()
    assert m.add(m) == Tensor(F3, (2, 1), [2, 1])


def test_dense_round_trip_on_random_maps():
    rng = random.Random(7)
    for field in (GF(2), F3, QQ):
        for dim, arity, vdim in ((3, 2, 2), (4, 3, 1), (4, 2, 3), (2, 0, 2), (3, 0, 1), (2, 3, 1)):
            for _ in range(5):
                size = len(AltMap.zero(field, dim, arity, vdim).flat())
                flat = [random_scalar(rng, field) for _ in range(size)]
                a = AltMap.from_flat(field, dim, arity, vdim, flat)
                dense = a.to_dense()
                assert type(dense) is Tensor and dense.shape == (dim,) * arity + (vdim,)
                assert AltMap.from_dense(dim, dense) == a
                assert AltMap.from_flat(field, dim, arity, vdim, a.flat()) == a


def test_from_dense_refuses_maps_that_are_not_alternating():
    # value e_0 at (e_1, e_1): nonzero on a repeated index
    entries = [0] * 8
    entries[(1 * 2 + 1) * 2 + 0] = 1
    assert AltMap.from_dense(2, Tensor(F3, (2, 2, 2), entries)) is None
    # value 1 at (e_0, e_1) and at (e_1, e_0): a swap without the sign flip
    sym = Tensor(F3, (2, 2, 1), [0, 1, 1, 0])
    assert AltMap.from_dense(2, sym) is None
    assert AltMap.from_dense(2, Tensor(F3, (2, 2, 1), [0, 1, 2, 0])) == AltMap(F3, 2, 2, 1, [(1,)])
    # over F2 a swap flips nothing, so the symmetric map is alternating
    assert AltMap.from_dense(2, Tensor(GF(2), (2, 2, 1), [0, 1, 1, 0])) is not None
    with pytest.raises(DimensionMismatch):
        AltMap.from_dense(3, sym)


def test_from_flat_rejects_wrong_length():
    AltMap.from_flat(QQ, 3, 2, 1, [0] * 3)
    Tensor(QQ, (3, 3, 1), [0] * 9)
    for bad in (2, 4):
        with pytest.raises(DimensionMismatch):
            AltMap.from_flat(QQ, 3, 2, 1, [0] * bad)
    for bad in (8, 10):
        with pytest.raises(DimensionMismatch):
            Tensor(QQ, (3, 3, 1), [0] * bad)


def eval_vectors_by_gaussian_minors(a, vecs):
    """The sum over increasing tuples t of det(rows t of the vectors as
    columns) times a(e_t), each minor by Gaussian elimination."""
    f = a.field
    out = vec_zero(f, a.vdim)
    for t, comp in zip(increasing_tuples(a.dim, a.arity), a.comps):
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

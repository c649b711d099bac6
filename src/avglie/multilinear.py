"""Alternating multilinear maps with values in a vector space.

An `AltMap` is stored on strictly increasing basis tuples only
(lexicographic order, value coordinate fastest); evaluation anywhere else
expands by the sign of the sorting permutation and is zero on repeated
indices, so skew-symmetry is a storage invariant rather than a runtime
check.  A dense multilinear map is a `linalg.Tensor` of shape
(dim,)^arity + (vdim,), row-major with the value index fastest;
`AltMap.to_dense` and `AltMap.from_dense` convert between the two.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .errors import DimensionMismatch
from .linalg import (
    Matrix,
    Tensor,
    minors,
    vec_add,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
    vec_zero,
)


def sort_with_sign(idxs):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats."""
    idxs = list(idxs)
    sign = 1
    for i in range(1, len(idxs)):
        j = i
        while j > 0 and idxs[j - 1] > idxs[j]:
            idxs[j - 1], idxs[j] = idxs[j], idxs[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idxs, idxs[1:]):
        if a == b:
            return tuple(idxs), 0
    return tuple(idxs), sign


def increasing_tuples(dim, arity):
    return list(combinations(range(dim), arity))


def dense_offset(dim, idxs):
    """Row-major position of a basis tuple among all dim^len(idxs) tuples."""
    off = 0
    for i in idxs:
        off = off * dim + i
    return off


class AltMap:
    """Alternating multilinear map on arity-many copies of a dim-space into
    a vdim-space, stored as one value vector per increasing basis tuple.

    Equality, hashing and arithmetic are type-strict: an AltMap never
    compares equal to or combines with its dense `Tensor`.
    """

    __slots__ = ("field", "dim", "arity", "vdim", "comps", "_pos")

    def __init__(self, field, dim, arity, vdim, comps):
        self.field, self.dim, self.arity, self.vdim = field, dim, arity, vdim
        n = comb(dim, arity)
        comps = tuple(tuple(field.coerce(x) for x in c) for c in comps)
        if len(comps) != n or any(len(c) != vdim for c in comps):
            raise DimensionMismatch(
                f"alternating map wants {n} components of length {vdim}"
            )
        self.comps = comps
        self._pos = {t: k for k, t in enumerate(increasing_tuples(dim, arity))}

    @staticmethod
    def zero(field, dim, arity, vdim):
        return AltMap(field, dim, arity, vdim, [(field.zero,) * vdim] * comb(dim, arity))

    @staticmethod
    def from_flat(field, dim, arity, vdim, flat):
        n = comb(dim, arity)
        flat = list(flat)
        if len(flat) != n * vdim:
            raise DimensionMismatch(
                f"alternating map wants {n * vdim} entries, got {len(flat)}"
            )
        return AltMap(
            field, dim, arity, vdim, [flat[k * vdim : (k + 1) * vdim] for k in range(n)]
        )

    def flat(self):
        return tuple(x for c in self.comps for x in c)

    # -- vector space --------------------------------------------------------

    def _shape(self):
        return (self.field, self.dim, self.arity, self.vdim)

    def _combine(self, other, op):
        if type(other) is not AltMap or other._shape() != self._shape():
            raise DimensionMismatch("alternating map shape mismatch")
        f = self.field
        return AltMap(*self._shape(), [op(f, a, b) for a, b in zip(self.comps, other.comps)])

    def add(self, other):
        return self._combine(other, vec_add)

    def sub(self, other):
        return self._combine(other, vec_sub)

    def is_zero(self):
        return all(vec_is_zero(self.field, c) for c in self.comps)

    def __eq__(self, other):
        return (
            type(other) is AltMap
            and other._shape() == self._shape()
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((*self._shape(), self.comps))

    # -- evaluation ----------------------------------------------------------

    def eval_basis(self, idxs):
        """Value at (e_{i1}, ..., e_{ik}) for arbitrary basis indices."""
        if len(idxs) != self.arity:
            raise DimensionMismatch("alternating map arity mismatch")
        key, sign = sort_with_sign(idxs)
        if sign == 0:
            return vec_zero(self.field, self.vdim)
        val = self.comps[self._pos[key]]
        return val if sign > 0 else vec_neg(self.field, val)

    def slice(self, *lead):
        """The vdim x dim matrix whose column k is the value at
        (e_i, ..., e_j, e_k), for the leading basis indices lead = (i, ..., j)."""
        vals = [self.eval_basis((*lead, k)) for k in range(self.dim)]
        return Matrix.from_cols(self.field, vals, self.vdim)

    def eval_vectors(self, vecs):
        """Value at arbitrary coordinate vectors: the sum over increasing
        tuples t of det(rows t of the vectors as columns) times f(e_t)."""
        if len(vecs) != self.arity or any(len(v) != self.dim for v in vecs):
            raise DimensionMismatch("alternating map arity or vector length mismatch")
        f = self.field
        out = vec_zero(f, self.vdim)
        # _pos lists the increasing tuples in the order of comps
        terms = [(t, c) for t, c in zip(self._pos, self.comps) if not vec_is_zero(f, c)]
        if self.arity == 0 or not terms:
            return out
        det = minors(Matrix.from_cols(f, vecs))
        cols = tuple(range(self.arity))
        for t, comp in terms:
            d = det(t, cols)
            if d:
                out = vec_add(f, out, vec_scale(f, d, comp))
        return out

    def to_dense(self):
        """The dense Tensor of shape (dim,)^arity + (vdim,): entry
        (i_1, .., i_k, b) is the e_b coordinate of the value at
        (e_{i_1}, .., e_{i_k})."""
        vals = product(range(self.dim), repeat=self.arity)
        return Tensor(
            self.field,
            (self.dim,) * self.arity + (self.vdim,),
            [x for idxs in vals for x in self.eval_basis(idxs)],
        )

    @staticmethod
    def from_dense(dim, t: Tensor):
        """The AltMap whose dense Tensor is t, or None when t is not
        alternating: nonzero on a repeated index, or not changing sign
        under a swap of two arguments.  dim is given, since the Tensor of
        an arity-0 map does not carry it."""
        arity = len(t.shape) - 1
        if arity < 0 or t.shape[:-1] != (dim,) * arity:
            raise DimensionMismatch(f"tensor shape {t.shape} is not (dim,)^arity + (vdim,)")
        comps = [t.fibre(*idxs) for idxs in increasing_tuples(dim, arity)]
        a = AltMap(t.field, dim, arity, t.shape[-1], comps)
        return a if a.to_dense() == t else None

    def __repr__(self):
        return f"AltMap({self.field}, L^{self.arity}({self.dim})->{self.vdim})"

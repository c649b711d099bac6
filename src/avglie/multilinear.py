"""Alternating and dense multilinear maps with values in a vector space.

Both kinds store one value vector per basis tuple of their layout and
share that storage, its shape checks and the vector-space operations
through one base class.  They differ in the layout and in evaluation.
Alternating maps are stored on strictly increasing basis tuples only
(lexicographic order); evaluation anywhere else expands by the sign of the
sorting permutation and is zero on repeated indices, so skew-symmetry is a
storage invariant rather than a runtime check.  Dense maps store every
argument tuple in row-major order.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .errors import DimensionMismatch
from .linalg import (
    Matrix,
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


class _ComponentMap:
    """A map on arity-many copies of a dim-space into a vdim-space, stored
    as count(dim, arity) component vectors of length vdim.

    Equality, hashing and arithmetic are type-strict: an alternating and a
    dense map never compare equal or combine, whatever their components.
    """

    __slots__ = ("field", "dim", "arity", "vdim", "comps")
    noun = "map"

    @staticmethod
    def count(dim, arity):
        raise NotImplementedError

    def __init__(self, field, dim, arity, vdim, comps):
        self.field = field
        self.dim = dim
        self.arity = arity
        self.vdim = vdim
        n = self.count(dim, arity)
        comps = tuple(tuple(field.coerce(x) for x in c) for c in comps)
        if len(comps) != n or any(len(c) != vdim for c in comps):
            raise DimensionMismatch(
                f"{self.noun} wants {n} components of length {vdim}"
            )
        self.comps = comps

    @classmethod
    def zero(cls, field, dim, arity, vdim):
        n = cls.count(dim, arity)
        return cls(field, dim, arity, vdim, [(field.zero,) * vdim] * n)

    @classmethod
    def from_flat(cls, field, dim, arity, vdim, flat):
        n = cls.count(dim, arity)
        flat = list(flat)
        if len(flat) != n * vdim:
            raise DimensionMismatch(
                f"{cls.noun} wants {n * vdim} entries, got {len(flat)}"
            )
        return cls(
            field, dim, arity, vdim, [flat[k * vdim : (k + 1) * vdim] for k in range(n)]
        )

    def flat(self):
        return tuple(x for c in self.comps for x in c)

    def _like(self, other):
        return (
            type(other) is type(self)
            and self.field == other.field
            and (self.dim, self.arity, self.vdim)
            == (other.dim, other.arity, other.vdim)
        )

    def _combine(self, other, op):
        if not self._like(other):
            raise DimensionMismatch(f"{self.noun} shape mismatch")
        f = self.field
        return type(self)(
            f,
            self.dim,
            self.arity,
            self.vdim,
            [op(f, a, b) for a, b in zip(self.comps, other.comps)],
        )

    def add(self, other):
        return self._combine(other, vec_add)

    def sub(self, other):
        return self._combine(other, vec_sub)

    def neg(self):
        f = self.field
        return type(self)(
            f, self.dim, self.arity, self.vdim, [vec_neg(f, c) for c in self.comps]
        )

    def is_zero(self):
        return all(vec_is_zero(self.field, c) for c in self.comps)

    def __eq__(self, other):
        return self._like(other) and self.comps == other.comps

    def __hash__(self):
        return hash((self.field, self.dim, self.arity, self.vdim, self.comps))


class AltMap(_ComponentMap):
    """Alternating multilinear map on arity-many copies of a dim-space."""

    __slots__ = ("_pos",)
    noun = "alternating map"

    @staticmethod
    def count(dim, arity):
        return comb(dim, arity)

    def __init__(self, field, dim, arity, vdim, comps):
        super().__init__(field, dim, arity, vdim, comps)
        self._pos = {t: k for k, t in enumerate(increasing_tuples(dim, arity))}

    def tuples(self):
        return increasing_tuples(self.dim, self.arity)

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
        """Expand into a dense MultiMap on the same spaces."""
        f = self.field
        comps = []
        for idxs in product(range(self.dim), repeat=self.arity):
            comps.append(self.eval_basis(idxs))
        return MultiMap(f, self.dim, self.arity, self.vdim, comps)

    def __repr__(self):
        return f"AltMap({self.field}, L^{self.arity}({self.dim})->{self.vdim})"


class MultiMap(_ComponentMap):
    """Dense multilinear map on arity-many copies of a dim-space."""

    __slots__ = ()
    noun = "multilinear map"

    @staticmethod
    def count(dim, arity):
        return dim**arity

    def tuples(self):
        return list(product(range(self.dim), repeat=self.arity))

    def eval_basis(self, idxs):
        if len(idxs) != self.arity:
            raise DimensionMismatch("multilinear map arity mismatch")
        return self.comps[dense_offset(self.dim, idxs)]

    def is_alternating(self):
        """True when the map kills repeated arguments and flips under swaps."""
        f = self.field
        for idxs in self.tuples():
            key, sign = sort_with_sign(idxs)
            val = self.eval_basis(idxs)
            if sign == 0:
                if not vec_is_zero(f, val):
                    return False
            else:
                ref = self.eval_basis(key)
                want = ref if sign > 0 else vec_neg(f, ref)
                if val != want:
                    return False
        return True

    def to_alternating(self):
        """Reinterpret as an AltMap; requires is_alternating()."""
        if not self.is_alternating():
            raise DimensionMismatch("map is not alternating")
        return AltMap(
            self.field,
            self.dim,
            self.arity,
            self.vdim,
            [self.eval_basis(t) for t in increasing_tuples(self.dim, self.arity)],
        )

    def __repr__(self):
        return f"MultiMap({self.field}, ({self.dim})^x{self.arity}->{self.vdim})"

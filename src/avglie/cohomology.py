"""The cochain complex of an averaging Lie algebra with coefficients in a
representation: differentials, matrix assembly, cocycle and coboundary
tests, cohomology dimensions.

A degree-n cochain is a pair (f, theta): f an `AltMap` on n arguments
(stored on increasing tuples), theta a dense multilinear map on n-1
arguments, the `Tensor` of shape (dim,)^(n-1) + (vdim,) (absent in
degree 1).  `Cochain` refuses components of any other field or shape.
Degree 0 is the zero space, kept representable so coboundary preimages
are total.  The canonical vector ordering is f-block
first (increasing tuples lexicographic, value coordinate fastest), then
theta-block (row-major argument tuple, value coordinate fastest); every
matrix-level artifact depends on this ordering.

The differential delta^n sends (f, theta) to (d_CE f, F_P f + d_Leib theta),
so in this ordering it is the block matrix [[d_CE, 0], [F_P, d_Leib]].  It
is defined once, as sparse rows without zeros read off the structure
constants, the action matrices and the minors of P (`delta_rows`); the
differentials of single cochains (`linalg.rows_matvec`), the cocycle
test, and the ranks and coboundary solves on the born-sparse matrix all
read those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

from .errors import DimensionMismatch, FieldTooLarge
from .lie import Representation
from .linalg import (Matrix, Tensor, minors, rank, rows_matvec, solve_affine, sparse_cols,
                     sparse_mul, sparse_sum)
from .multilinear import AltMap, dense_offset, sort_with_sign


# Budget of cohomology_report: the cells (rows x columns) of the largest
# differential it ranks.  No dense copy is written, so it bounds the work of
# elimination and its fill-in: degree 4 on the dim-6 adjoint module, 7812 x
# 1386 cells with 15,025 nonzeros, takes 0.07 s and 4 MB over Q (Python 3.11,
# one core of a shared 2-core machine), but in a dense basis over F7 about
# a minute and 255 MB; dim 7, with four times the cells, is refused.
MAX_DENSE_CELLS = 12_000_000


@dataclass(frozen=True)
class Cochain:
    """Element of the degree-n cochain group."""

    field: object
    dim: int
    vdim: int
    degree: int
    f: AltMap | None
    theta: Tensor | None

    def __post_init__(self):
        n = self.degree
        if n < 0:
            raise DimensionMismatch("cochain degree must be >= 0")
        if n == 0:
            if self.f is not None or self.theta is not None:
                raise DimensionMismatch("degree-0 cochains carry no data")
            return
        f, theta = self.f, self.theta
        if not isinstance(f, AltMap) or (f.field, f.dim, f.arity, f.vdim) != (
            self.field, self.dim, n, self.vdim
        ):
            raise DimensionMismatch("f must be an AltMap of arity = degree on the cochain's spaces")
        if n == 1:
            if theta is not None:
                raise DimensionMismatch("degree-1 cochains have no theta slot")
        elif not isinstance(theta, Tensor) or (theta.field, theta.shape) != (
            self.field, (self.dim,) * (n - 1) + (self.vdim,)
        ):
            raise DimensionMismatch(
                "theta must be a Tensor of arity = degree - 1 on the cochain's spaces"
            )

    @staticmethod
    def zero(field, dim, vdim, degree):
        if degree == 0:
            return Cochain(field, dim, vdim, 0, None, None)
        f = AltMap.zero(field, dim, degree, vdim)
        theta = Tensor.zero(field, (dim,) * (degree - 1) + (vdim,)) if degree >= 2 else None
        return Cochain(field, dim, vdim, degree, f, theta)

    def is_zero(self):
        if self.degree == 0:
            return True
        if not self.f.is_zero():
            return False
        return self.theta is None or self.theta.is_zero()

    def vectorize(self):
        """Coordinates in the canonical cochain basis."""
        if self.degree == 0:
            return ()
        out = list(self.f.flat())
        if self.theta is not None:
            out.extend(self.theta.entries)
        return tuple(out)

    @staticmethod
    def from_vector(field, dim, vdim, degree, vec):
        if degree == 0:
            if len(vec) != 0:
                raise DimensionMismatch("degree-0 cochain vector must be empty")
            return Cochain.zero(field, dim, vdim, 0)
        nf = comb(dim, degree) * vdim
        f = AltMap.from_flat(field, dim, degree, vdim, vec[:nf])
        theta = None
        if degree >= 2:
            theta = Tensor(field, (dim,) * (degree - 1) + (vdim,), vec[nf:])
        elif len(vec) != nf:
            raise DimensionMismatch("degree-1 cochain vector too long")
        return Cochain(field, dim, vdim, degree, f, theta)

    @staticmethod
    def dimension(dim, vdim, degree):
        """dim C^n for the given algebra and module dimensions."""
        if degree == 0:
            return 0
        nf = comb(dim, degree) * vdim
        if degree == 1:
            return nf
        return nf + dim ** (degree - 1) * vdim

    @staticmethod
    def random(rng, field, dim, vdim, degree, scalars=None):
        """Cochain with entries drawn by the given rng (deterministic tests)."""
        if scalars is None:
            if field.finite:
                scalars = [field.coerce(k) for k in range(field.p)]
            else:
                scalars = [field.coerce(k) for k in range(-3, 4)]
        size = Cochain.dimension(dim, vdim, degree)
        return Cochain.from_vector(
            field, dim, vdim, degree, [rng.choice(scalars) for _ in range(size)]
        )


# ---------------------------------------------------------------------------
# Differentials.
#
# Each block is a list of rows, one per output coordinate in the canonical
# order; a row is a {column: coefficient} dict without zeros, its columns
# numbered within the block's input component.  The rows come from the
# nonzero structure constants, the action matrices psi_x, psi_{P x} and
# Q psi_x, and the minors of P on its nonzero rows and columns, all formed
# on sparse matrices (`linalg.sparse_cols`): no cochain is evaluated.


def _signed_nonzeros(fld, m):
    """(row, column, x) for each nonzero x of the sparse matrix m, and with -x."""
    pos = [(a, b, x) for b, col in m.items() for a, x in col.items()]
    return pos, [(a, b, fld.neg(x)) for a, b, x in pos]


def _tables(r: Representation):
    """What delta_rows reads off r in every degree, built once and kept on r,
    from the sparse actions validation cached there (`Representation.sparse_acts`)."""
    t = r.__dict__.get("_delta_tables")
    if t is None:
        fld, dim, ad, P = r.field, r.dim, r.base.algebra.sparse_ad, r.base.P
        acts, p, q = r.sparse_acts, sparse_cols(P), sparse_cols(r.Q)
        pads = [sparse_sum(fld, ad, p.get(j, {})) for j in range(dim)]
        t = r.__dict__["_delta_tables"] = SimpleNamespace(
            acts=[_signed_nonzeros(fld, m) for m in acts],
            pacts=[_signed_nonzeros(fld, sparse_sum(fld, acts, p.get(j, {}))) for j in range(dim)],
            qacts=[_signed_nonzeros(fld, sparse_mul(fld, q, m)) for m in acts],
            q=_signed_nonzeros(fld, q)[0],
            # brackets[i][j] holds [e_i, e_j] and pbr[p][u] holds [P e_p, e_u]
            brackets=[[m.get(j, {}) for j in range(dim)] for m in ad],
            pbr=[[m.get(u, {}) for u in range(dim)] for m in pads],
            det=minors(P),
            p=p,
        )
    return t


def _accumulate(add, block, base, entries):
    """block[a][base + b] += x for each (a, b, x) in entries; an entry that
    cancels is deleted, so the rows keep no zeros."""
    for a, b, x in entries:
        row, c = block[a], base + b
        y = row.get(c)
        if y is None:
            row[c] = x
        elif y := add(y, x):
            row[c] = y
        else:
            del row[c]


def _minor_table(t, k):
    """Increasing column k-tuple c -> [(increasing row k-tuple s, det P[s, c])]
    over the nonzero k-minors of P; a minor on a zero row or column is 0."""
    rows = list(combinations(sorted({a for col in t.p.values() for a in col}), k))
    return {c: [(s, d) for s in rows if (d := t.det(s, c))] for c in combinations(t.p, k)}


def _lie_rows(r: Representation, n):
    """d_CE from alternating arity n to n + 1:
    (d f)(x_0..x_n) = sum_i (-1)^i psi_{x_i} f(..^i..)
                    + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..^i..^j..)."""
    fld, add, dim, vdim, t = r.field, r.field.add, r.dim, r.vdim, _tables(r)
    pos = {tup: k for k, tup in enumerate(combinations(range(dim), n))}
    rows = []
    for tup in combinations(range(dim), n + 1):
        block = [{} for _ in range(vdim)]
        for i, x in enumerate(tup):
            _accumulate(add, block, pos[tup[:i] + tup[i + 1 :]] * vdim, t.acts[x][i % 2])
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = tup[:i] + tup[i + 1 : j] + tup[j + 1 :]
                for k, c in t.brackets[tup[i]][tup[j]].items():
                    key, sign = sort_with_sign((k, *rest))
                    if sign:
                        x = c if (sign > 0) == ((i + j) % 2 == 0) else fld.neg(c)
                        _accumulate(add, block, pos[key] * vdim, ((a, a, x) for a in range(vdim)))
        rows.extend(block)
    return rows


def _leib_rows(r: Representation, n, shift=0):
    """d_Leib from dense arity n - 1 to n, its columns numbered from shift;
    with arguments x_1..x_n it is
      sum_{i<=n} (-1)^{i+1} psi_{P(x_i)} theta(..^i..)
      + (-1)^n Q(psi_{x_n} theta(x_1..x_{n-1}))
      + sum_{i<j} (-1)^i theta(..^i.., [P(x_i), x_j] at slot j, ..)."""
    fld, add, dim, vdim, t = r.field, r.field.add, r.dim, r.vdim, _tables(r)
    rows = []
    for tup in product(range(dim), repeat=n):
        block = [{} for _ in range(vdim)]
        # 0-based slot i below is slot i + 1 of the formula
        for i in range(n):
            base = dense_offset(dim, tup[:i] + tup[i + 1 :]) * vdim + shift
            _accumulate(add, block, base, t.pacts[tup[i]][i % 2])
        base = dense_offset(dim, tup[:-1]) * vdim + shift
        _accumulate(add, block, base, t.qacts[tup[-1]][n % 2])
        for i in range(n):
            for j in range(i + 1, n):
                for k, w in t.pbr[tup[i]][tup[j]].items():
                    base = dense_offset(dim, tup[:i] + tup[i + 1 : j] + (k,) + tup[j + 1 :])
                    x = w if i % 2 else fld.neg(w)
                    _accumulate(add, block, base * vdim + shift, ((a, a, x) for a in range(vdim)))
        rows.extend(block)
    return rows


def _averaging_rows(r: Representation, n):
    """F_P from alternating arity n to dense arity n:
    (F_P f)(x_1..x_n) = (-1)^n f(P x_1, .., P x_n)
                      - (-1)^n Q f(P x_1, .., P x_{n-1}, x_n).
    The first term is a sum of n-minors of P; expanding the second along
    its basis-vector column leaves (n-1)-minors."""
    fld, dim, vdim, t = r.field, r.dim, r.vdim, _tables(r)
    pos = {tup: k for k, tup in enumerate(combinations(range(dim), n))}
    top, low = _minor_table(t, n), _minor_table(t, n - 1)
    rows = []
    for tup in product(range(dim), repeat=n):
        block = [{} for _ in range(vdim)]
        key, sign = sort_with_sign(tup)
        for s, d in top.get(key, ()) if sign else ():
            x = d if (sign > 0) == (n % 2 == 0) else fld.neg(d)
            _accumulate(fld.add, block, pos[s] * vdim, ((a, a, x) for a in range(vdim)))
        key, sign = sort_with_sign(tup[:-1])
        last = tup[-1]
        for s, d in low.get(key, ()) if sign else ():
            if last not in s:
                full = tuple(sorted((*s, last)))
                # -(-1)^n times the cofactor sign (-1)^(row + n - 1) of the
                # basis-vector entry is (-1)^row
                d = d if (sign > 0) == (full.index(last) % 2 == 0) else fld.neg(d)
                entries = ((a, b, fld.mul(d, x)) for a, b, x in t.q)
                _accumulate(fld.add, block, pos[full] * vdim, entries)
        rows.extend(block)
    return rows


def delta_rows(r: Representation, degree: int):
    """Sparse rows of delta^degree in the canonical cochain bases, without
    zeros."""
    if degree < 0:
        raise DimensionMismatch("degree must be >= 0")
    if degree == 0:
        return [{} for _ in range(Cochain.dimension(r.dim, r.vdim, 1))]
    lower = _averaging_rows(r, degree)
    if degree >= 2:
        nf = comb(r.dim, degree) * r.vdim
        for row, leib in zip(lower, _leib_rows(r, degree, nf), strict=True):
            row.update(leib)
    return _lie_rows(r, degree) + lower


def delta_lie(r: Representation, f: AltMap) -> AltMap:
    """Chevalley-Eilenberg differential of the underlying Lie module."""
    if (f.field, f.dim, f.vdim) != (r.field, r.dim, r.vdim):
        raise DimensionMismatch("f does not match the representation")
    n = f.arity
    return AltMap.from_flat(
        r.field, r.dim, n + 1, r.vdim, rows_matvec(r.field, _lie_rows(r, n), f.flat())
    )


def partial_leib(r: Representation, theta: Tensor) -> Tensor:
    """Coboundary of the induced Leibniz algebra on dense multilinear maps,
    each the Tensor of shape (dim,)^arity + (vdim,)."""
    n = len(theta.shape)
    if (theta.field, theta.shape) != (r.field, (r.dim,) * (n - 1) + (r.vdim,)):
        raise DimensionMismatch("theta does not match the representation")
    return Tensor(
        r.field, (r.dim,) * n + (r.vdim,), rows_matvec(r.field, _leib_rows(r, n), theta.entries)
    )


def delta_alie(r: Representation, c: Cochain) -> Cochain:
    """Full differential: degree n -> n + 1, (f, theta) goes to
    (d_CE f, F_P f + d_Leib theta); for n = 1 the theta term is absent."""
    if (c.field, c.dim, c.vdim) != (r.field, r.dim, r.vdim):
        raise DimensionMismatch("cochain does not match the representation")
    n = c.degree
    out = rows_matvec(r.field, delta_rows(r, n), c.vectorize())
    return Cochain.from_vector(r.field, r.dim, r.vdim, n + 1, out)


def assemble_delta_matrix(r: Representation, degree: int) -> Matrix:
    """Matrix of the degree differential in the canonical cochain bases,
    born sparse on the rows of `delta_rows`."""
    nin = Cochain.dimension(r.dim, r.vdim, degree)
    return Matrix._of_sparse(r.field, delta_rows(r, degree), nin)


def is_cocycle(r: Representation, c: Cochain) -> bool:
    return delta_alie(r, c).is_zero()


def is_coboundary(r: Representation, c: Cochain):
    """A deterministic preimage under the previous differential, or None;
    it is solved on the rows of that differential, never written densely."""
    if (c.field, c.dim, c.vdim) != (r.field, r.dim, r.vdim):
        raise DimensionMismatch("cochain does not match the representation")
    n = c.degree
    if n == 0:
        return None
    m = assemble_delta_matrix(r, n - 1)
    sol = solve_affine(m, c.vectorize())
    if sol is None:
        return None
    return Cochain.from_vector(r.field, r.dim, r.vdim, n - 1, sol[0])


def cohomology_report(r: Representation, degree: int) -> dict:
    """Dimensions and ranks the CLI prints for one degree.

    Raises FieldTooLarge, before assembling anything, when delta^degree
    has more than MAX_DENSE_CELLS cells.  Both differentials are ranked on
    their sparse rows, through the module globals `assemble_delta_matrix`
    and `rank`.
    """
    if degree < 1:
        raise DimensionMismatch("cohomology degree must be >= 1")
    cells = Cochain.dimension(r.dim, r.vdim, degree + 1) * Cochain.dimension(
        r.dim, r.vdim, degree
    )
    if cells > MAX_DENSE_CELLS:
        raise FieldTooLarge(
            f"delta^{degree} has {cells} dense cells, above the budget of"
            f" {MAX_DENSE_CELLS}"
        )
    m = assemble_delta_matrix(r, degree)
    prev = assemble_delta_matrix(r, degree - 1) if degree >= 2 else None
    rk = rank(m)
    rk_prev = rank(prev) if prev is not None else 0
    dim_c = Cochain.dimension(r.dim, r.vdim, degree)
    return {
        "degree": degree,
        "dim_cochains": dim_c,
        "rank_delta": rk,
        "rank_delta_prev": rk_prev,
        "dim_cohomology": dim_c - rk - rk_prev,
    }

"""Dense exact matrices and tensors with Gaussian elimination.

One reduction, `_reduce`, is behind `Matrix.rref`, `rank`, `kernel_basis`,
`solve_affine` and `Matrix.inverse`, each calling it once.  It takes the
leftmost-nonzero pivot with immediate full reduction (RREF), so every
result is deterministic, and clears each pivot over its row's nonzero
columns only, so sparse matrices cost about their nonzeros.  A solve
reduces [m | b] once and reads both its point and the canonical RREF
free-variable kernel basis off it: when b is consistent no pivot falls in
b's column, so the reduced rows restricted to m's columns are m's RREF.
"""

from __future__ import annotations

from math import prod

from .errors import DimensionMismatch, FieldTooLarge
from .fields import Field


# ---------------------------------------------------------------------------
# Vectors: plain tuples of scalars, field supplied by the caller.


def vec_zero(fld, n):
    return (fld.zero,) * n


def vec_basis(fld, n, i):
    return tuple(fld.one if k == i else fld.zero for k in range(n))


def vec_add(fld, u, v):
    return tuple(fld.add(a, b) for a, b in zip(u, v, strict=True))


def vec_sub(fld, u, v):
    return tuple(fld.sub(a, b) for a, b in zip(u, v, strict=True))


def vec_neg(fld, u):
    return tuple(fld.neg(a) for a in u)


def vec_scale(fld, c, u):
    return tuple(fld.mul(c, a) for a in u)


def vec_is_zero(fld, u):
    return all(a == fld.zero for a in u)


def vec_bilinear(fld, n, u, v, row):
    """sum_{i,j} u_i v_j row(i, j): a bilinear map given by its basis rows.

    row(i, j) is the length-n value on the basis pair (e_i, e_j); it is
    called only for pairs with both coefficients nonzero.
    """
    out = vec_zero(fld, n)
    for i, a in enumerate(u):
        if a == fld.zero:
            continue
        for j, b in enumerate(v):
            if b == fld.zero:
                continue
            out = vec_add(fld, out, vec_scale(fld, fld.mul(a, b), row(i, j)))
    return out


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        self.field = field
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
        else:
            self.cols = 0 if cols is None else cols
        if any(len(r) != self.cols for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        self.entries = rows

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, rows, cols):
        return Matrix(field, [[field.zero] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(field, n):
        return Matrix(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @staticmethod
    def from_cols(field, cols, rows_hint=None):
        cols = list(cols)
        if not cols:
            return Matrix.zero(field, rows_hint or 0, 0)
        nrows = len(cols[0])
        return Matrix(
            field,
            [[col[r] for col in cols] for r in range(nrows)],
            cols=len(cols),
        )

    @staticmethod
    def from_flat(field, rows, cols, flat):
        flat = list(flat)
        if len(flat) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(flat)}"
            )
        return Matrix(
            field, [flat[r * cols : (r + 1) * cols] for r in range(rows)], cols=cols
        )

    # -- access -------------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def row(self, r):
        return self.entries[r]

    def col(self, c):
        return tuple(self.entries[r][c] for r in range(self.rows))

    def flat(self):
        return tuple(x for row in self.entries for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
            and self.rows == other.rows
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.entries
        )
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"

    def is_zero(self):
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_field(self, other):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")

    def add(self, other):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        f = self.field
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        f = self.field
        return Matrix(f, [[f.neg(x) for x in row] for row in self.entries], cols=self.cols)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.entries], cols=self.cols)

    def mul(self, other):
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        out = []
        for r in range(self.rows):
            row = []
            for c in range(other.cols):
                acc = f.zero
                for k in range(self.cols):
                    acc = f.add(acc, f.mul(self.entries[r][k], other.entries[k][c]))
                row.append(acc)
            out.append(row)
        return Matrix(f, out, cols=other.cols)

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} cols vs vector of {len(v)}")
        f = self.field
        out = []
        for r in range(self.rows):
            acc = f.zero
            for k in range(self.cols):
                acc = f.add(acc, f.mul(self.entries[r][k], v[k]))
            out.append(acc)
        return tuple(out)

    def hstack(self, other):
        self._check_same_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix(
            self.field,
            [list(r1) + list(r2) for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.  Returns (R, pivot_columns)."""
        m = [list(row) for row in self.entries]
        pivots = _reduce(self.field, m, self.cols)
        return Matrix(self.field, m, cols=self.cols), tuple(pivots)

    def det(self):
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of non-square matrix")
        f = self.field
        n = self.rows
        m = [list(row) for row in self.entries]
        det = f.one
        for c in range(n):
            hit = None
            for r in range(c, n):
                if m[r][c] != f.zero:
                    hit = r
                    break
            if hit is None:
                return f.zero
            if hit != c:
                m[c], m[hit] = m[hit], m[c]
                det = f.neg(det)
            det = f.mul(det, m[c][c])
            inv = f.inv(m[c][c])
            for r in range(c + 1, n):
                if m[r][c] != f.zero:
                    c0 = f.mul(inv, m[r][c])
                    m[r] = [f.sub(x, f.mul(c0, y)) for x, y in zip(m[r], m[c])]
        return det

    def inverse(self):
        """Inverse matrix, or None if singular."""
        if self.rows != self.cols:
            return None
        f, n = self.field, self.rows
        aug = [list(row) + list(vec_basis(f, n, i)) for i, row in enumerate(self.entries)]
        if _reduce(f, aug, 2 * n) != list(range(n)):
            return None
        return Matrix(f, [row[n:] for row in aug], cols=n)


def block_matrix(field, blocks):
    """The matrix assembled from a grid of blocks, given as rows of Matrix
    blocks; blocks in one grid row share their row count, blocks in one
    grid column their column count."""
    widths = [b.cols for b in blocks[0]]
    rows = []
    for brow in blocks:
        shapes = [(b.field, b.rows, b.cols) for b in brow]
        if shapes != [(field, brow[0].rows, w) for w in widths]:
            raise DimensionMismatch("blocks do not line up over one field")
        rows += [sum((b.row(r) for b in brow), ()) for r in range(brow[0].rows)]
    return Matrix(field, rows, cols=sum(widths))


def _reduce(field, rows, ncols):
    """Reduce rows, a list of row lists, in place to RREF over the first
    ncols columns; returns the pivot columns."""
    zero = field.zero
    pivots = []
    pr = 0
    for pc in range(ncols):
        if pr == len(rows):
            break
        hit = next((r for r in range(pr, len(rows)) if rows[r][pc] != zero), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        row = rows[pr]
        # columns left of pc are zero in the pivot row
        nz = [c for c in range(pc, ncols) if row[c] != zero]
        inv = field.inv(row[pc])
        for c in nz:
            row[c] = field.mul(inv, row[c])
        for r, other in enumerate(rows):
            if r != pr and other[pc] != zero:
                c0 = other[pc]
                for c in nz:
                    other[c] = field.sub(other[c], field.mul(c0, row[c]))
        pivots.append(pc)
        pr += 1
    return pivots


def rank(m: Matrix) -> int:
    return len(_reduce(m.field, [list(row) for row in m.entries], m.cols))


def kernel_basis(m: Matrix):
    """Canonical right-kernel basis: the kernel of solve_affine(m, 0)."""
    return solve_affine(m, (m.field.zero,) * m.rows)[1]


def solve_affine(m: Matrix, b):
    """Solve m x = b exactly.

    Returns None when b is outside the column space, else a pair
    (particular, kernel) read off one reduction of [m | b]: the particular
    solution has every free variable 0; the kernel has one vector per free
    column, in column order, with that free variable 1, the others 0 and
    the pivot variables read off the reduced rows.
    """
    if len(b) != m.rows:
        raise DimensionMismatch("solve_affine: rhs length mismatch")
    f, n = m.field, m.cols
    rows = [list(row) + [f.coerce(x)] for row, x in zip(m.entries, b)]
    pivots = _reduce(f, rows, n + 1)
    if pivots and pivots[-1] == n:
        return None
    pivset = set(pivots)
    kernel = []
    for fc in range(n):
        if fc in pivset:
            continue
        v = [f.zero] * n
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        kernel.append(tuple(v))
    x = [f.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n]
    return tuple(x), kernel


def affine_points(field, particular, kernel):
    """Every point particular + sum_k t_k kernel_k over a finite field.

    Yields flat tuples lazily, ordered lexicographically by the coefficient
    tuple t (the first kernel vector's coefficient varies slowest), as
    product(field.elements(), repeat=len(kernel)) orders it.  The walk is
    depth-first over the precomputed multiples t * kernel_k, adding one of
    them to the partial sum at each level, so a point costs about one
    vector add, done on the canonical residues mod p.
    """
    if not field.finite:
        raise FieldTooLarge("cannot enumerate an affine space over an infinite field")
    p = field.p
    multiples = [[tuple([t * x % p for x in v]) for t in range(p)] for v in kernel]

    def walk(j, point):
        if j == len(multiples):
            yield point
            return
        for t, tv in enumerate(multiples[j]):
            yield from walk(j + 1, tuple([(a + b) % p for a, b in zip(point, tv)]) if t else point)

    return walk(0, tuple(particular))


def enumerate_linear_maps(domain_dim, codomain_dim, field, start=0, stop=None):
    """All matrices of a linear map F_p^domain -> F_p^codomain.

    Yields every codomain x domain matrix exactly once, ordered
    lexicographically by the row-major entry tuple.  The [start, stop)
    window makes the stream restartable and partitionable; the union of
    disjoint windows reproduces the full run.
    """
    if not field.finite:
        raise FieldTooLarge("cannot enumerate linear maps over an infinite field")
    p = field.p
    n = domain_dim * codomain_dim
    total = p**n
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"window [{start}, {stop}) outside [0, {total})")
    for idx in range(start, stop):
        digits = []
        k = idx
        for _ in range(n):
            digits.append(k % p)
            k //= p
        digits.reverse()
        yield Matrix.from_flat(field, codomain_dim, domain_dim, digits)


class Tensor:
    """Immutable dense tensor, row-major with the last index fastest."""

    __slots__ = ("field", "shape", "entries", "_strides")

    def __init__(self, field: Field, shape, entries):
        self.field = field
        self.shape = tuple(shape)
        ent = tuple(field.coerce(x) for x in entries)
        if len(ent) != prod(self.shape, start=1):
            raise DimensionMismatch(
                f"tensor shape {self.shape} wants {prod(self.shape, start=1)} entries,"
                f" got {len(ent)}"
            )
        self.entries = ent
        strides = []
        acc = 1
        for d in reversed(self.shape):
            strides.append(acc)
            acc *= d
        self._strides = tuple(reversed(strides))

    @staticmethod
    def zero(field, shape):
        return Tensor(field, shape, [field.zero] * prod(shape, start=1))

    @staticmethod
    def build(field, shape, fn):
        """Fill entry (i1, ..., ik) with fn(i1, ..., ik)."""
        idxs = [()]
        for d in shape:
            idxs = [t + (i,) for t in idxs for i in range(d)]
        return Tensor(field, shape, [fn(*t) for t in idxs])

    def get(self, *idx):
        if len(idx) != len(self.shape):
            raise DimensionMismatch("tensor index arity mismatch")
        off = sum(i * s for i, s in zip(idx, self._strides))
        return self.entries[off]

    def fibre(self, *idx):
        """Entries along the last axis at the given leading indices."""
        if len(idx) != len(self.shape) - 1:
            raise DimensionMismatch("tensor index arity mismatch")
        off = sum(i * s for i, s in zip(idx, self._strides))
        return self.entries[off : off + self.shape[-1]]

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.entries))

    def is_zero(self):
        z = self.field.zero
        return all(x == z for x in self.entries)

    def __repr__(self):
        return f"Tensor({self.field}, shape={self.shape})"

"""Exact matrices and tensors over Q and F_p, and one sparse row reduction.

`Matrix` is dense, or born sparse (`Matrix._of_sparse`): it keeps sparse
rows and writes its dense entries only when something reads them.  One
reduction, `_reduce`, is behind `rank`, `Matrix.rref`, `kernel_basis`,
`solve_affine` and `Matrix.inverse`, each calling it once on the kept rows
of a born-sparse matrix (copied where reduced) or on those of the entries.
It takes the rows as {column: coefficient} dicts that store no zeros and
reduces each row by the pivot row of its leading column until that column
is a new pivot, so it costs about the nonzeros and their fill-in.  Over
F_p the coefficients are residues and each pivot row leads with 1.  Over Q
it runs on integer rows (Bareiss 1968): each row's denominators are
cleared, a row is reduced by cross-multiplying it with the pivot row, and
the result is divided by its content gcd.  `rank` picks its own order,
since any order gives the same pivot count: it reduces the shorter side of
the matrix (the columns of a tall one) with the lines of the other side
numbered sparsest first, and counts the pivots of that echelon.  The
solvers need the leftmost pivots, so they reduce the rows with the columns
as they are, back-substitute the echelon (`_rref`) and scale each pivot to
1; RREF is unique, so this is the canonical leftmost-pivot RREF.  Over Q
that scaling is the only division: it leaves an entry an int where the
pivot divides it, and a Fraction only where there is a denominator (the
canonical Q form of `fields`).  A solve reduces [m | b] once and reads
both its point and the canonical free-variable kernel basis off it: when b
is consistent no pivot falls in b's column, so the reduced rows restricted
to m's columns are m's RREF.

Every linear condition of the package is such a list of sparse rows, and
`rows_matvec` is the one product of sparse rows with a vector.
`affine_points` is the one enumerator of F_p points; `enumerate_linear_maps`
is its walk over the unit vectors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm, prod

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
    return tuple(fld.neg(a) if a else a for a in u)


def vec_scale(fld, c, u):
    return tuple(fld.mul(c, a) for a in u)


def vec_is_zero(fld, u):
    # a field value is false exactly when it is zero
    return not any(u)


def sparse_vec(u):
    """The sparse vector of the sequence u: {index: entry} without zeros.
    A field value is false exactly when it is zero, so `compress` reads
    the nonzeros at C speed; every sparse line here is read this way."""
    return dict(compress(enumerate(u), u))


def add_scaled(fld, acc, c, entries):
    """acc[k] += c * x for each (k, x) in entries, in the list acc."""
    for k, x in entries:
        acc[k] = fld.add(acc[k], fld.mul(c, x))


def rows_matvec(fld, rows, v):
    """The sparse rows times the vector v: entry k is sum_c rows[k][c] v[c]."""
    add, mul, out = fld.add, fld.mul, []
    for row in rows:
        acc = fld.zero
        for c, x in row.items():
            acc = add(acc, mul(x, v[c]))
        out.append(acc)
    return tuple(out)


def sparse_cols(m, transpose=False):
    """The sparse matrix of the Matrix m (or of its transpose): {column: {row:
    entry}} without zeros or empty columns.  The sums and products below
    cost the nonzeros of their operands (Gustavson 1978)."""
    lines = m.entries if transpose else zip(*m.entries)
    return {c: sparse_vec(line) for c, line in enumerate(lines) if any(line)}


def from_sparse(fld, m, n):
    """The n x n Matrix of the sparse matrix m, the inverse of `sparse_cols`."""
    return Matrix._of(fld, [[m.get(c, {}).get(r, fld.zero) for c in range(n)] for r in range(n)], n)


def dense_col(fld, m, c, rows):
    """Column c of the sparse matrix m, dense over its first `rows` rows."""
    col = m.get(c, {})
    return tuple(col.get(r, fld.zero) for r in range(rows))


def sparse_matrices(t, transpose=False):
    """`sparse_cols` of each of the 3-tensor t's `Tensor.matrices`, or of its transpose."""
    return [sparse_cols(m, transpose) for m in t.matrices()]


def sparse_matvec(fld, vecs, x):
    """The sparse vector sum_k x_k vecs[k]: the sparse matrix vecs times x."""
    add, mul, out = fld.add, fld.mul, {}
    for k, c in x.items():
        for r, y in vecs.get(k, {}).items():
            out[r] = add(out[r], mul(c, y)) if r in out else mul(c, y)
    return {r: y for r, y in out.items() if y}


def sparse_sum(fld, mats, x):
    """The sparse matrix sum_k x_k mats[k] over the k of the sparse vector x."""
    cols = {}
    for k in x:
        for j, v in mats[k].items():
            cols.setdefault(j, {})[k] = v
    return {j: v for j, vs in cols.items() if (v := sparse_matvec(fld, vs, x))}


def sparse_mul(fld, a, b):
    """The sparse matrix a b: column j is a applied to column j of b."""
    return {j: v for j, col in b.items() if (v := sparse_matvec(fld, a, col))}


def sparse_add(fld, plus, minus=()):
    """The sparse matrix sum(plus) - sum(minus) of sparse matrices."""
    one, sign = fld.one, fld.neg(fld.one)
    return sparse_sum(fld, (*plus, *minus), {k: one if k < len(plus) else sign
                                             for k in range(len(plus) + len(minus))})


class Matrix:
    """Immutable matrix over an exact field, dense or born sparse (`_of_sparse`)."""

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

    @classmethod
    def _of(cls, field, rows, cols):
        """The matrix on a list of equal-length rows whose entries are
        already values of field (canonical Q scalars or residues), which
        are not coerced again."""
        m = object.__new__(cls)
        m.field, m.rows, m.cols = field, len(rows), cols
        m.entries = tuple(map(tuple, rows))
        return m

    @staticmethod
    def _of_sparse(field, rows, cols):
        """The matrix on a list of sparse rows of field values without
        zeros, {column: value}, which it keeps (see `_SparseMatrix`)."""
        m = object.__new__(_SparseMatrix)
        m.field, m.rows, m.cols, m._sparse = field, len(rows), cols, rows
        return m

    @staticmethod
    def zero(field, rows, cols):
        return Matrix._of(field, [(field.zero,) * cols] * rows, cols)

    @staticmethod
    def identity(field, n):
        return Matrix._of(field, [vec_basis(field, n, i) for i in range(n)], n)

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

    def _entrywise(self, other, op, what):
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch in {what}")
        return Matrix._of(
            self.field,
            [list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)],
            self.cols,
        )

    def add(self, other):
        return self._entrywise(other, self.field.add, "add")

    def sub(self, other):
        return self._entrywise(other, self.field.sub, "sub")

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        return Matrix._of(f, [[f.mul(c, x) for x in row] for row in self.entries], self.cols)

    def mul(self, other):
        """The product; each row sums only over its nonzero entries."""
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        zero, add, mul = f.zero, f.add, f.mul
        out = []
        for row in self.entries:
            acc = [zero] * other.cols
            for x, brow in zip(row, other.entries):
                if x is not zero and x:
                    acc = [add(a, mul(x, y)) for a, y in zip(acc, brow)]
            out.append(acc)
        return Matrix._of(f, out, other.cols)

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch(f"matvec: {self.cols} cols vs vector of {len(v)}")
        f = self.field
        zero = f.zero
        out = []
        for row in self.entries:
            acc = zero
            for x, y in zip(row, v):
                if x is not zero and x:
                    acc = f.add(acc, f.mul(x, y))
            out.append(acc)
        return tuple(out)

    def hstack(self, other):
        self._check_same_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix._of(
            self.field,
            [r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
            self.cols + other.cols,
        )

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.  Returns (R, pivot_columns)."""
        f = self.field
        reduced = _rref(f, _reduce(f, _nonzero_rows(self)))
        dense = [_densify(f, row, self.cols) for row in reduced.values()]
        dense += [(f.zero,) * self.cols] * (self.rows - len(dense))
        return Matrix._of(f, dense, self.cols), tuple(reduced)

    def inverse(self):
        """Inverse matrix, or None if singular."""
        if self.rows != self.cols:
            return None
        f, n = self.field, self.rows
        rows = _nonzero_rows(self)
        for i, row in enumerate(rows):
            row[n + i] = f.one
        echelon = _reduce(f, rows)
        # [m | I] has rank n; m is invertible when no pivot falls in I
        if any(c >= n for c in echelon):
            return None
        inv = [_densify(f, row, 2 * n)[n:] for row in _rref(f, echelon).values()]
        return Matrix._of(f, inv, n)


class _SparseMatrix(Matrix):
    """A matrix born on sparse rows: its `entries` are written on first read."""

    __slots__ = ("_sparse",)

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError(name)
        self.entries = tuple(tuple(_densify(self.field, r, self.cols)) for r in self._sparse)
        return self.entries


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
    return Matrix._of(field, rows, sum(widths))


def minors(m: Matrix):
    """The minors of m, as a function det(s, t) of an increasing row tuple
    s and an increasing column tuple t of the same length.

    A minor is expanded along its first row over the minors one size
    smaller on the rows below it, and every minor found is kept, so a table
    of minors costs about one multiply-add per nonzero entry and smaller
    minor.  Only add, sub and mul are used: over Q integral entries give
    integral minors.
    """
    f, entries = m.field, m.entries
    zero = f.zero
    memo = {((), ()): f.one}

    def det(s, t):
        d = memo.get((s, t))
        if d is None:
            line, below = entries[s[0]], s[1:]
            d = zero
            for j, c in enumerate(t):
                x = line[c]
                if x is not zero and x:
                    y = det(below, t[:j] + t[j + 1 :])
                    if y is not zero and y:
                        d = f.sub(d, f.mul(x, y)) if j % 2 else f.add(d, f.mul(x, y))
            memo[s, t] = d
        return d

    return det


# ---------------------------------------------------------------------------
# The reduction.  A sparse row is a {column: coefficient} dict without
# zeros; a pivot of the echelon is its leading coefficient and the rest of
# its row, {leading column: (coefficient, rest)}.


def _nonzero_rows(m):
    """The rows of m as sparse rows the caller owns: copies of the kept
    rows of a born-sparse m, else read off its dense entries."""
    if type(m) is _SparseMatrix:
        return list(map(dict, m._sparse))
    return list(map(sparse_vec, m.entries))


def _densify(field, row, ncols):
    line = [field.zero] * ncols
    for c, x in row.items():
        line[c] = x
    return line


def _primitive(row):
    """An integer row divided by its content gcd."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _integral(row):
    """A sparse row of Q scalars as an integer row: its denominators
    cleared and its content divided out."""
    if all(x.__class__ is int for x in row.values()):
        return _primitive(row)
    den = lcm(*(x.denominator for x in row.values()))
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in row.items()})


def _eliminate(row, col, lead, rest, p):
    """row less the multiple of the pivot row lead * e_col + rest that
    clears row's column col.  Over F_p (lead is 1) the row is updated in
    place; over Z (p is None) the row is cross-multiplied with the pivot
    row and divided by its content gcd."""
    a = row.pop(col)
    if p:
        for c, x in rest.items():
            y = (row.get(c, 0) - a * x) % p
            if y:
                row[c] = y
            else:
                del row[c]
        return row
    g = gcd(a, lead)
    a, lead = a // g, lead // g
    if lead != 1:
        row = {c: lead * x for c, x in row.items()}
    for c, x in rest.items():
        y = row.get(c, 0) - a * x
        if y:
            row[c] = y
        else:
            del row[c]
    return _primitive(row)


def _reduce(field, rows):
    """The forward echelon of sparse rows of field values, which it owns:
    {leading column: (coefficient, rest)}.  Each row is reduced by the
    pivot of its leading column until that column has none, and then
    becomes its pivot.  Over F_p every pivot leads with 1; over Q the rows
    are integer rows, each with its denominators cleared.  The rows are
    taken sparsest first, which keeps the fill-in down; any order spans the
    same row space, so it leaves the pivot columns and the RREF as they
    are."""
    p = field.p if field.finite else None
    if p is None:
        rows = [_integral(row) for row in rows]
    echelon = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            pivot = echelon.get(col)
            if pivot is None:
                lead = row.pop(col)
                if p and lead != 1:
                    inv = pow(lead, p - 2, p)
                    row = {c: x * inv % p for c, x in row.items()}
                    lead = 1
                echelon[col] = (lead, row)
                break
            row = _eliminate(row, col, *pivot, p)
    return echelon


def _rref(field, echelon):
    """The rows of the RREF read off a forward echelon, as {pivot column:
    sparse row of field values} in column order.  Each pivot row, from the
    last up, is cleared at the later pivot columns by their finished rows
    and then scaled to lead with 1; over Q an entry the pivot divides
    stays an int, and the others become Fractions."""
    p = field.p if field.finite else None
    done = {}
    for col in sorted(echelon, reverse=True):
        lead, row = echelon[col]
        later = [c for c in row if c in echelon]
        row[col] = lead
        for c in later:
            row = _eliminate(row, c, *done[c], p)
        done[col] = (row.pop(col), row)
    out = {}
    for col in sorted(done):
        lead, row = done[col]
        if p is None:
            row = {
                c: x // lead if x % lead == 0 else Fraction(x, lead)
                for c, x in row.items()
            }
        row[col] = field.one
        out[col] = row
    return out


def rank(m: Matrix) -> int:
    """The pivot count of `_reduce` on the shorter side of m, with the
    lines of the other side numbered sparsest first; the rows of a
    born-sparse m are read as kept, with no dense copy.

    A tall m has its columns eliminated, each keyed by rows numbered
    sparsest first; any other m has its rows eliminated, keyed by columns
    numbered sparsest first.  A reduced line then always leads at the
    sparsest line it still meets, which keeps the fill-in down (Markowitz
    1957).  Rank is unchanged by transposing and by permuting rows or
    columns, so only the work depends on this order.
    """
    # neither branch changes a line
    lines = m._sparse if type(m) is _SparseMatrix else list(map(sparse_vec, m.entries))
    if m.rows > m.cols:
        cols = [{} for _ in range(m.cols)]
        for r, row in enumerate(sorted(lines, key=len)):
            for c, x in row.items():
                cols[c][r] = x
        lines = cols
    else:
        weight = Counter(chain.from_iterable(lines))
        number = dict(zip(sorted(weight, key=weight.__getitem__), count()))
        lines = [{number[c]: x for c, x in row.items()} for row in lines]
    return len(_reduce(m.field, lines))


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
    rows = _nonzero_rows(m)
    for row, x in zip(rows, b):
        x = f.coerce(x)
        if x:
            row[n] = x
    echelon = _reduce(f, rows)
    if n in echelon:
        return None
    x = [f.zero] * n
    kernel = {c: _densify(f, {c: f.one}, n) for c in range(n) if c not in echelon}
    for pc, row in _rref(f, echelon).items():
        for c, v in row.items():
            if c == n:
                x[pc] = v
            elif c != pc:
                kernel[c][pc] = f.neg(v)
    return tuple(x), [tuple(v) for v in kernel.values()]


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


def enumerate_linear_maps(domain_dim, codomain_dim, field):
    """All matrices of a linear map F_p^domain -> F_p^codomain, each once,
    ordered lexicographically by the row-major entry tuple: the
    `affine_points` of the unit vectors, each read as its matrix."""
    n, k = domain_dim * codomain_dim, domain_dim
    units = [vec_basis(field, n, c) for c in range(n)]
    return (Matrix._of(field, [flat[r * k:r * k + k] for r in range(codomain_dim)], k)
            for flat in affine_points(field, vec_zero(field, n), units))


class Tensor:
    """Immutable dense tensor, row-major with the last index fastest."""

    __slots__ = ("field", "shape", "entries", "_strides")

    def __init__(self, field: Field, shape, entries):
        self._fill(field, shape, tuple(field.coerce(x) for x in entries))

    @classmethod
    def _of(cls, field, shape, entries):
        """The tensor on entries that are already values of field
        (canonical Q scalars or residues), which are not coerced again."""
        t = object.__new__(cls)
        t._fill(field, shape, tuple(entries))
        return t

    def _fill(self, field, shape, ent):
        self.field = field
        self.shape = tuple(shape)
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

    def matrices(self):
        """A 3-tensor as one matrix per leading index i, whose column j is
        fibre(i, j): for a bracket these are the ad matrices, column j of
        ad[i] being [e_i, e_j]."""
        f, (n, m, k) = self.field, self.shape
        e, size = self.entries, m * k
        return tuple(
            Matrix._of(f, [e[i * size + r : (i + 1) * size : k] for r in range(k)], m)
            for i in range(n)
        )

    @staticmethod
    def of_sparse(field, shape, mats):
        """The 3-tensor of the given shape whose fibre (i, j) is column j
        of the sparse matrix mats[i]: the inverse of `sparse_matrices`."""
        _, m, k = shape
        return Tensor._of(field, shape, [x for a in mats for j in range(m)
                                         for x in dense_col(field, a, j, k)])

    def _entrywise(self, other, op):
        if type(other) is not Tensor or (other.field, other.shape) != (self.field, self.shape):
            raise DimensionMismatch("tensor shape mismatch")
        return Tensor._of(self.field, self.shape, map(op, self.entries, other.entries))

    def add(self, other):
        return self._entrywise(other, self.field.add)

    def sub(self, other):
        return self._entrywise(other, self.field.sub)

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

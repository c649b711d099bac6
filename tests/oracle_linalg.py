"""Reference elimination and the solvers built on it the long way.

`reference_rref` is full-row Gauss-Jordan elimination: every row operation
runs over every column.  The solvers reduce a matrix once per question, as
the library once did: a solve reduces [A | b] for its point and A again for
its kernel, an inverse reduces [A | I] built with `hstack`, and the rank
counts the pivots of the reduced matrix.  The library reads all of these
off one nonzero-only reduction; the tests compare the two.  `det` is the
determinant by forward elimination, against which the library's cofactor
minors are checked.
"""

from avglie.errors import DimensionMismatch
from avglie.linalg import Matrix


def reference_rref(m):
    """(R, pivot_columns) by full-row Gauss-Jordan elimination."""
    f = m.field
    rows = [list(row) for row in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        hit = next((r for r in range(pr, m.rows) if rows[r][pc] != f.zero), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for r in range(m.rows):
            if r != pr and rows[r][pc] != f.zero:
                c0 = rows[r][pc]
                rows[r] = [f.sub(x, f.mul(c0, y)) for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix(f, rows, cols=m.cols), tuple(pivots)


def rank(m):
    return len(reference_rref(m)[1])


def kernel_basis(m):
    f = m.field
    red, pivots = reference_rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.entries[r][fc])
        basis.append(tuple(v))
    return basis


def solve_affine(m, b):
    if len(b) != m.rows:
        raise DimensionMismatch("solve_affine: rhs length mismatch")
    f = m.field
    aug = m.hstack(Matrix.from_cols(f, [tuple(b)], rows_hint=m.rows))
    red, pivots = reference_rref(aug)
    if any(p == m.cols for p in pivots):
        return None
    x = [f.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.entries[r][m.cols]
    return tuple(x), kernel_basis(m)


def inverse(m):
    if m.rows != m.cols:
        return None
    red, pivots = reference_rref(m.hstack(Matrix.identity(m.field, m.rows)))
    if len(pivots) < m.rows or any(p >= m.rows for p in pivots):
        return None
    return Matrix(m.field, [row[m.rows :] for row in red.entries], cols=m.rows)


def det(m):
    """The determinant of a square matrix by forward elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    f = m.field
    n = m.rows
    rows = [list(row) for row in m.entries]
    out = f.one
    for c in range(n):
        hit = next((r for r in range(c, n) if rows[r][c] != f.zero), None)
        if hit is None:
            return f.zero
        if hit != c:
            rows[c], rows[hit] = rows[hit], rows[c]
            out = f.neg(out)
        out = f.mul(out, rows[c][c])
        inv = f.inv(rows[c][c])
        for r in range(c + 1, n):
            if rows[r][c] != f.zero:
                c0 = f.mul(inv, rows[r][c])
                rows[r] = [f.sub(x, f.mul(c0, y)) for x, y in zip(rows[r], rows[c])]
    return out

"""The searches as the library ran them before, kept as test oracles.

The automorphism and extension-equivalence searches put every one of the
p^(n^2) matrices through the full check, in the lexicographic order of
`enumerate_linear_maps`; usable only at desk scale (about 100 us per
candidate).  `bracket_automorphisms` is the same brute force on plain
integers, bracket first, for dim 4 over F2.  `column_walk` is the column
search of `extensions._bracket_maps` before the stabiliser chain, which
reaches every group element as its own leaf; it reaches beyond brute
force.  Affine solution spaces are walked with one `product` loop over
the coefficient tuples.  The cocycle-equivalence system is emitted row by
row from coefficient dicts, clause by clause in the order (E1), (E3), (E2).
"""

from functools import cache
from itertools import combinations, product
from operator import itemgetter, mul

from avglie.extensions import _phi_satisfies, check_algebra_automorphism
from avglie.linalg import (
    Matrix,
    affine_points,
    enumerate_linear_maps,
    kernel_basis,
    solve_affine,
    vec_sub,
)
from oracle_linalg import det
from oracle_validators import psi_matrices


def averaging_automorphisms(a):
    return [
        g
        for g in enumerate_linear_maps(a.dim, a.dim, a.field)
        if check_algebra_automorphism(a, g, "aut")
    ]


def bracket_automorphisms(a):
    """The same group as `averaging_automorphisms`, over every map with
    plain integer arithmetic: the bracket clauses on the nonzero structure
    constants first, then gP = Pg, then a determinant.  About a second for
    the 65,536 maps over F2 at dim 4."""
    f, n = a.field, a.dim
    p = f.p
    structure = [
        (i, j, [(s, t, c) for s, t in product(range(n), repeat=2)
                for c in [a.algebra.bracket_basis(s, t)] if any(c)],
         a.algebra.bracket_basis(i, j))
        for i, j in combinations(range(n), 2)
    ]
    out = []
    for flat in product(range(p), repeat=n * n):
        rows = [flat[r * n:(r + 1) * n] for r in range(n)]
        ok = True
        for i, j, terms, bij in structure:
            lhs = [sum(x * y for x, y in zip(row, bij)) % p for row in rows]
            rhs = [0] * n
            for s, t, c in terms:
                w = rows[s][i] * rows[t][j]
                if w:
                    rhs = [(u + w * v) % p for u, v in zip(rhs, c)]
            if lhs != rhs:
                ok = False
                break
        if ok:
            g = Matrix.from_flat(f, n, n, flat)
            if g.mul(a.P) == a.P.mul(g) and det(g) != f.zero:
                out.append(g)
    return out


def column_walk(f, a, rows):
    """`extensions._bracket_maps` as it was before the stabiliser chain: the
    same column walk, with every group element reached as its own leaf.
    Every invertible n x n map g with g[x, y] = [gx, gy] in the Lie algebra
    a whose row-major entries solve the sparse rows over a finite field,
    sorted by those entries, with no size limit; the rows are sparse, and
    it writes them densely itself.  The walk fixes g column
    by column: c takes each value the space allows outside the span of the
    columns before it, and the clauses g[e_c, e_k] = [g e_c, g e_k] for
    k > c, linear once g e_c is fixed, cut the space before column c + 1."""
    n, p = a.dim, f.p
    dense = [[row.get(c, f.zero) for c in range(n * n)] for row in rows]
    kernel = kernel_basis(Matrix(f, dense, cols=n * n))
    if n == 0:
        return [Matrix(f, [], cols=0)]
    br = [[a.bracket_basis(c, k) for k in range(n)] for c in range(n)]
    # ad[r][j][i] is entry r of [e_i, e_j]
    ad = [[[br[i][j][r] for i in range(n)] for j in range(n)] for r in range(n)]
    hits = []

    @cache
    def ad_of(v):  # ad_of(v)[r][j] is entry r of [v, e_j]
        return [[sum(map(mul, v, a)) for a in ad_r] for ad_r in ad]

    def pivot(kern, phi):
        """The first v in kern with phi(v) != 0, 1 / phi(v), and the other
        vectors less the multiples of v that make phi vanish on them."""
        ws = [phi(u) % p for u in kern]
        t = next((t for t, w in enumerate(ws) if w), None)
        if t is None:
            return None, None, kern
        v, inv = kern[t], pow(ws[t], p - 2, p)
        rest = [[(x - w * inv * y) % p for x, y in zip(u, v)] if w else u
                for w, u in zip(ws[:t] + ws[t + 1:], kern[:t] + kern[t + 1:])]
        return v, inv, rest

    def walk(c, point, kern, basis):
        # the leads carry the values of column c; the rest of the kernel
        # vanishes there, as every vector left does on the columns before c
        leads = []
        for i in range(c, n * n, n) if kern else ():
            v, _, kern = pivot(kern, itemgetter(i))
            if v is not None:
                leads.append(v)
        for x in affine_points(f, point, leads) if leads else (point,):
            col = w = x[c::n]
            for piv, b in basis:  # invertibility: drop the values in the span
                if w[piv]:
                    w = [(a - w[piv] * y) % p for a, y in zip(w, b)]
            piv = next((r for r in range(n) if w[r]), None)
            if piv is None:
                continue
            if c == n - 1:
                hits.append(tuple(x))
                continue
            adv = ad_of(tuple(col))

            def phi(u, k, r):  # entry r of g[e_c, e_k] - [g e_c, g e_k]
                return (sum(map(mul, br[c][k], u[r * n:r * n + n]))
                        - sum(map(mul, adv[r], u[k::n])))
            rest = kern
            for k, r in product(range(c + 1, n), range(n)):
                val = phi(x, k, r) % p
                if rest:
                    v, inv, rest = pivot(rest, lambda u: phi(u, k, r))
                    if v is not None:
                        x = [(a - val * inv * y) % p for a, y in zip(x, v)]
                        continue
                if val:
                    break
            else:
                inv = pow(w[piv], p - 2, p)
                walk(c + 1, x, rest, basis + [(piv, [a * inv % p for a in w])])

    walk(0, (f.zero,) * (n * n), [list(v) for v in kernel], [])
    # the walk keeps canonical residues, which are not coerced again
    return [Matrix._of(f, [x[r:r + n] for r in range(0, n * n, n)], n)
            for x in sorted(hits)]


def extension_automorphisms(e):
    out = []
    dim = e.total.dim
    for g in enumerate_linear_maps(dim, dim, e.total.field):
        if not check_algebra_automorphism(e.total, g, "aut"):
            continue
        ok = True
        for a in range(e.coef.dim):
            if solve_affine(e.i, g.matvec(e.i.col(a))) is None:
                ok = False
                break
        if ok:
            out.append(g)
    return out


def extensions_equivalent(e1, e2):
    """The first equivalence e1 -> e2 in lexicographic order, or None."""
    dim = e1.total.dim
    if e2.total.dim != dim:
        return None
    for tau in enumerate_linear_maps(dim, dim, e1.total.field):
        if tau.mul(e1.i) != e2.i:
            continue
        if e2.p.mul(tau) != e1.p:
            continue
        if tau.inverse() is None:
            continue
        if tau.mul(e1.total.P) != e2.total.P.mul(tau):
            continue
        ok = True
        for a in range(dim):
            for b in range(a + 1, dim):
                lhs = tau.matvec(e1.total.algebra.bracket_basis(a, b))
                rhs = e2.total.algebra.bracket_vec(tau.col(a), tau.col(b))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tau
    return None


def affine_points(f, particular, kernel):
    """particular + sum_k t_k kernel_k, one coefficient tuple at a time."""
    out = []
    for coeffs in product(f.elements(), repeat=len(kernel)):
        point = particular
        for t, kv in zip(coeffs, kernel):
            if t != f.zero:
                point = tuple(f.add(a, f.mul(t, b)) for a, b in zip(point, kv))
        out.append(point)
    return out


def equivalence_linear_system(c1, c2, include_e2):
    """Rows of the linear system for phi, emitted clause by clause as
    {(b, j): coefficient} dicts; E2 rows only when linear (abelian)."""
    f = c1.base.field
    n, m = c1.base.dim, c1.coef.dim
    h = c1.coef.algebra
    nvar = m * n  # phi[b][j] at index b * n + j
    rows = []
    rhs = []
    mats1 = psi_matrices(f, m, c1.psi)
    mats2 = psi_matrices(f, m, c2.psi)

    def emit(coeffs, target):
        for t in range(len(target)):
            row = [f.zero] * nvar
            for (b, j), cf in coeffs[t].items():
                row[b * n + j] = cf
            rows.append(row)
            rhs.append(target[t])

    # (E1): psi_x h - psi'_x h = [phi(x), h] for basis x = e_j, h = h_a.
    for j in range(n):
        for a in range(m):
            target = vec_sub(f, mats1[j].col(a), mats2[j].col(a))
            coeffs = [dict() for _ in range(m)]
            for b in range(m):
                val = h.bracket_basis(b, a)
                for t in range(m):
                    if val[t] != f.zero:
                        coeffs[t][(b, j)] = val[t]
            emit(coeffs, target)
    # (E3): Phi(x) - Phi'(x) = Q phi(x) - phi(P x) for basis x = e_j.
    Q = c1.coef.P
    P = c1.base.P
    for j in range(n):
        target = vec_sub(f, c1.Phi.col(j), c2.Phi.col(j))
        coeffs = [dict() for _ in range(m)]
        for b in range(m):
            qcol = Q.col(b)
            for t in range(m):
                if qcol[t] != f.zero:
                    coeffs[t][(b, j)] = f.add(
                        coeffs[t].get((b, j), f.zero), qcol[t]
                    )
        for k in range(n):
            cf = P[k, j]
            if cf != f.zero:
                for b in range(m):
                    coeffs[b][(b, k)] = f.sub(
                        coeffs[b].get((b, k), f.zero), cf
                    )
        emit(coeffs, target)
    # (E2), linear part only: chi - chi' = psi'_x phi(y) - psi'_y phi(x)
    # - phi([x,y]); valid as a full equation only over abelian coefficients.
    if include_e2:
        for x, y in combinations(range(n), 2):
            target = vec_sub(
                f, c1.chi.eval_basis((x, y)), c2.chi.eval_basis((x, y))
            )
            coeffs = [dict() for _ in range(m)]
            for b in range(m):
                col = mats2[x].col(b)
                for t in range(m):
                    if col[t] != f.zero:
                        coeffs[t][(b, y)] = f.add(
                            coeffs[t].get((b, y), f.zero), col[t]
                        )
                col = mats2[y].col(b)
                for t in range(m):
                    if col[t] != f.zero:
                        coeffs[t][(b, x)] = f.sub(
                            coeffs[t].get((b, x), f.zero), col[t]
                        )
            br = c1.base.algebra.bracket_basis(x, y)
            for k in range(n):
                if br[k] != f.zero:
                    for b in range(m):
                        coeffs[b][(b, k)] = f.sub(
                            coeffs[b].get((b, k), f.zero), br[k]
                        )
            emit(coeffs, target)
    return Matrix(f, rows) if rows else Matrix.zero(f, 0, nvar), tuple(rhs)


def cocycles_equivalent_phi(c1, c2):
    """The first witness phi over a finite field for non-abelian coefficients:
    (E1) and (E3) solved exactly, then the solution space walked in
    coefficient order.  None when there is none."""
    f = c1.base.field
    system, rhs = equivalence_linear_system(c1, c2, include_e2=False)
    sol = solve_affine(system, rhs)
    if sol is None:
        return None
    particular, kernel = sol
    for point in affine_points(f, particular, kernel):
        phi = Matrix.from_flat(f, c1.coef.dim, c1.base.dim, point)
        if _phi_satisfies(c1, c2, phi):
            return phi
    return None

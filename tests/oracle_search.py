"""The searches as the library ran them before, kept as test oracles.

The automorphism and extension-equivalence searches put every one of the
p^(n^2) matrices through the full check, in the lexicographic order of
`enumerate_linear_maps`; usable only at desk scale (about 100 us per
candidate).  `bracket_automorphisms` is the same brute force on plain
integers, bracket first, for dim 4 over F2.  Affine solution spaces are walked with one `product` loop over
the coefficient tuples.  The cocycle-equivalence system is emitted row by
row from coefficient dicts, clause by clause in the order (E1), (E3), (E2).
"""

from itertools import combinations, product

from avglie.extensions import _phi_satisfies, check_algebra_automorphism
from avglie.linalg import Matrix, enumerate_linear_maps, solve_affine, vec_sub
from oracle_linalg import det


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
    mats1 = c1.psi_mats()
    mats2 = c2.psi_mats()

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

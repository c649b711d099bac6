"""The searches as the library ran them before, kept as test oracles.

The automorphism and extension-equivalence searches put every one of the
p^(n^2) matrices through the full check, in the lexicographic order of
`enumerate_linear_maps`; usable only at desk scale (about 100 us per
candidate).  Affine solution spaces are walked with one `product` loop over
the coefficient tuples.
"""

from itertools import product

from avglie.extensions import (
    _equivalence_linear_system,
    _phi_satisfies,
    check_algebra_automorphism,
)
from avglie.linalg import Matrix, enumerate_linear_maps, solve_affine


def averaging_automorphisms(a):
    return [
        g
        for g in enumerate_linear_maps(a.dim, a.dim, a.field)
        if check_algebra_automorphism(a, g, "aut")
    ]


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


def cocycles_equivalent_phi(c1, c2):
    """The first witness phi over a finite field for non-abelian coefficients:
    (E1) and (E3) solved exactly, then the solution space walked in
    coefficient order.  None when there is none."""
    f = c1.base.field
    system, rhs = _equivalence_linear_system(c1, c2, include_e2=False)
    sol = solve_affine(system, rhs)
    if sol is None:
        return None
    particular, kernel = sol
    for point in affine_points(f, particular, kernel):
        phi = Matrix.from_flat(f, c1.coef.dim, c1.base.dim, point)
        if _phi_satisfies(c1, c2, phi):
            return phi
    return None

"""The validators as the library ran them before the matrix idiom, kept as
test oracles.

Each clause is evaluated one basis pair at a time through `vec_bilinear`,
the bilinear map given by its values on basis pairs; `bracket_vec`,
`br00_vec` and `br01_vec` are that map on a Lie bracket and on the two
stored brackets of a 2-term structure.  Every verdict (clause, witness
indices, both sides and notes) of the library must equal the one here.
`transform_cocycle` is the action of an automorphism pair on a cocycle
with each component written out, as the library computed it before it
read the action off the cocycle's total space.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, product

from avglie.errors import DimensionMismatch, InternalError, ValidationError, Verdict
from avglie.extensions import (
    AutomorphismPair,
    NonAbelianCocycle,
    build_extension,
    compatible_pairs,
    extension_automorphisms,
    extract_cocycle,
    project_automorphism,
)
from avglie.homotopy import CrossedModule, is_strict
from avglie.lie import AveragingLieAlgebra, LeibnizAlgebra, LieAlgebra, psi_tensor
from avglie.linalg import (
    Matrix,
    Tensor,
    block_matrix,
    rank,
    solve_affine,
    vec_add,
    vec_basis,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
    vec_zero,
)
from avglie.multilinear import AltMap, dense_offset
from oracle_delta import eval_mixed, psi_matrices, psi_of_vec


def bracket_vec(g, u, v):
    return vec_bilinear(g.field, g.dim, u, v, g.bracket_basis)


def br00_vec(t, u, v):
    return vec_bilinear(t.field, t.n0, u, v, t.l2_00.fibre)


def br01_vec(t, x, h):
    return vec_bilinear(t.field, t.n1, x, h, t.l2_01.fibre)


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


def _bracket_table(field, dim, bracket):
    return tuple(
        tuple(
            tuple(bracket.get(i, j, k) for k in range(dim)) for j in range(dim)
        )
        for i in range(dim)
    )


def check_lie(field, dim, bracket: Tensor) -> Verdict:
    """Antisymmetry (including zero diagonal) and Jacobi on basis tuples."""
    if bracket.shape != (dim, dim, dim):
        raise DimensionMismatch(f"bracket tensor must have shape {(dim,) * 3}")
    f = field
    tab = _bracket_table(f, dim, bracket)
    for i in range(dim):
        if not vec_is_zero(f, tab[i][i]):
            return Verdict.failed(
                "antisymmetry", (i, i), tab[i][i], vec_zero(f, dim)
            )
        for j in range(i + 1, dim):
            lhs = tab[i][j]
            rhs = tuple(f.neg(x) for x in tab[j][i])
            if lhs != rhs:
                return Verdict.failed("antisymmetry", (i, j), lhs, rhs)
    # antisymmetry holds past this point, so the Jacobiator is alternating
    # and increasing triples cover all basis triples
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = vec_zero(f, dim)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = tab[a][b]
                    term = vec_zero(f, dim)
                    for t, coeff in enumerate(inner):
                        if coeff != f.zero:
                            term = vec_add(f, term, vec_scale(f, coeff, tab[t][c]))
                    acc = vec_add(f, acc, term)
                if not vec_is_zero(f, acc):
                    return Verdict.failed("jacobi", (i, j, k), acc, vec_zero(f, dim))
    return Verdict.passed()


def check_leibniz(field, dim, bracket: Tensor) -> Verdict:
    """Left Leibniz identity {x,{y,z}} = {{x,y},z} + {y,{x,z}} on basis triples."""
    if bracket.shape != (dim, dim, dim):
        raise DimensionMismatch(f"bracket tensor must have shape {(dim,) * 3}")
    f = field
    br = bracket.fibre
    basis = [vec_basis(f, dim, i) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = vec_bilinear(f, dim, basis[i], br(j, k), br)
                rhs = vec_add(
                    f,
                    vec_bilinear(f, dim, br(i, j), basis[k], br),
                    vec_bilinear(f, dim, basis[j], br(i, k), br),
                )
                if lhs != rhs:
                    return Verdict.failed("leibniz", (i, j, k), lhs, rhs)
    return Verdict.passed()


def check_averaging(g: LieAlgebra, P: Matrix) -> Verdict:
    """[P(x), P(y)] = P([P(x), y]) on all basis pairs.

    The verdict notes carry the equivalent right-sided identity
    [P(x), P(y)] = P([x, P(y)]); given antisymmetry the two whole-map
    verdicts must agree, so disagreement is an internal alarm.
    """
    if P.field != g.field or P.rows != g.dim or P.cols != g.dim:
        raise DimensionMismatch("operator shape does not match the algebra")
    f = g.field
    pcols = [P.col(j) for j in range(g.dim)]
    left = None
    right_ok = True
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = bracket_vec(g, pcols[i], pcols[j])
            rhs = P.matvec(bracket_vec(g, pcols[i], vec_basis(f, g.dim, j)))
            if lhs != rhs and left is None:
                left = ((i, j), lhs, rhs)
            rhs_r = P.matvec(bracket_vec(g, vec_basis(f, g.dim, i), pcols[j]))
            if lhs != rhs_r:
                right_ok = False
    left_ok = left is None
    notes = {"right_holds": right_ok, "sides_agree": left_ok == right_ok}
    if left_ok:
        return Verdict.passed(**notes)
    return Verdict.failed("eq1", *left, **notes)


def induced_leibniz(a: AveragingLieAlgebra) -> LeibnizAlgebra:
    """The Leibniz bracket {x, y} = [P(x), y] on the same space."""
    f = a.field
    n = a.dim
    pcols = [a.P.col(j) for j in range(n)]
    t = Tensor.build(
        f,
        (n, n, n),
        lambda i, j, k: bracket_vec(a.algebra, pcols[i], vec_basis(f, n, j))[k],
    )
    v = check_leibniz(f, n, t)
    if not v:
        raise InternalError(
            f"induced bracket of a validated averaging operator is not Leibniz: {v.clause}"
        )
    return LeibnizAlgebra(f, n, t)


def column_mismatch(clause, i, lhs: Matrix, rhs: Matrix):
    """Failed verdict at the first column a where lhs and rhs differ,
    witnessed on (i, a); None when the matrices are equal."""
    if lhs == rhs:
        return None
    for a in range(lhs.cols):
        if lhs.col(a) != rhs.col(a):
            return Verdict.failed(clause, (i, a), lhs.col(a), rhs.col(a))


def check_lie_representation(g: LieAlgebra, vdim, psi: Tensor) -> Verdict:
    """psi_[x,y] = psi_x psi_y - psi_y psi_x on basis pairs."""
    if psi.shape != (g.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    f = g.field
    mats = psi_matrices(f, vdim, psi)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = psi_of_vec(f, vdim, mats, g.bracket_basis(i, j))
            rhs = mats[i].mul(mats[j]).sub(mats[j].mul(mats[i]))
            if lhs != rhs:
                return Verdict.failed(
                    "psi-homomorphism", (i, j), lhs.flat(), rhs.flat()
                )
    return Verdict.passed()


def check_representation(base: AveragingLieAlgebra, vdim, psi: Tensor, Q: Matrix) -> Verdict:
    """Homomorphism property plus both representation chains.

    Clause names: "psi-homomorphism", then "rep-chain-1" for
    psi_{P(x)} Q = Q psi_{P(x)} and "rep-chain-2" for
    Q psi_{P(x)} = Q psi_x Q, each witnessed on a basis pair (x, v).
    """
    if Q.rows != vdim or Q.cols != vdim or Q.field != base.field:
        raise DimensionMismatch("Q shape does not match the module")
    v = check_lie_representation(base.algebra, vdim, psi)
    if not v:
        return v
    f = base.field
    mats = psi_matrices(f, vdim, psi)
    for i in range(base.dim):
        pm = psi_of_vec(f, vdim, mats, base.P.col(i))
        mid = Q.mul(pm)
        for clause, lhs, rhs in (
            ("rep-chain-1", pm.mul(Q), mid),
            ("rep-chain-2", mid, Q.mul(mats[i]).mul(Q)),
        ):
            v = column_mismatch(clause, i, lhs, rhs)
            if v is not None:
                return v
    return Verdict.passed()


def check_embedding_tensor(g: LieAlgebra, vdim, psi: Tensor, T: Matrix) -> Verdict:
    """[T(u), T(v)] = T(psi_{T(u)} v) on all basis pairs of the module."""
    v = check_lie_representation(g, vdim, psi)
    if not v:
        return v
    if T.rows != g.dim or T.cols != vdim or T.field != g.field:
        raise DimensionMismatch("embedding tensor shape mismatch")
    f = g.field
    mats = psi_matrices(f, vdim, psi)
    tcols = [T.col(a) for a in range(vdim)]
    for a in range(vdim):
        act = psi_of_vec(f, vdim, mats, tcols[a])
        for b in range(vdim):
            lhs = bracket_vec(g, tcols[a], tcols[b])
            rhs = T.matvec(act.matvec(vec_basis(f, vdim, b)))
            if lhs != rhs:
                return Verdict.failed("embedding-tensor", (a, b), lhs, rhs)
    return Verdict.passed()


def check_cocycle(c: NonAbelianCocycle) -> Verdict:
    """Derivation property plus clauses (A), (B), (C), (D).

    Every clause is evaluated (first witness kept per clause) and the
    verdict reports the first failure in that order.  The variant
    condition (D1) is always evaluated too; the notes record its outcome
    and whether it agreed with (D), even when an earlier clause failed.
    """
    f = c.base.field
    n, m = c.base.dim, c.coef.dim
    g, h = c.base.algebra, c.coef.algebra
    mats = psi_matrices(f, m, c.psi)
    pcols = [c.base.P.col(j) for j in range(n)]
    Q = c.coef.P
    pm = [psi_of_vec(f, m, mats, pcols[i]) for i in range(n)]
    phic = [c.Phi.col(i) for i in range(n)]
    failures = {}

    def record(clause, indices, lhs, rhs, **extra):
        if clause not in failures:
            failures[clause] = (indices, lhs, rhs, extra)

    # psi_x is a derivation of the coefficient bracket.
    for i in range(n):
        for a in range(m):
            for b in range(m):
                lhs = mats[i].matvec(h.bracket_basis(a, b))
                rhs = vec_add(
                    f,
                    bracket_vec(h, mats[i].col(a), vec_basis(f, m, b)),
                    bracket_vec(h, vec_basis(f, m, a), mats[i].col(b)),
                )
                if lhs != rhs:
                    record("derivation", (i, a, b), lhs, rhs)

    # (A): commutator defect of psi is the inner derivation by chi.
    for i in range(n):
        for j in range(i + 1, n):
            defect = mats[i].mul(mats[j]).sub(mats[j].mul(mats[i])).sub(
                psi_of_vec(f, m, mats, g.bracket_basis(i, j))
            )
            chival = c.chi.eval_basis((i, j))
            for a in range(m):
                lhs = defect.col(a)
                rhs = bracket_vec(h, chival, vec_basis(f, m, a))
                if lhs != rhs:
                    record("(A)", (i, j, a), lhs, rhs)

    # (B): the cyclic action-vs-insertion sum on chi vanishes.
    for i, j, k in combinations(range(n), 3):
        acc = vec_zero(f, m)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            acc = vec_add(f, acc, mats[x].matvec(c.chi.eval_basis((y, z))))
            acc = vec_sub(
                f,
                acc,
                eval_mixed(c.chi, [g.bracket_basis(x, y), z]),
            )
        if not vec_is_zero(f, acc):
            record("(B)", (i, j, k), acc, vec_zero(f, m))

    # (C): both chains relating psi, Q and Phi.
    for i in range(n):
        for a in range(m):
            ea = vec_basis(f, m, a)
            lhs = pm[i].matvec(Q.col(a))
            mid = vec_add(
                f,
                Q.matvec(pm[i].matvec(ea)),
                vec_sub(
                    f,
                    Q.matvec(bracket_vec(h, phic[i], ea)),
                    bracket_vec(h, phic[i], Q.col(a)),
                ),
            )
            if lhs != mid:
                record("(C)", (i, a), lhs, mid, chain=1)
            rhs = vec_sub(
                f,
                Q.matvec(mats[i].matvec(Q.col(a))),
                bracket_vec(h, phic[i], Q.col(a)),
            )
            if lhs != rhs:
                record("(C)", (i, a), lhs, rhs, chain=2)

    # (D) and its variant (D1), evaluated independently.
    for i in range(n):
        for j in range(n):
            pi, pj = pcols[i], pcols[j]
            ei = vec_basis(f, n, i)
            ej = vec_basis(f, n, j)
            common = vec_sub(f, pm[i].matvec(phic[j]), pm[j].matvec(phic[i]))
            common = vec_add(f, common, bracket_vec(h, phic[i], phic[j]))
            chipp = c.chi.eval_vectors([pi, pj])
            acc = vec_add(f, chipp, common)
            acc = vec_sub(f, acc, Q.matvec(c.chi.eval_vectors([pi, ej])))
            acc = vec_sub(f, acc, c.Phi.matvec(bracket_vec(g, pi, ej)))
            acc = vec_add(f, acc, Q.matvec(mats[j].matvec(phic[i])))
            if not vec_is_zero(f, acc):
                record("(D)", (i, j), acc, vec_zero(f, m))
            acc = vec_add(f, chipp, common)
            acc = vec_sub(f, acc, Q.matvec(c.chi.eval_vectors([ei, pj])))
            acc = vec_sub(f, acc, c.Phi.matvec(bracket_vec(g, ei, pj)))
            acc = vec_sub(f, acc, Q.matvec(mats[i].matvec(phic[j])))
            if not vec_is_zero(f, acc):
                record("(D1)", (i, j), acc, vec_zero(f, m))

    notes = {
        "d_holds": "(D)" not in failures,
        "d1_holds": "(D1)" not in failures,
        "d_d1_agree": ("(D)" in failures) == ("(D1)" in failures),
    }
    for clause in ("derivation", "(A)", "(B)", "(C)", "(D)"):
        if clause in failures:
            indices, lhs, rhs, extra = failures[clause]
            return Verdict.failed(clause, indices, lhs, rhs, **notes, **extra)
    return Verdict.passed(**notes)


def check_extension(e: ExtensionData) -> Verdict:
    """Exactness, morphism, ideal and section clauses for an extension."""
    f = e.total.field
    n, m, dim = e.base.dim, e.coef.dim, e.total.dim
    if dim != n + m:
        return Verdict.failed("exactness", (), (dim,), (n + m,))
    for a in range(m):
        for b in range(m):
            lhs = e.i.matvec(e.coef.algebra.bracket_basis(a, b))
            rhs = bracket_vec(e.total.algebra, e.i.col(a), e.i.col(b))
            if lhs != rhs:
                return Verdict.failed("i-morphism-bracket", (a, b), lhs, rhs)
    lhs = e.total.P.mul(e.i)
    rhs = e.i.mul(e.coef.P)
    if lhs != rhs:
        return Verdict.failed("i-morphism-operator", (), lhs.flat(), rhs.flat())
    for a in range(dim):
        for b in range(dim):
            lhs = e.p.matvec(e.total.algebra.bracket_basis(a, b))
            rhs = bracket_vec(e.base.algebra, e.p.col(a), e.p.col(b))
            if lhs != rhs:
                return Verdict.failed("p-morphism-bracket", (a, b), lhs, rhs)
    lhs = e.base.P.mul(e.p)
    rhs = e.p.mul(e.total.P)
    if lhs != rhs:
        return Verdict.failed("p-morphism-operator", (), lhs.flat(), rhs.flat())
    if rank(e.i) != m:
        return Verdict.failed("i-injective", (), (rank(e.i),), (m,))
    if rank(e.p) != n:
        return Verdict.failed("p-surjective", (), (rank(e.p),), (n,))
    comp = e.p.mul(e.i)
    if not comp.is_zero():
        return Verdict.failed("exactness", (), comp.flat(), ())
    # image(i) is an ideal: [i(h), x] stays in image(i) for every basis x.
    for a in range(m):
        for j in range(dim):
            val = bracket_vec(e.total.algebra, e.i.col(a), vec_basis(f, dim, j))
            if solve_affine(e.i, val) is None:
                return Verdict.failed("ideal", (a, j), val, ())
    if e.s is not None:
        if (e.s.rows, e.s.cols) != (dim, n):
            raise DimensionMismatch("section shape mismatch")
        comp = e.p.mul(e.s)
        ident = Matrix.identity(f, n)
        if comp != ident:
            return Verdict.failed("section", (), comp.flat(), ident.flat())
    return Verdict.passed()


def _phi_satisfies(c1, c2, phi: Matrix, mats) -> bool:
    """Full check of (E1), (E2), (E3) for a candidate phi; `mats` holds the
    action matrices of c1 and of c2, built once per search."""
    f = c1.base.field
    n, m = c1.base.dim, c1.coef.dim
    h = c1.coef.algebra
    mats1, mats2 = mats
    for j in range(n):
        pj = phi.col(j)
        for a in range(m):
            lhs = vec_sub(f, mats1[j].col(a), mats2[j].col(a))
            if lhs != bracket_vec(h, pj, vec_basis(f, m, a)):
                return False
    for x, y in combinations(range(n), 2):
        lhs = vec_sub(f, c1.chi.eval_basis((x, y)), c2.chi.eval_basis((x, y)))
        rhs = vec_sub(
            f,
            mats2[x].matvec(phi.col(y)),
            mats2[y].matvec(phi.col(x)),
        )
        rhs = vec_sub(f, rhs, phi.matvec(c1.base.algebra.bracket_basis(x, y)))
        rhs = vec_add(f, rhs, bracket_vec(h, phi.col(x), phi.col(y)))
        if lhs != rhs:
            return False
    for j in range(n):
        lhs = vec_sub(f, c1.Phi.col(j), c2.Phi.col(j))
        rhs = vec_sub(
            f,
            c1.coef.P.matvec(phi.col(j)),
            phi.matvec(c1.base.P.col(j)),
        )
        if lhs != rhs:
            return False
    return True


def bracket_morphism_mismatch(clause, phi: Matrix, src, dst, increasing=False, swap=False):
    """The first basis pair (a, b) of src, b > a when increasing, with
    phi[e_a, e_b] != [phi e_a, phi e_b] in dst, witnessed with these sides
    (swapped with swap), or None."""
    for a in range(src.dim):
        for b in range(a + 1 if increasing else 0, src.dim):
            lhs = phi.matvec(src.bracket_basis(a, b))
            rhs = bracket_vec(dst, phi.col(a), phi.col(b))
            if lhs != rhs:
                return Verdict.failed(clause, (a, b), *((rhs, lhs) if swap else (lhs, rhs)))
    return None


def check_algebra_automorphism(a: AveragingLieAlgebra, g: Matrix, tag: str) -> Verdict:
    f = a.field
    if (g.rows, g.cols) != (a.dim, a.dim) or g.field != f:
        raise DimensionMismatch("automorphism shape mismatch")
    if g.inverse() is None:
        return Verdict.failed(f"{tag}-invertible", (), g.flat(), ())
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            lhs = g.matvec(a.algebra.bracket_basis(i, j))
            rhs = bracket_vec(a.algebra, g.col(i), g.col(j))
            if lhs != rhs:
                return Verdict.failed(f"{tag}-bracket", (i, j), lhs, rhs)
    lhs = g.mul(a.P)
    rhs = a.P.mul(g)
    if lhs != rhs:
        return Verdict.failed(f"{tag}-operator", (), lhs.flat(), rhs.flat())
    return Verdict.passed()


def check_automorphism_pair(
    pair: AutomorphismPair, base: AveragingLieAlgebra, coef: AveragingLieAlgebra
) -> Verdict:
    v = check_algebra_automorphism(coef, pair.beta, "beta")
    if not v:
        return v
    return check_algebra_automorphism(base, pair.alpha, "alpha")


def transform_cocycle(pair: AutomorphismPair, c: NonAbelianCocycle) -> NonAbelianCocycle:
    """Pull the cocycle back along alpha and push forward along beta, each
    component written out: chi' = beta chi(alpha^-1 x, alpha^-1 y),
    psi'_x = beta psi_{alpha^-1 x} beta^-1 and Phi' = beta Phi alpha^-1."""
    v = check_automorphism_pair(pair, c.base, c.coef)
    if not v:
        raise ValidationError(v)
    f = c.base.field
    n, m = c.base.dim, c.coef.dim
    ainv = pair.alpha.inverse()
    binv = pair.beta.inverse()
    chi_comps = [
        pair.beta.matvec(c.chi.eval_vectors([ainv.col(i), ainv.col(j)]))
        for i, j in combinations(range(n), 2)
    ]
    chi = AltMap(f, n, 2, m, chi_comps)
    mats = psi_matrices(f, m, c.psi)
    new_mats = [
        pair.beta.mul(psi_of_vec(f, m, mats, ainv.col(i))).mul(binv) for i in range(n)
    ]
    psi = psi_tensor(f, m, new_mats)
    Phi = pair.beta.mul(c.Phi).mul(ainv)
    out = NonAbelianCocycle(c.base, c.coef, chi, psi, Phi)
    vv = check_cocycle(out)
    if not vv:
        raise InternalError(
            f"transformed cocycle failed clause {vv.clause}"
        )
    return out


def check_compatible_pair(pair: AutomorphismPair, r: Representation) -> Verdict:
    """beta psi_x h = psi_{alpha x} beta h on basis pairs (x, h)."""
    f = r.field
    mats = psi_matrices(f, r.vdim, r.psi)
    for i in range(r.dim):
        act = psi_of_vec(f, r.vdim, mats, pair.alpha.col(i))
        for a in range(r.vdim):
            lhs = pair.beta.matvec(mats[i].col(a))
            rhs = act.matvec(pair.beta.col(a))
            if lhs != rhs:
                return Verdict.failed("compatible", (i, a), lhs, rhs)
    return Verdict.passed()


def own_section(e: ExtensionData) -> Matrix:
    """e's section, else the right inverse of p that solves for each basis
    vector with the free coordinates zero."""
    if e.s is not None:
        return e.s
    f, n = e.total.field, e.base.dim
    cols = []
    for j in range(n):
        sol = solve_affine(e.p, vec_basis(f, n, j))
        if sol is None:
            raise ValidationError(Verdict.failed("p-surjective", (j,), (), ()))
        cols.append(sol[0])
    return Matrix.from_cols(f, cols, rows_hint=e.total.dim)


def audit_round_trip(e: ExtensionData) -> Verdict:
    """Verify build(extract(e)) is equivalent to e through tau(x,h) = s(x) + i(h).

    tau must be an invertible averaging morphism intertwining both legs of
    the diagram; the verdict notes carry the rebuilt extension.
    """
    s = own_section(e)
    c = extract_cocycle(e, s)
    rebuilt = build_extension(c)
    tau = s.hstack(e.i)
    if tau.inverse() is None:
        return Verdict.failed("tau-invertible", (), tau.flat(), ())
    for a in range(e.total.dim):
        for b in range(a + 1, e.total.dim):
            lhs = tau.matvec(rebuilt.total.algebra.bracket_basis(a, b))
            rhs = bracket_vec(e.total.algebra, tau.col(a), tau.col(b))
            if lhs != rhs:
                return Verdict.failed("tau-bracket", (a, b), lhs, rhs)
    lhs = tau.mul(rebuilt.total.P)
    rhs = e.total.P.mul(tau)
    if lhs != rhs:
        return Verdict.failed("tau-operator", (), lhs.flat(), rhs.flat())
    lhs = tau.mul(rebuilt.i)
    if lhs != e.i:
        return Verdict.failed("tau-inclusion", (), lhs.flat(), e.i.flat())
    lhs = e.p.mul(tau)
    if lhs != rebuilt.p:
        return Verdict.failed("tau-projection", (), lhs.flat(), rebuilt.p.flat())
    return Verdict.passed(rebuilt=rebuilt, tau=tau)


def check_split_semidirect(e: ExtensionData) -> Verdict:
    """Split-extension audit.

    Confirms the splitting section extracts the zero cocycle, that the
    section-induced group embedding splits the projection on every
    compatible pair, and that the automorphism-group order factors as
    |compatible pairs| x |kernel-fixing automorphisms|.
    """
    if not e.coef.is_abelian():
        raise ValidationError(Verdict.failed("abelian", (), (), ()))
    f = e.total.field
    n, m = e.base.dim, e.coef.dim
    s = own_section(e)
    for i_ in range(n):
        for j_ in range(i_ + 1, n):
            lhs = bracket_vec(e.total.algebra, s.col(i_), s.col(j_))
            rhs = s.matvec(e.base.algebra.bracket_basis(i_, j_))
            if lhs != rhs:
                raise ValidationError(Verdict.failed("section-bracket", (i_, j_), lhs, rhs))
    lhs = e.total.P.mul(s)
    rhs = s.mul(e.base.P)
    if lhs != rhs:
        raise ValidationError(Verdict.failed("section-operator", (), lhs.flat(), rhs.flat()))
    c = extract_cocycle(e, s)
    if not c.chi.is_zero() or not c.Phi.is_zero():
        raise ValidationError(
            Verdict.failed("zero-cocycle", (), c.chi.flat() + c.Phi.flat(), ())
        )
    auth = extension_automorphisms(e)
    cpairs = compatible_pairs(e)
    ident = AutomorphismPair(Matrix.identity(f, m), Matrix.identity(f, n))
    fixing = [g for g in auth if project_automorphism(e, g) == ident]
    # rho(pair) = tau (alpha + beta) tau^{-1}.
    tau = s.hstack(e.i)
    tinv = tau.inverse()
    if tinv is None:
        raise InternalError("splitting coordinates are singular")
    split = replace(e, s=s)
    for pair in cpairs:
        block = block_matrix(
            f, [[pair.alpha, Matrix.zero(f, n, m)], [Matrix.zero(f, m, n), pair.beta]]
        )
        gamma = tau.mul(block).mul(tinv)
        if not check_algebra_automorphism(e.total, gamma, "rho"):
            return Verdict.failed("split-rho-automorphism", (), gamma.flat(), ())
        back = project_automorphism(split, gamma)
        if back.beta != pair.beta or back.alpha != pair.alpha:
            return Verdict.failed(
                "split-rho-section",
                (),
                back.beta.flat() + back.alpha.flat(),
                pair.beta.flat() + pair.alpha.flat(),
            )
    if len(auth) != len(cpairs) * len(fixing):
        return Verdict.failed(
            "split-counts", (), (len(auth),), (len(cpairs) * len(fixing),)
        )
    return Verdict.passed(
        aut_total=len(auth), compatible_pairs=len(cpairs), kernel_fixing=len(fixing)
    )


def _transposed_action(f, t: Tensor) -> Tensor:
    """Swap the last two axes of an (n0, n1, n1) action tensor: between
    rho[i, a, b], the h_b coefficient of x_i acting on h_a, and the
    column-vector convention psi[i, b, a] of representations."""
    return Tensor.build(f, t.shape, lambda i, b, a: t.get(i, a, b))


def check_two_term(t: TwoTermLinf) -> Verdict:
    """Axioms L1 and L4..L8 on basis tuples (L2, L3 are structural)."""
    f = t.field
    n0, n1 = t.n0, t.n1
    # L1: the level-0 bracket is antisymmetric with zero diagonal.
    for i in range(n0):
        if not vec_is_zero(f, t.l2_00.fibre(i, i)):
            return Verdict.failed("L1", (i, i), t.l2_00.fibre(i, i), vec_zero(f, n0))
        for j in range(i + 1, n0):
            lhs = t.l2_00.fibre(i, j)
            rhs = vec_neg(f, t.l2_00.fibre(j, i))
            if lhs != rhs:
                return Verdict.failed("L1", (i, j), lhs, rhs)
    # L4: d<x, h> = <x, dh>.
    for i in range(n0):
        for a in range(n1):
            lhs = t.d.matvec(t.l2_01.fibre(i, a))
            rhs = br00_vec(t, vec_basis(f, n0, i), t.d.col(a))
            if lhs != rhs:
                return Verdict.failed("L4", (i, a), lhs, rhs)
    # L5: <dh, k> = <h, dk> = -<dk, h>.
    for a in range(n1):
        for b in range(n1):
            lhs = br01_vec(t, t.d.col(a), vec_basis(f, n1, b))
            rhs = vec_neg(f, br01_vec(t, t.d.col(b), vec_basis(f, n1, a)))
            if lhs != rhs:
                return Verdict.failed("L5", (a, b), lhs, rhs)
    # L6: d l3(x,y,z) = Jacobi cycle of the level-0 bracket.  L1 already
    # holds, so both sides alternate and increasing tuples suffice (same
    # for L8 below).
    for i, j, k in combinations(range(n0), 3):
        lhs = t.d.matvec(t.l3.eval_basis((i, j, k)))
        rhs = vec_zero(f, n0)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            rhs = vec_add(
                f, rhs, br00_vec(t, vec_basis(f, n0, a), t.l2_00.fibre(b, c))
            )
        if lhs != rhs:
            return Verdict.failed("L6", (i, j, k), lhs, rhs)
    # L7: l3(x, y, dh) = <x,<y,h>> - <y,<x,h>> - <<x,y>, h>.
    for i in range(n0):
        for j in range(n0):
            for a in range(n1):
                lhs = t.l3.eval_vectors(
                    [vec_basis(f, n0, i), vec_basis(f, n0, j), t.d.col(a)]
                )
                rhs = br01_vec(t, vec_basis(f, n0, i), t.l2_01.fibre(j, a))
                rhs = vec_sub(
                    f, rhs, br01_vec(t, vec_basis(f, n0, j), t.l2_01.fibre(i, a))
                )
                rhs = vec_sub(
                    f, rhs, br01_vec(t, t.l2_00.fibre(i, j), vec_basis(f, n1, a))
                )
                if lhs != rhs:
                    return Verdict.failed("L7", (i, j, a), lhs, rhs)
    # L8: the alternating action sum of l3 equals its bracket-insertion sum.
    for w, x, y, z in combinations(range(n0), 4):
        lhs = vec_zero(f, n1)
        for pos, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
            tup = (w, x, y, z)
            rest = tup[:pos] + tup[pos + 1 :]
            term = br01_vec(t, vec_basis(f, n0, tup[pos]), t.l3.eval_basis(rest))
            lhs = vec_add(f, lhs, term if sign > 0 else vec_neg(f, term))
        rhs = vec_zero(f, n1)
        for (a, b), rest, sign in (
            ((w, x), (y, z), 1),
            ((w, y), (x, z), -1),
            ((w, z), (x, y), 1),
            ((x, y), (w, z), 1),
            ((x, z), (w, y), -1),
            ((y, z), (w, x), 1),
        ):
            term = eval_mixed(t.l3, [t.l2_00.fibre(a, b), *rest])
            rhs = vec_add(f, rhs, term if sign > 0 else vec_neg(f, term))
        if lhs != rhs:
            return Verdict.failed("L8", (w, x, y, z), lhs, rhs)
    return Verdict.passed()


def check_homotopy_averaging(t: TwoTermLinf, p: HomotopyAveraging) -> Verdict:
    """Axioms A1..A4 against a validated 2-term structure.

    A3 contains two asserted-equal right-hand sides; both are checked and
    the verdict notes record whether they agreed everywhere.
    """
    base = check_two_term(t)
    if not base:
        raise ValidationError(base)
    f = t.field
    n0, n1 = t.n0, t.n1
    if p.P0.rows != n0 or p.P0.cols != n0 or p.P1.rows != n1 or p.P1.cols != n1:
        raise DimensionMismatch("operator shape mismatch")
    if (p.P2.dim, p.P2.arity, p.P2.vdim) != (n0, 2, n1):
        raise DimensionMismatch("homotopy shape mismatch")
    p0c = [p.P0.col(j) for j in range(n0)]
    lhs = p.P0.mul(t.d)
    rhs = t.d.mul(p.P1)
    if lhs != rhs:
        return Verdict.failed("A1", (), lhs.flat(), rhs.flat())
    for i in range(n0):
        for j in range(n0):
            lhs = t.d.matvec(p.P2.eval_basis((i, j)))
            rhs = p.P0.matvec(br00_vec(t, p0c[i], vec_basis(f, n0, j)))
            rhs = vec_sub(f, rhs, br00_vec(t, p0c[i], p0c[j]))
            if lhs != rhs:
                return Verdict.failed("A2", (i, j), lhs, rhs)
    a3_sides_agree = True
    for i in range(n0):
        for a in range(n1):
            lhs = p.P2.eval_vectors([vec_basis(f, n0, i), t.d.col(a)])
            cross = br01_vec(t, p0c[i], p.P1.col(a))
            rhs1 = vec_sub(f, p.P1.matvec(br01_vec(t, p0c[i], vec_basis(f, n1, a))), cross)
            rhs2 = vec_sub(
                f,
                p.P1.matvec(br01_vec(t, vec_basis(f, n0, i), p.P1.col(a))),
                cross,
            )
            if rhs1 != rhs2:
                a3_sides_agree = False
            if lhs != rhs1:
                return Verdict.failed("A3", (i, a), lhs, rhs1, equality=1)
            if lhs != rhs2:
                return Verdict.failed("A3", (i, a), lhs, rhs2, equality=2)
    for x in range(n0):
        for y in range(n0):
            for z in range(n0):
                bx, by, bz = (vec_basis(f, n0, s) for s in (x, y, z))
                lhs = br01_vec(t, p0c[x], p.P2.eval_basis((y, z)))
                lhs = vec_sub(f, lhs, br01_vec(t, p0c[y], p.P2.eval_basis((x, z))))
                lhs = vec_add(f, lhs, br01_vec(t, p0c[z], p.P2.eval_basis((x, y))))
                lhs = vec_sub(
                    f, lhs, p.P1.matvec(br01_vec(t, bz, p.P2.eval_basis((x, y))))
                )
                lhs = vec_sub(
                    f,
                    lhs,
                    eval_mixed(p.P2, [br00_vec(t, p0c[x], by), z]),
                )
                lhs = vec_sub(
                    f, lhs, p.P2.eval_vectors([by, br00_vec(t, p0c[x], bz)])
                )
                lhs = vec_add(
                    f, lhs, p.P2.eval_vectors([bx, br00_vec(t, p0c[y], bz)])
                )
                rhs = t.l3.eval_vectors([p0c[x], p0c[y], p0c[z]])
                rhs = vec_sub(
                    f, rhs, p.P1.matvec(t.l3.eval_vectors([p0c[x], p0c[y], bz]))
                )
                if lhs != rhs:
                    return Verdict.failed("A4", (x, y, z), lhs, rhs)
    return Verdict.passed(a3_sides_agree=a3_sides_agree)


def check_crossed_module(c: CrossedModule) -> Verdict:
    """Morphism, action, representation-chain, anchor and Peiffer clauses."""
    f = c.g0.field
    n0, n1 = c.g0.dim, c.g1.dim
    psi = _transposed_action(f, c.rho)
    mats = psi_matrices(f, n1, psi)
    # d is an averaging Lie algebra morphism.
    for a in range(n1):
        for b in range(n1):
            lhs = c.d.matvec(c.g1.algebra.bracket_basis(a, b))
            rhs = bracket_vec(c.g0.algebra, c.d.col(a), c.d.col(b))
            if lhs != rhs:
                return Verdict.failed("d-bracket", (a, b), lhs, rhs)
    lhs = c.d.mul(c.g1.P)
    rhs = c.g0.P.mul(c.d)
    if lhs != rhs:
        return Verdict.failed("d-operator", (), lhs.flat(), rhs.flat())
    # Each rho_x is a derivation of the level-1 bracket.
    for i in range(n0):
        for a in range(n1):
            for b in range(n1):
                lhs = mats[i].matvec(c.g1.algebra.bracket_basis(a, b))
                rhs = vec_add(
                    f,
                    bracket_vec(c.g1.algebra,
                        mats[i].col(a), vec_basis(f, n1, b)
                    ),
                    bracket_vec(c.g1.algebra,
                        vec_basis(f, n1, a), mats[i].col(b)
                    ),
                )
                if lhs != rhs:
                    return Verdict.failed("rho-derivation", (i, a, b), lhs, rhs)
    # rho is a Lie homomorphism and makes g1 a representation of g0.
    rep_v = check_representation(c.g0, n1, psi, c.g1.P)
    if not rep_v:
        clause = {
            "psi-homomorphism": "rho-homomorphism",
            "rep-chain-1": "rep-chain-1",
            "rep-chain-2": "rep-chain-2",
        }[rep_v.clause]
        return Verdict(False, clause, rep_v.witness, rep_v.notes)
    # Anchor: d(rho_x h) = [x, dh].
    for i in range(n0):
        for a in range(n1):
            lhs = c.d.matvec(mats[i].col(a))
            rhs = bracket_vec(c.g0.algebra, vec_basis(f, n0, i), c.d.col(a))
            if lhs != rhs:
                return Verdict.failed("cm-anchor", (i, a), lhs, rhs)
    # Peiffer: rho_{dh} k = [h, k].
    for a in range(n1):
        act = psi_of_vec(f, n1, mats, c.d.col(a))
        for b in range(n1):
            acc = act.col(b)
            rhs = c.g1.algebra.bracket_basis(a, b)
            if acc != rhs:
                return Verdict.failed("cm-peiffer", (a, b), acc, rhs)
    return Verdict.passed()


def strict_to_crossed(t: TwoTermLinf, p: HomotopyAveraging) -> CrossedModule:
    """Level-1 bracket [h,k] := <dh, k> and action rho_x h := <x, h>."""
    if not is_strict(t, p):
        raise ValidationError(Verdict.failed("strict", (), t.l3.flat(), ()))
    v = check_homotopy_averaging(t, p)
    if not v:
        raise ValidationError(v)
    f = t.field
    n0, n1 = t.n0, t.n1
    br1 = Tensor.build(
        f,
        (n1, n1, n1),
        lambda a, b, cc: br01_vec(t, t.d.col(a), vec_basis(f, n1, b))[cc],
    )
    g1 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n1, br1), p.P1)
    g0 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n0, t.l2_00), p.P0)
    cm = CrossedModule(g1, g0, t.d, t.l2_01)
    cv = check_crossed_module(cm)
    if not cv:
        raise InternalError(f"strict data failed crossed-module clause {cv.clause}")
    return cm


def _signed(fld, positive, x):
    return x if positive else fld.neg(x)


def _nonzeros(m: Matrix):
    """(row, column, entry) of each nonzero entry of m."""
    return [(a, b, x) for a, row in enumerate(m.entries) for b, x in enumerate(row) if x]


def _add_scaled(fld, block, base, entries, scale):
    """block[a][base + b] += scale * x for each (a, b, x) in entries."""
    for a, b, x in entries:
        row = block[a]
        row[base + b] = fld.add(row.get(base + b, fld.zero), fld.mul(scale, x))


def _leib_rows(r: Representation, n):
    """d_Leib from dense arity n - 1 to n; with arguments x_1..x_n it is
      sum_{i<=n} (-1)^{i+1} psi_{P(x_i)} theta(..^i..)
      + (-1)^n Q(psi_{x_n} theta(x_1..x_{n-1}))
      + sum_{i<j} (-1)^i theta(..^i.., [P(x_i), x_j] at slot j, ..)."""
    fld, dim, vdim = r.field, r.dim, r.vdim
    g = r.base.algebra
    mats = psi_matrices(fld, vdim, r.psi)
    pcols = [r.base.P.col(j) for j in range(dim)]
    ident = _nonzeros(Matrix.identity(fld, vdim))
    pacts = [_nonzeros(psi_of_vec(fld, vdim, mats, p)) for p in pcols]
    qacts = [_nonzeros(r.Q.mul(m)) for m in mats]
    pbr = [
        [bracket_vec(g, p, vec_basis(fld, dim, u)) for u in range(dim)] for p in pcols
    ]
    rows = []
    for tup in product(range(dim), repeat=n):
        block = [{} for _ in range(vdim)]
        # 0-based slot i below is slot i + 1 of the formula
        for i in range(n):
            base = dense_offset(dim, tup[:i] + tup[i + 1 :]) * vdim
            unit = _signed(fld, i % 2 == 0, fld.one)
            _add_scaled(fld, block, base, pacts[tup[i]], unit)
        base = dense_offset(dim, tup[:-1]) * vdim
        unit = _signed(fld, n % 2 == 0, fld.one)
        _add_scaled(fld, block, base, qacts[tup[-1]], unit)
        for i in range(n):
            for j in range(i + 1, n):
                for k, w in enumerate(pbr[tup[i]][tup[j]]):
                    if w != fld.zero:
                        args = tup[:i] + tup[i + 1 : j] + (k,) + tup[j + 1 :]
                        base = dense_offset(dim, args) * vdim
                        coeff = _signed(fld, i % 2 == 1, w)
                        _add_scaled(fld, block, base, ident, coeff)
        rows.extend(block)
    # the library's rows keep no entry that cancelled
    return [{c: x for c, x in row.items() if x} for row in rows]


"""Non-abelian extensions, the Wells map, inducibility of automorphism
pairs with constructive lifting, and the abelian specialization, where
the Wells class is read as an averaging 2-cochain and checked against it.

Extensions carry explicit inclusion and projection matrices, so externally
authored extensions with scrambled bases are first-class inputs.  Every
postcondition backed by a theorem is still executed; a failure there is an
InternalError, never a silent pass.

An extension is read through its own section s (`e.s`, else
`default_section`) in the basis T = (s | i) of its total space, which it
builds once, with the cocycle read in it; another section is
`replace(e, s=...)`.  In that basis it is the total space of its cocycle, an
automorphism keeping the kernel is block triangular with its pair on the
diagonal, and an equivalence is [[I, 0], [phi, I]] for a witness phi of
cocycle equivalence.  A cocycle is read the same way: the action of a
pair (beta, alpha) is its cocycle in the basis diag(alpha^-1, beta^-1)
of its own total space (`transform_cocycle`), and phi is a witness when
[[I, 0], [phi, I]] is an averaging morphism between the two cocycles'
total spaces (`_phi_satisfies`).  (E1) makes the quadratic clause (E2)
linear, so the witnesses and the equivalences are affine spaces, solved
over Q and F_p; (E1)-(E3) are written out only as the rows solved.
The automorphism searches over F_p solve their linear clauses first, rows
for the entries of L X R (`_product_rows`) or X P1 - P2 X
(`_commutator_rows`) in the unknown X; `ENUM_LIMIT` bounds that space.
Every such row, and every row of (E1)-(E3), is a sparse row {column:
coefficient} without zeros, solved as a born-sparse `Matrix`.
Inside it they fix g column by column (`_bracket_maps`): a column in the
span of the earlier ones is dropped, and once g e_c is fixed each clause
g[e_c, e_k] = [g e_c, g e_k] with k > c is linear and cuts the space.  The
linear clauses cut out a unital matrix algebra, so the maps found are a
group, listed as products along a stabiliser chain whose orbits are closed
under the maps found so far: only the values they do not reach are searched.

The validators state their clauses on sparse matrices, as `lie` does: the
derivation clause, (A), (C), (D) and (D1), the bracket morphisms, the
witness check `_phi_satisfies` and the compatible-pair clause are one
sparse matrix identity per leading index, with `lie.column_mismatch` for
the witness.  (B), (D) and (D1) are read off the total space of the
cocycle (`check_cocycle`).  Basis changes (`_Basis`, `_extract`, lifts)
and whole-map equalities with flat witnesses stay dense products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, product
from math import prod
from operator import itemgetter, mul
from typing import NamedTuple

from .cohomology import Cochain, is_coboundary
from .errors import DimensionMismatch, FieldTooLarge, InternalError, ValidationError, Verdict
from .lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    bracket_morphism_mismatch,
    check_averaging,
    column_mismatch,
    derivation_mismatch,
    first_mismatch,
    jacobiator,
    later_cols,
    psi_tensor,
    sum_bracket,
)
from .linalg import (
    Matrix,
    Tensor,
    affine_points,
    block_matrix,
    from_sparse,
    kernel_basis,
    rank,
    rows_matvec,
    solve_affine,
    sparse_add,
    sparse_cols,
    sparse_matrices,
    sparse_mul,
    sparse_sum,
    sparse_vec,
    vec_add,
    vec_basis,
    vec_is_zero,
    vec_neg,
    vec_scale,
    vec_sub,
    vec_zero,
)
from .multilinear import AltMap

# the most points of a linear solution space that `_bracket_maps` walks
ENUM_LIMIT = 2**20


# ---------------------------------------------------------------------------
# Non-abelian 2-cocycles.


@dataclass(frozen=True)
class NonAbelianCocycle:
    """Triple (chi, psi, Phi) relating two averaging Lie algebras."""

    base: AveragingLieAlgebra  # quotient side
    coef: AveragingLieAlgebra  # kernel side
    chi: AltMap  # arity 2 on base, valued in coef
    psi: Tensor  # (dim base, dim coef, dim coef)
    Phi: Matrix  # dim coef x dim base

    def __post_init__(self):
        n, m = self.base.dim, self.coef.dim
        if (self.chi.dim, self.chi.arity, self.chi.vdim) != (n, 2, m):
            raise DimensionMismatch("chi shape mismatch")
        if self.psi.shape != (n, m, m):
            raise DimensionMismatch("psi shape mismatch")
        if (self.Phi.rows, self.Phi.cols) != (m, n):
            raise DimensionMismatch("Phi shape mismatch")

    @cached_property
    def total(self) -> AveragingLieAlgebra:
        """base + coef with the `sum_bracket` of the triple and the operator
        U = [[P, 0], [Phi, Q]], unvalidated: an averaging Lie algebra
        exactly when the triple is a cocycle."""
        f, n, m = self.base.field, self.base.dim, self.coef.dim
        bracket = sum_bracket(self.base.algebra, self.coef.algebra, self.psi, self.chi)
        U = block_matrix(f, [[self.base.P, Matrix.zero(f, n, m)], [self.Phi, self.coef.P]])
        return AveragingLieAlgebra(LieAlgebra(f, n + m, bracket), U)

    @staticmethod
    def validate(base, coef, chi, psi, Phi) -> "NonAbelianCocycle":
        c = NonAbelianCocycle(base, coef, chi, psi, Phi)
        check_cocycle(c).require()
        return c


def check_cocycle(c: NonAbelianCocycle) -> Verdict:
    """Derivation property plus clauses (A), (B), (C), (D).

    The triple is a cocycle exactly when its total space `c.total` is an
    averaging Lie algebra.  (B) is minus the coefficient rows of its
    Jacobiator at base triples; (D) and its variant (D1) are the
    coefficient rows, at base columns, of its left- and right-sided
    averaging defects.  The derivation clause, (A) and (C) are other parts
    of those identities whose witnesses print both sides of the clause, so
    they keep matrix identities of their own.

    Every clause is evaluated (first witness kept per clause) and the
    verdict reports the first failure in that order.  (D1) is always
    evaluated too; the notes record its outcome and whether it agreed with
    (D), even when an earlier clause failed.
    """
    f = c.base.field
    n, m = c.base.dim, c.coef.dim
    gad, had = c.base.algebra.sparse_ad, c.coef.algebra.sparse_ad
    acts = sparse_matrices(c.psi, transpose=True)
    p, q, phi = sparse_cols(c.base.P), sparse_cols(c.coef.P), sparse_cols(c.Phi)
    failures = {}

    def record(v):
        if v is not None and v.clause not in failures:
            failures[v.clause] = v

    # psi_x is a derivation of the coefficient bracket.
    record(derivation_mismatch("derivation", c.coef.algebra, acts))

    # (A): commutator defect of psi is the inner derivation by chi:
    # [psi_i, psi_j] - psi_[e_i, e_j] = ad_chi(i, j), column a.
    for i, j in combinations(range(n), 2):
        defect = sparse_add(f, (sparse_mul(f, acts[i], acts[j]),), (
            sparse_mul(f, acts[j], acts[i]), sparse_sum(f, acts, gad[i].get(j, {}))))
        inner = sparse_sum(f, had, sparse_vec(c.chi.eval_basis((i, j))))
        record(column_mismatch(f, "(A)", (i, j), defect, inner, m))

    # (B): sum over cyclic (x, y, z) of psi_x chi(y, z) - chi([x, y], z).
    ad = c.total.algebra.sparse_ad
    for i, j, k in combinations(range(n), 3):
        acc = vec_neg(f, jacobiator(f, ad, i, j, k)[n:])
        if not vec_is_zero(f, acc):
            record(Verdict.failed("(B)", (i, j, k), acc, vec_zero(f, m)))

    # (C): both chains relating psi, Q and Phi, column a of
    # psi_{P e_i} Q = Q psi_{P e_i} + Q ad_{Phi e_i} - ad_{Phi e_i} Q
    #               = Q psi_i Q - ad_{Phi e_i} Q.
    for i in range(n):
        pm = sparse_sum(f, acts, p.get(i, {}))
        adphi = sparse_sum(f, had, phi.get(i, {}))
        lhs, adq = sparse_mul(f, pm, q), sparse_mul(f, adphi, q)
        mid = sparse_add(f, (sparse_mul(f, q, pm), sparse_mul(f, q, adphi)), (adq,))
        rhs = sparse_add(f, (sparse_mul(f, q, sparse_mul(f, acts[i], q)),), (adq,))
        record(first_mismatch(
            column_mismatch(f, "(C)", (i,), lhs, mid, m, chain=1),
            column_mismatch(f, "(C)", (i,), lhs, rhs, m, chain=2),
        ))

    # (D): [U e_i, U e_j] = U[U e_i, e_j] and (D1): = U[e_i, U e_j] on the
    # coefficient rows, column j < n.
    u = sparse_cols(c.total.P)

    def coef_rows(mat):
        rows = {j: {r - n: x for r, x in col.items() if r >= n} for j, col in mat.items() if j < n}
        return {j: col for j, col in rows.items() if col}

    for i in range(n):
        adu = sparse_sum(f, ad, u.get(i, {}))
        lhs = sparse_mul(f, adu, u)
        d = sparse_add(f, (lhs,), (sparse_mul(f, u, adu),))
        d1 = sparse_add(f, (lhs,), (sparse_mul(f, u, sparse_mul(f, ad[i], u)),))
        record(column_mismatch(f, "(D)", (i,), coef_rows(d), {}, m))
        record(column_mismatch(f, "(D1)", (i,), coef_rows(d1), {}, m))

    notes = {
        "d_holds": "(D)" not in failures,
        "d1_holds": "(D1)" not in failures,
        "d_d1_agree": ("(D)" in failures) == ("(D1)" in failures),
    }
    for clause in ("derivation", "(A)", "(B)", "(C)", "(D)"):
        if clause in failures:
            v = failures[clause]
            return Verdict(False, clause, v.witness, {**notes, **v.notes})
    return Verdict.passed(**notes)


# ---------------------------------------------------------------------------
# Extensions.


@dataclass(frozen=True)
class ExtensionData:
    """Short exact sequence of averaging Lie algebras with explicit maps.

    Its readers read it through its own section, s or else
    `default_section`: that section, the basis (s | i) and the cocycle read
    in it are built on first use and kept.
    """

    base: AveragingLieAlgebra  # quotient
    coef: AveragingLieAlgebra  # kernel
    total: AveragingLieAlgebra
    i: Matrix  # total.dim x coef.dim
    p: Matrix  # base.dim x total.dim
    s: Matrix | None = None

    def __post_init__(self):
        if (self.i.rows, self.i.cols) != (self.total.dim, self.coef.dim):
            raise DimensionMismatch("inclusion shape mismatch")
        if (self.p.rows, self.p.cols) != (self.base.dim, self.total.dim):
            raise DimensionMismatch("projection shape mismatch")

    @staticmethod
    def validate(base, coef, total, i, p, s=None) -> "ExtensionData":
        e = ExtensionData(base, coef, total, i, p, s)
        check_extension(e).require()
        return e

    @cached_property
    def _own_section(self) -> Matrix:
        return self.s if self.s is not None else default_section(self)

    @cached_property
    def _own_basis(self) -> "_Basis":
        return _section_basis(self, self._own_section)

    @cached_property
    def _own_cocycle(self) -> NonAbelianCocycle:
        return _extract(self, self._own_basis)


def check_extension(e: ExtensionData) -> Verdict:
    """Exactness, morphism and section clauses for an extension."""
    f = e.total.field
    n, m, dim = e.base.dim, e.coef.dim, e.total.dim
    if dim != n + m:
        return Verdict.failed("exactness", (), (dim,), (n + m,))
    v = bracket_morphism_mismatch("i-morphism-bracket", e.i, e.coef.algebra, e.total.algebra)
    if v is not None:
        return v
    lhs = e.total.P.mul(e.i)
    rhs = e.i.mul(e.coef.P)
    if lhs != rhs:
        return Verdict.failed("i-morphism-operator", (), lhs.flat(), rhs.flat())
    v = bracket_morphism_mismatch("p-morphism-bracket", e.p, e.total.algebra, e.base.algebra)
    if v is not None:
        return v
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
    # image(i) = ker(p) by the ranks and p i = 0, and p is a bracket
    # morphism, so image(i) is an ideal: p[i h, x] = [p i h, p x] = 0.
    # An ideal clause here could never fail.
    if e.s is not None:
        if (e.s.rows, e.s.cols) != (dim, n):
            raise DimensionMismatch("section shape mismatch")
        comp = e.p.mul(e.s)
        ident = Matrix.identity(f, n)
        if comp != ident:
            return Verdict.failed("section", (), comp.flat(), ident.flat())
    return Verdict.passed()


def default_section(e: ExtensionData) -> Matrix:
    """Canonical right inverse of p: solve for each basis vector with free
    coordinates zero (deterministic by the elimination order)."""
    f = e.total.field
    cols = []
    for j in range(e.base.dim):
        sol = solve_affine(e.p, vec_basis(f, e.base.dim, j))
        if sol is None:
            raise ValidationError(Verdict.failed("p-surjective", (j,), (), ()))
        cols.append(sol[0])
    return Matrix.from_cols(f, cols, rows_hint=e.total.dim)


class _Basis(NamedTuple):
    """A basis T = (s | i) of a total space over base + coef, T(x, h) =
    s(x) + i(h), and its inverse: for a section s of an extension
    (`_section_basis`), or diag(alpha^-1, beta^-1) of a cocycle's total
    space (`transform_cocycle`)."""

    s: Matrix
    T: Matrix
    inv: Matrix

    def blocks(self, M):
        """The blocks [[xx, xh], [hx, hh]] of T^-1 M T, base rows first."""
        C, n = self.inv.mul(M).mul(self.T), self.s.cols
        halves = (C.entries[:n], C.entries[n:])
        return [_halves(Matrix._of(C.field, rows, C.cols), n) for rows in halves]

    def block_map(self, pair: "AutomorphismPair", phi: Matrix) -> Matrix:
        """gamma(s(x) + i(h)) = s(alpha x) + i(beta h + phi alpha x): the
        block matrix [[alpha, 0], [phi alpha, beta]] in this basis."""
        f, n, m = self.T.field, pair.alpha.rows, pair.beta.rows
        grid = [[pair.alpha, Matrix.zero(f, n, m)], [phi.mul(pair.alpha), pair.beta]]
        return self.T.mul(block_matrix(f, grid)).mul(self.inv)


def _halves(C: Matrix, n: int):
    """C as its first n columns and the rest."""
    cut = [[r[:n] for r in C.entries], [r[n:] for r in C.entries]]
    return [Matrix._of(C.field, rows, w) for rows, w in zip(cut, (n, C.cols - n))]


def _section_basis(e: ExtensionData, s: Matrix) -> _Basis:
    """The basis (s | i) for a section s of e; the clause `section` when
    p s != I, `tau-invertible` when (s | i) is singular (never if exact)."""
    f, n = e.total.field, e.base.dim
    ps, ident = e.p.mul(s), Matrix.identity(f, n)
    if ps != ident:
        raise ValidationError(Verdict.failed("section", (), ps.flat(), ident.flat()))
    T = s.hstack(e.i)
    inv = T.inverse()
    if inv is None:
        raise ValidationError(Verdict.failed("tau-invertible", (), T.flat(), ()))
    return _Basis(s, T, inv)


def perturbed_section(e: ExtensionData, mu: Matrix) -> Matrix:
    """Another section: s + i o mu for any linear mu: base -> coef, where
    s is e's own section, read unvalidated."""
    return e._own_section.add(e.i.mul(mu))


def build_extension(c: NonAbelianCocycle) -> ExtensionData:
    """The total space `c.total` of a cocycle as an extension.

    Its bracket is `sum_bracket` of the cocycle,
    [(x,h),(y,k)] = ([x,y], psi_x k - psi_y h + chi(x,y) + [h,k]); its
    operator is the block matrix U = [[P, 0], [Phi, Q]], i.e.
    U(x,h) = (P(x), Q(h) + Phi(x)); i, p and s are the block inclusion,
    projection and section of base + coef.  The cocycle clauses make it
    an averaging Lie algebra, so that check is a postcondition.
    """
    check_cocycle(c).require()
    f = c.base.field
    n, m = c.base.dim, c.coef.dim
    total = c.total
    try:
        LieAlgebra.validate(f, total.dim, total.algebra.bracket)
    except ValidationError as exc:
        raise InternalError(f"cocycle bracket failed Lie validation: {exc}") from exc
    if not check_averaging(total.algebra, total.P):
        raise InternalError("cocycle operator failed the averaging identity")
    i = block_matrix(f, [[Matrix.zero(f, n, m)], [Matrix.identity(f, m)]])
    p = block_matrix(f, [[Matrix.identity(f, n), Matrix.zero(f, n, m)]])
    s = block_matrix(f, [[Matrix.identity(f, n)], [Matrix.zero(f, m, n)]])
    return ExtensionData.validate(c.base, c.coef, total, i, p, s)


def extract_cocycle(e: ExtensionData, s: Matrix | None = None) -> NonAbelianCocycle:
    """The cocycle of an extension relative to a section s, its own when s
    is None: chi(x,y) = [s(x), s(y)] - s[x,y], psi_x h = [s(x), i(h)] and
    Phi(x) = U(s(x)) - s(P(x)) in coefficient coordinates, read off as the
    coefficient rows of T^-1 ad_{s(x)} T and T^-1 U T in the basis
    T = (s | i)."""
    return e._own_cocycle if s is None else _extract(e, _section_basis(e, s))


def _extract(src, basis: _Basis, failure="extension produced an invalid cocycle at"):
    """`extract_cocycle` in a basis already built, of anything with a base,
    a coef and a total space over base + coef: an extension, or a cocycle
    read in another basis of its own total space (`transform_cocycle`).
    The result must be a cocycle; an InternalError names the clause."""
    f, n, m = src.total.field, src.base.dim, src.coef.dim
    ad, s = src.total.algebra.sparse_ad, sparse_cols(basis.s)
    low = Matrix._of(f, basis.inv.entries[n:], n + m)  # the coefficient rows of T^-1

    def coef_rows(M):  # [hx, hh]: the coefficient rows of T^-1 M T
        return _halves(low.mul(M).mul(basis.T), n)

    rows = [coef_rows(from_sparse(f, sparse_sum(f, ad, s.get(x, {})), n + m)) for x in range(n)]
    chi = AltMap(f, n, 2, m, [rows[x][0].col(y) for x, y in combinations(range(n), 2)])
    psi = psi_tensor(f, m, [hh for _, hh in rows])
    Phi = coef_rows(src.total.P)[0]
    c = NonAbelianCocycle(src.base, src.coef, chi, psi, Phi)
    v = check_cocycle(c)
    if not v:
        raise InternalError(f"{failure} clause {v.clause}")
    return c


def _equivalence_verdict(tau: Matrix, e1: ExtensionData, e2: ExtensionData) -> Verdict:
    """Whether tau: e1.total -> e2.total is an equivalence of extensions:
    an invertible averaging morphism with tau i1 = i2 and p2 tau = p1."""
    v = _isomorphism_verdict("tau", tau, e1.total, e2.total)
    if not v:
        return v
    lhs = tau.mul(e1.i)
    if lhs != e2.i:
        return Verdict.failed("tau-inclusion", (), lhs.flat(), e2.i.flat())
    lhs = e2.p.mul(tau)
    if lhs != e1.p:
        return Verdict.failed("tau-projection", (), lhs.flat(), e1.p.flat())
    return Verdict.passed()


def audit_round_trip(e: ExtensionData) -> Verdict:
    """Verify build(extract(e)) is equivalent to e through the basis
    tau = (s | i), tau(x,h) = s(x) + i(h), of e's own section.

    tau must be an invertible averaging morphism intertwining both legs of
    the diagram; the verdict notes carry the rebuilt extension.
    """
    tau = e._own_basis.T
    rebuilt = build_extension(extract_cocycle(e))
    v = _equivalence_verdict(tau, rebuilt, e)
    return Verdict.passed(rebuilt=rebuilt, tau=tau) if v else v


def extensions_equivalent(e1: ExtensionData, e2: ExtensionData) -> Matrix | None:
    """The lexicographically least equivalence e1 -> e2 over F_p, a
    canonical one over Q, or None.

    With T_k = (s_k | i_k), the equivalences are the affine space
    tau = T2 T1^-1 + i2 phi p1 over the witnesses phi of the extracted
    cocycles (`_witness_space`).  The answer is its point cleared at the
    pivot columns of the RREF of its directions: entries before the first
    pivot are constant, and each pivot entry can be made 0 on its own.
    """
    if e1.base != e2.base or e1.coef != e2.coef:
        raise DimensionMismatch("extensions over different algebra pairs")
    f, n, m, dim = e1.total.field, e1.base.dim, e1.coef.dim, e1.total.dim
    b1, b2 = e1._own_basis, e2._own_basis
    space = _witness_space(extract_cocycle(e1), extract_cocycle(e2))
    if space is None:
        return None
    phi, directions = space
    tau = b2.T.mul(b1.inv).add(e2.i.mul(phi).mul(e1.p)).flat()
    steps = [e2.i.mul(Matrix.from_flat(f, m, n, d)).mul(e1.p).flat() for d in directions]
    R, pivots = Matrix._of(f, steps, dim * dim).rref()
    for row, c in zip(R.entries, pivots):
        tau = vec_sub(f, tau, vec_scale(f, tau[c], row))
    tau = Matrix.from_flat(f, dim, dim, tau)
    v = _equivalence_verdict(tau, e1, e2)
    if not v:
        raise InternalError(f"equivalence solve produced a map failing clause {v.clause}")
    return tau


# ---------------------------------------------------------------------------
# Equivalence of cocycles.


def _equivalence_linear_system(c1, c2, include_e2):
    """Rows and right-hand side of the linear clauses on phi, an m x n map
    with row-major unknowns; E2 rows only when linear (abelian).

    (E1) for each h_a: r_a phi = the columns a of psi_j - psi'_j, where
    column b of r_a is [h_b, h_a]; (E3) phi P - Q phi = Phi' - Phi;
    (E2), linear part: the rows `_e2_rows(c2, c2)` = chi(x, y) - chi'(x, y)
    for x < y.
    """
    f = c1.base.field
    n, m = c1.base.dim, c1.coef.dim
    h = c1.coef.algebra
    psi1, psi2 = c1.psi.get, c2.psi.get
    ident_n = Matrix.identity(f, n)
    rows, rhs = [], []
    for a in range(m):
        right = Matrix.from_cols(f, [h.bracket_basis(b, a) for b in range(m)])
        rows += _product_rows(f, right, ident_n)
        rhs += [f.sub(psi1(j, t, a), psi2(j, t, a)) for t in range(m) for j in range(n)]
    rows += _commutator_rows(f, c1.base.P, c1.coef.P)
    rhs += c2.Phi.sub(c1.Phi).flat()
    if include_e2:
        rows += _e2_rows(c2, c2)
        rhs += c1.chi.sub(c2.chi).flat()
    return Matrix._of_sparse(f, rows, m * n), tuple(rhs)


def _e2_rows(ca, cb):
    """Sparse rows for psi_x phi e_y - psi'_y phi e_x - phi [e_x, e_y],
    x < y one pair after another, in the row-major entries of an m x n
    map phi; psi acts as in ca and psi' as in cb.  With psi from c1
    and psi' from c2 it is the side of (E2) with [phi e_x, phi e_y]
    written as (psi_x - psi'_x) phi e_y, as (E1) allows."""
    f = ca.base.field
    n, m = ca.base.dim, ca.coef.dim
    psi, psi_ = ca.psi.get, cb.psi.get
    rows = []
    for x, y in combinations(range(n), 2):
        br = ca.base.algebra.bracket_basis(x, y)
        for t in range(m):
            # column s * n + j of row t is the coefficient of phi[s, j]
            row = {}
            for s in range(m):
                row[s * n + y] = psi(x, t, s)
                row[s * n + x] = f.neg(psi_(y, t, s))
            for j in range(n):
                row[t * n + j] = f.sub(row.get(t * n + j, f.zero), br[j])
            rows.append({c: v for c, v in row.items() if v})
    return rows


def _phi_satisfies(c1, c2, phi: Matrix) -> bool:
    """Whether phi witnesses the equivalence of c1 and c2: tau = [[I, 0],
    [phi, I]] is an averaging morphism from `c1.total` to the total space
    of c2's triple over c1's algebras.  On the pairs (x, h) that is (E1),
    on the pairs (x, y) it is (E2), and on the operators (E3).  That total
    space is c2's own, built once; c2 is over c1's algebras."""
    f, n, m = c1.base.field, c1.base.dim, c1.coef.dim
    ident = Matrix.identity
    tau = block_matrix(f, [[ident(f, n), Matrix.zero(f, n, m)], [phi, ident(f, m)]])
    src, dst, t = c1.total, c2.total, sparse_cols(tau)
    for a in range(n):  # tau is I on the kernel, so the pairs n <= a < b agree
        lhs = sparse_mul(f, t, later_cols(src.algebra.sparse_ad[a], a))
        rhs = sparse_mul(f, sparse_sum(f, dst.algebra.sparse_ad, t[a]), later_cols(t, a))
        if lhs != rhs:
            return False
    return tau.mul(src.P) == dst.P.mul(tau)


def _witness_space(c1, c2):
    """The witnesses of the equivalence of two cocycles, as the first
    phi and the row-major directions of the space, or None.

    (E1) and (E3) are linear in phi, and (E1) makes (E2) linear too:
    [phi e_x, phi e_y] = (psi_x - psi'_x) phi e_y.  The witnesses are then
    an affine space, and at most two exact solves give it over Q and F_p.
    The first solves (E1) and (E3), with (E2) when the coefficients are
    abelian, for a point and a kernel basis; on abelian coefficients that
    point is the first witness.  Otherwise the second solves (E2) for
    the coordinates t of a witness in that basis, with the columns
    reversed, so that its free coordinates are the earliest ones and are
    0.  That is the least t, the first witness a walk of the space in
    coefficient order would meet; the directions are the second solve's
    kernel in the reversed basis.
    """
    if c1.base != c2.base or c1.coef != c2.coef:
        raise DimensionMismatch("cocycles live over different algebra pairs")
    f = c1.base.field
    n, m = c1.base.dim, c1.coef.dim
    abelian = c1.coef.is_abelian()
    system, rhs = _equivalence_linear_system(c1, c2, abelian)
    sol = solve_affine(system, rhs)
    if sol is None:
        return None
    point, kernel = sol
    if abelian:
        # (E2) is in the first system, so the second would solve 0 t = 0:
        # t = 0, and the kernel is every coordinate of the reversed basis
        directions = kernel[::-1]
    else:
        e2 = _e2_rows(c1, c2)
        gap = vec_sub(f, c1.chi.sub(c2.chi).flat(), rows_matvec(f, e2, point))
        back = Matrix.from_cols(f, kernel[::-1], rows_hint=m * n)
        steps = [rows_matvec(f, e2, v) for v in kernel[::-1]]
        sol = solve_affine(Matrix.from_cols(f, steps, rows_hint=len(gap)), gap)
        if sol is None:
            return None
        point = vec_add(f, point, back.matvec(sol[0]))
        directions = [back.matvec(t) for t in sol[1]]
    phi = Matrix.from_flat(f, m, n, point)
    if not _phi_satisfies(c1, c2, phi):
        raise InternalError("equivalence solve produced a bad witness")
    return phi, directions


def cocycles_equivalent(c1, c2) -> Matrix | None:
    """The first phi witnessing the equivalence of two cocycles, or None."""
    space = _witness_space(c1, c2)
    return None if space is None else space[0]


# ---------------------------------------------------------------------------
# Automorphism pairs, transformation, Wells machinery.


@dataclass(frozen=True)
class AutomorphismPair:
    """(beta, alpha) acting on the kernel and quotient sides."""

    beta: Matrix
    alpha: Matrix


def check_algebra_automorphism(a: AveragingLieAlgebra, g: Matrix, tag: str) -> Verdict:
    f = a.field
    if (g.rows, g.cols) != (a.dim, a.dim) or g.field != f:
        raise DimensionMismatch("automorphism shape mismatch")
    return _isomorphism_verdict(tag, g, a, a)


def _isomorphism_verdict(tag, g: Matrix, src, dst) -> Verdict:
    """Whether g: src -> dst is an invertible averaging morphism, as the
    clauses tag-invertible, tag-bracket and tag-operator."""
    if g.inverse() is None:
        return Verdict.failed(f"{tag}-invertible", (), g.flat(), ())
    v = bracket_morphism_mismatch(f"{tag}-bracket", g, src.algebra, dst.algebra, increasing=True)
    if v is not None:
        return v
    lhs = g.mul(src.P)
    rhs = dst.P.mul(g)
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
    """Pull the cocycle back along alpha and push it forward along beta:
    chi' = beta chi(alpha^-1 x, alpha^-1 y), psi'_x = beta psi_{alpha^-1 x}
    beta^-1 and Phi' = beta Phi alpha^-1.  That is the cocycle `_extract`
    reads off `c.total` in the basis T = diag(alpha^-1, beta^-1), whose
    inverse is diag(alpha, beta)."""
    check_automorphism_pair(pair, c.base, c.coef).require()
    f, n, m = c.base.field, c.base.dim, c.coef.dim

    def diag(a, b):
        return block_matrix(f, [[a, Matrix.zero(f, n, m)], [Matrix.zero(f, m, n), b]])

    ainv = pair.alpha.inverse()
    s = block_matrix(f, [[ainv], [Matrix.zero(f, m, n)]])
    basis = _Basis(s, diag(ainv, pair.beta.inverse()), diag(pair.alpha, pair.beta))
    return _extract(c, basis, "transformed cocycle failed")


@dataclass(frozen=True)
class WellsResult:
    """Difference cocycle components and the inducibility decision; on an
    abelian kernel with delta_psi zero, `cochain` is the difference in the
    averaging C^2(g, V)."""

    delta_chi: AltMap
    delta_psi: Tensor
    delta_phi: Matrix
    phi: Matrix | None  # the equivalence witness, None when there is none

    @property
    def inducible(self):
        return self.phi is not None

    @cached_property
    def cochain(self) -> Cochain:
        """The degree-2 cochain with f = delta_chi and theta(x) = delta_phi x."""
        f, (m, n) = self.delta_chi.field, (self.delta_phi.rows, self.delta_phi.cols)
        theta = Tensor(f, (n, m), [x for j in range(n) for x in self.delta_phi.col(j)])
        return Cochain(f, n, m, 2, self.delta_chi, theta)


def wells_class(pair: AutomorphismPair, e: ExtensionData) -> WellsResult:
    """Transformed-minus-original cocycle and whether it is the zero class."""
    orig = extract_cocycle(e)
    trans = transform_cocycle(pair, orig)
    dchi = trans.chi.sub(orig.chi)
    dpsi = trans.psi.sub(orig.psi)
    dphi = trans.Phi.sub(orig.Phi)
    return WellsResult(dchi, dpsi, dphi, cocycles_equivalent(trans, orig))


def lift_automorphism(pair: AutomorphismPair, e: ExtensionData, phi: Matrix) -> Matrix:
    """Automorphism of the total algebra inducing the pair.

    gamma(i(h) + s(x)) = i(beta(h) + phi(alpha(x))) + s(alpha(x)), the
    block map of `_Basis` for e's own section s, as is the phi of
    `wells_class(pair, e)`.  Invertibility, morphism properties and the
    induced pair are all verified after construction.
    """
    basis = e._own_basis
    gamma = basis.block_map(pair, phi)
    check_algebra_automorphism(e.total, gamma, "gamma").require()
    if gamma.mul(e.i) != e.i.mul(pair.beta):
        raise ValidationError(
            Verdict.failed(
                "restriction", (), gamma.mul(e.i).flat(), e.i.mul(pair.beta).flat()
            )
        )
    induced_alpha = e.p.mul(gamma).mul(basis.s)
    if induced_alpha != pair.alpha:
        raise ValidationError(
            Verdict.failed("projection", (), induced_alpha.flat(), pair.alpha.flat())
        )
    return gamma


def project_automorphism(e: ExtensionData, gamma: Matrix) -> AutomorphismPair:
    """The pair (gamma restricted to the kernel, p gamma s): the diagonal
    blocks of gamma in the basis (s | i) of e's own section s, whose upper
    right block is p gamma i."""
    check_algebra_automorphism(e.total, gamma, "gamma").require()
    return _project(e, gamma)


def _project(e: ExtensionData, gamma: Matrix) -> AutomorphismPair:
    """`project_automorphism` of a gamma already known to be an
    automorphism of e.total."""
    (alpha, corner), (_, beta) = e._own_basis.blocks(gamma)
    for a in range(e.coef.dim):
        if not vec_is_zero(e.total.field, corner.col(a)):
            raise ValidationError(
                Verdict.failed("restriction", (a,), gamma.matvec(e.i.col(a)), ())
            )
    pair = AutomorphismPair(beta, alpha)
    pv = check_automorphism_pair(pair, e.base, e.coef)
    if not pv:
        raise InternalError(f"projected pair failed clause {pv.clause}")
    return pair


# ---------------------------------------------------------------------------
# Searches at desk scale: linear clauses first, then a column walk inside
# their solution space along a stabiliser chain.  The chain does not meet
# the group in lexicographic order, so it sorts it by the row-major entries.


def _product_rows(f, left, right):
    """Sparse rows for the entries of left X right, row-major, in the
    row-major entries of the unknown map X: the row of entry (r, a) holds
    left[r, s] right[c, a] at the column of X[s, c], for the nonzero
    entries of row r of left and of column a of right only."""
    k = right.rows
    lrows = [sparse_vec(row).items() for row in left.entries]
    rcols = [sparse_vec(right.col(a)).items() for a in range(right.cols)]
    return [{s * k + c: f.mul(x, y) for s, x in lrow for c, y in rcol}
            for lrow in lrows for rcol in rcols]


def _commutator_rows(f, P1, P2):
    """Sparse rows for the entries of X P1 - P2 X, for square P1 and P2
    and a rectangular unknown X with P2.rows rows and P1.rows columns; a
    list of rows is read as the sparse matrix {k: row k}."""
    left = _product_rows(f, Matrix.identity(f, P2.rows), P1)
    right = _product_rows(f, P2, Matrix.identity(f, P1.rows))
    diff = sparse_add(f, (dict(enumerate(left)),), (dict(enumerate(right)),))
    return [diff.get(k, {}) for k in range(len(left))]


def _bracket_maps(f, a, rows):
    """Every invertible n x n map g with g[x, y] = [gx, gy] in the Lie
    algebra a whose row-major entries solve the sparse rows over a finite
    field, sorted by those entries; FieldTooLarge over Q, and before any
    search when that space has more than `ENUM_LIMIT` points.  The rows must
    cut out a unital matrix algebra, so that the maps are a group G.

    The search fixes g column by column: c takes each value the space allows
    outside the span of the columns before it, and the clauses g[e_c, e_k] =
    [g e_c, g e_k] for k > c, linear once g e_c is fixed, cut the space
    before column c + 1.  Along a stabiliser chain (Sims, 1970), G_c (fixing
    e_0 .. e_{c-1}) is the union of the cosets t_w G_{c+1} over the orbit of
    e_c, t_w e_c = w, and only e_c is searched in full.  The orbit is closed
    under the generators known so far, those of G_{c+1} and the leaves found
    at column c, as they arrive (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, 4.1): a point w = g u gets t_w = g t_u
    and is skipped, and any other value is searched down to its first leaf,
    its t_w, or is outside the orbit.  An InternalError when I is no
    solution, when some t_w = g t_u fails the rows (they cut out no unital
    matrix algebra), or when |G| is not the product of the orbit sizes."""
    if not f.finite:
        raise FieldTooLarge("automorphism enumeration needs a finite field")
    n, p = a.dim, f.p
    kernel = kernel_basis(Matrix._of_sparse(f, rows, n * n))
    count = p ** len(kernel)
    if count > ENUM_LIMIT:
        raise FieldTooLarge(f"{count} candidate maps exceed the limit")
    if n == 0:
        return [Matrix(f, [], cols=0)]
    br = [[a.bracket_basis(c, k) for k in range(n)] for c in range(n)]
    # ad[r][j][i] is entry r of [e_i, e_j]
    ad = [[[br[i][j][r] for i in range(n)] for j in range(n)] for r in range(n)]
    unit = tuple(vec_basis(f, n, c) for c in range(n))

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

    def children(c, point, kern, basis, reached=()):
        """Each value of column c the node allows, with the node below it,
        but for the values in reached other than e_c."""
        # the leads carry the values of column c; the rest of the kernel
        # vanishes there, as every vector left does on the columns before c
        leads = []
        for i in range(c, n * n, n) if kern else ():
            v, _, kern = pivot(kern, itemgetter(i))
            if v is not None:
                leads.append(v)
        for x in affine_points(f, point, leads) if leads else (point,):
            col = w = tuple(x[c::n])
            if col in reached and col != unit[c]:
                continue
            for piv, b in basis:  # invertibility: drop the values in the span
                if w[piv]:
                    w = [(a - w[piv] * y) % p for a, y in zip(w, b)]
            piv = next((r for r in range(n) if w[r]), None)
            if piv is None:
                continue
            if c == n - 1:
                yield col, (x, None, None)
                continue
            adv = ad_of(col)

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
                yield col, (x, rest, basis + [(piv, [a * inv % p for a in w])])

    def first_leaf(c, node):
        if c == n:
            return node[0]
        return next(filter(None, (first_leaf(c + 1, b) for _, b in children(c, *node))), None)

    orbits = []

    def stabiliser(c, node):
        """G_c below a node on the identity prefix, each map as its columns,
        and generators of G_c, each as its rows."""
        if c == n:
            return [unit], []
        # the orbit of e_c under the generators so far, with t_w e_c = w
        trans, gens, group = {unit[c]: unit}, [], None

        def close(new):  # new onto the old points, then all onto the new ones
            todo = list(product(new, trans))
            gens.extend(new)
            while todo:
                g, u = todo.pop()
                w = tuple(sum(map(mul, r, u)) % p for r in g)
                if w not in trans:
                    t = [[sum(map(mul, r, v)) % p for v in zip(*trans[u])] for r in g]
                    flat = list(chain(*t))
                    if any(sum(x * flat[c] for c, x in row.items()) % p for row in rows):
                        raise InternalError(
                            "a product of solutions fails the linear clauses: "
                            "they cut out no unital matrix algebra")
                    trans[w] = t
                    todo += product(gens, [w])

        for col, below in children(c, *node, trans):
            if col == unit[c]:
                group, below_gens = stabiliser(c + 1, below)
                close(below_gens)
            elif leaf := first_leaf(c + 1, below):
                trans[col] = [leaf[r * n:r * n + n] for r in range(n)]
                close([trans[col]])
        if group is None:
            raise InternalError(f"the identity fails the linear clauses at column {c}")
        orbits.append(len(trans))
        out, cols = list(group), {v for g in group for v in g}
        for t in list(trans.values())[1:]:  # t G_{c+1}: t times each distinct column of G_{c+1}
            image = {v: tuple(sum(map(mul, r, v)) % p for r in t) for v in cols}
            out += [tuple(map(image.__getitem__, g)) for g in group]
        return out, gens

    group, _ = stabiliser(0, ((f.zero,) * (n * n), [list(v) for v in kernel], []))
    if len(set(group)) != prod(orbits):
        raise InternalError(f"{len(set(group))} maps, but orbits of sizes {orbits}")
    # the chain keeps canonical residues, which are not coerced again
    return [Matrix._of(f, rows, n) for rows in sorted(tuple(zip(*g)) for g in group)]


def averaging_automorphisms(a: AveragingLieAlgebra):
    """All averaging Lie algebra automorphisms over a finite field, in
    lexicographic order of their row-major entries: gP = Pg is solved
    exactly, and the stabiliser chain of `_bracket_maps` lists the
    invertible bracket morphisms in its solution space, a unital algebra."""
    f = a.field
    return _bracket_maps(f, a.algebra, _commutator_rows(f, a.P, a.P))


def extension_automorphisms(e: ExtensionData):
    """All total-space averaging automorphisms preserving the kernel, in
    lexicographic order of their row-major entries.

    Kernel preservation is L g i = 0, where the rows of L span the
    annihilator of image(i); it is not derived from p, which need not have
    kernel image(i) on an unvalidated extension.  With gP = Pg it is solved
    exactly.  Both clauses hold for I and for products, so their solutions
    are a unital matrix algebra, and the stabiliser chain of `_bracket_maps`
    lists the invertible bracket morphisms in it as a group.
    """
    f = e.total.field
    m = e.coef.dim
    rows = _commutator_rows(f, e.total.P, e.total.P)
    rows += _product_rows(f, _annihilator(e), e.i)
    hits = _bracket_maps(f, e.total.algebra, rows)
    for g in hits:
        for a in range(m):
            if solve_affine(e.i, g.matvec(e.i.col(a))) is None:
                raise InternalError("a solution of L g i = 0 leaves the kernel")
    return hits


def _annihilator(e: ExtensionData) -> Matrix:
    """A matrix whose rows span the annihilator of image(i): its kernel is
    image(i)."""
    f, dim = e.total.field, e.total.dim
    cols = [e.i.col(a) for a in range(e.coef.dim)]
    return Matrix(f, kernel_basis(Matrix(f, cols, cols=dim)), cols=dim)


# ---------------------------------------------------------------------------
# Abelian specialization.


def induced_representation(e: ExtensionData) -> Representation:
    """The base acting on an abelian kernel, read through e's own section
    (every section induces the same action)."""
    if not e.coef.is_abelian():
        raise ValidationError(Verdict.failed("abelian", (), (), ()))
    c = extract_cocycle(e)
    return Representation.validate(e.base, e.coef.dim, c.psi, e.coef.P)


def check_compatible_pair(pair: AutomorphismPair, r: Representation) -> Verdict:
    """beta psi_x = psi_{alpha(x)} beta on basis pairs: for each i,
    beta psi_i = psi_{alpha e_i} beta, column a."""
    f, acts = r.field, r.sparse_acts
    beta, alpha = sparse_cols(pair.beta), sparse_cols(pair.alpha)
    for i in range(r.dim):
        rhs = sparse_mul(f, sparse_sum(f, acts, alpha.get(i, {})), beta)
        v = column_mismatch(f, "compatible", (i,), sparse_mul(f, beta, acts[i]), rhs, r.vdim)
        if v is not None:
            return v
    return Verdict.passed()


def abelian_wells(pair: AutomorphismPair, e: ExtensionData) -> WellsResult:
    """`wells_class(pair, e)` on an abelian kernel, for a pair compatible
    with the induced representation: its `cochain` represents the class
    in the averaging H^2(g, V).

    The clauses are `abelian`, the pair's (through `transform_cocycle`)
    and `compatible`, in that order.  The zero class is decided twice, by
    the equivalence solve and by `is_coboundary`; an InternalError reports
    a disagreement, or a changed action.
    """
    induced = induced_representation(e)
    w = wells_class(pair, e)
    check_compatible_pair(pair, induced).require()
    if not w.delta_psi.is_zero():
        raise InternalError("compatible pair changed the induced action")
    if (is_coboundary(induced, w.cochain) is not None) != w.inducible:
        raise InternalError("the abelian Wells class and the equivalence solve disagree")
    return w


def compatible_pairs(e: ExtensionData):
    """Enumerate the compatible-pair group of an abelian extension."""
    induced = induced_representation(e)
    pairs = []
    betas = averaging_automorphisms(e.coef)
    alphas = averaging_automorphisms(e.base)
    for beta in betas:
        for alpha in alphas:
            pair = AutomorphismPair(beta, alpha)
            if check_compatible_pair(pair, induced):
                pairs.append(pair)
    return pairs


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
    s = e._own_section
    v = bracket_morphism_mismatch(
        "section-bracket", s, e.base.algebra, e.total.algebra, increasing=True, swap=True
    )
    if v is not None:
        raise ValidationError(v)
    lhs = e.total.P.mul(s)
    rhs = s.mul(e.base.P)
    if lhs != rhs:
        raise ValidationError(Verdict.failed("section-operator", (), lhs.flat(), rhs.flat()))
    c = extract_cocycle(e)
    if not c.chi.is_zero() or not c.Phi.is_zero():
        raise ValidationError(
            Verdict.failed("zero-cocycle", (), c.chi.flat() + c.Phi.flat(), ())
        )
    auth = extension_automorphisms(e)
    cpairs = compatible_pairs(e)
    # the kernel-fixing maps: automorphisms already, so not checked again
    ident = AutomorphismPair(Matrix.identity(f, m), Matrix.identity(f, n))
    fixing = sum(_project(e, g) == ident for g in auth)
    # rho(pair) = tau (alpha + beta) tau^{-1} in the basis tau = (s | i).
    for pair in cpairs:
        gamma = e._own_basis.block_map(pair, Matrix.zero(f, m, n))
        if not check_algebra_automorphism(e.total, gamma, "rho"):
            return Verdict.failed("split-rho-automorphism", (), gamma.flat(), ())
        back = _project(e, gamma)
        if back.beta != pair.beta or back.alpha != pair.alpha:
            return Verdict.failed(
                "split-rho-section",
                (),
                back.beta.flat() + back.alpha.flat(),
                pair.beta.flat() + pair.alpha.flat(),
            )
    if len(auth) != len(cpairs) * fixing:
        return Verdict.failed("split-counts", (), (len(auth),), (len(cpairs) * fixing,))
    return Verdict.passed(aut_total=len(auth), compatible_pairs=len(cpairs), kernel_fixing=fixing)


def exact_sequence_audit(e: ExtensionData):
    """Element-by-element audit of the four-term exact sequence.

    Checks ker(project) = kernel-fixing subgroup and ker(wells) =
    image(project) on the fully enumerated groups.
    """
    f = e.total.field
    auth = extension_automorphisms(e)
    ident = (Matrix.identity(f, e.coef.dim), Matrix.identity(f, e.base.dim))
    image = set()
    kernel_failures = []
    for g in auth:  # automorphisms already, so not checked again
        pair = _project(e, g)
        image.add((pair.beta, pair.alpha))
        in_kernel = (pair.beta, pair.alpha) == ident
        fixes = g.mul(e.i) == e.i and e.p.mul(g).mul(e._own_section) == ident[1]
        if in_kernel != fixes:
            kernel_failures.append(g)
    betas = averaging_automorphisms(e.coef)
    alphas = averaging_automorphisms(e.base)
    pairs = [AutomorphismPair(b, a) for b in betas for a in alphas]
    wells_failures = []
    for pair in pairs:
        if wells_class(pair, e).inducible != ((pair.beta, pair.alpha) in image):
            wells_failures.append(pair)
    return {
        "aut_total": len(auth),
        "pairs_audited": len(pairs),
        "image_size": len(image),
        "kernel_failures": kernel_failures,
        "wells_failures": wells_failures,
        "ok": not kernel_failures and not wells_failures,
    }

"""Lie algebras by structure constants, averaging operators, induced
Leibniz brackets, representations and embedding tensors.

Every identity is verified on basis tuples only; multilinearity makes that
sufficient.  Asymmetric or broken input is an error, never silently fixed.
The bracket tensor convention is bracket.get(i, j, k) = coefficient of e_k
in [e_i, e_j].  Over characteristic 2 the antisymmetry check includes the
alternating condition [e_i, e_i] = 0, which is what every construction
here actually relies on.

An algebra holds its ad matrices (column j of ad[i] is [e_i, e_j]) and a
module its action matrices, each built once.  A clause whose last argument
runs over a basis is one matrix identity per leading index, and
`column_mismatch` reports its first differing column: the witness a loop
over basis pairs in the same order finds.  Antisymmetry keeps its loop,
and `jacobiator` sums over the nonzero structure constants only; it also
serves L6 of `homotopy` and (B) of `extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import DimensionMismatch, InternalError, ValidationError, Verdict
from .linalg import (
    Matrix,
    Tensor,
    add_scaled,
    block_matrix,
    nonzeros,
    vec_is_zero,
    vec_neg,
    vec_zero,
)


def psi_of_vec(field, vdim, mats, x):
    """The matrix sum_k x_k mats[k], of the shape of the vdim-row matrices
    mats (vdim x vdim when there are none): the action matrix psi_x of an
    algebra vector x from the basis action matrices, ad_x from the ad ones."""
    zero, add, mul = field.zero, field.add, field.mul
    terms = [(c, m) for c, m in zip(x, mats) if c != zero]
    if len(terms) == 1 and terms[0][0] == field.one:
        return terms[0][1]
    cols = mats[0].cols if mats else vdim
    out = []
    for r in range(vdim):
        acc = [zero] * cols
        for c, m in terms:
            for k, y in enumerate(m.entries[r]):
                if y:
                    acc[k] = add(acc[k], mul(c, y))
        out.append(acc)
    return Matrix._of(field, out, cols)


def column_mismatch(clause, prefix, lhs: Matrix, rhs: Matrix, cols=None, **notes):
    """Failed verdict at the first column a of `cols` (every column by
    default) where lhs and rhs differ, witnessed on prefix + (a,); None
    when they agree there."""
    if cols is None:
        if lhs == rhs:
            return None
        cols = range(lhs.cols)
    for a in cols:
        left, right = lhs.col(a), rhs.col(a)
        if left != right:
            return Verdict.failed(clause, (*prefix, a), left, right, **notes)


def first_mismatch(*verdicts):
    """The failed verdict with the least witness indices among those not
    None, the earlier one on a tie; None when there is none."""
    found = [v for v in verdicts if v is not None]
    return min(found, key=lambda v: v.witness.indices) if found else None


def antisymmetry_mismatch(clause, bracket: Tensor):
    """The first i with [e_i, e_i] != 0, or i < j with [e_i, e_j] !=
    -[e_j, e_i], as a failed verdict; None for an alternating bracket."""
    f, dim = bracket.field, bracket.shape[0]
    br = bracket.fibre
    for i in range(dim):
        if not vec_is_zero(f, br(i, i)):
            return Verdict.failed(clause, (i, i), br(i, i), vec_zero(f, dim))
        for j in range(i + 1, dim):
            lhs, rhs = br(i, j), vec_neg(f, br(j, i))
            if lhs != rhs:
                return Verdict.failed(clause, (i, j), lhs, rhs)


def nonzero_fibres(t: Tensor):
    """nz[i][j] = the nonzero (k, entry) of fibre (i, j) of a 3-tensor."""
    f, (n, m, _) = t.field, t.shape
    return [[nonzeros(f, t.fibre(i, j)) for j in range(m)] for i in range(n)]


def jacobiator(field, nz, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], as a list,
    from the nonzero fibres nz of a bracket."""
    acc = [field.zero] * len(nz)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, coeff in nz[a][b]:
            add_scaled(field, acc, coeff, nz[t][c])
    return acc


def check_lie(field, dim, bracket: Tensor) -> Verdict:
    """Antisymmetry (including zero diagonal) and Jacobi on basis tuples."""
    if bracket.shape != (dim, dim, dim):
        raise DimensionMismatch(f"bracket tensor must have shape {(dim,) * 3}")
    v = antisymmetry_mismatch("antisymmetry", bracket)
    if v is not None:
        return v
    # antisymmetry holds past this point, so the Jacobiator is alternating
    # and increasing triples cover all basis triples
    nz = nonzero_fibres(bracket)
    for i, j, k in combinations(range(dim), 3):
        acc = jacobiator(field, nz, i, j, k)
        if not vec_is_zero(field, acc):
            return Verdict.failed("jacobi", (i, j, k), acc, vec_zero(field, dim))
    return Verdict.passed()


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants."""

    field: object
    dim: int
    bracket: Tensor

    @staticmethod
    def validate(field, dim, bracket) -> "LieAlgebra":
        v = check_lie(field, dim, bracket)
        if not v:
            raise ValidationError(v)
        return LieAlgebra(field, dim, bracket)

    @staticmethod
    def from_pairs(field, dim, pairs):
        """Structure constants from {(i, j): vector} for i < j, antisymmetrized."""
        f = field
        coeff = {}
        for (i, j), vec in pairs.items():
            vec = tuple(f.coerce(x) for x in vec)
            for k, x in enumerate(vec):
                coeff[(i, j, k)] = x
                coeff[(j, i, k)] = f.neg(x)
        t = Tensor.build(
            f, (dim, dim, dim), lambda i, j, k: coeff.get((i, j, k), f.zero)
        )
        return LieAlgebra.validate(f, dim, t)

    @staticmethod
    def abelian(field, dim):
        return LieAlgebra(field, dim, Tensor.zero(field, (dim, dim, dim)))

    def bracket_basis(self, i, j):
        return self.bracket.fibre(i, j)

    @cached_property
    def ad(self):
        """The ad matrices: column j of ad[i] is [e_i, e_j]."""
        return self.bracket.matrices()

    def bracket_vec(self, u, v):
        """[u, v] = sum_{i,j} u_i v_j [e_i, e_j], over the nonzero pairs."""
        f = self.field
        out = [f.zero] * self.dim
        for i, a in nonzeros(f, u):
            for j, b in nonzeros(f, v):
                add_scaled(f, out, f.mul(a, b), enumerate(self.bracket_basis(i, j)))
        return tuple(out)

    def is_abelian(self):
        return self.bracket.is_zero()


def check_leibniz(field, dim, bracket: Tensor) -> Verdict:
    """Left Leibniz identity {x,{y,z}} = {{x,y},z} + {y,{x,z}} on basis
    triples: with L_i the left multiplication by e_i (column k is
    {e_i, e_k}), L_i L_j = L_{e_i,e_j} + L_j L_i, column k, for each (i, j)."""
    if bracket.shape != (dim, dim, dim):
        raise DimensionMismatch(f"bracket tensor must have shape {(dim,) * 3}")
    f = field
    left = bracket.matrices()
    for i in range(dim):
        for j in range(dim):
            lhs = left[i].mul(left[j])
            rhs = psi_of_vec(f, dim, left, bracket.fibre(i, j)).add(left[j].mul(left[i]))
            v = column_mismatch("leibniz", (i, j), lhs, rhs)
            if v is not None:
                return v
    return Verdict.passed()


@dataclass(frozen=True)
class LeibnizAlgebra:
    field: object
    dim: int
    bracket: Tensor

    @staticmethod
    def validate(field, dim, bracket) -> "LeibnizAlgebra":
        v = check_leibniz(field, dim, bracket)
        if not v:
            raise ValidationError(v)
        return LeibnizAlgebra(field, dim, bracket)


def check_averaging(g: LieAlgebra, P: Matrix) -> Verdict:
    """[P(x), P(y)] = P([P(x), y]) on all basis pairs: for each i,
    ad_{P e_i} P = P ad_{P e_i}, column j.

    The verdict notes carry the equivalent right-sided identity
    [P(x), P(y)] = P([x, P(y)]), ad_{P e_i} P = P ad_i P; given
    antisymmetry the two whole-map verdicts must agree, so disagreement is
    an internal alarm.
    """
    if P.field != g.field or P.rows != g.dim or P.cols != g.dim:
        raise DimensionMismatch("operator shape does not match the algebra")
    left = None
    right_ok = True
    for i in range(g.dim):
        adp = psi_of_vec(g.field, g.dim, g.ad, P.col(i))
        lhs = adp.mul(P)
        if left is None:
            left = column_mismatch("eq1", (i,), lhs, P.mul(adp))
        right_ok = right_ok and lhs == P.mul(g.ad[i]).mul(P)
    notes = {"right_holds": right_ok, "sides_agree": (left is None) == right_ok}
    if left is None:
        return Verdict.passed(**notes)
    return Verdict(False, left.clause, left.witness, notes)


@dataclass(frozen=True)
class AveragingLieAlgebra:
    """A Lie algebra paired with a validated averaging operator."""

    algebra: LieAlgebra
    P: Matrix

    @staticmethod
    def validate(algebra: LieAlgebra, P: Matrix) -> "AveragingLieAlgebra":
        v = check_averaging(algebra, P)
        if not v:
            raise ValidationError(v)
        if not v.notes.get("sides_agree", True):
            raise InternalError("left and right averaging checks disagree")
        return AveragingLieAlgebra(algebra, P)

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    def bracket_vec(self, u, v):
        return self.algebra.bracket_vec(u, v)

    def is_abelian(self):
        return self.algebra.is_abelian()


def double_construction(g: LieAlgebra, copies: int):
    """The n-fold direct sum with its hierarchy of averaging operators.

    Component 0 of the bracket is [x_1, y_1]; component i >= 1 is
    [x_1, y_i] - [y_1, x_i]: the first copy acting by ad, copy by copy, on
    the abelian sum of the others.  Returns the doubled algebra together
    with the operators P(x_1..x_n) = (x_2 + ... + x_n, 0, ..) and
    Q_i(x_1..x_n) = (x_i, 0, ..) for i >= 2.
    """
    if copies < 2:
        raise ValueError("double_construction needs at least 2 copies")
    f = g.field
    n = g.dim
    rest = n * (copies - 1)
    ad = Tensor.build(
        f,
        (n, rest, rest),
        lambda i, b, a: g.bracket.get(i, a % n, b % n) if a // n == b // n else f.zero,
    )
    others = LieAlgebra.abelian(f, rest)
    big = LieAlgebra.validate(f, n + rest, sum_bracket(g, others, ad))
    ident, zero = Matrix.identity(f, n), Matrix.zero(f, n, n)

    def block_collect(out_of):
        """Operator sending block b to block 0 for each b in out_of."""
        top = [ident if b in out_of else zero for b in range(copies)]
        return block_matrix(f, [top] + [[zero] * copies] * (copies - 1))

    ops = [block_collect(range(1, copies))]
    return big, ops + [block_collect([b]) for b in range(1, copies)]


def induced_leibniz(a: AveragingLieAlgebra) -> LeibnizAlgebra:
    """The Leibniz bracket {x, y} = [P(x), y] on the same space."""
    f = a.field
    n = a.dim
    adp = [psi_of_vec(f, n, a.algebra.ad, a.P.col(i)) for i in range(n)]
    t = Tensor.of_matrices(f, (n, n, n), adp)
    v = check_leibniz(f, n, t)
    if not v:
        raise InternalError(
            f"induced bracket of a validated averaging operator is not Leibniz: {v.clause}"
        )
    return LeibnizAlgebra(f, n, t)


# ---------------------------------------------------------------------------
# Plain Lie-algebra representations (no averaging data): used by embedding
# tensors and as the underlying layer of Definition-style representations.


def psi_matrices(field, vdim, psi: Tensor):
    """The action matrices: column a of mats[i] is psi_{e_i} e_a."""
    if psi.shape[1:] != (vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    rows = [[psi.fibre(i, a) for a in range(vdim)] for i in range(psi.shape[0])]
    return tuple(Matrix._of(field, r, vdim) for r in rows)


def bracket_morphism_mismatch(clause, phi: Matrix, src, dst, increasing=False, swap=False):
    """The first basis pair (a, b) of src, b > a when increasing, with
    phi[e_a, e_b] != [phi e_a, phi e_b] in dst, witnessed with these sides
    (swapped with swap), or None: column b of phi ad_a and ad_{phi e_a} phi."""
    f = phi.field
    for a in range(src.dim - 1 if increasing else src.dim):
        sides = phi.mul(src.ad[a]), psi_of_vec(f, dst.dim, dst.ad, phi.col(a)).mul(phi)
        cols = range(a + 1, src.dim) if increasing else None
        v = column_mismatch(clause, (a,), *(sides[::-1] if swap else sides), cols=cols)
        if v is not None:
            return v


def derivation_mismatch(clause, h: LieAlgebra, mats):
    """The first (i, a, b) with D_i[h_a, h_b] != [D_i h_a, h_b] + [h_a, D_i h_b]
    for the matrices D_i = mats[i], as a failed verdict; None when each is
    a derivation.  For each (i, a) the identity is D_i ad_a =
    ad_{D_i h_a} + ad_a D_i, column b."""
    f, m = h.field, h.dim
    for i, D in enumerate(mats):
        for a in range(m):
            rhs = psi_of_vec(f, m, h.ad, D.col(a)).add(h.ad[a].mul(D))
            v = column_mismatch(clause, (i, a), D.mul(h.ad[a]), rhs)
            if v is not None:
                return v


def _homomorphism(g: LieAlgebra, vdim, mats) -> Verdict:
    """psi_[x,y] = psi_x psi_y - psi_y psi_x on basis pairs x < y."""
    for i, j in combinations(range(g.dim), 2):
        lhs = psi_of_vec(g.field, vdim, mats, g.bracket_basis(i, j))
        rhs = mats[i].mul(mats[j]).sub(mats[j].mul(mats[i]))
        if lhs != rhs:
            return Verdict.failed("psi-homomorphism", (i, j), lhs.flat(), rhs.flat())
    return Verdict.passed()


def check_lie_representation(g: LieAlgebra, vdim, psi: Tensor) -> Verdict:
    """psi_[x,y] = psi_x psi_y - psi_y psi_x on basis pairs."""
    if psi.shape != (g.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    return _homomorphism(g, vdim, psi_matrices(g.field, vdim, psi))


def check_representation(base: AveragingLieAlgebra, vdim, psi: Tensor, Q: Matrix) -> Verdict:
    """Homomorphism property plus both representation chains.

    Clause names: "psi-homomorphism", then "rep-chain-1" for
    psi_{P(x)} Q = Q psi_{P(x)} and "rep-chain-2" for
    Q psi_{P(x)} = Q psi_x Q, each witnessed on a basis pair (x, v).
    """
    if Q.rows != vdim or Q.cols != vdim or Q.field != base.field:
        raise DimensionMismatch("Q shape does not match the module")
    if psi.shape != (base.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    return representation_verdict(base, psi_matrices(base.field, vdim, psi), Q)


def representation_verdict(base: AveragingLieAlgebra, mats, Q: Matrix) -> Verdict:
    """`check_representation` on the action matrices mats[i] = psi_{e_i}
    and a Q of their shape."""
    v = _homomorphism(base.algebra, Q.rows, mats)
    if not v:
        return v
    for i in range(base.dim):
        pm = psi_of_vec(base.field, Q.rows, mats, base.P.col(i))
        mid = Q.mul(pm)
        for clause, lhs, rhs in (
            ("rep-chain-1", pm.mul(Q), mid),
            ("rep-chain-2", mid, Q.mul(mats[i]).mul(Q)),
        ):
            v = column_mismatch(clause, (i,), lhs, rhs)
            if v is not None:
                return v
    return Verdict.passed()


@dataclass(frozen=True)
class Representation:
    """Module (V, psi) over an averaging Lie algebra, with its operator Q."""

    base: AveragingLieAlgebra
    vdim: int
    psi: Tensor
    Q: Matrix

    @staticmethod
    def validate(base, vdim, psi, Q) -> "Representation":
        v = check_representation(base, vdim, psi, Q)
        if not v:
            raise ValidationError(v)
        return Representation(base, vdim, psi, Q)

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.base.dim

    def psi_mats(self):
        return self._mats

    @cached_property
    def _mats(self):
        return psi_matrices(self.field, self.vdim, self.psi)


def adjoint_representation(a: AveragingLieAlgebra) -> Representation:
    """The algebra acting on itself by ad, with Q = P."""
    f = a.field
    n = a.dim
    psi = Tensor.build(f, (n, n, n), lambda i, b, j: a.algebra.bracket.get(i, j, b))
    return Representation.validate(a, n, psi, a.P)


def trivial_representation(a: AveragingLieAlgebra, vdim, Q: Matrix | None = None):
    """Zero action; any Q satisfies the chains, default Q = 0."""
    f = a.field
    if Q is None:
        Q = Matrix.zero(f, vdim, vdim)
    return Representation.validate(a, vdim, Tensor.zero(f, (a.dim, vdim, vdim)), Q)


# ---------------------------------------------------------------------------
# Embedding tensors.


def check_embedding_tensor(g: LieAlgebra, vdim, psi: Tensor, T: Matrix) -> Verdict:
    """[T(u), T(v)] = T(psi_{T(u)} v) on all basis pairs of the module:
    for each a, ad_{T e_a} T = T psi_{T e_a}, column b."""
    if psi.shape != (g.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    f = g.field
    mats = psi_matrices(f, vdim, psi)
    v = _homomorphism(g, vdim, mats)
    if not v:
        return v
    if T.rows != g.dim or T.cols != vdim or T.field != g.field:
        raise DimensionMismatch("embedding tensor shape mismatch")
    for a in range(vdim):
        ta = T.col(a)
        lhs = psi_of_vec(f, g.dim, g.ad, ta).mul(T)
        v = column_mismatch("embedding-tensor", (a,), lhs, T.mul(psi_of_vec(f, vdim, mats, ta)))
        if v is not None:
            return v
    return Verdict.passed()


def sum_bracket(g: LieAlgebra, h: LieAlgebra, psi: Tensor, chi=None) -> Tensor:
    """Structure constants on g + h, g's basis first, of
    [(x,u),(y,v)] = ([x,y], psi_x v - psi_y u + chi(x,y) + [u,v]); no
    identity is checked.  psi.get(i, b, a) is the h_b coefficient of
    psi_{e_i} h_a; chi, alternating on g with values in h, defaults to 0.
    """
    f = g.field
    n, m = g.dim, h.dim
    zero_g, zero_h = vec_zero(f, n), vec_zero(f, m)

    def fibre(i, j):
        if i < n and j < n:
            return g.bracket_basis(i, j) + (
                zero_h if chi is None else chi.eval_basis((i, j))
            )
        if i < n:
            return zero_g + tuple(psi.get(i, k, j - n) for k in range(m))
        if j < n:
            return zero_g + tuple(f.neg(psi.get(j, k, i - n)) for k in range(m))
        return zero_g + h.bracket_basis(i - n, j - n)

    dim = n + m
    return Tensor(
        f, (dim,) * 3, [x for i in range(dim) for j in range(dim) for x in fibre(i, j)]
    )


def semidirect_product(g: LieAlgebra, vdim, psi: Tensor) -> LieAlgebra:
    """g + V with bracket [(x,u),(y,v)] = ([x,y], psi_x v - psi_y u)."""
    v = check_lie_representation(g, vdim, psi)
    if not v:
        raise ValidationError(v)
    f = g.field
    bracket = sum_bracket(g, LieAlgebra.abelian(f, vdim), psi)
    return LieAlgebra.validate(f, g.dim + vdim, bracket)


def embedding_to_averaging(g: LieAlgebra, vdim, psi: Tensor, T: Matrix) -> AveragingLieAlgebra:
    """P_T(x, u) = (T(u), 0) on the semidirect product; validated output."""
    v = check_embedding_tensor(g, vdim, psi, T)
    if not v:
        raise ValidationError(v)
    f, n = g.field, g.dim
    total = semidirect_product(g, vdim, psi)
    zero_n, zero_v = Matrix.zero(f, n, n), Matrix.zero(f, vdim, vdim)
    P_T = block_matrix(f, [[zero_n, T], [Matrix.zero(f, vdim, n), zero_v]])
    return AveragingLieAlgebra.validate(total, P_T)


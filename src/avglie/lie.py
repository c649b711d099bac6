"""Lie algebras by structure constants, averaging operators, induced
Leibniz brackets, representations and embedding tensors.

Every identity is verified on basis tuples only; multilinearity makes that
sufficient.  Asymmetric or broken input is an error, never silently fixed.
The bracket tensor convention is bracket.get(i, j, k) = coefficient of e_k
in [e_i, e_j].  Over characteristic 2 the antisymmetry check includes the
alternating condition [e_i, e_i] = 0, which is what every construction
here actually relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    InternalError,
    JacobiViolation,
    LeibnizViolation,
    NotAnEmbeddingTensor,
    NotARepresentation,
    NotAveraging,
    Verdict,
)
from .linalg import (
    Matrix,
    Tensor,
    block_matrix,
    vec_add,
    vec_basis,
    vec_bilinear,
    vec_is_zero,
    vec_scale,
    vec_zero,
)


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
            exc = AntisymmetryViolation if v.clause == "antisymmetry" else JacobiViolation
            raise exc(v)
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

    def bracket_vec(self, u, v):
        return vec_bilinear(self.field, self.dim, u, v, self.bracket_basis)

    def is_abelian(self):
        return self.bracket.is_zero()


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


@dataclass(frozen=True)
class LeibnizAlgebra:
    field: object
    dim: int
    bracket: Tensor

    @staticmethod
    def validate(field, dim, bracket) -> "LeibnizAlgebra":
        v = check_leibniz(field, dim, bracket)
        if not v:
            raise LeibnizViolation(v)
        return LeibnizAlgebra(field, dim, bracket)


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
            lhs = g.bracket_vec(pcols[i], pcols[j])
            rhs = P.matvec(g.bracket_vec(pcols[i], vec_basis(f, g.dim, j)))
            if lhs != rhs and left is None:
                left = ((i, j), lhs, rhs)
            rhs_r = P.matvec(g.bracket_vec(vec_basis(f, g.dim, i), pcols[j]))
            if lhs != rhs_r:
                right_ok = False
    left_ok = left is None
    notes = {"right_holds": right_ok, "sides_agree": left_ok == right_ok}
    if left_ok:
        return Verdict.passed(**notes)
    return Verdict.failed("eq1", *left, **notes)


@dataclass(frozen=True)
class AveragingLieAlgebra:
    """A Lie algebra paired with a validated averaging operator."""

    algebra: LieAlgebra
    P: Matrix

    @staticmethod
    def validate(algebra: LieAlgebra, P: Matrix) -> "AveragingLieAlgebra":
        v = check_averaging(algebra, P)
        if not v:
            raise NotAveraging(v)
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
    pcols = [a.P.col(j) for j in range(n)]
    t = Tensor.build(
        f,
        (n, n, n),
        lambda i, j, k: a.algebra.bracket_vec(pcols[i], vec_basis(f, n, j))[k],
    )
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
    if psi.shape[1:] != (vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    return tuple(
        Matrix(field, [[psi.get(i, a, b) for b in range(vdim)] for a in range(vdim)])
        for i in range(psi.shape[0])
    )


def psi_of_vec(field, vdim, mats, x):
    """The action matrix sum_k x_k psi_{e_k} of an algebra vector x, from
    the basis action matrices `mats`."""
    out = Matrix.zero(field, vdim, vdim)
    for k, coeff in enumerate(x):
        if coeff != field.zero:
            out = out.add(mats[k].scale(coeff))
    return out


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
            raise NotARepresentation(v)
        return Representation(base, vdim, psi, Q)

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.base.dim

    def psi_mats(self):
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
            lhs = g.bracket_vec(tcols[a], tcols[b])
            rhs = T.matvec(act.matvec(vec_basis(f, vdim, b)))
            if lhs != rhs:
                return Verdict.failed("embedding-tensor", (a, b), lhs, rhs)
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
        raise NotARepresentation(v)
    f = g.field
    bracket = sum_bracket(g, LieAlgebra.abelian(f, vdim), psi)
    return LieAlgebra.validate(f, g.dim + vdim, bracket)


def embedding_to_averaging(g: LieAlgebra, vdim, psi: Tensor, T: Matrix) -> AveragingLieAlgebra:
    """P_T(x, u) = (T(u), 0) on the semidirect product; validated output."""
    v = check_embedding_tensor(g, vdim, psi, T)
    if not v:
        raise NotAnEmbeddingTensor(v)
    f, n = g.field, g.dim
    total = semidirect_product(g, vdim, psi)
    zero_n, zero_v = Matrix.zero(f, n, n), Matrix.zero(f, vdim, vdim)
    P_T = block_matrix(f, [[zero_n, T], [Matrix.zero(f, vdim, n), zero_v]])
    return AveragingLieAlgebra.validate(total, P_T)


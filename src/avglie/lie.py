"""Lie algebras by structure constants, averaging operators, induced
Leibniz brackets, representations and embedding tensors.

Every identity is verified on basis tuples only; multilinearity makes that
sufficient.  Asymmetric or broken input is an error, never silently fixed.
The bracket tensor convention is bracket.get(i, j, k) = coefficient of e_k
in [e_i, e_j].  Over characteristic 2 the antisymmetry check includes the
alternating condition [e_i, e_i] = 0, which is what every construction
here actually relies on.

An algebra holds its ad matrices (column j of sparse_ad[i] is [e_i, e_j])
and a module its action matrices, each built once as sparse matrices
(`linalg.sparse_cols`).  An action tensor psi holds the action matrices row
by row, psi.get(i, b, a) being the e_b coefficient of psi_{e_i} e_a:
`psi_tensor` writes it from dense matrices and `sparse_matrices(psi,
transpose=True)` reads them back.  A crossed module's rho (and a 2-term
structure's l2_01) holds them column by column, as `sparse_matrices` reads
them.

A clause whose last argument runs over a basis is one sparse matrix
identity per leading index, formed at the cost of its nonzeros, and
`column_mismatch` reports its first differing column: the witness a loop
over basis pairs in the same order finds.  It is the one place a witness
column is made dense.  A clause on the pairs a < b only cuts the columns
after a (`later_cols`) before the product.  Every such clause of
`extensions` and `homotopy` is stated the same way.  Antisymmetry keeps its
loop; `jacobiator` sums over the nonzero structure constants only, also for
L6 of `homotopy` and (B) of `extensions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import DimensionMismatch, InternalError, Verdict
from .linalg import (
    Matrix,
    Tensor,
    add_scaled,
    block_matrix,
    dense_col,
    from_sparse,
    sparse_add,
    sparse_cols,
    sparse_matrices,
    sparse_mul,
    sparse_sum,
    sparse_vec,
    vec_is_zero,
    vec_neg,
    vec_zero,
)


def column_mismatch(fld, clause, prefix, lhs, rhs, rows, **notes):
    """Failed verdict at the first column a where the sparse matrices lhs
    and rhs with `rows` rows differ, witnessed on prefix + (a,) with both
    columns made dense; None when they are equal."""
    if lhs == rhs:
        return None
    a = min(c for c in lhs.keys() | rhs.keys() if lhs.get(c) != rhs.get(c))
    return Verdict.failed(
        clause, (*prefix, a), dense_col(fld, lhs, a, rows), dense_col(fld, rhs, a, rows), **notes
    )


def later_cols(m, a):
    """The columns of the sparse matrix m after column a."""
    return {c: v for c, v in m.items() if c > a}


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


def jacobiator(field, ad, i, j, k):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], as a list,
    from the sparse ad matrices of a bracket (`linalg.sparse_cols`)."""
    acc = [field.zero] * len(ad)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for t, coeff in ad[a].get(b, {}).items():
            add_scaled(field, acc, coeff, ad[t].get(c, {}).items())
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
    ad = sparse_matrices(bracket)
    for i, j, k in combinations(range(dim), 3):
        acc = jacobiator(field, ad, i, j, k)
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
        check_lie(field, dim, bracket).require()
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
    def sparse_ad(self):
        """The ad matrices as sparse matrices (`linalg.sparse_cols`): column
        j of sparse_ad[i] is [e_i, e_j]."""
        return sparse_matrices(self.bracket)

    def bracket_vec(self, u, v):
        """[u, v] = sum_{i,j} u_i v_j [e_i, e_j], over the nonzero pairs."""
        f = self.field
        out = [f.zero] * self.dim
        for i, a in sparse_vec(u).items():
            for j, b in sparse_vec(v).items():
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
    f, left = field, sparse_matrices(bracket)
    for i in range(dim):
        for j in range(dim):
            lhs = sparse_mul(f, left[i], left[j])
            rhs = sparse_add(f, (sparse_sum(f, left, left[i].get(j, {})),
                                 sparse_mul(f, left[j], left[i])))
            v = column_mismatch(f, "leibniz", (i, j), lhs, rhs, dim)
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
        check_leibniz(field, dim, bracket).require()
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
    f, n, ad, p = g.field, g.dim, g.sparse_ad, sparse_cols(P)
    left, right_ok = None, True
    for i in range(n):
        adp = sparse_sum(f, ad, p.get(i, {}))
        lhs = sparse_mul(f, adp, p)
        if left is None:
            left = column_mismatch(f, "eq1", (i,), lhs, sparse_mul(f, p, adp), n)
        right_ok = right_ok and lhs == sparse_mul(f, p, sparse_mul(f, ad[i], p))
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
        v = check_averaging(algebra, P).require()
        if not v.notes.get("sides_agree", True):
            raise InternalError("left and right averaging checks disagree")
        return AveragingLieAlgebra(algebra, P)

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

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
    ident, zero = Matrix.identity(f, n), Matrix.zero(f, n, n)
    # e_i acts on each of the other copies by ad_i
    blocks = range(copies - 1)
    acts = [block_matrix(f, [[m if b == c else zero for c in blocks] for b in blocks])
            for m in g.bracket.matrices()]
    others = LieAlgebra.abelian(f, rest)
    big = LieAlgebra.validate(f, n + rest, sum_bracket(g, others, psi_tensor(f, rest, acts)))

    def block_collect(out_of):
        """Operator sending block b to block 0 for each b in out_of."""
        top = [ident if b in out_of else zero for b in range(copies)]
        return block_matrix(f, [top] + [[zero] * copies] * (copies - 1))

    ops = [block_collect(range(1, copies))]
    return big, ops + [block_collect([b]) for b in range(1, copies)]


def induced_leibniz(a: AveragingLieAlgebra) -> LeibnizAlgebra:
    """The Leibniz bracket {x, y} = [P(x), y] on the same space."""
    f, n, ad, p = a.field, a.dim, a.algebra.sparse_ad, sparse_cols(a.P)
    t = Tensor.of_sparse(f, (n, n, n), [sparse_sum(f, ad, p.get(i, {})) for i in range(n)])
    v = check_leibniz(f, n, t)
    if not v:
        raise InternalError(
            f"induced bracket of a validated averaging operator is not Leibniz: {v.clause}"
        )
    return LeibnizAlgebra(f, n, t)


# ---------------------------------------------------------------------------
# Plain Lie-algebra representations (no averaging data): used by embedding
# tensors and as the underlying layer of Definition-style representations.


def psi_tensor(field, vdim, mats) -> Tensor:
    """The action tensor of the vdim x vdim action matrices mats:
    psi.get(i, b, a) is mats[i][b, a], the e_b coefficient of psi_{e_i}
    e_a, so the tensor holds the rows of each matrix in turn and
    `sparse_matrices(psi, transpose=True)` reads the matrices back."""
    return Tensor._of(
        field, (len(mats), vdim, vdim), [x for m in mats for row in m.entries for x in row]
    )


def bracket_morphism_mismatch(clause, phi: Matrix, src, dst, increasing=False, swap=False):
    """The first basis pair (a, b) of src, b > a when increasing, with
    phi[e_a, e_b] != [phi e_a, phi e_b] in dst, witnessed with these sides
    (swapped with swap), or None: column b of phi ad_a and ad_{phi e_a} phi."""
    f, ph, ad = phi.field, sparse_cols(phi), dst.sparse_ad
    for a in range(src.dim - 1 if increasing else src.dim):
        left, right = src.sparse_ad[a], ph
        if increasing:
            left, right = later_cols(left, a), later_cols(right, a)
        sides = sparse_mul(f, ph, left), sparse_mul(f, sparse_sum(f, ad, ph.get(a, {})), right)
        v = column_mismatch(f, clause, (a,), *(sides[::-1] if swap else sides), dst.dim)
        if v is not None:
            return v


def derivation_mismatch(clause, h: LieAlgebra, mats):
    """The first (i, a, b) with D_i[h_a, h_b] != [D_i h_a, h_b] + [h_a, D_i h_b]
    for the sparse matrices D_i = mats[i], as a failed verdict; None when
    each is a derivation.  For each (i, a) the identity is D_i ad_a =
    ad_{D_i h_a} + ad_a D_i, column b."""
    f, m, ad = h.field, h.dim, h.sparse_ad
    for i, D in enumerate(mats):
        for a in range(m):
            rhs = sparse_add(f, (sparse_sum(f, ad, D.get(a, {})), sparse_mul(f, ad[a], D)))
            v = column_mismatch(f, clause, (i, a), sparse_mul(f, D, ad[a]), rhs, m)
            if v is not None:
                return v


def _homomorphism(g: LieAlgebra, vdim, acts) -> Verdict:
    """psi_[x,y] = psi_x psi_y - psi_y psi_x on basis pairs x < y (acts sparse)."""
    f, ad = g.field, g.sparse_ad
    for i, j in combinations(range(g.dim), 2):
        lhs = sparse_sum(f, acts, ad[i].get(j, {}))
        ij, ji = sparse_mul(f, acts[i], acts[j]), sparse_mul(f, acts[j], acts[i])
        rhs = sparse_sum(f, (ij, ji), {0: f.one, 1: f.neg(f.one)})
        if lhs != rhs:
            lhs, rhs = from_sparse(f, lhs, vdim), from_sparse(f, rhs, vdim)
            return Verdict.failed("psi-homomorphism", (i, j), lhs.flat(), rhs.flat())
    return Verdict.passed()


def check_lie_representation(g: LieAlgebra, vdim, psi: Tensor) -> Verdict:
    """psi_[x,y] = psi_x psi_y - psi_y psi_x on basis pairs."""
    if psi.shape != (g.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    return _homomorphism(g, vdim, sparse_matrices(psi, transpose=True))


def check_representation(base: AveragingLieAlgebra, vdim, psi: Tensor, Q: Matrix, acts=None) -> Verdict:
    """Homomorphism property plus both representation chains; acts, when
    given, are psi's sparse action matrices (`Representation.sparse_acts`).

    Clause names: "psi-homomorphism", then "rep-chain-1" for
    psi_{P(x)} Q = Q psi_{P(x)} and "rep-chain-2" for
    Q psi_{P(x)} = Q psi_x Q, each witnessed on a basis pair (x, v).
    """
    if Q.rows != vdim or Q.cols != vdim or Q.field != base.field:
        raise DimensionMismatch("Q shape does not match the module")
    if psi.shape != (base.dim, vdim, vdim):
        raise DimensionMismatch("psi tensor shape mismatch")
    return representation_verdict(base, sparse_matrices(psi, True) if acts is None else acts, Q)


def representation_verdict(base: AveragingLieAlgebra, acts, Q: Matrix) -> Verdict:
    """`check_representation` on the sparse action matrices acts[i] =
    psi_{e_i} and a Q of their shape."""
    f, vdim = base.field, Q.rows
    v = _homomorphism(base.algebra, vdim, acts)
    if not v:
        return v
    p, q = sparse_cols(base.P), sparse_cols(Q)
    for i in range(base.dim):
        pm = sparse_sum(f, acts, p.get(i, {}))
        mid = sparse_mul(f, q, pm)
        for clause, lhs, rhs in (
            ("rep-chain-1", sparse_mul(f, pm, q), mid),
            ("rep-chain-2", mid, sparse_mul(f, q, sparse_mul(f, acts[i], q))),
        ):
            v = column_mismatch(f, clause, (i,), lhs, rhs, vdim)
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
        r = Representation(base, vdim, psi, Q)
        check_representation(base, vdim, psi, Q, r.sparse_acts).require()
        return r

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.base.dim

    @cached_property
    def sparse_acts(self):
        """The action matrices psi_{e_i} as sparse matrices (`linalg.sparse_cols`)."""
        return sparse_matrices(self.psi, transpose=True)


def adjoint_representation(a: AveragingLieAlgebra) -> Representation:
    """The algebra acting on itself by ad, with Q = P."""
    f = a.field
    n = a.dim
    return Representation.validate(a, n, psi_tensor(f, n, a.algebra.bracket.matrices()), a.P)


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
    f, acts = g.field, sparse_matrices(psi, transpose=True)
    v = _homomorphism(g, vdim, acts)
    if not v:
        return v
    if T.rows != g.dim or T.cols != vdim or T.field != g.field:
        raise DimensionMismatch("embedding tensor shape mismatch")
    t = sparse_cols(T)
    for a in range(vdim):
        ta = t.get(a, {})
        lhs = sparse_mul(f, sparse_sum(f, g.sparse_ad, ta), t)
        rhs = sparse_mul(f, t, sparse_sum(f, acts, ta))
        v = column_mismatch(f, "embedding-tensor", (a,), lhs, rhs, g.dim)
        if v is not None:
            return v
    return Verdict.passed()


def sum_bracket(g: LieAlgebra, h: LieAlgebra, psi: Tensor, chi=None) -> Tensor:
    """Structure constants on g + h, g's basis first, of
    [(x,u),(y,v)] = ([x,y], psi_x v - psi_y u + chi(x,y) + [u,v]); no
    identity is checked.  psi is an action tensor (`psi_tensor`), whose
    `matrices()` hold psi_{e_i} h_a as row a of the i-th; chi, alternating
    on g with values in h, defaults to 0.
    """
    f = g.field
    n, m = g.dim, h.dim
    zero_g, zero_h = vec_zero(f, n), vec_zero(f, m)
    acts = psi.matrices()

    def fibre(i, j):
        if i < n and j < n:
            return g.bracket_basis(i, j) + (
                zero_h if chi is None else chi.eval_basis((i, j))
            )
        if i < n:
            return zero_g + acts[i].row(j - n)
        if j < n:
            return zero_g + vec_neg(f, acts[j].row(i - n))
        return zero_g + h.bracket_basis(i - n, j - n)

    dim = n + m
    return Tensor._of(
        f, (dim,) * 3, [x for i in range(dim) for j in range(dim) for x in fibre(i, j)]
    )


def semidirect_product(g: LieAlgebra, vdim, psi: Tensor) -> LieAlgebra:
    """g + V with bracket [(x,u),(y,v)] = ([x,y], psi_x v - psi_y u)."""
    check_lie_representation(g, vdim, psi).require()
    f = g.field
    bracket = sum_bracket(g, LieAlgebra.abelian(f, vdim), psi)
    return LieAlgebra.validate(f, g.dim + vdim, bracket)


def embedding_to_averaging(g: LieAlgebra, vdim, psi: Tensor, T: Matrix) -> AveragingLieAlgebra:
    """P_T(x, u) = (T(u), 0) on the semidirect product; validated output."""
    check_embedding_tensor(g, vdim, psi, T).require()
    f, n = g.field, g.dim
    total = semidirect_product(g, vdim, psi)
    zero_n, zero_v = Matrix.zero(f, n, n), Matrix.zero(f, vdim, vdim)
    P_T = block_matrix(f, [[zero_n, T], [Matrix.zero(f, vdim, n), zero_v]])
    return AveragingLieAlgebra.validate(total, P_T)


"""2-term homotopy Lie structures with averaging data: axiom checkers,
skeletal and strict classification, crossed modules and their semidirect
products.

Only the brackets level-0 x level-0 and level-0 x level-1 are stored;
the level-1 x level-0 bracket is the negation and level-1 x level-1 is
zero, so the unrepresentable invalid states cannot occur.  Axiom clause
names in verdicts are L1..L8 and A1..A4.

The axioms are stated on sparse matrices, as in `lie`: the level-0 ad
and level-1 action matrices and the slices of l3 (`TwoTermLinf.sparse_ad0`,
`sparse_act`, `sparse_l3`) and of P2.  L4, L5, L7, A2, A3, A4 and the crossed-module
anchor and Peiffer clauses are one sparse matrix identity per leading
index or pair, witnessed by `lie.column_mismatch`.  L6 is minus the
Jacobiator of `lie`.  L8 has four basis arguments and keeps its loop over
the nonzero constants.  A1 and the operator clauses are whole-map
equalities with flat witnesses and stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .cohomology import Cochain, is_coboundary, is_cocycle
from .errors import DimensionMismatch, InternalError, ValidationError, Verdict
from .lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    antisymmetry_mismatch,
    bracket_morphism_mismatch,
    check_averaging,
    column_mismatch,
    derivation_mismatch,
    first_mismatch,
    jacobiator,
    psi_tensor,
    representation_verdict,
    sum_bracket,
)
from .linalg import (
    Matrix,
    Tensor,
    add_scaled,
    block_matrix,
    sparse_add,
    sparse_cols,
    sparse_matrices,
    sparse_matvec,
    sparse_mul,
    sparse_sum,
    sparse_vec,
    vec_neg,
)
from .multilinear import AltMap


@dataclass(frozen=True)
class TwoTermLinf:
    """2-term chain complex with graded bracket and Jacobiator."""

    field: object
    n0: int
    n1: int
    d: Matrix  # level 1 -> level 0
    l2_00: Tensor  # (n0, n0, n0)
    l2_01: Tensor  # (n0, n1, n1): bracket of a level-0 with a level-1 element
    l3: AltMap  # arity 3 on level 0, valued in level 1

    def __post_init__(self):
        if self.d.rows != self.n0 or self.d.cols != self.n1:
            raise DimensionMismatch("chain map shape mismatch")
        if self.l2_00.shape != (self.n0, self.n0, self.n0):
            raise DimensionMismatch("level-0 bracket shape mismatch")
        if self.l2_01.shape != (self.n0, self.n1, self.n1):
            raise DimensionMismatch("mixed bracket shape mismatch")
        if (self.l3.dim, self.l3.arity, self.l3.vdim) != (self.n0, 3, self.n1):
            raise DimensionMismatch("Jacobiator shape mismatch")

    @cached_property
    def sparse_ad0(self):
        """The sparse matrices (`linalg.sparse_cols`) of the level-0
        bracket: column j of sparse_ad0[i] is <x_i, x_j>."""
        return sparse_matrices(self.l2_00)

    @cached_property
    def sparse_act(self):
        """The sparse level-1 action: column a of sparse_act[i] is <x_i, h_a>."""
        return sparse_matrices(self.l2_01)

    @cached_property
    def sparse_l3(self):
        """Column k of sparse_l3[i][j] is l3(x_i, x_j, x_k)."""
        return [[sparse_cols(self.l3.slice(i, j)) for j in range(self.n0)] for i in range(self.n0)]

    @cached_property
    def sparse_level1(self):
        """The sparse level-1 matrices: column b of the a-th is <d h_a, h_b>."""
        d = sparse_cols(self.d)
        return [sparse_sum(self.field, self.sparse_act, d.get(a, {})) for a in range(self.n1)]


@dataclass(frozen=True)
class HomotopyAveraging:
    """Operator triple on a 2-term structure."""

    P0: Matrix
    P1: Matrix
    P2: AltMap  # arity 2 on level 0, valued in level 1


def check_two_term(t: TwoTermLinf) -> Verdict:
    """Axioms L1 and L4..L8 on basis tuples (L2, L3 are structural)."""
    f = t.field
    n0, n1 = t.n0, t.n1
    ad0, act, d = t.sparse_ad0, t.sparse_act, sparse_cols(t.d)
    # L1: the level-0 bracket is antisymmetric with zero diagonal.
    v = antisymmetry_mismatch("L1", t.l2_00)
    if v is not None:
        return v
    # L4: d<x, h> = <x, dh>: d act_i = ad0_i d, column a.
    for i in range(n0):
        v = column_mismatch(f, "L4", (i,), sparse_mul(f, d, act[i]), sparse_mul(f, ad0[i], d), n0)
        if v is not None:
            return v
    # L5: <dh, k> = <h, dk> = -<dk, h>: column b of the a-th level-1
    # matrix against minus column a of the b-th.
    lev1 = t.sparse_level1
    for a in range(n1):
        rhs = {b: {r: f.neg(x) for r, x in m[a].items()} for b, m in enumerate(lev1) if a in m}
        v = column_mismatch(f, "L5", (a,), lev1[a], rhs, n1)
        if v is not None:
            return v
    # L6: d l3(x,y,z) = Jacobi cycle of the level-0 bracket, which is minus
    # its Jacobiator once L1 holds.  Both sides then alternate and
    # increasing tuples suffice (same for L8 below).
    for i, j, k in combinations(range(n0), 3):
        lhs = t.d.matvec(t.l3.eval_basis((i, j, k)))
        rhs = vec_neg(f, jacobiator(f, ad0, i, j, k))
        if lhs != rhs:
            return Verdict.failed("L6", (i, j, k), lhs, rhs)
    # L7: l3(x, y, dh) = <x,<y,h>> - <y,<x,h>> - <<x,y>, h>: for each
    # (i, j), l3(x_i, x_j, -) d = [act_i, act_j] - act_<x_i,x_j>, column a.
    for i, j in product(range(n0), repeat=2):
        rhs = sparse_add(f, (sparse_mul(f, act[i], act[j]),), (
            sparse_mul(f, act[j], act[i]), sparse_sum(f, act, ad0[i].get(j, {}))))
        v = column_mismatch(f, "L7", (i, j), sparse_mul(f, t.sparse_l3[i][j], d), rhs, n1)
        if v is not None:
            return v
    # L8: the alternating action sum of l3 equals its bracket-insertion sum.
    for w, x, y, z in combinations(range(n0), 4):
        tup = (w, x, y, z)
        lhs = [f.zero] * n1
        for pos, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
            rest = tup[:pos] + tup[pos + 1 :]
            for a, val in sparse_vec(t.l3.eval_basis(rest)).items():
                term = act[tup[pos]].get(a, {}).items()
                add_scaled(f, lhs, val if sign > 0 else f.neg(val), term)
        rhs = [f.zero] * n1
        for (a, b), rest, sign in (
            ((w, x), (y, z), 1),
            ((w, y), (x, z), -1),
            ((w, z), (x, y), 1),
            ((x, y), (w, z), 1),
            ((x, z), (w, y), -1),
            ((y, z), (w, x), 1),
        ):
            for k, coeff in ad0[a].get(b, {}).items():
                term = sparse_vec(t.l3.eval_basis((k, *rest))).items()
                add_scaled(f, rhs, coeff if sign > 0 else f.neg(coeff), term)
        if lhs != rhs:
            return Verdict.failed("L8", (w, x, y, z), lhs, rhs)
    return Verdict.passed()


def check_homotopy_averaging(t: TwoTermLinf, p: HomotopyAveraging) -> Verdict:
    """Axioms A1..A4 against a validated 2-term structure.

    A3 contains two asserted-equal right-hand sides; both are checked and
    the verdict notes record whether they agreed everywhere.
    """
    check_two_term(t).require()
    f = t.field
    n0, n1 = t.n0, t.n1
    if p.P0.rows != n0 or p.P0.cols != n0 or p.P1.rows != n1 or p.P1.cols != n1:
        raise DimensionMismatch("operator shape mismatch")
    if (p.P2.dim, p.P2.arity, p.P2.vdim) != (n0, 2, n1):
        raise DimensionMismatch("homotopy shape mismatch")
    lhs = p.P0.mul(t.d)
    rhs = t.d.mul(p.P1)
    if lhs != rhs:
        return Verdict.failed("A1", (), lhs.flat(), rhs.flat())
    d, act, p0, p1 = sparse_cols(t.d), t.sparse_act, sparse_cols(p.P0), sparse_cols(p.P1)
    # column j of p2[i] is P2(x_i, x_j); pad0[i] and pact[i] are the
    # level-0 ad and the level-1 action of P0 x_i
    p2 = [sparse_cols(p.P2.slice(i)) for i in range(n0)]
    pad0 = [sparse_sum(f, t.sparse_ad0, p0.get(i, {})) for i in range(n0)]
    pact = [sparse_sum(f, act, p0.get(i, {})) for i in range(n0)]
    # A2: d P2(x, y) = P0<P0 x, y> - <P0 x, P0 y>, column j.
    for i in range(n0):
        rhs = sparse_add(f, (sparse_mul(f, p0, pad0[i]),), (sparse_mul(f, pad0[i], p0),))
        v = column_mismatch(f, "A2", (i,), sparse_mul(f, d, p2[i]), rhs, n0)
        if v is not None:
            return v
    # A3: P2(x, dh) = P1<P0 x, h> - <P0 x, P1 h> = P1<x, P1 h> - <P0 x, P1 h>,
    # column a.
    a3_sides_agree = True
    for i in range(n0):
        lhs = sparse_mul(f, p2[i], d)
        cross = sparse_mul(f, pact[i], p1)
        rhs1 = sparse_add(f, (sparse_mul(f, p1, pact[i]),), (cross,))
        rhs2 = sparse_add(f, (sparse_mul(f, p1, sparse_mul(f, act[i], p1)),), (cross,))
        a3_sides_agree = a3_sides_agree and rhs1 == rhs2
        v = first_mismatch(
            column_mismatch(f, "A3", (i,), lhs, rhs1, n1, equality=1),
            column_mismatch(f, "A3", (i,), lhs, rhs2, n1, equality=2),
        )
        if v is not None:
            return v
    # A4, for each (x, y), column z, with w = P2(x, y):
    # <P0 x, P2(y, z)> - <P0 y, P2(x, z)> + <P0 z, w> - P1<z, w>
    # - P2(<P0 x, y>, z) - P2(y, <P0 x, z>) + P2(x, <P0 y, z>)
    # = l3(P0 x, P0 y, P0 z) - P1 l3(P0 x, P0 y, z).  Column z of acts is
    # <z, w>, and l3p[y][a] is l3(x_a, P0 y, -).
    l3p = [[sparse_sum(f, row, p0.get(y, {})) for row in t.sparse_l3] for y in range(n0)]
    for x, y in product(range(n0), repeat=2):
        w = p2[x].get(y, {})
        acts = {z: v for z in range(n0) if (v := sparse_matvec(f, act[z], w))}
        lhs = sparse_add(f, (
            sparse_mul(f, pact[x], p2[y]), sparse_mul(f, acts, p0), sparse_mul(f, p2[x], pad0[y]),
        ), (
            sparse_mul(f, pact[y], p2[x]), sparse_mul(f, p1, acts),
            sparse_sum(f, p2, pad0[x].get(y, {})), sparse_mul(f, p2[y], pad0[x]),
        ))
        l3xy = sparse_sum(f, l3p[y], p0.get(x, {}))
        rhs = sparse_add(f, (sparse_mul(f, l3xy, p0),), (sparse_mul(f, p1, l3xy),))
        v = column_mismatch(f, "A4", (x, y), lhs, rhs, n1)
        if v is not None:
            return v
    return Verdict.passed(a3_sides_agree=a3_sides_agree)


def is_skeletal(t: TwoTermLinf) -> bool:
    return t.d.is_zero()


def is_strict(t: TwoTermLinf, p: HomotopyAveraging) -> bool:
    return t.l3.is_zero() and p.P2.is_zero()


# ---------------------------------------------------------------------------
# Skeletal structures <-> degree-3 cocycles.


def _rep_from_mixed_bracket(t: TwoTermLinf, p: HomotopyAveraging) -> Representation:
    f = t.field
    g0 = LieAlgebra.validate(f, t.n0, t.l2_00)
    a = AveragingLieAlgebra.validate(g0, p.P0)
    return Representation.validate(a, t.n1, psi_tensor(f, t.n1, t.l2_01.matrices()), p.P1)


def skeletal_to_triple(t: TwoTermLinf, p: HomotopyAveraging):
    """Extract (averaging algebra, representation, degree-3 cochain).

    The cochain combines the Jacobiator with the dense expansion of the
    homotopy; it is always a cocycle for valid skeletal input.
    """
    if not is_skeletal(t):
        raise ValidationError(Verdict.failed("skeletal", (), t.d.flat(), ()))
    check_homotopy_averaging(t, p).require()
    r = _rep_from_mixed_bracket(t, p)
    c = Cochain(t.field, t.n0, t.n1, 3, t.l3, p.P2.to_dense())
    if not is_cocycle(r, c):
        raise InternalError("skeletal data produced a non-cocycle")
    return r.base, r, c


def triple_to_skeletal(a: AveragingLieAlgebra, r: Representation, c: Cochain):
    """Rebuild the skeletal structure from a degree-3 cocycle.

    The cochain's dense component must be skew-symmetric, since the
    homotopy slot it fills is typed alternating.
    """
    if r.base != a:
        raise DimensionMismatch("representation is not over the given algebra")
    if c.degree != 3 or (c.dim, c.vdim) != (a.dim, r.vdim):
        raise DimensionMismatch("need a degree-3 cochain over the same data")
    if not is_cocycle(r, c):
        raise ValidationError(Verdict.failed("cocycle", (), c.vectorize(), ()))
    P2 = AltMap.from_dense(a.dim, c.theta)
    if P2 is None:
        raise ValidationError(Verdict.failed("theta-alternating", (), c.theta.entries, ()))
    f = a.field
    n0, n1 = a.dim, r.vdim
    l2_01 = Tensor.of_sparse(f, (n0, n1, n1), r.sparse_acts)
    t = TwoTermLinf(
        f, n0, n1, Matrix.zero(f, n0, n1), a.algebra.bracket, l2_01, c.f
    )
    p = HomotopyAveraging(a.P, r.Q, P2)
    v = check_homotopy_averaging(t, p)
    if not v:
        raise InternalError(f"cocycle data failed axiom {v.clause}")
    return t, p


def skeletal_equivalent(x, y):
    """Witness (g, th) of equivalence of two skeletal structures, or None.

    x and y are (structure, operators) pairs.  Equivalence demands
    bitwise-equal underlying data; the witness is the degree-2 cochain
    solving the coboundary equation for the difference.
    """
    tx, px = x
    ty, py = y
    if not (is_skeletal(tx) and is_skeletal(ty)):
        raise ValidationError(Verdict.failed("skeletal", (), (), ()))
    same = (
        tx.field == ty.field
        and (tx.n0, tx.n1) == (ty.n0, ty.n1)
        and tx.l2_00 == ty.l2_00
        and tx.l2_01 == ty.l2_01
        and px.P0 == py.P0
        and px.P1 == py.P1
    )
    if not same:
        return None
    r = _rep_from_mixed_bracket(tx, px)
    target = Cochain(
        tx.field,
        tx.n0,
        tx.n1,
        3,
        ty.l3.sub(tx.l3),
        py.P2.sub(px.P2).to_dense(),
    )
    return is_coboundary(r, target)


# ---------------------------------------------------------------------------
# Crossed modules <-> strict structures.


@dataclass(frozen=True)
class CrossedModule:
    """Two averaging Lie algebras with a morphism and a derivation action."""

    g1: AveragingLieAlgebra
    g0: AveragingLieAlgebra
    d: Matrix  # g1 -> g0
    rho: Tensor  # (n0, n1, n1): rho_{e_i} h_a = sum_b rho[i,a,b] h_b

    def __post_init__(self):
        if self.d.rows != self.g0.dim or self.d.cols != self.g1.dim:
            raise DimensionMismatch("morphism shape mismatch")
        if self.rho.shape != (self.g0.dim, self.g1.dim, self.g1.dim):
            raise DimensionMismatch("action tensor shape mismatch")


def check_crossed_module(c: CrossedModule) -> Verdict:
    """Morphism, action, representation-chain, anchor and Peiffer clauses."""
    f = c.g0.field
    n0, n1 = c.g0.dim, c.g1.dim
    mats = sparse_matrices(c.rho)  # column a of mats[i] is rho_{e_i} h_a
    # d is an averaging Lie algebra morphism.
    v = bracket_morphism_mismatch("d-bracket", c.d, c.g1.algebra, c.g0.algebra)
    if v is not None:
        return v
    lhs = c.d.mul(c.g1.P)
    rhs = c.g0.P.mul(c.d)
    if lhs != rhs:
        return Verdict.failed("d-operator", (), lhs.flat(), rhs.flat())
    # Each rho_x is a derivation of the level-1 bracket.
    v = derivation_mismatch("rho-derivation", c.g1.algebra, mats)
    if v is not None:
        return v
    # rho is a Lie homomorphism and makes g1 a representation of g0.
    rep_v = representation_verdict(c.g0, mats, c.g1.P)
    if not rep_v:
        clause = {"psi-homomorphism": "rho-homomorphism"}.get(rep_v.clause, rep_v.clause)
        return Verdict(False, clause, rep_v.witness, rep_v.notes)
    # Anchor: d(rho_x h) = [x, dh]: d rho_i = ad_i d, column a.
    d, ad0, ad1 = sparse_cols(c.d), c.g0.algebra.sparse_ad, c.g1.algebra.sparse_ad
    for i in range(n0):
        lhs, rhs = sparse_mul(f, d, mats[i]), sparse_mul(f, ad0[i], d)
        v = column_mismatch(f, "cm-anchor", (i,), lhs, rhs, n0)
        if v is not None:
            return v
    # Peiffer: rho_{dh} k = [h, k]: rho_{d h_a} = ad_a, column b.
    for a in range(n1):
        v = column_mismatch(f, "cm-peiffer", (a,), sparse_sum(f, mats, d.get(a, {})), ad1[a], n1)
        if v is not None:
            return v
    return Verdict.passed()


def strict_to_crossed(t: TwoTermLinf, p: HomotopyAveraging) -> CrossedModule:
    """Level-1 bracket [h,k] := <dh, k> and action rho_x h := <x, h>."""
    if not is_strict(t, p):
        raise ValidationError(Verdict.failed("strict", (), t.l3.flat(), ()))
    check_homotopy_averaging(t, p).require()
    f = t.field
    n0, n1 = t.n0, t.n1
    br1 = Tensor.of_sparse(f, (n1, n1, n1), t.sparse_level1)
    g1 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n1, br1), p.P1)
    g0 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n0, t.l2_00), p.P0)
    cm = CrossedModule(g1, g0, t.d, t.l2_01)
    cv = check_crossed_module(cm)
    if not cv:
        raise InternalError(f"strict data failed crossed-module clause {cv.clause}")
    return cm


def crossed_to_strict(c: CrossedModule):
    """The strict structure with mixed bracket given by the action."""
    check_crossed_module(c).require()
    f = c.g0.field
    n0, n1 = c.g0.dim, c.g1.dim
    t = TwoTermLinf(
        f,
        n0,
        n1,
        c.d,
        c.g0.algebra.bracket,
        c.rho,
        AltMap.zero(f, n0, 3, n1),
    )
    p = HomotopyAveraging(c.g0.P, c.g1.P, AltMap.zero(f, n0, 2, n1))
    hv = check_homotopy_averaging(t, p)
    if not hv:
        raise InternalError(f"crossed module failed strict axiom {hv.clause}")
    return t, p


def semidirect_bracket(c: CrossedModule) -> Tensor:
    """Structure constants of the semidirect bracket on g0 + g1.

    The level-1 slot of [(x,h),(y,k)] is rho_x k - rho_y h + [h, k]: the
    direct-sum bracket `sum_bracket` with psi the action and chi = 0.
    """
    psi = psi_tensor(c.g0.field, c.g1.dim, c.rho.matrices())
    return sum_bracket(c.g0.algebra, c.g1.algebra, psi)


def crossed_semidirect(c: CrossedModule) -> AveragingLieAlgebra:
    """Semidirect averaging Lie algebra of a crossed module."""
    check_crossed_module(c).require()
    f = c.g0.field
    n0, n1 = c.g0.dim, c.g1.dim
    lie = LieAlgebra.validate(f, n0 + n1, semidirect_bracket(c))
    op = block_matrix(
        f, [[c.g0.P, Matrix.zero(f, n0, n1)], [Matrix.zero(f, n1, n0), c.g1.P]]
    )
    if not check_averaging(lie, op):
        raise InternalError("semidirect operator of a crossed module not averaging")
    return AveragingLieAlgebra(lie, op)

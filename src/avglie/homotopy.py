"""2-term homotopy Lie structures with averaging data: axiom checkers,
skeletal and strict classification, crossed modules and their semidirect
products.

Only the brackets level-0 x level-0 and level-0 x level-1 are stored;
the level-1 x level-0 bracket is the negation and level-1 x level-1 is
zero, so the unrepresentable invalid states cannot occur.  Axiom clause
names in verdicts are L1..L8 and A1..A4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cohomology import Cochain, is_coboundary, is_cocycle
from .errors import (
    DimensionMismatch,
    InternalError,
    InvalidBase,
    NotACocycle,
    NotACrossedModule,
    NotSkeletal,
    NotStrict,
    Verdict,
)
from .lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    check_averaging,
    check_representation,
    psi_matrices,
    psi_of_vec,
    sum_bracket,
)
from .linalg import (
    Matrix,
    Tensor,
    block_matrix,
    vec_add,
    vec_basis,
    vec_bilinear,
    vec_is_zero,
    vec_neg,
    vec_sub,
    vec_zero,
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

    # bracket of basis elements; vectors live in the indicated level
    def br00(self, i, j):
        return self.l2_00.fibre(i, j)

    def br00_vec(self, u, v):
        return vec_bilinear(self.field, self.n0, u, v, self.br00)

    def br01(self, i, a):
        return self.l2_01.fibre(i, a)

    def br01_vec(self, x, h):
        return vec_bilinear(self.field, self.n1, x, h, self.br01)


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
    # L1: the level-0 bracket is antisymmetric with zero diagonal.
    for i in range(n0):
        if not vec_is_zero(f, t.br00(i, i)):
            return Verdict.failed("L1", (i, i), t.br00(i, i), vec_zero(f, n0))
        for j in range(i + 1, n0):
            lhs = t.br00(i, j)
            rhs = vec_neg(f, t.br00(j, i))
            if lhs != rhs:
                return Verdict.failed("L1", (i, j), lhs, rhs)
    # L4: d<x, h> = <x, dh>.
    for i in range(n0):
        for a in range(n1):
            lhs = t.d.matvec(t.br01(i, a))
            rhs = t.br00_vec(vec_basis(f, n0, i), t.d.col(a))
            if lhs != rhs:
                return Verdict.failed("L4", (i, a), lhs, rhs)
    # L5: <dh, k> = <h, dk> = -<dk, h>.
    for a in range(n1):
        for b in range(n1):
            lhs = t.br01_vec(t.d.col(a), vec_basis(f, n1, b))
            rhs = vec_neg(f, t.br01_vec(t.d.col(b), vec_basis(f, n1, a)))
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
                f, rhs, t.br00_vec(vec_basis(f, n0, a), t.br00(b, c))
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
                rhs = t.br01_vec(vec_basis(f, n0, i), t.br01(j, a))
                rhs = vec_sub(
                    f, rhs, t.br01_vec(vec_basis(f, n0, j), t.br01(i, a))
                )
                rhs = vec_sub(
                    f, rhs, t.br01_vec(t.br00(i, j), vec_basis(f, n1, a))
                )
                if lhs != rhs:
                    return Verdict.failed("L7", (i, j, a), lhs, rhs)
    # L8: the alternating action sum of l3 equals its bracket-insertion sum.
    for w, x, y, z in combinations(range(n0), 4):
        lhs = vec_zero(f, n1)
        for pos, sign in ((0, 1), (1, -1), (2, 1), (3, -1)):
            tup = (w, x, y, z)
            rest = tup[:pos] + tup[pos + 1 :]
            term = t.br01_vec(vec_basis(f, n0, tup[pos]), t.l3.eval_basis(rest))
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
            term = t.l3.eval_with_first_vector(t.br00(a, b), rest)
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
        raise InvalidBase(base)
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
            rhs = p.P0.matvec(t.br00_vec(p0c[i], vec_basis(f, n0, j)))
            rhs = vec_sub(f, rhs, t.br00_vec(p0c[i], p0c[j]))
            if lhs != rhs:
                return Verdict.failed("A2", (i, j), lhs, rhs)
    a3_sides_agree = True
    for i in range(n0):
        for a in range(n1):
            lhs = p.P2.eval_vectors([vec_basis(f, n0, i), t.d.col(a)])
            cross = t.br01_vec(p0c[i], p.P1.col(a))
            rhs1 = vec_sub(f, p.P1.matvec(t.br01_vec(p0c[i], vec_basis(f, n1, a))), cross)
            rhs2 = vec_sub(
                f,
                p.P1.matvec(t.br01_vec(vec_basis(f, n0, i), p.P1.col(a))),
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
                lhs = t.br01_vec(p0c[x], p.P2.eval_basis((y, z)))
                lhs = vec_sub(f, lhs, t.br01_vec(p0c[y], p.P2.eval_basis((x, z))))
                lhs = vec_add(f, lhs, t.br01_vec(p0c[z], p.P2.eval_basis((x, y))))
                lhs = vec_sub(
                    f, lhs, p.P1.matvec(t.br01_vec(bz, p.P2.eval_basis((x, y))))
                )
                lhs = vec_sub(
                    f,
                    lhs,
                    p.P2.eval_with_first_vector(
                        t.br00_vec(p0c[x], by), (z,)
                    ),
                )
                lhs = vec_sub(
                    f, lhs, p.P2.eval_vectors([by, t.br00_vec(p0c[x], bz)])
                )
                lhs = vec_add(
                    f, lhs, p.P2.eval_vectors([bx, t.br00_vec(p0c[y], bz)])
                )
                rhs = t.l3.eval_vectors([p0c[x], p0c[y], p0c[z]])
                rhs = vec_sub(
                    f, rhs, p.P1.matvec(t.l3.eval_vectors([p0c[x], p0c[y], bz]))
                )
                if lhs != rhs:
                    return Verdict.failed("A4", (x, y, z), lhs, rhs)
    return Verdict.passed(a3_sides_agree=a3_sides_agree)


def is_skeletal(t: TwoTermLinf) -> bool:
    return t.d.is_zero()


def is_strict(t: TwoTermLinf, p: HomotopyAveraging) -> bool:
    return t.l3.is_zero() and p.P2.is_zero()


# ---------------------------------------------------------------------------
# Skeletal structures <-> degree-3 cocycles.


def _transposed_action(f, t: Tensor) -> Tensor:
    """Swap the last two axes of an (n0, n1, n1) action tensor: between
    rho[i, a, b], the h_b coefficient of x_i acting on h_a, and the
    column-vector convention psi[i, b, a] of representations."""
    return Tensor.build(f, t.shape, lambda i, b, a: t.get(i, a, b))


def _rep_from_mixed_bracket(t: TwoTermLinf, p: HomotopyAveraging) -> Representation:
    f = t.field
    g0 = LieAlgebra.validate(f, t.n0, t.l2_00)
    a = AveragingLieAlgebra.validate(g0, p.P0)
    return Representation.validate(a, t.n1, _transposed_action(f, t.l2_01), p.P1)


def skeletal_to_triple(t: TwoTermLinf, p: HomotopyAveraging):
    """Extract (averaging algebra, representation, degree-3 cochain).

    The cochain combines the Jacobiator with the dense expansion of the
    homotopy; it is always a cocycle for valid skeletal input.
    """
    if not is_skeletal(t):
        raise NotSkeletal(Verdict.failed("skeletal", (), t.d.flat(), ()))
    v = check_homotopy_averaging(t, p)
    if not v:
        raise InvalidBase(v)
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
        raise NotACocycle(Verdict.failed("cocycle", (), c.vectorize(), ()))
    if not c.theta.is_alternating():
        raise NotSkeletal(
            Verdict.failed("theta-alternating", (), c.theta.flat(), ())
        )
    f = a.field
    n0, n1 = a.dim, r.vdim
    l2_01 = _transposed_action(f, r.psi)
    t = TwoTermLinf(
        f, n0, n1, Matrix.zero(f, n0, n1), a.algebra.bracket, l2_01, c.f
    )
    p = HomotopyAveraging(a.P, r.Q, c.theta.to_alternating())
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
        raise NotSkeletal(Verdict.failed("skeletal", (), (), ()))
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
        py.P2.to_dense().sub(px.P2.to_dense()),
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
    psi = _transposed_action(f, c.rho)
    mats = psi_matrices(f, n1, psi)
    # d is an averaging Lie algebra morphism.
    for a in range(n1):
        for b in range(n1):
            lhs = c.d.matvec(c.g1.algebra.bracket_basis(a, b))
            rhs = c.g0.algebra.bracket_vec(c.d.col(a), c.d.col(b))
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
                    c.g1.algebra.bracket_vec(
                        mats[i].col(a), vec_basis(f, n1, b)
                    ),
                    c.g1.algebra.bracket_vec(
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
            rhs = c.g0.algebra.bracket_vec(vec_basis(f, n0, i), c.d.col(a))
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
        raise NotStrict(Verdict.failed("strict", (), t.l3.flat(), ()))
    v = check_homotopy_averaging(t, p)
    if not v:
        raise InvalidBase(v)
    f = t.field
    n0, n1 = t.n0, t.n1
    br1 = Tensor.build(
        f,
        (n1, n1, n1),
        lambda a, b, cc: t.br01_vec(t.d.col(a), vec_basis(f, n1, b))[cc],
    )
    g1 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n1, br1), p.P1)
    g0 = AveragingLieAlgebra.validate(LieAlgebra.validate(f, n0, t.l2_00), p.P0)
    cm = CrossedModule(g1, g0, t.d, t.l2_01)
    cv = check_crossed_module(cm)
    if not cv:
        raise InternalError(f"strict data failed crossed-module clause {cv.clause}")
    return cm


def crossed_to_strict(c: CrossedModule):
    """The strict structure with mixed bracket given by the action."""
    v = check_crossed_module(c)
    if not v:
        raise NotACrossedModule(v)
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
    psi = _transposed_action(c.g0.field, c.rho)
    return sum_bracket(c.g0.algebra, c.g1.algebra, psi)


def crossed_semidirect(c: CrossedModule) -> AveragingLieAlgebra:
    """Semidirect averaging Lie algebra of a crossed module."""
    v = check_crossed_module(c)
    if not v:
        raise NotACrossedModule(v)
    f = c.g0.field
    n0, n1 = c.g0.dim, c.g1.dim
    lie = LieAlgebra.validate(f, n0 + n1, semidirect_bracket(c))
    op = block_matrix(
        f, [[c.g0.P, Matrix.zero(f, n0, n1)], [Matrix.zero(f, n1, n0), c.g1.P]]
    )
    if not check_averaging(lie, op):
        raise InternalError("semidirect operator of a crossed module not averaging")
    return AveragingLieAlgebra(lie, op)

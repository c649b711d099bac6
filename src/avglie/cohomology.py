"""The cochain complex of an averaging Lie algebra with coefficients in a
representation: differentials, matrix assembly, cocycle and coboundary
tests, cohomology dimensions.

A degree-n cochain is a pair (f, theta): f alternating on n arguments
(stored on increasing tuples), theta dense multilinear on n-1 arguments
(absent in degree 1).  Degree 0 is the zero space, kept representable so
coboundary preimages are total.  The canonical vector ordering is f-block
first (increasing tuples lexicographic, value coordinate fastest), then
theta-block (row-major argument tuple, value coordinate fastest); every
matrix-level artifact depends on this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DimensionMismatch
from .lie import Representation, psi_of_vec
from .linalg import (
    Matrix,
    rank,
    solve_affine,
    vec_add,
    vec_basis,
    vec_neg,
    vec_sub,
    vec_zero,
)
from .multilinear import AltMap, MultiMap


@dataclass(frozen=True)
class Cochain:
    """Element of the degree-n cochain group."""

    field: object
    dim: int
    vdim: int
    degree: int
    f: AltMap | None
    theta: MultiMap | None

    def __post_init__(self):
        n = self.degree
        if n < 0:
            raise DimensionMismatch("cochain degree must be >= 0")
        if n == 0:
            if self.f is not None or self.theta is not None:
                raise DimensionMismatch("degree-0 cochains carry no data")
            return
        if self.f is None or self.f.arity != n:
            raise DimensionMismatch("f component must have arity = degree")
        if n == 1:
            if self.theta is not None:
                raise DimensionMismatch("degree-1 cochains have no theta slot")
        else:
            if self.theta is None or self.theta.arity != n - 1:
                raise DimensionMismatch("theta component must have arity = degree - 1")

    @staticmethod
    def zero(field, dim, vdim, degree):
        if degree == 0:
            return Cochain(field, dim, vdim, 0, None, None)
        f = AltMap.zero(field, dim, degree, vdim)
        theta = MultiMap.zero(field, dim, degree - 1, vdim) if degree >= 2 else None
        return Cochain(field, dim, vdim, degree, f, theta)

    def is_zero(self):
        if self.degree == 0:
            return True
        if not self.f.is_zero():
            return False
        return self.theta is None or self.theta.is_zero()

    def add(self, other):
        self._check_like(other)
        if self.degree == 0:
            return self
        return Cochain(
            self.field,
            self.dim,
            self.vdim,
            self.degree,
            self.f.add(other.f),
            self.theta.add(other.theta) if self.theta is not None else None,
        )

    def sub(self, other):
        self._check_like(other)
        if self.degree == 0:
            return self
        return Cochain(
            self.field,
            self.dim,
            self.vdim,
            self.degree,
            self.f.sub(other.f),
            self.theta.sub(other.theta) if self.theta is not None else None,
        )

    def neg(self):
        if self.degree == 0:
            return self
        return Cochain(
            self.field,
            self.dim,
            self.vdim,
            self.degree,
            self.f.neg(),
            self.theta.neg() if self.theta is not None else None,
        )

    def _check_like(self, other):
        if (
            self.field != other.field
            or (self.dim, self.vdim, self.degree)
            != (other.dim, other.vdim, other.degree)
        ):
            raise DimensionMismatch("cochain shape mismatch")

    def vectorize(self):
        """Coordinates in the canonical cochain basis."""
        if self.degree == 0:
            return ()
        out = list(self.f.flat())
        if self.theta is not None:
            out.extend(self.theta.flat())
        return tuple(out)

    @staticmethod
    def from_vector(field, dim, vdim, degree, vec):
        if degree == 0:
            if len(vec) != 0:
                raise DimensionMismatch("degree-0 cochain vector must be empty")
            return Cochain.zero(field, dim, vdim, 0)
        nf = len(list(combinations(range(dim), degree))) * vdim
        f = AltMap.from_flat(field, dim, degree, vdim, vec[:nf])
        theta = None
        if degree >= 2:
            theta = MultiMap.from_flat(field, dim, degree - 1, vdim, vec[nf:])
        elif len(vec) != nf:
            raise DimensionMismatch("degree-1 cochain vector too long")
        return Cochain(field, dim, vdim, degree, f, theta)

    @staticmethod
    def dimension(dim, vdim, degree):
        """dim C^n for the given algebra and module dimensions."""
        if degree == 0:
            return 0
        nf = len(list(combinations(range(dim), degree))) * vdim
        if degree == 1:
            return nf
        return nf + dim ** (degree - 1) * vdim

    @staticmethod
    def random(rng, field, dim, vdim, degree, scalars=None):
        """Cochain with entries drawn by the given rng (deterministic tests)."""
        if scalars is None:
            if field.finite:
                scalars = [field.coerce(k) for k in range(field.p)]
            else:
                scalars = [field.coerce(k) for k in range(-3, 4)]
        size = Cochain.dimension(dim, vdim, degree)
        return Cochain.from_vector(
            field, dim, vdim, degree, [rng.choice(scalars) for _ in range(size)]
        )


# ---------------------------------------------------------------------------
# Differentials.


def delta_lie(r: Representation, f: AltMap) -> AltMap:
    """Chevalley-Eilenberg differential of the underlying Lie module.

    (d f)(x_0..x_n) = sum_i (-1)^i psi_{x_i} f(..^i..)
                    + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..^i..^j..).
    """
    g = r.base.algebra
    fld = r.field
    n = f.arity
    mats = r.psi_mats()
    out = []
    for tup in combinations(range(g.dim), n + 1):
        acc = vec_zero(fld, r.vdim)
        for i in range(n + 1):
            rest = tup[:i] + tup[i + 1 :]
            term = mats[tup[i]].matvec(f.eval_basis(rest))
            acc = vec_add(fld, acc, term if i % 2 == 0 else vec_neg(fld, term))
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = tuple(t for k, t in enumerate(tup) if k != i and k != j)
                term = f.eval_with_first_vector(
                    g.bracket_basis(tup[i], tup[j]), rest
                )
                acc = vec_add(
                    fld, acc, term if (i + j) % 2 == 0 else vec_neg(fld, term)
                )
        out.append(acc)
    return AltMap(fld, g.dim, n + 1, r.vdim, out)


def partial_leib(r: Representation, theta: MultiMap) -> MultiMap:
    """Coboundary of the induced Leibniz algebra on dense multilinear maps.

    With arguments x_1..x_n (n = arity + 1), the four groups are
      sum_{i<=n-1} (-1)^{i+1} psi_{P(x_i)} theta(..^i..)
      + (-1)^{n+1} psi_{P(x_n)} theta(x_1..x_{n-1})
      + (-1)^n     Q(psi_{x_n} theta(x_1..x_{n-1}))
      + sum_{i<j} (-1)^i theta(..^i.., [P(x_i), x_j] at slot j, ..).
    """
    g = r.base.algebra
    fld = r.field
    n = theta.arity + 1
    mats = r.psi_mats()
    pcols = [r.base.P.col(j) for j in range(g.dim)]
    pmats = [psi_of_vec(fld, r.vdim, mats, pcols[i]) for i in range(g.dim)]
    out = []
    for tup in product(range(g.dim), repeat=n):
        acc = vec_zero(fld, r.vdim)
        for i in range(1, n):  # 1-based i = 1 .. n-1
            rest = tup[: i - 1] + tup[i:]
            term = pmats[tup[i - 1]].matvec(theta.eval_basis(rest))
            acc = vec_add(fld, acc, term if (i + 1) % 2 == 0 else vec_neg(fld, term))
        head = tup[: n - 1]
        term = pmats[tup[n - 1]].matvec(theta.eval_basis(head))
        acc = vec_add(fld, acc, term if (n + 1) % 2 == 0 else vec_neg(fld, term))
        term = r.Q.matvec(mats[tup[n - 1]].matvec(theta.eval_basis(head)))
        acc = vec_add(fld, acc, term if n % 2 == 0 else vec_neg(fld, term))
        for i in range(1, n):
            for j in range(i + 1, n + 1):  # 1-based i < j
                inserted = g.bracket_vec(
                    pcols[tup[i - 1]], vec_basis(fld, g.dim, tup[j - 1])
                )
                args = []
                for k in range(1, n + 1):
                    if k == i:
                        continue
                    args.append(inserted if k == j else tup[k - 1])
                term = theta.eval_mixed(args)
                acc = vec_add(fld, acc, term if i % 2 == 0 else vec_neg(fld, term))
        out.append(acc)
    return MultiMap(fld, g.dim, n, r.vdim, out)


def delta_alie(r: Representation, c: Cochain) -> Cochain:
    """Full differential: degree n -> n + 1.

    Second component: partial_leib(theta) + (-1)^n f(P x_1, .., P x_n)
    - (-1)^n Q f(P x_1, .., P x_{n-1}, x_n); for n = 1 the theta term is
    absent and the rest reads -f(P x) + Q f(x).
    """
    if (c.dim, c.vdim) != (r.dim, r.vdim) or c.field != r.field:
        raise DimensionMismatch("cochain does not match the representation")
    fld = r.field
    n = c.degree
    if n == 0:
        return Cochain.zero(fld, r.dim, r.vdim, 1)
    g = r.base.algebra
    pcols = [r.base.P.col(j) for j in range(g.dim)]
    f_out = delta_lie(r, c.f)
    sign_pos = n % 2 == 0
    theta_comps = []
    for tup in product(range(g.dim), repeat=n):
        acc = vec_zero(fld, r.vdim)
        term = c.f.eval_vectors([pcols[t] for t in tup])
        acc = vec_add(fld, acc, term if sign_pos else vec_neg(fld, term))
        term = r.Q.matvec(
            c.f.eval_vectors(
                [pcols[t] for t in tup[:-1]] + [vec_basis(fld, g.dim, tup[-1])]
            )
        )
        acc = vec_sub(fld, acc, term) if sign_pos else vec_add(fld, acc, term)
        theta_comps.append(acc)
    theta_out = MultiMap(fld, g.dim, n, r.vdim, theta_comps)
    if c.theta is not None:
        theta_out = theta_out.add(partial_leib(r, c.theta))
    return Cochain(fld, r.dim, r.vdim, n + 1, f_out, theta_out)


def assemble_delta_matrix(r: Representation, degree: int) -> Matrix:
    """Matrix of the degree differential in the canonical cochain bases."""
    if degree < 0:
        raise DimensionMismatch("degree must be >= 0")
    fld = r.field
    nin = Cochain.dimension(r.dim, r.vdim, degree)
    nout = Cochain.dimension(r.dim, r.vdim, degree + 1)
    cols = []
    for k in range(nin):
        basis_vec = [fld.zero] * nin
        basis_vec[k] = fld.one
        c = Cochain.from_vector(fld, r.dim, r.vdim, degree, basis_vec)
        cols.append(delta_alie(r, c).vectorize())
    return Matrix.from_cols(fld, cols, rows_hint=nout)


def cohomology_dim(r: Representation, degree: int) -> int:
    """dim ker(delta^n) - rank(delta^{n-1}), with the degree-0 group zero."""
    return cohomology_report(r, degree)["dim_cohomology"]


def is_cocycle(r: Representation, c: Cochain) -> bool:
    return delta_alie(r, c).is_zero()


def is_coboundary(r: Representation, c: Cochain):
    """A deterministic preimage under the previous differential, or None."""
    n = c.degree
    if n == 0:
        return None
    m = assemble_delta_matrix(r, n - 1)
    sol = solve_affine(m, c.vectorize())
    if sol is None:
        return None
    return Cochain.from_vector(r.field, r.dim, r.vdim, n - 1, sol[0])


def cohomology_report(r: Representation, degree: int) -> dict:
    """Dimensions and ranks the CLI prints for one degree."""
    if degree < 1:
        raise DimensionMismatch("cohomology degree must be >= 1")
    m = assemble_delta_matrix(r, degree)
    prev = assemble_delta_matrix(r, degree - 1) if degree >= 2 else None
    rk = rank(m)
    rk_prev = rank(prev) if prev is not None else 0
    dim_c = Cochain.dimension(r.dim, r.vdim, degree)
    return {
        "degree": degree,
        "dim_cochains": dim_c,
        "rank_delta": rk,
        "rank_delta_prev": rk_prev,
        "dim_cohomology": dim_c - rk - rk_prev,
    }

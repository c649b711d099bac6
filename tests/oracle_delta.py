"""Reference differentials evaluated term by term on cochain values.

These are the defining formulas of d_CE, d_Leib and the full twisted
differential, computed by evaluating the input maps; the library builds
the same differentials as sparse rows and the tests compare the two.
"""

from itertools import combinations, product

from avglie.cohomology import Cochain
from avglie.errors import DimensionMismatch
from avglie.linalg import Matrix, Tensor, vec_add, vec_basis, vec_neg, vec_scale, vec_sub, vec_zero
from avglie.multilinear import AltMap


def psi_matrices(field, vdim, psi: Tensor):
    """The action matrices: column a of the i-th is psi_{e_i} e_a."""
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


def eval_mixed(theta, args):
    """Value of an AltMap or a dense Tensor map at a mix of basis indices
    (ints) and vectors."""
    f = theta.field
    if isinstance(theta, Tensor):
        dim, vdim = theta.shape[0], theta.shape[-1]

        def value(idxs):
            return theta.fibre(*idxs)
    else:
        dim, vdim, value = theta.dim, theta.vdim, theta.eval_basis
    vec_slots = [k for k, a in enumerate(args) if not isinstance(a, int)]
    if not vec_slots:
        return value(tuple(args))
    out = vec_zero(f, vdim)
    for choice in product(range(dim), repeat=len(vec_slots)):
        coeff = f.one
        idxs = list(args)
        for slot, basis_i in zip(vec_slots, choice):
            coeff = f.mul(coeff, args[slot][basis_i])
            idxs[slot] = basis_i
        if coeff == f.zero:
            continue
        out = vec_add(f, out, vec_scale(f, coeff, value(tuple(idxs))))
    return out


def delta_lie(r, f):
    """(d f)(x_0..x_n) = sum_i (-1)^i psi_{x_i} f(..^i..)
                       + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..^i..^j..)."""
    g = r.base.algebra
    fld = r.field
    n = f.arity
    mats = psi_matrices(fld, r.vdim, r.psi)
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
                term = eval_mixed(f, [g.bracket_basis(tup[i], tup[j]), *rest])
                acc = vec_add(fld, acc, term if (i + j) % 2 == 0 else vec_neg(fld, term))
        out.append(acc)
    return AltMap(fld, g.dim, n + 1, r.vdim, out)


def partial_leib(r, theta):
    """With arguments x_1..x_n (n = arity + 1):
      sum_{i<=n-1} (-1)^{i+1} psi_{P(x_i)} theta(..^i..)
      + (-1)^{n+1} psi_{P(x_n)} theta(x_1..x_{n-1})
      + (-1)^n     Q(psi_{x_n} theta(x_1..x_{n-1}))
      + sum_{i<j} (-1)^i theta(..^i.., [P(x_i), x_j] at slot j, ..)."""
    g = r.base.algebra
    fld = r.field
    n = len(theta.shape)
    mats = psi_matrices(fld, r.vdim, r.psi)
    pcols = [r.base.P.col(j) for j in range(g.dim)]
    pmats = [psi_of_vec(fld, r.vdim, mats, pcols[i]) for i in range(g.dim)]
    out = []
    for tup in product(range(g.dim), repeat=n):
        acc = vec_zero(fld, r.vdim)
        for i in range(1, n):  # 1-based i = 1 .. n-1
            rest = tup[: i - 1] + tup[i:]
            term = pmats[tup[i - 1]].matvec(theta.fibre(*rest))
            acc = vec_add(fld, acc, term if (i + 1) % 2 == 0 else vec_neg(fld, term))
        head = tup[: n - 1]
        term = pmats[tup[n - 1]].matvec(theta.fibre(*head))
        acc = vec_add(fld, acc, term if (n + 1) % 2 == 0 else vec_neg(fld, term))
        term = r.Q.matvec(mats[tup[n - 1]].matvec(theta.fibre(*head)))
        acc = vec_add(fld, acc, term if n % 2 == 0 else vec_neg(fld, term))
        for i in range(1, n):
            for j in range(i + 1, n + 1):  # 1-based i < j
                inserted = g.bracket_vec(pcols[tup[i - 1]], vec_basis(fld, g.dim, tup[j - 1]))
                args = []
                for k in range(1, n + 1):
                    if k == i:
                        continue
                    args.append(inserted if k == j else tup[k - 1])
                term = eval_mixed(theta, args)
                acc = vec_add(fld, acc, term if i % 2 == 0 else vec_neg(fld, term))
        out.append(acc)
    return Tensor(fld, (g.dim,) * n + (r.vdim,), [x for v in out for x in v])


def delta_alie(r, c):
    """Second component: partial_leib(theta) + (-1)^n f(P x_1, .., P x_n)
    - (-1)^n Q f(P x_1, .., P x_{n-1}, x_n)."""
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
            c.f.eval_vectors([pcols[t] for t in tup[:-1]] + [vec_basis(fld, g.dim, tup[-1])])
        )
        acc = vec_sub(fld, acc, term) if sign_pos else vec_add(fld, acc, term)
        theta_comps.append(acc)
    theta_out = Tensor(fld, (g.dim,) * n + (r.vdim,), [x for v in theta_comps for x in v])
    if c.theta is not None:
        theta_out = theta_out.add(partial_leib(r, c.theta))
    return Cochain(fld, r.dim, r.vdim, n + 1, f_out, theta_out)

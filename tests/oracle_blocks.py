"""The direct-sum brackets and block operators (extensions, semidirect
products, crossed modules, the double construction) as the library wrote
them out before, entry by entry, kept as test oracles for `sum_bracket`
and `block_matrix`.

Indices below n (or n0) are the first summand, the rest the second.
"""

from avglie.linalg import Matrix, Tensor, vec_basis, vec_zero


def extension_bracket(g, h, psi, chi):
    """[(x,h),(y,k)] = ([x,y], psi_x k - psi_y h + chi(x,y) + [h,k])."""
    f = g.field
    n, m = g.dim, h.dim
    dim = n + m

    def entry(I, J, K):
        val = f.zero
        if K < n:
            if I < n and J < n:
                val = g.bracket.get(I, J, K)
        else:
            k = K - n
            if I < n and J < n:
                val = f.add(val, chi.eval_basis((I, J))[k])
            if I < n and J >= n:
                val = f.add(val, psi.get(I, k, J - n))
            if J < n and I >= n:
                val = f.sub(val, psi.get(J, k, I - n))
            if I >= n and J >= n:
                val = f.add(val, h.bracket.get(I - n, J - n, k))
        return val

    return Tensor.build(f, (dim, dim, dim), entry)


def extension_maps(P, Q, Phi):
    """The operator U and the maps i, p, s of the total space base + coef."""
    f = P.field
    n, m = P.rows, Q.rows
    dim = n + m
    rows = [[f.zero] * dim for _ in range(dim)]
    for r in range(n):
        for cc in range(n):
            rows[r][cc] = P[r, cc]
    for r in range(m):
        for cc in range(m):
            rows[n + r][n + cc] = Q[r, cc]
        for cc in range(n):
            rows[n + r][cc] = Phi[r, cc]
    U = Matrix(f, rows, cols=dim)
    i = Matrix.from_cols(f, [vec_basis(f, dim, n + a) for a in range(m)], dim)
    p = Matrix.from_cols(
        f,
        [vec_basis(f, n, j) for j in range(n)] + [vec_zero(f, n)] * m,
        n,
    )
    s = Matrix.from_cols(f, [vec_basis(f, dim, j) for j in range(n)], dim)
    return U, i, p, s


def semidirect_product_bracket(g, vdim, psi):
    """g + V with bracket [(x,u),(y,v)] = ([x,y], psi_x v - psi_y u)."""
    f = g.field
    n = g.dim
    dim = n + vdim

    def c(I, J, K):
        val = f.zero
        if K < n:
            if I < n and J < n:
                val = g.bracket.get(I, J, K)
        else:
            k = K - n
            if I < n and J >= n:
                val = psi.get(I, k, J - n)
            elif J < n and I >= n:
                val = f.neg(psi.get(J, k, I - n))
        return val

    return Tensor.build(f, (dim, dim, dim), c)


def crossed_bracket(g0, g1, rho):
    """Level-1 slot rho_x k - rho_y h + [h, k], with rho[i, a, b] the h_b
    coefficient of rho_{e_i} h_a."""
    f = g0.field
    n0, n1 = g0.dim, g1.dim
    dim = n0 + n1

    def entry(I, J, K):
        val = f.zero
        if K < n0:
            if I < n0 and J < n0:
                val = g0.bracket.get(I, J, K)
        else:
            k = K - n0
            if I < n0 and J >= n0:
                val = f.add(val, rho.get(I, J - n0, k))
            if J < n0 and I >= n0:
                val = f.sub(val, rho.get(J, I - n0, k))
            if I >= n0 and J >= n0:
                val = f.add(val, g1.bracket.get(I - n0, J - n0, k))
        return val

    return Tensor.build(f, (dim, dim, dim), entry)


def block_diagonal(A, B):
    """diag(A, B), as the crossed-module operator and the split-extension
    check wrote it."""
    f = A.field
    n, m = A.rows, B.rows
    return Matrix(
        f,
        [
            [
                A[r, cc] if r < n and cc < n else (
                    B[r - n, cc - n] if r >= n and cc >= n else f.zero
                )
                for cc in range(n + m)
            ]
            for r in range(n + m)
        ],
        cols=n + m,
    )


def embedding_operator(n, T):
    """P_T(x, u) = (T(u), 0) on g + V, with n = dim g."""
    f = T.field
    vdim = T.cols
    rows = [[f.zero] * (n + vdim) for _ in range(n + vdim)]
    for a in range(vdim):
        for r in range(n):
            rows[r][n + a] = T[r, a]
    return Matrix(f, rows, cols=n + vdim)


def double_construction(g, copies):
    """The doubled bracket and its operators, block index by block index."""
    f = g.field
    n = g.dim
    dim = n * copies

    def c(I, J, K):
        bi, i = divmod(I, n)
        bj, j = divmod(J, n)
        bk, k = divmod(K, n)
        val = f.zero
        if bk == 0:
            if bi == 0 and bj == 0:
                val = f.add(val, g.bracket.get(i, j, k))
        else:
            if bi == 0 and bj == bk:
                val = f.add(val, g.bracket.get(i, j, k))
            if bj == 0 and bi == bk:
                val = f.sub(val, g.bracket.get(j, i, k))
        return val

    def block_collect(out_of):
        rows = [[f.zero] * dim for _ in range(dim)]
        for b in out_of:
            for i in range(n):
                rows[i][b * n + i] = f.one
        return Matrix(f, rows, cols=dim)

    ops = [block_collect(range(1, copies))]
    ops += [block_collect([b]) for b in range(1, copies)]
    return Tensor.build(f, (dim, dim, dim), c), ops

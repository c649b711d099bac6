"""The linear-first searches against brute force, and their size limit.

Every search solves its linear clauses first and searches only the solution
space, the automorphism searches column by column along a stabiliser chain
(`oracle_search.column_walk` is the walk without it); extension equivalence
solves for its affine space of maps instead.  `oracle_search` keeps the
searches over every linear map.  Both must return the same maps in the
same order.
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

import avglie.extensions as ext
import oracle_linalg
import oracle_search
from avglie import documents as docs
from avglie.errors import FieldTooLarge, InternalError
from avglie.extensions import (
    AutomorphismPair,
    ExtensionData,
    NonAbelianCocycle,
    averaging_automorphisms,
    build_extension,
    check_split_semidirect,
    compatible_pairs,
    exact_sequence_audit,
    extension_automorphisms,
    extensions_equivalent,
    extract_cocycle,
    perturbed_section,
    transform_cocycle,
)
from avglie.fields import GF, QQ
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    adjoint_representation,
    sum_bracket,
    trivial_representation,
)
from avglie.linalg import (
    Matrix,
    Tensor,
    affine_points,
    enumerate_linear_maps,
    kernel_basis,
    solve_affine,
    sparse_vec,
    vec_basis,
    vec_sub,
)
from avglie.multilinear import AltMap

from conftest import (
    dense_invertible,
    fixture_path,
    g2,
    g2_averaging,
    heisenberg,
    random_invertible,
    random_matrix,
    random_scalar,
    random_tensor,
    scramble_averaging,
)
from oracle_validators import psi_matrices
from test_acceptance import enumerate_extensions_f2
from test_extensions import dim1, heisenberg_cocycles, rep_cocycle

EXTENSION_FIXTURES = (
    "extension_abelian_f3.json",
    "extension_f3.json",
    "extension_f3_scrambled.json",
    "extension_split_f2.json",
)


def fixture_extensions():
    return [
        docs.realize_extension(docs.load_document(fixture_path(name)))
        for name in EXTENSION_FIXTURES
    ]


def reread(name, field):
    """A Q fixture with integer entries, read over a prime field."""
    with open(fixture_path(name)) as fh:
        obj = json.load(fh)
    obj["field"] = f"F{field.p}"
    return docs.realize_averaging(obj)


def abelian(field, P):
    return AveragingLieAlgebra.validate(LieAlgebra.abelian(field, P.rows), P)


def jordan(field, n):
    """The nilpotent Jordan block: ones just above the diagonal."""
    return Matrix(field, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])


def small_algebras(rng):
    """Averaging algebras within reach of brute force: dims 0-3 over F2,
    0-2 over F3, P = 0, P = I and others, most of them scrambled."""
    out = []
    for f in (GF(2), GF(3)):
        out.append(abelian(f, Matrix.zero(f, 0, 0)))
        out += [dim1(f, t) for t in f.elements()]
        out += [scramble_averaging(rng, g2_averaging(f, w))[0] for w in ("proj", "id", "zero")]
        out.append(scramble_averaging(rng, abelian(f, random_matrix(rng, f, 2, 2)))[0])
        out.append(reread("identity_averaging.json", f))
    F2 = GF(2)
    for P in ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        heis = AveragingLieAlgebra.validate(heisenberg(F2), Matrix(F2, P))
        out.append(scramble_averaging(rng, heis)[0])
    out.append(AveragingLieAlgebra.validate(heisenberg(F2), Matrix.zero(F2, 3, 3)))
    out.append(scramble_averaging(rng, abelian(F2, random_matrix(rng, F2, 3, 3)))[0])
    out.append(abelian(F2, Matrix.identity(F2, 3)))
    return out


def scramble_extension(rng, e):
    """The same extension in a random basis of the total space."""
    f = e.total.field
    S = random_invertible(rng, f, e.total.dim)
    Sinv = S.inverse()
    a = e.total
    bracket = Tensor.build(
        f,
        (a.dim,) * 3,
        lambda i, j, k: Sinv.matvec(a.algebra.bracket_vec(S.col(i), S.col(j)))[k],
    )
    total = AveragingLieAlgebra.validate(
        LieAlgebra.validate(f, a.dim, bracket), Sinv.mul(a.P).mul(S)
    )
    return ExtensionData.validate(e.base, e.coef, total, Sinv.mul(e.i), e.p.mul(S))


def small_extensions(rng):
    """Extensions within reach of brute force: the fixtures, every dim-2
    extension over F2, dim-3 ones over F2 in scrambled bases, and
    unvalidated data whose projection does not vanish on the kernel."""
    F2 = GF(2)
    out = fixture_extensions()
    for p, q in product(range(2), repeat=2):
        out += enumerate_extensions_f2(dim1(F2, p), dim1(F2, q))
    for which in ("proj", "id"):
        r = trivial_representation(g2_averaging(F2, which), 1, Matrix(F2, [[1]]))
        out.append(scramble_extension(rng, build_extension(rep_cocycle(r))))
    twisted = NonAbelianCocycle(
        dim1(F2), dim1(F2), AltMap.zero(F2, 1, 2, 1), Tensor(F2, (1, 1, 1), [1]),
        Matrix(F2, [[1]]),
    )
    out.append(scramble_extension(rng, build_extension(twisted)))
    out.append(build_extension(rep_cocycle(adjoint_representation(dim1(F2, 1)))))
    for e in fixture_extensions()[:2]:
        zero_p = Matrix.zero(e.total.field, e.base.dim, e.total.dim)
        out.append(ExtensionData(e.base, e.coef, e.total, e.i, zero_p))
    return out


# ---------------------------------------------------------------------------
# Brute-force oracles.


def test_affine_points_match_the_product_loop():
    rng = random.Random(4104)
    for f in (GF(2), GF(3), GF(5)):
        for length, count in product(range(5), range(4)):
            particular = tuple(random_scalar(rng, f) for _ in range(length))
            kernel = [
                tuple(random_scalar(rng, f) for _ in range(length)) for _ in range(count)
            ]
            got = list(affine_points(f, particular, kernel))
            assert got == oracle_search.affine_points(f, particular, kernel)
    with pytest.raises(FieldTooLarge):
        affine_points(QQ, (1,), [(1,)])


def test_averaging_automorphisms_match_brute_force():
    rng = random.Random(4105)
    algebras = small_algebras(rng)
    for e in fixture_extensions():
        algebras += [e.base, e.coef, e.total]
    for a in algebras:
        assert averaging_automorphisms(a) == oracle_search.averaging_automorphisms(a)


def test_extension_automorphisms_match_brute_force():
    for e in small_extensions(random.Random(4107)):
        assert extension_automorphisms(e) == oracle_search.extension_automorphisms(e)


def test_extensions_equivalent_matches_brute_force():
    exts = fixture_extensions()
    pairs = [
        (e1, e2) for e1 in exts for e2 in exts if (e1.base, e1.coef) == (e2.base, e2.coef)
    ]
    assert len(pairs) > len(exts)
    F2 = GF(2)
    for p, q in product(range(2), repeat=2):
        bucket = enumerate_extensions_f2(dim1(F2, p), dim1(F2, q))
        pairs += [(e1, e2) for e1 in bucket for e2 in bucket]
    found = 0
    for e1, e2 in pairs:
        tau = extensions_equivalent(e1, e2)
        assert tau == oracle_search.extensions_equivalent(e1, e2)
        found += tau is not None
    assert 0 < found < len(pairs)


# ---------------------------------------------------------------------------
# The column walk where the linear clauses prune nothing (P = I), and
# extension equivalence between two bases of the total space.


def identity_averaging(g):
    return AveragingLieAlgebra.validate(g, Matrix.identity(g.field, g.dim))


def direct_sum(g, h):
    return LieAlgebra.validate(
        g.field, g.dim + h.dim, sum_bracket(g, h, Tensor.zero(g.field, (g.dim, h.dim, h.dim)))
    )


def conjugated(found, B):
    Binv = B.inverse()
    return sorted((Binv.mul(g).mul(B) for g in found), key=Matrix.flat)


def test_column_walk_matches_brute_force_with_identity_operator():
    rng = random.Random(7101)
    F2 = GF(2)
    for g in (g2(F2), heisenberg(F2), direct_sum(g2(F2), LieAlgebra.abelian(F2, 1))):
        a = identity_averaging(g)
        for b in (a, scramble_averaging(rng, a, dense_invertible)[0]):
            assert averaging_automorphisms(b) == oracle_search.averaging_automorphisms(b)
    # g2 + g2: Aut(g2) has two maps over F2, on each summand, and the swap
    a = identity_averaging(direct_sum(g2(F2), g2(F2)))
    b, B = scramble_averaging(rng, a, dense_invertible)
    found = averaging_automorphisms(b)
    assert len(found) == 8
    assert found == oracle_search.bracket_automorphisms(b)
    assert found == conjugated(averaging_automorphisms(a), B)
    # the benchmark's P = I case: Heisenberg over F3, 432 maps
    b = scramble_averaging(rng, identity_averaging(heisenberg(GF(3))), dense_invertible)[0]
    found = averaging_automorphisms(b)
    assert len(found) == 432
    assert found == oracle_search.bracket_automorphisms(b)
    assert_group(found)


def assert_group(found):
    """found is closed under products, checked against a seeded sample of
    its members, and its order is the product of its orbit sizes."""
    keys = set(found)
    for h in random.Random(len(found)).sample(found, min(len(found), 12)):
        assert all(g.mul(h) in keys for g in found)
    assert prod(orbit_sizes(found)) == len(keys)


def orbit_sizes(found):
    """The orbit sizes along the stabiliser chain of the group found: the
    number of values g e_c of the g fixing e_0 .. e_{c-1}, for each c."""
    f, n = found[0].field, found[0].rows
    orbits = []
    for c in range(n):
        found = [g for g in found if c == 0 or g.col(c - 1) == vec_basis(f, n, c - 1)]
        orbits.append(len({g.col(c) for g in found}))
    return orbits


@pytest.mark.parametrize("row, column", [((1, 0, 0, 0), 0), ((0, 0, 0, 1), 1)])
def test_a_solution_space_without_the_identity_is_refused(row, column):
    # g[0, 0] = 0 (or g[1, 1] = 0) leaves invertible maps but not the
    # identity, so the solutions are no group to read off a stabiliser chain
    F2 = GF(2)
    want = f"identity fails the linear clauses at column {column}$"
    with pytest.raises(InternalError, match=want):
        ext._bracket_maps(F2, LieAlgebra.abelian(F2, 2), [sparse_vec(row)])


def test_scrambled_heisenberg_with_identity_operator_by_conjugation():
    # Aut of the F3 Heisenberg algebra: any A in GL_2(F3) on the plane,
    # any map of the plane into the centre, det A on the centre; 432 of
    # the 3^9 maps, checked in closed form instead of by brute force
    F3 = GF(3)
    a = identity_averaging(heisenberg(F3))
    closed = sorted(
        (
            Matrix(F3, [[x, y, 0], [z, w, 0], [u, v, x * w - y * z]])
            for x, y, z, w, u, v in product(range(3), repeat=6)
            if (x * w - y * z) % 3
        ),
        key=Matrix.flat,
    )
    assert len(closed) == 432
    assert averaging_automorphisms(a) == closed
    b, B = scramble_averaging(random.Random(7103), a, dense_invertible)
    found = averaging_automorphisms(b)
    assert found == conjugated(closed, B)
    assert all(ext.check_algebra_automorphism(b, g, "aut") for g in found)


# ---------------------------------------------------------------------------
# Orbit closure: a value of column c is searched only when the maps found
# so far do not carry e_c to it.


def profiled_search(a):
    """averaging_automorphisms(a), the number of leaf searches `stabiliser`
    starts, the leaves they find at each column, and the number of nodes
    `children` expands, counted with sys.setprofile."""
    searches, leaves, nodes = 0, {}, set()

    def profile(frame, event, arg):
        nonlocal searches
        name = frame.f_code.co_name
        if name == "first_leaf" and frame.f_back.f_code.co_name == "stabiliser":
            if event == "call":
                searches += 1
            elif event == "return" and arg is not None:
                c = frame.f_back.f_locals["c"]
                leaves[c] = leaves.get(c, 0) + 1
        elif name == "children" and event == "call":
            nodes.add(frame)  # a generator's frame is called on every resume

    sys.setprofile(profile)
    try:
        found = averaging_automorphisms(a)
    finally:
        sys.setprofile(None)
    return found, searches, leaves, len(nodes)


def test_orbit_closure_halves_the_leaf_searches():
    # the 432 maps of the scrambled Heisenberg algebra above.  Searching
    # every value of column c but e_c down to its first leaf takes 48
    # searches here (23 + 17 orbit points, 8 values outside the orbits)
    # and 158 node expansions
    a = identity_averaging(heisenberg(GF(3)))
    b = scramble_averaging(random.Random(7103), a, dense_invertible)[0]
    found, searches, _, nodes = profiled_search(b)
    assert len(found) == 432
    assert searches < 48 / 2
    assert nodes < 158


def test_a_later_leaf_extends_the_orbit():
    # Heisenberg + line over F3 with P = diag(1, 1, 1, 0), 864 maps: at some
    # column c the first leaf and G_{c+1} do not reach the whole orbit, so a
    # later leaf extends it, and still not every other point is searched
    F3 = GF(3)
    P = Matrix(F3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    a = AveragingLieAlgebra.validate(direct_sum(heisenberg(F3), LieAlgebra.abelian(F3, 1)), P)
    for b in (a, scramble_averaging(random.Random(7104), a, dense_invertible)[0]):
        found, _, leaves, _ = profiled_search(b)
        assert len(found) == 864
        orbits = orbit_sizes(found)
        assert any(1 < leaves.get(c, 0) < orbits[c] - 1 for c in range(4))
        rows = ext._commutator_rows(F3, b.P, b.P)
        assert found == oracle_search.column_walk(F3, b.algebra, rows)


def test_a_solution_space_not_closed_under_products_is_refused():
    # span{I, N} over F2 with N e_i = e_{i+1}: I + N is invertible, but
    # (I + N)^2 = I + N^2, the map the closure forms to carry e_0 to
    # e_0 + e_2, is no solution
    F2 = GF(2)
    N = Matrix(F2, [[1 if i == j + 1 else 0 for j in range(3)] for i in range(3)])
    rows = kernel_basis(Matrix(F2, [Matrix.identity(F2, 3).flat(), N.flat()], cols=9))
    with pytest.raises(InternalError, match="no unital matrix algebra$"):
        ext._bracket_maps(F2, LieAlgebra.abelian(F2, 3), [sparse_vec(r) for r in rows])


def test_extension_equivalence_across_bases_matches_brute_force():
    # each extension against a seeded re-scramble of itself, which is
    # equivalent to it, and dim-2 F2 extensions against re-scrambles of
    # each other, many of them inequivalent
    rng = random.Random(7102)
    F2, F3 = GF(2), GF(3)
    exts = fixture_extensions()
    for f, which in ((F2, "proj"), (F2, "id"), (F3, "proj")):
        r = trivial_representation(g2_averaging(f, which), 1, Matrix(f, [[1]]))
        exts.append(build_extension(rep_cocycle(r)))
    pairs = [(e, scramble_extension(rng, e)) for e in exts]
    bucket = enumerate_extensions_f2(dim1(F2, 1), dim1(F2, 1))
    pairs += [(e1, scramble_extension(rng, e2)) for e1 in bucket for e2 in bucket]
    found = 0
    for e1, e2 in pairs:
        tau = extensions_equivalent(e1, e2)
        assert tau == oracle_search.extensions_equivalent(e1, e2)
        found += tau is not None
    assert len(exts) < found < len(pairs)


def is_equivalence(tau, e1, e2):
    """tau: e1 -> e2 is an equivalence of extensions, checked entry by
    entry: tau i1 = i2, p2 tau = p1, tau U1 = U2 tau, the bracket on basis
    pairs, and a nonzero determinant."""
    a1, a2 = e1.total, e2.total
    return (
        tau.mul(e1.i) == e2.i
        and e2.p.mul(tau) == e1.p
        and tau.mul(a1.P) == a2.P.mul(tau)
        and all(
            tau.matvec(a1.algebra.bracket_basis(x, y))
            == a2.algebra.bracket_vec(tau.col(x), tau.col(y))
            for x, y in combinations(range(a1.dim), 2)
        )
        and oracle_linalg.det(tau) != a1.field.zero
    )


def test_extension_equivalence_over_q():
    # the cocycle_adjoint extension against seeded scrambles of itself,
    # both ways; the answer does not depend on the sections read
    rng = random.Random(7104)
    c = docs.realize_cocycle(docs.load_document(fixture_path("cocycle_adjoint.json")))
    e = build_extension(c)
    for _ in range(5):
        e2 = scramble_extension(rng, e)
        tau = extensions_equivalent(e, e2)
        assert tau is not None and is_equivalence(tau, e, e2)
        assert is_equivalence(extensions_equivalent(e2, e), e2, e)
        moved = replace(e, s=perturbed_section(e, random_matrix(rng, QQ, 2, 2)))
        assert moved.s != e.s
        assert extensions_equivalent(moved, e2) == tau


def test_extension_equivalence_over_q_agrees_with_the_cocycles():
    # Heisenberg coefficients with central chi: equivalent exactly when the
    # chi agree, since (E1) puts phi in the centre
    rng = random.Random(7105)
    chis = [(0, 0, 0), (0, 0, 1), (0, 0, Fraction(-1, 2))]
    exts = [build_extension(c) for c in heisenberg_cocycles(QQ, chis)]
    found = 0
    for (chi1, e1), (chi2, e2) in product(zip(chis, exts), repeat=2):
        e2 = scramble_extension(rng, e2)
        tau = extensions_equivalent(e1, e2)
        phi = ext.cocycles_equivalent(extract_cocycle(e1), extract_cocycle(e2))
        assert (tau is None) == (phi is None) == (chi1 != chi2)
        assert tau is None or is_equivalence(tau, e1, e2)
        found += tau is not None
    assert found == len(chis)


def test_cocycle_equivalence_witness_matches_the_product_loop():
    # Heisenberg coefficients: (E1) leaves phi free in the centre, and the
    # quadratic clause (E2) rejects the particular point whenever chi differs
    found = 0
    for f in (GF(2), GF(3)):
        h = AveragingLieAlgebra.validate(heisenberg(f), Matrix.zero(f, 3, 3))
        psi = Tensor.zero(f, (2, 3, 3))
        for base in (
            AveragingLieAlgebra.validate(LieAlgebra.abelian(f, 2), Matrix.zero(f, 2, 2)),
            g2_averaging(f, "zero"),
        ):
            cocycles = [
                NonAbelianCocycle.validate(
                    base, h, AltMap(f, 2, 2, 3, [(0, 0, t)]), psi, Matrix.zero(f, 3, 2)
                )
                for t in f.elements()
            ]
            for c1, c2 in product(cocycles, repeat=2):
                eq = ext.cocycles_equivalent(c1, c2)
                assert eq == oracle_search.cocycles_equivalent_phi(c1, c2)
                found += eq is not None and not eq.is_zero()
    assert found > 0


def test_cocycle_equivalence_takes_the_least_coordinates():
    # psi = psi' = 0, so the linear part of (E2) is all of it: its
    # solutions are (0, 0, 1, 0) + t (0, 0, 1, 1), and the walk meets
    # t = 1 first, as coordinates on the (E1) + (E3) kernel order it
    F2 = GF(2)
    lie = LieAlgebra(F2, 2, Tensor(F2, (2, 2, 2), (0, 1, 1, 1, 0, 0, 0, 0)))
    base = AveragingLieAlgebra(lie, Matrix.zero(F2, 2, 2))
    coef = AveragingLieAlgebra(lie, Matrix(F2, [[0, 0], [1, 0]]))
    psi = Tensor.zero(F2, (2, 2, 2))
    c1, c2 = (
        NonAbelianCocycle(base, coef, chi, psi, Matrix.zero(F2, 2, 2))
        for chi in (AltMap(F2, 2, 2, 2, [(0, 1)]), AltMap.zero(F2, 2, 2, 2))
    )
    phi = ext.cocycles_equivalent(c1, c2)
    assert phi.flat() == (0, 0, 0, 1)
    assert phi == oracle_search.cocycles_equivalent_phi(c1, c2)
    point, _ = solve_affine(*ext._equivalence_linear_system(c1, c2, True))
    assert point == (0, 0, 1, 0)


def test_cocycle_equivalence_sweep_matches_the_product_loop():
    # unvalidated pairs over F2 and F3; those with psi = Phi = 0 on
    # nonabelian coefficients leave the centre free in (E1).  On abelian
    # coefficients (E2) joins the first solve, so the witness is its point
    rng = random.Random(1308)
    pairs = []
    for f, n, m in product((GF(2), GF(3)), range(1, 4), range(1, 4)):
        for _ in range(14):
            c1, c2 = random_cocycle_pair(rng, f, n, m)
            pairs += [(c1, c2), (c1, shifted_cocycle(rng, c1))]
            if not c1.coef.is_abelian():
                quiet = [
                    NonAbelianCocycle(
                        c.base, c.coef, c.chi, Tensor.zero(f, (n, m, m)), Matrix.zero(f, m, n)
                    )
                    for c in (c1, c2)
                ]
                pairs += [tuple(quiet), (quiet[0], quiet[0])]
    nonabelian = found = moved = 0
    for c1, c2 in pairs:
        phi = ext.cocycles_equivalent(c1, c2)
        want = oracle_search.cocycles_equivalent_phi(c1, c2)
        abelian = c1.coef.is_abelian()
        sol = solve_affine(*ext._equivalence_linear_system(c1, c2, abelian))
        if abelian:
            assert (phi is None) == (want is None)
            assert phi is None or phi.flat() == sol[0]
        else:
            nonabelian += 1
            assert phi == want
            found += phi is not None
            moved += phi is not None and phi.flat() != sol[0]
    assert nonabelian >= 300
    assert 0 < moved < found < nonabelian


def random_cocycle_pair(rng, f, n, m):
    """Two cocycles over one random base and coefficient algebra, the
    latter abelian half of the time; nothing is validated, so no identity
    need hold."""

    def tensor(shape):
        return random_tensor(rng, f, shape, zero_share=0.5)

    def matrix(rows, cols):
        return Matrix.from_flat(f, rows, cols, tensor((rows, cols)).entries)

    base = AveragingLieAlgebra(LieAlgebra(f, n, tensor((n, n, n))), matrix(n, n))
    h = LieAlgebra.abelian(f, m)
    if rng.random() < 0.5:
        h = LieAlgebra(f, m, tensor((m, m, m)))
    coef = AveragingLieAlgebra(h, matrix(m, m))

    def cocycle():
        chi = AltMap.from_flat(f, n, 2, m, tensor((comb(n, 2) * m,)).entries)
        return NonAbelianCocycle(base, coef, chi, tensor((n, m, m)), matrix(m, n))

    return cocycle(), cocycle()


def shifted_cocycle(rng, c):
    """c moved by a random phi along the linear parts of (E1)-(E3), so
    that the linear system for (c, shifted) holds at phi."""
    f = c.base.field
    n, m = c.base.dim, c.coef.dim
    g, h = c.base.algebra, c.coef.algebra
    phi = Matrix.from_flat(f, m, n, random_tensor(rng, f, (m, n), 0.5).entries)
    psi = Tensor.build(
        f,
        (n, m, m),
        lambda j, t, a: f.sub(
            c.psi.get(j, t, a), h.bracket_vec(phi.col(j), vec_basis(f, m, a))[t]
        ),
    )
    mats = psi_matrices(f, m, psi)
    Phi = c.Phi.add(phi.mul(c.base.P)).sub(c.coef.P.mul(phi))
    linear = [
        vec_sub(
            f,
            vec_sub(f, mats[x].matvec(phi.col(y)), mats[y].matvec(phi.col(x))),
            phi.matvec(g.bracket_basis(x, y)),
        )
        for x, y in combinations(range(n), 2)
    ]
    chi = c.chi.sub(AltMap(f, n, 2, m, linear))
    return NonAbelianCocycle(c.base, c.coef, chi, psi, Phi)


def test_equivalence_system_solves_like_the_dict_emitter():
    # solve_affine's answer depends only on the row space of [A | b], so
    # the rows may come in any order but the points and kernels must agree
    rng = random.Random(6603)
    pairs = []
    for e in fixture_extensions():
        f = e.total.field
        cocycles = [
            extract_cocycle(e, perturbed_section(e, mu))
            for mu in enumerate_linear_maps(e.base.dim, e.coef.dim, f)
        ]
        cocycles += [
            transform_cocycle(AutomorphismPair(beta, alpha), cocycles[0])
            for beta in averaging_automorphisms(e.coef)
            for alpha in averaging_automorphisms(e.base)
        ]
        pairs += [(c1, c2, False) for c1, c2 in product(cocycles, repeat=2)]
    adjoint = docs.realize_cocycle(docs.load_document(fixture_path("cocycle_adjoint.json")))
    pairs.append((adjoint, adjoint, True))
    for f, n, m in product((GF(2), GF(3), GF(5), QQ), range(4), range(4)):
        for _ in range(3):
            c1, c2 = random_cocycle_pair(rng, f, n, m)
            pairs += [(c1, c2, False), (c1, shifted_cocycle(rng, c1), True)]
    consistent = 0
    for (c1, c2, shifted), include_e2 in product(pairs, (False, True)):
        got = solve_affine(*ext._equivalence_linear_system(c1, c2, include_e2))
        want = solve_affine(*oracle_search.equivalence_linear_system(c1, c2, include_e2))
        assert got == want
        assert got is not None or not shifted
        consistent += got is not None
    assert 0 < consistent < 2 * len(pairs)


# ---------------------------------------------------------------------------
# The limit applies to the solution space.


@pytest.mark.parametrize("p, n, order", [(2, 5, 16), (3, 4, 54)])
def test_jordan_block_commutant_beyond_the_old_limit(monkeypatch, p, n, order):
    # units of F_p[x]/(x^n): (p - 1) p^(n - 1) maps out of p^(n^2) candidates
    f = GF(p)
    a = abelian(f, jordan(f, n))
    found = averaging_automorphisms(a)
    assert len(found) == order
    assert [g.flat() for g in found] == sorted(g.flat() for g in found)
    assert all(g.mul(a.P) == a.P.mul(g) for g in found)
    points = p**n  # the commutant: polynomials in the Jordan block
    monkeypatch.setattr(ext, "ENUM_LIMIT", points)
    assert len(averaging_automorphisms(a)) == order
    monkeypatch.setattr(ext, "ENUM_LIMIT", points - 1)
    with pytest.raises(FieldTooLarge, match=f"^{points} candidate maps"):
        averaging_automorphisms(a)


@pytest.mark.parametrize("p, n, count", [(2, 5, 33554432), (3, 4, 43046721)])
def test_unprunable_search_is_refused_before_any_check(monkeypatch, p, n, count):
    f = GF(p)

    def no_check(*args):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(ext, "check_algebra_automorphism", no_check)
    with pytest.raises(FieldTooLarge, match=f"^{count} candidate maps exceed the limit"):
        averaging_automorphisms(abelian(f, Matrix.identity(f, n)))


def test_search_commutes_with_a_change_of_basis():
    rng = random.Random(4108)
    F2, F3 = GF(2), GF(3)
    heis = AveragingLieAlgebra.validate(
        heisenberg(F3), Matrix(F3, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    )
    # g commutes with P = diag(0, 0, 1): any A in GL_2(F3) on the plane and
    # det A on the centre, 48 maps.  With a line added and P = diag(1, 1, 1,
    # 0), Aut(heis) x F3^*: 864 maps
    P = Matrix(F3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    heis_line = AveragingLieAlgebra.validate(
        direct_sum(heisenberg(F3), LieAlgebra.abelian(F3, 1)), P
    )
    for a, order in (
        (abelian(F2, jordan(F2, 5)), 16), (abelian(F3, jordan(F3, 4)), 54), (heis, 48),
        (heis_line, 864),
    ):
        B2, B = scramble_averaging(rng, a, dense_invertible)
        Binv = B.inverse()
        found = averaging_automorphisms(a)
        assert len(found) == order
        conjugated = sorted((Binv.mul(g).mul(B) for g in found), key=Matrix.flat)
        assert averaging_automorphisms(B2) == conjugated
        # the leaf-by-leaf walk, beyond brute-force reach at dim 4 over F3
        f = a.field
        assert conjugated == oracle_search.column_walk(
            f, B2.algebra, ext._commutator_rows(f, B2.P, B2.P)
        )
        assert_group(conjugated)


def test_extension_equivalence_needs_no_enumeration_limit(monkeypatch):
    # the equivalences are an affine space that is solved, not walked
    e = fixture_extensions()[1]
    monkeypatch.setattr(ext, "ENUM_LIMIT", 1)
    assert extensions_equivalent(e, e) == Matrix.identity(GF(3), 2)


# ---------------------------------------------------------------------------
# Each group is enumerated once.


def counting(monkeypatch, name):
    calls = []
    inner = getattr(ext, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ext, name, wrapper)
    return calls


def test_groups_are_enumerated_once(monkeypatch):
    exts = dict(zip(EXTENSION_FIXTURES, fixture_extensions()))
    calls = counting(monkeypatch, "averaging_automorphisms")
    pairs = compatible_pairs(exts["extension_abelian_f3.json"])
    assert len(calls) == 2 and len(pairs) == 2
    calls.clear()
    bases = counting(monkeypatch, "_section_basis")
    report = exact_sequence_audit(exts["extension_f3.json"])
    assert len(calls) == 2 and report["pairs_audited"] == 4 and report["ok"]
    # one section and one (s | i) behind every projection and Wells class,
    # also when the section is solved for
    assert len(bases) == 1
    bases.clear()
    assert exact_sequence_audit(exts["extension_f3_scrambled.json"])["ok"]
    assert len(bases) == 1
    auts = counting(monkeypatch, "extension_automorphisms")
    v = check_split_semidirect(exts["extension_split_f2.json"])
    assert len(auts) == 1
    assert v.ok and v.notes["aut_total"] == v.notes["compatible_pairs"] * v.notes["kernel_fixing"]

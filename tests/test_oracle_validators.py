"""Every validator stated in the matrix idiom against its loop form in
`oracle_validators`: the same verdict (ok, clause, witness and notes), the
same exception, or the same built object, on every fixture and broken
fixture and on seeded variants of valid objects with one or two entries
spoiled, over Q, F2 and F3."""

import glob
import json
import os
import random
from dataclasses import replace
from functools import cache
from itertools import product

import pytest

import oracle_validators as oracle
from avglie import cohomology, documents as docs
from avglie import extensions as ext
from avglie import homotopy as hom
from avglie import lie
from avglie.errors import Verdict
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, Tensor
from avglie.multilinear import AltMap
from conftest import (
    FIXTURES,
    g2_averaging,
    heisenberg,
    random_matrix,
    random_scalar,
    representation_family,
)

FIELDS = (QQ, GF(2), GF(3))
VARIANTS = 200


def outcome(fn, *args):
    """What a call gives: a verdict's fields, an exception's type, message
    and verdict, or the returned object."""
    try:
        got = fn(*args)
    except Exception as exc:  # the exception is part of the answer
        v = getattr(exc, "verdict", None)
        return type(exc).__name__, str(exc), None if v is None else outcome(lambda: v)
    if isinstance(got, Verdict):
        return got.ok, got.clause, got.witness, got.notes
    return got


def same(lib_fn, oracle_fn, *args):
    """Assert both give the same answer; the failed clause, or the name of
    the exception, when there is one."""
    got, want = outcome(lib_fn, *args), outcome(oracle_fn, *args)
    assert got == want, (lib_fn.__name__, args)
    if isinstance(got, tuple) and len(got) == 4:
        return got[1]
    if isinstance(got, tuple) and len(got) == 3:
        return got[0] if got[2] is None else got[2][1]
    return None


def spoil(rng, x):
    """x with one or two of its entries moved by a nonzero scalar."""
    f = x.field
    flat = list(x.entries if isinstance(x, Tensor) else x.flat())
    for _ in range(rng.choice((1, 2)) if flat else 0):
        k = rng.randrange(len(flat))
        step = f.zero
        while step == f.zero:
            step = random_scalar(rng, f)
        flat[k] = f.add(flat[k], step)
    if isinstance(x, Tensor):
        return Tensor(f, x.shape, flat)
    if isinstance(x, Matrix):
        return Matrix.from_flat(f, x.rows, x.cols, flat)
    return AltMap.from_flat(f, x.dim, x.arity, x.vdim, flat)


def spoil_algebra(rng, a, what):
    """An unvalidated copy of an averaging algebra with its bracket or P
    spoiled."""
    if what == "bracket":
        algebra = replace(a.algebra, bracket=spoil(rng, a.algebra.bracket))
        return lie.AveragingLieAlgebra(algebra, a.P)
    return lie.AveragingLieAlgebra(a.algebra, spoil(rng, a.P))


def spoil_alternating(rng, bracket):
    """The bracket with [e_i, e_j] and [e_j, e_i] moved by opposite steps,
    so that it stays alternating."""
    f, n = bracket.field, bracket.shape[0]
    flat = list(bracket.entries)
    i, j = rng.sample(range(n), 2)
    k, step = rng.randrange(n), random_scalar(rng, f)
    flat[(i * n + j) * n + k] = f.add(flat[(i * n + j) * n + k], step)
    flat[(j * n + i) * n + k] = f.sub(flat[(j * n + i) * n + k], step)
    return Tensor(f, bracket.shape, flat)


# ---------------------------------------------------------------------------
# Valid objects over one field.


def algebras(f):
    doubled, ops = lie.double_construction(lie.LieAlgebra.from_pairs(f, 2, {(0, 1): (0, 1)}), 2)
    heis = lie.AveragingLieAlgebra.validate(
        heisenberg(f), Matrix(f, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    )
    return [g2_averaging(f, "proj"), g2_averaging(f, "id"), heis,
            lie.AveragingLieAlgebra.validate(doubled, ops[0])]


def adjoint_cocycle(a):
    r = lie.adjoint_representation(a)
    f, n = a.field, a.dim
    return ext.NonAbelianCocycle(a, a, AltMap.zero(f, n, 2, n), r.psi, Matrix.zero(f, n, n))


def trivial_cocycle(a, k):
    """The zero cocycle of a on an abelian algebra of dim k with Q = 1."""
    f, n = a.field, a.dim
    coef = lie.AveragingLieAlgebra(lie.LieAlgebra.abelian(f, k), Matrix.identity(f, k))
    return ext.NonAbelianCocycle(
        a, coef, AltMap.zero(f, n, 2, k), Tensor.zero(f, (n, k, k)), Matrix.zero(f, k, n)
    )


def cocycles(f):
    out = [adjoint_cocycle(a) for a in algebras(f)[:3]] + [trivial_cocycle(algebras(f)[3], 1)]
    for path in glob.glob(os.path.join(FIXTURES, "extension*.json")):
        obj = docs.load_document(path)
        if obj["field"] == f.name:
            out.append(ext.extract_cocycle(docs.realize_extension(obj)))
    return out


def skeletal(r):
    """The skeletal structure of a representation with zero Jacobiator
    and homotopy."""
    f, n0, n1 = r.field, r.dim, r.vdim
    l2_01 = Tensor.build(f, (n0, n1, n1), lambda i, a, b: r.psi.get(i, b, a))
    t = hom.TwoTermLinf(f, n0, n1, Matrix.zero(f, n0, n1), r.base.algebra.bracket, l2_01,
                        AltMap.zero(f, n0, 3, n1))
    return t, hom.HomotopyAveraging(r.base.P, r.Q, AltMap.zero(f, n0, 2, n1))


def crossed(a):
    """g acting on itself by ad through the identity."""
    return hom.CrossedModule(a, a, Matrix.identity(a.field, a.dim), a.algebra.bracket)


def automorphisms(f):
    """(algebra, automorphism) pairs: g2 and the Heisenberg algebra scaled
    along their derived algebras, which commutes with their operators."""
    g2, _, heis, _ = algebras(f)
    c = f.coerce(2 if f.p != 2 else 1) if f.finite else f.coerce(2)
    return [(g2, Matrix(f, [[1, 0], [0, c]])),
            (heis, Matrix(f, [[1, 0, 0], [0, c, 0], [0, 0, c]]))]


def kernel_two_term(f):
    """A 2-term structure where L4 holds and L5 fails: d kills h_1 and
    x_0 sends h_1 to itself."""
    l2_01 = Tensor(f, (1, 2, 2), [0, 0, 0, 1])
    t = hom.TwoTermLinf(f, 1, 2, Matrix(f, [[1, 0]]), Tensor.zero(f, (1, 1, 1)), l2_01,
                        AltMap.zero(f, 1, 3, 2))
    return t, hom.HomotopyAveraging(Matrix.zero(f, 1, 1), Matrix.zero(f, 2, 2),
                                    AltMap.zero(f, 1, 2, 2))


# ---------------------------------------------------------------------------
# The fixtures.


def fixture_checks(obj):
    """(library, oracle, args) for each validator a document feeds."""
    kind = obj["kind"]
    if kind == "lie_algebra":
        return [(lie.check_lie, oracle.check_lie, docs.parse_lie(obj))]
    if kind == "averaging_lie_algebra":
        f, dim, bracket, P = docs.parse_averaging(obj)
        g = lie.LieAlgebra(f, dim, bracket)
        out = [(lie.check_lie, oracle.check_lie, (f, dim, bracket)),
               (lie.check_averaging, oracle.check_averaging, (g, P))]
        if lie.check_lie(f, dim, bracket) and lie.check_averaging(g, P):
            a = lie.AveragingLieAlgebra(g, P)
            out.append((lie.induced_leibniz, oracle.induced_leibniz, (a,)))
        return out
    if kind == "representation":
        r = docs.unchecked(kind, obj)
        a, vdim, psi = r.base, r.vdim, r.psi
        out = [(lie.check_representation, oracle.check_representation, (a, vdim, psi, r.Q))]
        if vdim == a.dim:
            out.append((lie.check_embedding_tensor, oracle.check_embedding_tensor,
                        (a.algebra, vdim, psi, Matrix.identity(a.field, vdim))))
        return out
    if kind == "nonabelian_cocycle":
        return [(ext.check_cocycle, oracle.check_cocycle, (docs.unchecked(kind, obj),))]
    if kind == "extension":
        e = docs.unchecked(kind, obj)
        out = [(ext.check_extension, oracle.check_extension, (e,))]
        if ext.check_extension(e):
            out.append((ext.audit_round_trip, oracle.audit_round_trip, (e,)))
            if e.coef.is_abelian():
                out.append((ext.check_split_semidirect, oracle.check_split_semidirect, (e,)))
        return out
    if kind == "automorphism_pair":
        a, h, pair = docs.unchecked(kind, obj)
        return [(ext.check_algebra_automorphism, oracle.check_algebra_automorphism,
                 (h, pair.beta, "beta")),
                (ext.check_algebra_automorphism, oracle.check_algebra_automorphism,
                 (a, pair.alpha, "alpha"))]
    if kind == "two_term":
        t, p = docs.parse_two_term(obj)
        out = [(hom.check_two_term, oracle.check_two_term, (t,)),
               (hom.check_homotopy_averaging, oracle.check_homotopy_averaging, (t, p))]
        return out + [(hom.strict_to_crossed, oracle.strict_to_crossed, (t, p))]
    assert kind == "crossed_module"
    return [(hom.check_crossed_module, oracle.check_crossed_module, (docs.unchecked(kind, obj),))]


def test_every_fixture_agrees_with_the_oracle():
    paths = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    paths += sorted(glob.glob(os.path.join(FIXTURES, "broken", "*.json")))
    clauses = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        for lib_fn, oracle_fn, args in fixture_checks(obj):
            clauses.add(same(lib_fn, oracle_fn, *args))
    broken = {"antisymmetry", "jacobi", "eq1", "rep-chain-2", "(A)", "(D)", "exactness",
              "alpha-operator", "L6", "A2", "cm-peiffer"}
    assert broken <= clauses, clauses


# ---------------------------------------------------------------------------
# Spoiled variants: for each validator a generator of (args) from a valid
# object and a seeded rng, cycling through the fields and valid objects.


def lie_variants(rng, f):
    for a in algebras(f):
        if rng.random() < 0.5:
            bracket = spoil(rng, a.algebra.bracket)
        else:
            bracket = spoil_alternating(rng, a.algebra.bracket)
        yield lie.check_lie, oracle.check_lie, (f, a.dim, bracket)
        b = spoil_algebra(rng, a, rng.choice(("bracket", "P")))
        yield lie.check_averaging, oracle.check_averaging, (b.algebra, b.P)
        leib = lie.induced_leibniz(a).bracket
        yield lie.check_leibniz, oracle.check_leibniz, (f, a.dim, spoil(rng, leib))
        yield lie.induced_leibniz, oracle.induced_leibniz, (spoil_algebra(rng, a, "P"),)


def representation_variants(rng, f):
    for r in representation_family(f, random.Random(rng.random())):
        psi, Q = r.psi, r.Q
        if rng.random() < 0.5:
            psi = spoil(rng, psi)
        else:
            Q = spoil(rng, Q)
        base = spoil_algebra(rng, r.base, "P") if rng.random() < 0.2 else r.base
        yield lie.check_representation, oracle.check_representation, (base, r.vdim, psi, Q)
        if r.vdim == r.dim:
            T = Matrix.identity(f, r.dim) if rng.random() < 0.5 else r.base.P
            psi = spoil(rng, r.psi) if rng.random() < 0.3 else r.psi
            yield (lie.check_embedding_tensor, oracle.check_embedding_tensor,
                   (r.base.algebra, r.vdim, psi, spoil(rng, T)))
        n = rng.choice((2, 3))
        yield cohomology._leib_rows, oracle._leib_rows, (replace(r, psi=psi, Q=Q), n)


def cocycle_variants(rng, f):
    for c in cocycles(f):
        what = rng.choice(("chi", "psi", "Phi", "Q", "P", "coef-bracket"))
        if what == "Q":
            c2 = replace(c, coef=spoil_algebra(rng, c.coef, "P"))
        elif what == "P":
            c2 = replace(c, base=spoil_algebra(rng, c.base, "P"))
        elif what == "coef-bracket":
            c2 = replace(c, coef=spoil_algebra(rng, c.coef, "bracket"))
        else:
            c2 = replace(c, **{what: spoil(rng, getattr(c, what))})
        yield ext.check_cocycle, oracle.check_cocycle, (c2,)
        phi = spoil(rng, Matrix.zero(f, c.coef.dim, c.base.dim))
        yield _phi_satisfies, _oracle_phi_satisfies, (c, c2 if rng.random() < 0.5 else c, phi)


def _phi_satisfies(c1, c2, phi):
    # the triple of c2 over c1's algebras, as the oracle reads it
    return ext._phi_satisfies(c1, replace(c2, base=c1.base, coef=c1.coef), phi)


def _oracle_phi_satisfies(c1, c2, phi):
    f, m = c1.base.field, c1.coef.dim
    mats = oracle.psi_matrices(f, m, c1.psi), oracle.psi_matrices(f, m, c2.psi)
    return oracle._phi_satisfies(c1, c2, phi, mats)


def q_automorphisms(a):
    """The automorphisms of a over Q among the diagonal maps with entries
    in {1, -1, 2} and the unitriangular ones with entries in {0, 1}."""
    f, d = a.field, a.dim
    maps = [Matrix(f, [[x if i == j else 0 for j in range(d)] for i, x in enumerate(xs)])
            for xs in product((1, -1, 2), repeat=d)]
    below = [(i, j) for i in range(d) for j in range(i)]
    for xs in product((0, 1), repeat=len(below)):
        x = dict(zip(below, xs))
        for lower in (True, False):
            maps.append(Matrix(f, [[int(i == j) or x.get((i, j) if lower else (j, i), 0)
                                    for j in range(d)] for i in range(d)]))
    return [g for g in dict.fromkeys(maps) if ext.check_algebra_automorphism(a, g, "g")]


@cache
def cocycle_automorphisms(f):
    """For each cocycle of `cocycles(f)`, the automorphisms of its
    coefficients and of its base: all of them over F_p, some over Q."""
    search = ext.averaging_automorphisms if f.finite else q_automorphisms
    return [(search(c.coef), search(c.base)) for c in cocycles(f)]


def transform_variants(rng, f):
    """Cocycles extracted through a random section, under an automorphism
    pair of their algebras or, a third of the time, one with a side
    spoiled."""
    for c, (betas, alphas) in zip(cocycles(f), cocycle_automorphisms(f)):
        e = ext.build_extension(c)
        mu = random_matrix(rng, f, c.coef.dim, c.base.dim)
        c = ext.extract_cocycle(e, ext.perturbed_section(e, mu))
        pair = ext.AutomorphismPair(rng.choice(betas), rng.choice(alphas))
        if rng.random() < 1 / 3:
            side = rng.choice(("beta", "alpha"))
            pair = replace(pair, **{side: spoil(rng, getattr(pair, side))})
        yield ext.transform_cocycle, oracle.transform_cocycle, (pair, c)


def extension_variants(rng, f):
    for c in cocycles(f):
        e = ext.build_extension(c)
        what = rng.choice(("i", "p", "s", "bracket", "P"))
        if what in ("bracket", "P"):
            e2 = replace(e, total=spoil_algebra(rng, e.total, what))
        else:
            e2 = replace(e, **{what: spoil(rng, getattr(e, what))})
        yield ext.check_extension, oracle.check_extension, (e2,)
    for a, g in automorphisms(f):
        # a spoiled bracket need not be antisymmetric, so the pairs (a, b)
        # with b > a are not the whole clause
        if rng.random() < 0.5:
            a, g = spoil_algebra(rng, a, "bracket"), g
        else:
            g = spoil(rng, g)
        yield ext.check_algebra_automorphism, oracle.check_algebra_automorphism, (a, g, "aut")


def homotopy_variants(rng, f):
    structures = [skeletal(r) for r in representation_family(f, random.Random(rng.random()))]
    structures += [skeletal(lie.adjoint_representation(algebras(f)[3]))]
    structures += [hom.crossed_to_strict(crossed(a)) for a in algebras(f)[:3]]
    structures += [kernel_two_term(f)]
    for t, p in structures:
        what = rng.choice(("d", "l2_00", "l2_01", "l3", "P0", "P1", "P2", None))
        if what in ("P0", "P1", "P2"):
            t2, p2 = t, replace(p, **{what: spoil(rng, getattr(p, what))})
        elif what is not None:
            t2, p2 = replace(t, **{what: spoil(rng, getattr(t, what))}), p
        else:
            t2, p2 = t, p
        yield hom.check_two_term, oracle.check_two_term, (t2,)
        yield hom.check_homotopy_averaging, oracle.check_homotopy_averaging, (t2, p2)
        if what != "l3" and what != "P2":
            yield hom.strict_to_crossed, oracle.strict_to_crossed, (t2, p2)


def crossed_variants(rng, f):
    for a in algebras(f)[:3]:
        # with d = 0 every clause up to the Peiffer identity holds
        cm = crossed(a) if rng.random() < 0.8 else replace(
            crossed(a), d=Matrix.zero(f, a.dim, a.dim), rho=Tensor.zero(f, (a.dim,) * 3))
        what = rng.choice(("d", "rho", "g1-bracket", "g1-P", "g0-bracket"))
        if what == "g1-bracket":
            cm = replace(cm, g1=spoil_algebra(rng, cm.g1, "bracket"))
        elif what == "g1-P":
            cm = replace(cm, g1=spoil_algebra(rng, cm.g1, "P"))
        elif what == "g0-bracket":
            cm = replace(cm, g0=spoil_algebra(rng, cm.g0, "bracket"))
        else:
            cm = replace(cm, **{what: spoil(rng, getattr(cm, what))})
        yield hom.check_crossed_module, oracle.check_crossed_module, (cm,)


def split_variants(rng, f):
    """Spoiled sections of split extensions with an abelian kernel: the
    section-bracket clause."""
    a = g2_averaging(f, "proj")
    for k in (1, 2):
        coef = lie.AveragingLieAlgebra(lie.LieAlgebra.abelian(f, k), Matrix.identity(f, k))
        psi = Tensor.zero(f, (a.dim, k, k))
        e = ext.build_extension(ext.NonAbelianCocycle(
            a, coef, AltMap.zero(f, a.dim, 2, k), psi, Matrix.zero(f, k, a.dim)))
        s = spoil(rng, e.s)
        # a section off the splitting fails before any group is enumerated
        if lie.bracket_morphism_mismatch("s", s, e.base.algebra, e.total.algebra) is not None:
            yield ext.check_split_semidirect, oracle.check_split_semidirect, (replace(e, s=s),)


def split_abelian(r):
    """The split extension of r's base by its module, made abelian with Q."""
    f, n, k = r.field, r.dim, r.vdim
    coef = lie.AveragingLieAlgebra(lie.LieAlgebra.abelian(f, k), r.Q)
    return ext.build_extension(ext.NonAbelianCocycle(
        r.base, coef, AltMap.zero(f, n, 2, k), r.psi, Matrix.zero(f, k, n)))


@cache
def compatible_cases(f):
    """(induced representation, compatible pairs) of the abelian extension
    fixtures over f and of split extensions of scrambled representations
    on at most two dimensions: `compatible_pairs` over F_p, the pairs of
    `q_automorphisms` the oracle finds compatible over Q."""
    exts = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "extension*.json"))):
        obj = docs.load_document(path)
        if obj["field"] == f.name:
            exts.append(docs.realize_extension(obj))
    family = representation_family(f, random.Random(7))
    exts += [split_abelian(r) for r in family if r.dim <= 2 and r.vdim <= 2]
    out = []
    for e in exts:
        r = ext.induced_representation(e)
        if f.finite:
            pairs = ext.compatible_pairs(e)
        else:
            pairs = [ext.AutomorphismPair(b, a)
                     for b in q_automorphisms(e.coef) for a in q_automorphisms(e.base)]
            pairs = [x for x in pairs if oracle.check_compatible_pair(x, r)]
        out.append((r, pairs))
    return out


def compatible_variants(rng, f):
    """Compatible pairs with, most of the time, one side spoiled."""
    for r, pairs in compatible_cases(f):
        pair = rng.choice(pairs)
        if rng.random() < 0.8:
            side = rng.choice(("beta", "alpha"))
            pair = replace(pair, **{side: spoil(rng, getattr(pair, side))})
        yield ext.check_compatible_pair, oracle.check_compatible_pair, (pair, r)


# the clauses in the matrix idiom, or with loops over nonzero entries,
# that the spoiled variants of each generator reach
REACHED = {
    "lie_variants": {"antisymmetry", "jacobi", "eq1", "leibniz", "InternalError"},
    "representation_variants": {"psi-homomorphism", "rep-chain-1", "rep-chain-2",
                                "embedding-tensor"},
    "cocycle_variants": {"derivation", "(A)", "(B)", "(C)", "(D)"},
    # None: a transformed cocycle returned by both
    "transform_variants": {None, "beta-invertible", "beta-bracket", "beta-operator",
                           "alpha-invertible", "alpha-bracket"},
    "extension_variants": {"i-morphism-bracket", "p-morphism-bracket", "aut-bracket"},
    "homotopy_variants": {"L1", "L4", "L5", "L6", "L7", "L8", "A2", "A3", "A4"},
    "crossed_variants": {"d-bracket", "rho-derivation", "rho-homomorphism", "cm-anchor",
                         "cm-peiffer"},
    "split_variants": {"section-bracket"},
    "compatible_variants": {None, "compatible"},
}


@pytest.mark.parametrize(
    "variants",
    [lie_variants, representation_variants, cocycle_variants, transform_variants,
     extension_variants, homotopy_variants, crossed_variants, split_variants,
     compatible_variants],
    ids=lambda fn: fn.__name__,
)
def test_spoiled_variants_agree_with_the_oracle(variants):
    rng = random.Random(20240817)
    runs, clauses = {}, set()
    for _ in range(VARIANTS):
        if runs and min(runs.values()) >= VARIANTS:
            break
        for f in FIELDS:
            for lib_fn, oracle_fn, args in variants(rng, f):
                runs[lib_fn.__name__] = runs.get(lib_fn.__name__, 0) + 1
                clauses.add(same(lib_fn, oracle_fn, *args))
    assert runs and min(runs.values()) >= VARIANTS, runs
    assert REACHED[variants.__name__] <= clauses, clauses

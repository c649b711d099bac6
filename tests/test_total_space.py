"""The cocycle check against the paper's theorem, and the empty blocks.

A triple (chi, psi, Phi) is a non-abelian 2-cocycle exactly when g + h
with the twisted bracket and U = [[P, 0], [Phi, Q]] is an averaging Lie
algebra.  Here that total space is written out entry by entry
(`oracle_blocks`) and checked with the loop validators of
`oracle_validators`, so neither side shares code with `check_cocycle`.
The second half runs cocycles and 2-term structures with a
zero-dimensional block through the library, the CLI and the oracles.
"""

import json
import random
from dataclasses import replace

import oracle_blocks
import oracle_validators as oracle
from avglie import cli
from avglie import documents as docs
from avglie import extensions as ext
from avglie import homotopy as hom
from avglie import lie
from avglie.fields import GF, QQ
from avglie.linalg import Matrix, Tensor
from avglie.multilinear import AltMap
from conftest import g2_averaging
from test_oracle_validators import cocycles, same, spoil

FIELDS = (QQ, GF(2), GF(3))
ROUNDS = 80


def total_is_averaging(c):
    """check_lie and check_averaging, in loop form, on the total space
    written out entry by entry."""
    f, dim = c.base.field, c.base.dim + c.coef.dim
    bracket = oracle_blocks.extension_bracket(c.base.algebra, c.coef.algebra, c.psi, c.chi)
    U = oracle_blocks.extension_maps(c.base.P, c.coef.P, c.Phi)[0]
    return bool(oracle.check_lie(f, dim, bracket)) and bool(
        oracle.check_averaging(lie.LieAlgebra(f, dim, bracket), U)
    )


def test_check_cocycle_is_the_theorem():
    """On seeded chi-, psi- and Phi-spoiled variants of valid cocycles over
    valid algebras, check_cocycle passes exactly when the total space is
    an averaging Lie algebra; both outcomes occur often on every field."""
    rng = random.Random(20240817)
    for f in FIELDS:
        valid = cocycles(f)
        seen = {True: 0, False: 0}
        for _ in range(ROUNDS):
            for c in valid:
                what = rng.choice(("chi", "psi", "Phi"))
                c2 = replace(c, **{what: spoil(rng, getattr(c, what))})
                got = ext.check_cocycle(c2).ok
                assert got == total_is_averaging(c2), (f, what, c2)
                seen[got] += 1
        assert min(seen.values()) >= ROUNDS // 4, (f, seen)


# ---------------------------------------------------------------------------
# Zero-dimensional blocks.


def empty_algebra(f):
    return lie.AveragingLieAlgebra.validate(lie.LieAlgebra.abelian(f, 0), Matrix.zero(f, 0, 0))


def zero_cocycle(base, coef):
    f, n, m = base.field, base.dim, coef.dim
    return ext.NonAbelianCocycle(
        base, coef, AltMap.zero(f, n, 2, m), Tensor.zero(f, (n, m, m)), Matrix.zero(f, m, n)
    )


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_cocycles_with_an_empty_side(tmp_path, capsys):
    """(base, coef) dims (0, 0), (0, 2) and (2, 0): the check, the built
    extension and the CLI's check and extension build agree with the
    oracles."""
    for f in FIELDS:
        empty, g2 = empty_algebra(f), g2_averaging(f, "proj")
        for base, coef in ((empty, empty), (empty, g2), (g2, empty)):
            c = zero_cocycle(base, coef)
            assert same(ext.check_cocycle, oracle.check_cocycle, c) is None
            assert ext.check_cocycle(c).ok and total_is_averaging(c)
            e = ext.build_extension(c)
            U, i, p, s = oracle_blocks.extension_maps(base.P, coef.P, c.Phi)
            bracket = oracle_blocks.extension_bracket(base.algebra, coef.algebra, c.psi, c.chi)
            assert (e.total.algebra.bracket, e.total.P, e.i, e.p, e.s) == (bracket, U, i, p, s)
            assert oracle.check_extension(e).ok

            path = tmp_path / f"cocycle_{f.name}_{base.dim}_{coef.dim}.json"
            path.write_text(docs.dump_document(docs.cocycle_doc(c)))
            code, report = run_main(capsys, "check", str(path))
            assert (code, report["status"]) == (0, "pass"), report
            built = tmp_path / "ext.json"
            code, report = run_main(capsys, "extension", "build", str(path), "--output", str(built))
            assert (code, report["data"]["total_dim"]) == (0, base.dim + coef.dim), report
            back = docs.realize_extension(docs.load_document(str(built)))
            assert (back.total, back.i, back.p, back.s) == (e.total, e.i, e.p, e.s)


def two_term(f, n0, n1, bracket, P0):
    t = hom.TwoTermLinf(f, n0, n1, Matrix.zero(f, n0, n1), bracket,
                        Tensor.zero(f, (n0, n1, n1)), AltMap.zero(f, n0, 3, n1))
    p = hom.HomotopyAveraging(P0, Matrix.identity(f, n1), AltMap.zero(f, n0, 2, n1))
    return t, p


def test_two_term_structures_with_an_empty_level():
    """n0 = 0 or n1 = 0: check_homotopy_averaging agrees with the oracle,
    and with n1 = 0 the level-0 clauses still fail where they should."""
    for f in FIELDS:
        g2 = g2_averaging(f, "proj")
        heis = lie.LieAlgebra.from_pairs(f, 3, {(0, 1): (0, 0, 1)})
        not_jacobi = Tensor.build(f, (3, 3, 3), lambda i, j, k: (
            1 if (i, j, k) in ((0, 1, 0), (1, 2, 1), (2, 0, 2)) else
            -1 if (i, j, k) in ((1, 0, 0), (2, 1, 1), (0, 2, 2)) else 0))
        cases = [
            (two_term(f, 0, 2, Tensor.zero(f, (0, 0, 0)), Matrix.zero(f, 0, 0)), None),
            (two_term(f, 0, 0, Tensor.zero(f, (0, 0, 0)), Matrix.zero(f, 0, 0)), None),
            (two_term(f, 2, 0, g2.algebra.bracket, g2.P), None),
            (two_term(f, 2, 0, g2.algebra.bracket, Matrix(f, [[0, 1], [0, 0]])), "A2"),
            (two_term(f, 3, 0, heis.bracket, Matrix.identity(f, 3)), None),
            (two_term(f, 3, 0, not_jacobi, Matrix.zero(f, 3, 3)), "L6"),
        ]
        for (t, p), clause in cases:
            assert same(hom.check_homotopy_averaging, oracle.check_homotopy_averaging, t, p) == clause

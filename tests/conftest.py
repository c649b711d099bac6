"""Shared instance generators.

Random valid objects are built from known-good seeds (adjoint and trivial
representations, doubled algebras, Heisenberg) and scrambled by invertible
base changes on both the algebra and the module, which preserves every
identity exactly.  All randomness is seeded per test for reproducibility.
"""

import os
import random
from fractions import Fraction
from math import prod

import pytest

from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    adjoint_representation,
    trivial_representation,
)
from avglie.linalg import Matrix, Tensor
from oracle_validators import psi_matrices

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# the CLI tests start `python -m avglie.cli`, which imports avglie from src/
# as the test process does (pyproject's pytest `pythonpath`)
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def is_canonical_q(x):
    """The canonical Q form: an int, or a Fraction with denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def densified(m):
    """Whether m's dense entries have been written, read off the slot
    itself so that the reading writes nothing."""
    try:
        Matrix.entries.__get__(m)
    except AttributeError:
        return False
    return True


def rational_scalars():
    return [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def random_scalar(rng, field):
    if field.finite:
        return rng.randrange(field.p)
    return rng.choice(rational_scalars())


def random_matrix(rng, field, rows, cols):
    return Matrix(
        field, [[random_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    )


def random_tensor(rng, field, shape, zero_share=0.0):
    """Random entries of any shape, about zero_share of them zero; no
    identity is asked of them."""
    return Tensor(
        field,
        shape,
        [
            field.zero if rng.random() < zero_share else random_scalar(rng, field)
            for _ in range(prod(shape))
        ],
    )


def random_invertible(rng, field, n):
    """Product of elementary row operations: always invertible, terminates."""
    m = Matrix.identity(field, n)
    for _ in range(3 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        rows = [list(r) for r in m.entries]
        if kind == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1:
            c = random_scalar(rng, field)
            if c == field.zero:
                continue
            rows[i] = [field.mul(c, x) for x in rows[i]]
        elif kind == 2 and i != j:
            c = random_scalar(rng, field)
            rows[i] = [field.add(x, field.mul(c, y)) for x, y in zip(rows[i], rows[j])]
        m = Matrix(field, rows)
    return m


def dense_invertible(rng, field, n):
    """Lower times upper unitriangular with random off-diagonal entries:
    invertible, and dense for random entries."""

    def unitriangular(lower):
        return Matrix(
            field,
            [
                [
                    1 if i == j else random_scalar(rng, field) if (j < i) == lower else 0
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )

    return unitriangular(True).mul(unitriangular(False))


def g2(field):
    """The dim-2 nonabelian algebra: bracket of the first two basis vectors
    is the second."""
    return LieAlgebra.from_pairs(field, 2, {(0, 1): (0, 1)})


def heisenberg(field):
    return LieAlgebra.from_pairs(
        field, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 0, 0), (1, 2): (0, 0, 0)}
    )


def g2_averaging(field, which="proj"):
    P = {
        "proj": Matrix(field, [[1, 0], [0, 0]]),
        "id": Matrix.identity(field, 2),
        "zero": Matrix.zero(field, 2, 2),
    }[which]
    return AveragingLieAlgebra.validate(g2(field), P)


def scramble_averaging(rng, a, invertible=random_invertible):
    """Conjugate the whole structure by a random invertible base change."""
    f = a.field
    S = invertible(rng, f, a.dim)
    Sinv = S.inverse()
    bracket = Tensor.build(
        f,
        (a.dim,) * 3,
        lambda i, j, k: Sinv.matvec(a.algebra.bracket_vec(S.col(i), S.col(j)))[k],
    )
    g = LieAlgebra.validate(f, a.dim, bracket)
    return AveragingLieAlgebra.validate(g, Sinv.mul(a.P).mul(S)), S


def scramble_representation(rng, r, invertible=random_invertible):
    """Base-change both the algebra and the module."""
    f = r.field
    a2, S = scramble_averaging(rng, r.base, invertible)
    T = invertible(rng, f, r.vdim)
    Tinv = T.inverse()
    mats = psi_matrices(f, r.vdim, r.psi)

    def entry(i, b, c):
        acc = Matrix.zero(f, r.vdim, r.vdim)
        for k, coeff in enumerate(S.col(i)):
            if coeff != f.zero:
                acc = acc.add(mats[k].scale(coeff))
        return Tinv.mul(acc).mul(T)[b, c]

    psi = Tensor.build(f, (r.dim, r.vdim, r.vdim), entry)
    Q = Tinv.mul(r.Q).mul(T)
    return Representation.validate(a2, r.vdim, psi, Q)


def representation_family(field, rng):
    """Five valid representations with nonabelian algebras and nonzero
    operators among them; scrambled for variety."""
    out = []
    out.append(adjoint_representation(g2_averaging(field, "proj")))
    out.append(scramble_representation(rng, adjoint_representation(g2_averaging(field, "id"))))
    heis = AveragingLieAlgebra.validate(
        heisenberg(field),
        Matrix(field, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    )
    out.append(adjoint_representation(heis))
    heis_id = AveragingLieAlgebra.validate(heisenberg(field), Matrix.identity(field, 3))
    out.append(
        trivial_representation(heis_id, 1, Matrix(field, [[random_scalar(rng, field)]]))
    )
    abelian = AveragingLieAlgebra.validate(
        LieAlgebra.abelian(field, 2), random_matrix(rng, field, 2, 2)
    )
    out.append(scramble_representation(rng, trivial_representation(abelian, 2)))
    return out


@pytest.fixture
def rng():
    return random.Random(20240817)

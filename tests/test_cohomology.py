import os
import random
import tracemalloc
from itertools import product

import pytest

import oracle_delta
import oracle_linalg
from avglie import cohomology
from avglie.cohomology import (
    MAX_DENSE_CELLS,
    Cochain,
    assemble_delta_matrix,
    cohomology_report,
    delta_alie,
    delta_lie,
    delta_rows,
    is_coboundary,
    is_cocycle,
    partial_leib,
)
from avglie.documents import load_document, realize_averaging, realize_representation
from avglie.errors import DimensionMismatch, FieldTooLarge
from avglie.fields import GF, QQ
from avglie.lie import (
    AveragingLieAlgebra,
    LieAlgebra,
    Representation,
    adjoint_representation,
    trivial_representation,
)
from avglie.linalg import Matrix, Tensor, rank, vec_basis
from avglie.multilinear import AltMap

from conftest import (
    FIXTURES,
    dense_invertible,
    densified,
    fixture_path,
    g2,
    g2_averaging,
    heisenberg,
    is_canonical_q,
    representation_family,
    scramble_representation,
)


def trivial_dim1(field):
    a = AveragingLieAlgebra.validate(
        LieAlgebra.abelian(field, 1), Matrix.zero(field, 1, 1)
    )
    return trivial_representation(a, 1)


def test_delta_lie_abelian_trivial_rep_vanishes(rng):
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 3), Matrix.zero(QQ, 3, 3))
    r = trivial_representation(a, 2)
    for deg in (1, 2, 3):
        c = Cochain.random(rng, QQ, 3, 2, deg)
        assert delta_lie(r, c.f).is_zero()


def test_delta_lie_single_term_example():
    # nonabelian dim 2, trivial coefficients, dual functional of the image
    a = g2_averaging(QQ, "zero")
    r = trivial_representation(a, 1)
    f = AltMap(QQ, 2, 1, 1, [(0,), (1,)])
    out = delta_lie(r, f)
    assert out.eval_basis((0, 1)) == (-1,)


def test_dim1_f_component_has_no_room():
    r = trivial_dim1(QQ)
    c = Cochain.random(random.Random(1), QQ, 1, 1, 1)
    assert delta_alie(r, c).f.comps == ()


def test_partial_leib_vanishes_without_operators(rng):
    # with P = 0 and Q = 0 every group of terms carries P or Q
    a = g2_averaging(QQ, "zero")
    r = trivial_representation(a, 2)
    for arity in (1, 2):
        theta = Tensor(
            QQ,
            (2,) * arity + (2,),
            [rng.randrange(-2, 3) for _ in range(2**arity * 2)],
        )
        assert partial_leib(r, theta).is_zero()


def test_partial_leib_hand_example():
    # dim-1 base, identity operators, trivial action, linear input
    a = AveragingLieAlgebra.validate(
        LieAlgebra.abelian(QQ, 1), Matrix.identity(QQ, 1)
    )
    r = trivial_representation(a, 1, Matrix.identity(QQ, 1))
    theta = Tensor(QQ, (1, 1), [QQ.coerce(5)])
    out = partial_leib(r, theta)
    # groups: psi terms vanish, Q-term contributes (-1)^2 Q psi theta = 0,
    # insertions vanish (abelian); everything cancels
    assert out.is_zero()


def test_delta_alie_zero_and_trivial(rng):
    r = trivial_dim1(QQ)
    z = Cochain.zero(QQ, 1, 1, 2)
    assert delta_alie(r, z).is_zero()
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 2), Matrix.zero(QQ, 2, 2))
    rt = trivial_representation(a, 1)
    for deg in (1, 2, 3):
        c = Cochain.random(rng, QQ, 2, 1, deg)
        assert delta_alie(rt, c).is_zero()


@pytest.mark.parametrize("fieldname", ["Q", "F5"])
def test_delta_squared_is_zero(rng, fieldname):
    field = QQ if fieldname == "Q" else GF(5)
    for r in representation_family(field, rng):
        for deg in (1, 2, 3):
            for _ in range(5):
                c = Cochain.random(rng, field, r.dim, r.vdim, deg)
                assert delta_alie(r, delta_alie(r, c)).is_zero()


def test_delta_matrix_against_direct_evaluation(rng):
    field = GF(5)
    checked = 0
    for r in representation_family(field, rng)[:3]:
        for deg in (1, 2, 3):
            m = assemble_delta_matrix(r, deg)
            for _ in range(12):
                c = Cochain.random(rng, field, r.dim, r.vdim, deg)
                assert m.matvec(c.vectorize()) == delta_alie(r, c).vectorize()
                checked += 1
    assert checked >= 100


def test_delta_matrix_shapes():
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    m1 = assemble_delta_matrix(r, 1)
    assert m1.cols == Cochain.dimension(2, 2, 1) == 2 * 2
    m2 = assemble_delta_matrix(r, 2)
    assert m2.cols == Cochain.dimension(2, 2, 2) == 1 * 2 + 2 * 2
    assert m2.rows == Cochain.dimension(2, 2, 3)
    # successive matrices compose to zero
    assert m2.mul(m1).is_zero()


def test_block_triangularity_f_slot_is_lie_differential(rng):
    r = adjoint_representation(g2_averaging(QQ, "proj"))
    for deg in (1, 2):
        c = Cochain.random(rng, QQ, 2, 2, deg)
        assert delta_alie(r, c).f == delta_lie(r, c.f)


def test_cohomology_dims_trivial_instance():
    r = trivial_dim1(QQ)
    assert cohomology_report(r, 1)["dim_cohomology"] == 1
    assert cohomology_report(r, 2)["dim_cohomology"] == 1


def test_cohomology_zero_module():
    a = g2_averaging(QQ, "proj")
    r = trivial_representation(a, 0)
    for deg in (1, 2, 3):
        assert cohomology_report(r, deg)["dim_cohomology"] == 0


def test_rank_nullity_consistency(rng):
    r = adjoint_representation(g2_averaging(GF(5), "proj"))
    for deg in (1, 2, 3):
        m = assemble_delta_matrix(r, deg)
        prev = rank(assemble_delta_matrix(r, deg - 1)) if deg >= 2 else 0
        dim_c = Cochain.dimension(r.dim, r.vdim, deg)
        assert cohomology_report(r, deg)["dim_cohomology"] == dim_c - rank(m) - prev


def brute_force_cohomology_dim(r, degree):
    """Independent oracle: enumerate every cochain, count cocycles and
    distinct coboundaries, and read the dimension off the group orders."""
    field = r.field
    p = field.p
    dim_n = Cochain.dimension(r.dim, r.vdim, degree)
    dim_prev = Cochain.dimension(r.dim, r.vdim, degree - 1)
    cocycles = 0
    for vec in product(range(p), repeat=dim_n):
        c = Cochain.from_vector(field, r.dim, r.vdim, degree, list(vec))
        if delta_alie(r, c).is_zero():
            cocycles += 1
    images = set()
    for vec in product(range(p), repeat=dim_prev):
        c = Cochain.from_vector(field, r.dim, r.vdim, degree - 1, list(vec))
        images.add(delta_alie(r, c).vectorize())
    kdim = 0
    while p**kdim < cocycles:
        kdim += 1
    assert p**kdim == cocycles
    idim = 0
    while p**idim < len(images):
        idim += 1
    assert p**idim == len(images)
    return kdim - idim


def small_f2_instances(rng):
    """Three seeded valid instances with dims <= 2 over F2."""
    F2 = GF(2)
    picks = []
    abelian1 = AveragingLieAlgebra.validate(
        LieAlgebra.abelian(F2, 1), Matrix(F2, [[1]])
    )
    picks.append(trivial_representation(abelian1, 1, Matrix(F2, [[1]])))
    nonab = AveragingLieAlgebra.validate(g2(F2), Matrix(F2, [[1, 0], [0, 0]]))
    picks.append(
        Representation.validate(
            nonab,
            1,
            Tensor.build(F2, (2, 1, 1), lambda i, a, b: 1 if i == 0 else 0),
            Matrix(F2, [[1]]),
        )
    )
    picks.append(adjoint_representation(nonab))
    return picks


def test_cohomology_against_brute_force_oracle(rng):
    for r in small_f2_instances(rng):
        for degree in (1, 2):
            if Cochain.dimension(r.dim, r.vdim, degree) > 10:
                continue
            got = cohomology_report(r, degree)["dim_cohomology"]
            assert got == brute_force_cohomology_dim(r, degree)


def test_cocycle_and_coboundary():
    r = trivial_dim1(QQ)
    z2 = Cochain.zero(QQ, 1, 1, 2)
    assert is_cocycle(r, z2)
    pre = is_coboundary(r, z2)
    assert pre is not None and pre.is_zero()
    # the trivial instance has vanishing differentials, so nonzero cochains
    # are cocycles but never coboundaries
    nz = Cochain.from_vector(QQ, 1, 1, 2, [QQ.coerce(1)])
    assert is_cocycle(r, nz)
    assert is_coboundary(r, nz) is None


def test_coboundary_round_trip(rng):
    r = adjoint_representation(g2_averaging(GF(5), "proj"))
    for deg in (1, 2):
        for _ in range(10):
            c = Cochain.random(rng, GF(5), 2, 2, deg)
            target = delta_alie(r, c)
            pre = is_coboundary(r, target)
            assert pre is not None
            assert delta_alie(r, pre) == target


def test_coboundary_is_solved_on_sparse_rows(monkeypatch):
    """is_coboundary solves on the rows of the previous differential and
    never writes it densely."""
    assembled = []

    def spy_assemble(r, n):
        assembled.append(assemble_delta_matrix(r, n))
        return assembled[-1]

    monkeypatch.setattr(cohomology, "assemble_delta_matrix", spy_assemble)
    r = dim6_adjoint_module("Q")
    target = delta_alie(r, Cochain.random(random.Random(5), QQ, 6, 6, 2))
    pre = is_coboundary(r, target)
    assert delta_alie(r, pre) == target
    assert len(assembled) == 1 and not densified(assembled[0])


def test_maps_on_other_spaces_are_refused():
    """delta_lie, partial_leib, delta_alie and is_coboundary refuse a map
    or a cochain whose field or spaces are not the representation's; they
    used to drop entries or answer (None for an F3 cochain over Q)."""
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 2), Matrix.identity(QQ, 2))
    r = trivial_representation(a, 1, Matrix.identity(QQ, 1))
    for theta in (
        Tensor(QQ, (3, 1), [1, 2, 3]),
        Tensor(QQ, (2, 2), [1, 2, 3, 4]),
        Tensor(GF(3), (2, 1), [1, 2]),
        Tensor(QQ, (2, 3, 1), [1] * 6),
        Tensor(QQ, (), [1]),
    ):
        with pytest.raises(DimensionMismatch):
            partial_leib(r, theta)
    for f in (
        AltMap.from_flat(QQ, 3, 1, 1, [1, 2, 3]),
        AltMap.from_flat(QQ, 2, 1, 2, [1, 2, 3, 4]),
        AltMap.from_flat(GF(3), 2, 1, 1, [1, 2]),
    ):
        with pytest.raises(DimensionMismatch):
            delta_lie(r, f)
    for c in (
        Cochain.from_vector(GF(3), 2, 1, 2, [1, 0, 0]),
        Cochain.zero(QQ, 3, 1, 2),
        Cochain.zero(QQ, 2, 2, 1),
    ):
        for fn in (delta_alie, is_coboundary):
            with pytest.raises(DimensionMismatch):
                fn(r, c)
    assert partial_leib(r, Tensor(QQ, (2, 1), [1, 2])).shape == (2, 2, 1)
    assert is_coboundary(r, Cochain.zero(QQ, 2, 1, 2)) is not None


def test_degree1_coboundary_edge():
    r = trivial_dim1(QQ)
    nz = Cochain.from_vector(QQ, 1, 1, 1, [QQ.coerce(2)])
    assert is_coboundary(r, nz) is None
    z1 = Cochain.zero(QQ, 1, 1, 1)
    pre = is_coboundary(r, z1)
    assert pre is not None and pre.degree == 0


def test_degree_overflow_is_fine():
    r = trivial_dim1(QQ)
    c = Cochain.random(random.Random(3), QQ, 1, 1, 3)
    out = delta_alie(r, c)
    assert out.degree == 4 and out.f.comps == ()


# ---------------------------------------------------------------------------
# The sparse-row differential against the term-by-term reference.

FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F5": GF(5)}


def oracle_instances(field, rng):
    """The representation family, the fixture representations over their
    own field, and a Heisenberg adjoint module in a dense basis."""
    reps = representation_family(field, rng)
    for name in ("adjoint_rep.json", "zero_module_rep.json"):
        r = realize_representation(load_document(fixture_path(name)))
        if r.field == field:
            reps.append(r)
    heis = AveragingLieAlgebra.validate(
        heisenberg(field), Matrix(field, [[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    )
    reps.append(scramble_representation(rng, adjoint_representation(heis), dense_invertible))
    return reps


@pytest.mark.parametrize("fieldname", sorted(FIELDS))
def test_delta_matrix_columns_match_oracle(rng, fieldname):
    field = FIELDS[fieldname]
    for r in oracle_instances(field, rng):
        for deg in range(5 if r.dim <= 2 else 4):
            m = assemble_delta_matrix(r, deg)
            # born sparse on delta_rows, which store no zeros
            assert all(x for row in m._sparse for x in row.values())
            assert m._sparse == delta_rows(r, deg)
            nin = Cochain.dimension(r.dim, r.vdim, deg)
            assert (m.rows, m.cols) == (Cochain.dimension(r.dim, r.vdim, deg + 1), nin)
            for k in range(nin):
                e = Cochain.from_vector(
                    field, r.dim, r.vdim, deg, vec_basis(field, nin, k)
                )
                assert m.col(k) == oracle_delta.delta_alie(r, e).vectorize()
            assert rank(m) == oracle_linalg.rank(m)


@pytest.mark.parametrize("fieldname", ["Q", "F5"])
def test_differentials_match_oracle_on_random_cochains(rng, fieldname):
    field = FIELDS[fieldname]
    for r in oracle_instances(field, rng):
        for deg in (1, 2, 3):
            for _ in range(3):
                c = Cochain.random(rng, field, r.dim, r.vdim, deg)
                assert delta_alie(r, c) == oracle_delta.delta_alie(r, c)
                assert delta_lie(r, c.f) == oracle_delta.delta_lie(r, c.f)
                if c.theta is not None:
                    assert partial_leib(r, c.theta) == oracle_delta.partial_leib(r, c.theta)


def sparse_product_is_zero(a, b):
    """a * b == 0, summing only products of nonzero entries."""
    f = a.field
    b_rows = [[(j, x) for j, x in enumerate(row) if x != f.zero] for row in b.entries]
    for row in a.entries:
        acc = {}
        for k, x in enumerate(row):
            if x != f.zero:
                for j, y in b_rows[k]:
                    acc[j] = f.add(acc.get(j, f.zero), f.mul(x, y))
        if any(v != f.zero for v in acc.values()):
            return False
    return True


def dim6_adjoint_module(fieldname):
    obj = load_document(fixture_path("double3_P.json"))
    obj["field"] = fieldname
    return adjoint_representation(realize_averaging(obj))


@pytest.mark.parametrize("fieldname", ["Q", "F7"])
def test_degree3_cohomology_of_dim6_adjoint_module(fieldname):
    r = dim6_adjoint_module(fieldname)
    assert cohomology_report(r, 3) == {
        "degree": 3,
        "dim_cochains": 336,
        "rank_delta": 236,
        "rank_delta_prev": 85,
        "dim_cohomology": 15,
    }
    deltas = [assemble_delta_matrix(r, n) for n in (1, 2, 3)]
    for m in deltas:
        assert rank(m) == oracle_linalg.rank(m)
    assert sparse_product_is_zero(deltas[2], deltas[1])


@pytest.mark.parametrize("fieldname", ["Q", "F7"])
def test_degree2_cohomology_of_dim6_module_in_a_dense_basis(rng, fieldname):
    """A dense change of basis leaves rank little sparsity to order its
    lines by; the report is invariant under it, so it must equal the
    sparse-basis one."""
    expected = {
        "degree": 2,
        "dim_cochains": 126,
        "rank_delta": 85,
        "rank_delta_prev": 32,
        "dim_cohomology": 9,
    }
    r = dim6_adjoint_module(fieldname)
    assert cohomology_report(r, 2) == expected
    dense = scramble_representation(rng, r, dense_invertible)
    assert cohomology_report(dense, 2) == expected


def test_degree4_cohomology_of_dim6_adjoint_module_over_f7():
    """delta^4 is 7812 x 1386, beyond the dense oracle; the report is the
    one the dense elimination gave over Q and F7."""
    assert cohomology_report(dim6_adjoint_module("F7"), 4) == {
        "degree": 4,
        "dim_cochains": 1386,
        "rank_delta": 1121,
        "rank_delta_prev": 236,
        "dim_cohomology": 29,
    }


def test_degree4_cohomology_of_dim6_adjoint_module_over_q_stays_sparse():
    """Over Q, delta^4 has 10.8M dense cells; the report holds only its
    sparse rows, so its peak stays far below a dense copy."""
    r = dim6_adjoint_module("Q")
    tracemalloc.start()
    try:
        report = cohomology_report(r, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report["rank_delta"], report["rank_delta_prev"], report["dim_cohomology"]) == (
        1121, 236, 29,
    )
    assert peak < 60 * 2**20


@pytest.mark.parametrize("fieldname, degree", [("Q", 1), ("Q", 3), ("F7", 2)])
def test_report_ranks_exactly_the_matrices_it_assembles(monkeypatch, fieldname, degree):
    """cohomology_report goes through the module globals
    assemble_delta_matrix and rank, once for delta^n and once for
    delta^(n-1) (none in degree 1), and reports the ranks of what it
    assembled; it writes neither matrix densely, and their entries, read
    afterwards, compose to zero."""
    assembled, ranked = {}, []

    def spy_assemble(r, n):
        assembled[n] = assemble_delta_matrix(r, n)
        return assembled[n]

    def spy_rank(m):
        ranked.append((m, rank(m)))
        return ranked[-1][1]

    monkeypatch.setattr(cohomology, "assemble_delta_matrix", spy_assemble)
    monkeypatch.setattr(cohomology, "rank", spy_rank)
    report = cohomology_report(dim6_adjoint_module(fieldname), degree)
    degrees = [degree, degree - 1] if degree >= 2 else [degree]
    assert sorted(assembled) == sorted(degrees) and len(ranked) == len(degrees)
    rank_of = {n: next(k for m, k in ranked if m is assembled[n]) for n in degrees}
    assert report["rank_delta"] == rank_of[degree]
    assert report["rank_delta_prev"] == rank_of.get(degree - 1, 0)
    assert not any(densified(m) for m in assembled.values())
    if degree >= 2:
        assert sparse_product_is_zero(assembled[degree], assembled[degree - 1])


def test_cohomology_budget_refuses_before_assembly(monkeypatch):
    def no_assembly(r, degree):
        raise AssertionError("assembly started")

    monkeypatch.setattr(cohomology, "assemble_delta_matrix", no_assembly)
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 8), Matrix.zero(QQ, 8, 8))
    r = trivial_representation(a, 8)
    cells = Cochain.dimension(8, 8, 5) * Cochain.dimension(8, 8, 4)
    assert cells > MAX_DENSE_CELLS
    with pytest.raises(FieldTooLarge, match=str(cells)):
        cohomology_report(r, 4)
    # degree 4 on a dim-6 adjoint module stays within the budget
    assert Cochain.dimension(6, 6, 5) * Cochain.dimension(6, 6, 4) <= MAX_DENSE_CELLS


def test_cochain_dimension_counts_without_listing_tuples():
    # listing the 5-subsets of 80 indices would take gigabytes
    assert Cochain.dimension(80, 1, 5) == 24_040_016 + 80**4
    vec = list(range(Cochain.dimension(3, 2, 2)))
    assert Cochain.from_vector(QQ, 3, 2, 2, vec).vectorize() == tuple(vec)


def test_cochain_refuses_components_of_the_wrong_shape():
    """A component on other spaces than the cochain's is refused: it would
    vectorize to the wrong length (9 coordinates where C^2 has 3) and
    could pass for a cocycle."""
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 2), Matrix.identity(QQ, 2))
    r = trivial_representation(a, 1)
    good_f, good_theta = AltMap.zero(QQ, 2, 2, 1), Tensor.zero(QQ, (2, 1))
    c = Cochain(QQ, 2, 1, 2, good_f, good_theta)
    assert len(c.vectorize()) == Cochain.dimension(2, 1, 2) == 3 and is_cocycle(r, c)
    for f, theta in (
        (AltMap.zero(QQ, 3, 2, 1), Tensor.zero(QQ, (3, 1))),
        (AltMap.zero(QQ, 3, 2, 1), good_theta),
        (AltMap.zero(QQ, 2, 2, 2), good_theta),
        (AltMap.zero(GF(3), 2, 2, 1), good_theta),
        (good_f, Tensor.zero(QQ, (3, 1))),
        (good_f, Tensor.zero(QQ, (2, 2))),
        (good_f, Tensor.zero(QQ, (2, 2, 1))),
        (good_f, Tensor.zero(GF(3), (2, 1))),
        (good_f, good_f),
        (good_theta, good_theta),
    ):
        with pytest.raises(DimensionMismatch):
            Cochain(QQ, 2, 1, 2, f, theta)
    with pytest.raises(DimensionMismatch):
        Cochain(QQ, 2, 1, 1, AltMap.zero(QQ, 3, 1, 1), None)


def test_large_abelian_module_is_validated_and_refused_quickly():
    """Validating a dim-50 abelian module visits only nonzero structure
    constants, and the budget counts cochains without listing them."""
    a = AveragingLieAlgebra.validate(LieAlgebra.abelian(QQ, 50), Matrix.zero(QQ, 50, 50))
    r = trivial_representation(a, 1)
    cells = Cochain.dimension(50, 1, 5) * Cochain.dimension(50, 1, 4)
    with pytest.raises(FieldTooLarge, match=str(cells)):
        cohomology_report(r, 4)


def test_q_delta_matrices_hold_only_canonical_scalars():
    """The differentials of the Q cohomology fixtures, the representation
    documents and the adjoint modules of the averaging documents, hold only
    ints and Fractions with denominator > 1."""
    modules = []
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".json"):
            continue
        obj = load_document(fixture_path(name))
        if obj["field"] == "Q" and obj["kind"] == "representation":
            modules.append(realize_representation(obj))
        elif obj["field"] == "Q" and obj["kind"] == "averaging_lie_algebra":
            modules.append(adjoint_representation(realize_averaging(obj)))
    assert len(modules) == 7
    for r in modules:
        for degree in (1, 2, 3):
            m = assemble_delta_matrix(r, degree)
            assert all(is_canonical_q(x) for x in m.flat()), (r.dim, degree)

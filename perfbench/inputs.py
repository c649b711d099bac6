"""Seeded inputs for the benchmark workloads.

Every document is written with avglie's canonical emitter, so the same
seed gives byte-identical files.  Files go to the run's own work
directory, never to fixtures/.

Changes of basis are a fixed dense matrix composed with a seeded signed
permutation.  Every seed therefore gets a different basis, while the
number and size of the nonzero structure constants, which set the cost of
assembly and of the automorphism checks, stay the same from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Unimodular over Z (det = -1), entries in {-1, 0, 1}.  It turns double2,
# whose degree-2 matrix has 78 nonzeros, into an isomorphic algebra whose
# degree-2 matrix has 652.
DENSE_Z4 = ((-1, 0, -1, 1), (1, 0, 0, -1), (0, 0, 1, 1), (0, 1, 1, -1))
# Invertible scrambles for the automorphism searches.
DENSE_F2_4 = ((1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 0, 1, 1))
DENSE_F3_3 = ((1, 1, 2), (0, 1, 1), (2, 0, 1))
DENSE_F2_3 = ((1, 1, 1), (0, 1, 1), (1, 0, 1))
DENSE_F2_2 = ((1, 1), (0, 1))

# Cohomology jobs: name -> (input file, degree, file holding the basis
# before scrambling).  The oracle file gives the pinned answer.
COHOMOLOGY_JOBS = {
    "dim6_q_d2": ("dim6_q.json", 2, "dim6_q.json"),
    "dim6_f7_d2": ("dim6_f7.json", 2, "dim6_f7.json"),
    "sparse4_q_d3": ("sparse4_q.json", 3, "sparse4_q.json"),
    "dense4_q_d3": ("dense4_q.json", 3, "sparse4_q.json"),
}
# The self-test's tiny run: the same documents one degree lower.
COHOMOLOGY_TINY = {
    "dim6_q_d1": ("dim6_q.json", 1, "dim6_q.json"),
    "dim6_f7_d1": ("dim6_f7.json", 1, "dim6_f7.json"),
    "sparse4_q_d2": ("sparse4_q.json", 2, "sparse4_q.json"),
    "dense4_q_d2": ("dense4_q.json", 2, "sparse4_q.json"),
}


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def write_doc(lib, workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lib.documents.dump_document(doc))
    return path


def signed_permutation(lib, rng, field, n):
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = signs[j]
    return lib.linalg.Matrix(field, rows)


def seeded_basis(lib, rng, field, dense):
    """The fixed dense change of basis times a seeded signed permutation."""
    base = lib.linalg.Matrix(field, [list(r) for r in dense])
    return base.mul(signed_permutation(lib, rng, field, len(dense)))


def change_basis(lib, a, B):
    """The averaging algebra `a` written in the basis of B's columns."""
    f, n = a.field, a.dim
    Binv = B.inverse()
    bracket = lib.linalg.Tensor.build(
        f,
        (n, n, n),
        lambda i, j, k: Binv.matvec(a.algebra.bracket_vec(B.col(i), B.col(j)))[k],
    )
    g = lib.lie.LieAlgebra.validate(f, n, bracket)
    return lib.lie.AveragingLieAlgebra.validate(g, Binv.mul(a.P).mul(B))


def fixture_algebra(lib, root, name, field_tag=None):
    obj = lib.documents.load_document(os.path.join(root, "fixtures", name))
    if field_tag is not None:
        obj = dict(obj, field=field_tag)
    return lib.documents.realize_averaging(obj)


def g2(lib, field):
    return lib.lie.LieAlgebra.from_pairs(field, 2, {(0, 1): (0, 1)})


def heisenberg(lib, field):
    return lib.lie.LieAlgebra.from_pairs(
        field, 3, {(0, 1): (0, 0, 1), (0, 2): (0, 0, 0), (1, 2): (0, 0, 0)}
    )


def adjoint_cocycle(lib, a):
    """The zero cocycle of `a` acting on itself by the adjoint action."""
    f, n = a.field, a.dim
    psi = lib.linalg.Tensor.build(
        f, (n, n, n), lambda i, b, j: a.algebra.bracket.get(i, j, b)
    )
    return lib.extensions.NonAbelianCocycle(
        a, a, lib.multilinear.AltMap.zero(f, n, 2, n), psi, lib.linalg.Matrix.zero(f, n, n)
    )


# ---------------------------------------------------------------------------
# cohomology


def cohomology_inputs(lib, root, workdir, seed):
    rng = rng_for("cohomology", seed)
    adj = lib.lie.adjoint_representation
    rep_doc = lib.documents.representation_doc
    double2 = fixture_algebra(lib, root, "double2.json")
    dense = change_basis(lib, double2, seeded_basis(lib, rng, lib.fields.QQ, DENSE_Z4))
    docs = {
        "dim6_q.json": adj(fixture_algebra(lib, root, "double3_P.json")),
        "dim6_f7.json": adj(fixture_algebra(lib, root, "double3_P.json", "F7")),
        "sparse4_q.json": adj(double2),
        "dense4_q.json": adj(dense),
    }
    for name, r in docs.items():
        write_doc(lib, workdir, name, rep_doc(r))


# ---------------------------------------------------------------------------
# automorphism_search


def search_algebras(lib, tiny):
    """name -> (algebra before scrambling, dense scramble) for the searches."""
    F2, F3 = lib.fields.GF(2), lib.fields.GF(3)
    valid = lib.lie.AveragingLieAlgebra.validate
    Matrix = lib.linalg.Matrix
    if tiny:
        return {
            "aut_f2_dim2": (valid(g2(lib, F2), Matrix(F2, [[1, 0], [0, 0]])), DENSE_F2_2),
            "aut_f2_dim3_idP": (valid(heisenberg(lib, F2), Matrix.identity(F2, 3)), DENSE_F2_3),
        }
    doubled, ops = lib.lie.double_construction(g2(lib, F2), 2)
    return {
        "aut_f2_dim4": (valid(doubled, ops[0]), DENSE_F2_4),
        "aut_f3_dim3_idP": (valid(heisenberg(lib, F3), Matrix.identity(F3, 3)), DENSE_F3_3),
    }


def search_extension(lib, tiny):
    """name -> extension whose automorphisms the extension job enumerates."""
    F2 = lib.fields.GF(2)
    if tiny:
        a = lib.lie.AveragingLieAlgebra.validate(
            lib.lie.LieAlgebra.abelian(F2, 1), lib.linalg.Matrix(F2, [[0]])
        )
        return "ext_f2_dim2", lib.extensions.build_extension(adjoint_cocycle(lib, a))
    a = lib.lie.AveragingLieAlgebra.validate(g2(lib, F2), lib.linalg.Matrix(F2, [[1, 0], [0, 0]]))
    return "ext_f2_dim4", lib.extensions.build_extension(adjoint_cocycle(lib, a))


def search_inputs(lib, root, workdir, seed, tiny=False):
    rng = rng_for("automorphism_search", seed)
    for name, (a, dense) in search_algebras(lib, tiny).items():
        scrambled = change_basis(lib, a, seeded_basis(lib, rng, a.field, dense))
        write_doc(lib, workdir, name + ".json", lib.documents.averaging_doc(scrambled))
    name, e = search_extension(lib, tiny)
    write_doc(lib, workdir, name + ".json", lib.documents.extension_doc(e))


# ---------------------------------------------------------------------------
# cli_batch


def skeletal_structure(lib):
    """The adjoint representation of g2 viewed as a skeletal 2-term
    structure (d = 0), with its operators."""
    QQ = lib.fields.QQ
    a = lib.lie.AveragingLieAlgebra.validate(g2(lib, QQ), lib.linalg.Matrix(QQ, [[1, 0], [0, 0]]))
    r = lib.lie.adjoint_representation(a)
    l2_01 = lib.linalg.Tensor.build(QQ, (2, 2, 2), lambda i, x, b: r.psi.get(i, b, x))
    t = lib.homotopy.TwoTermLinf(
        QQ, 2, 2, lib.linalg.Matrix.zero(QQ, 2, 2), a.algebra.bracket, l2_01,
        lib.multilinear.AltMap.zero(QQ, 2, 3, 2),
    )
    p = lib.homotopy.HomotopyAveraging(a.P, r.Q, lib.multilinear.AltMap.zero(QQ, 2, 2, 2))
    return t, p


def cocycle_seeds(lib, field):
    valid = lib.lie.AveragingLieAlgebra.validate
    Matrix = lib.linalg.Matrix
    proj = valid(g2(lib, field), Matrix(field, [[1, 0], [0, 0]]))
    ident = valid(g2(lib, field), Matrix.identity(field, 2))
    r = lib.lie.adjoint_representation(proj)
    coef = valid(lib.lie.LieAlgebra.abelian(field, 2), r.Q)
    rep_cocycle = lib.extensions.NonAbelianCocycle(
        proj, coef, lib.multilinear.AltMap.zero(field, 2, 2, 2), r.psi,
        Matrix.zero(field, 2, 2),
    )
    return [adjoint_cocycle(lib, proj), adjoint_cocycle(lib, ident), rep_cocycle]


def random_scalar(rng, field):
    """A plain int: in [0, p) over F_p, in [-3, 3] over Q."""
    if field.finite:
        return rng.randrange(field.p)
    return rng.randint(-3, 3)


# Degrees of the pinned differentials of the cli_batch cochain complex.
DELTA_DEGREES = (1, 2, 3)


def cochain_representation(lib, field):
    """The adjoint representation of g2 with P = diag(1, 0), on which the
    seeded cochains of cli_batch live."""
    a = lib.lie.AveragingLieAlgebra.validate(
        g2(lib, field), lib.linalg.Matrix(field, [[1, 0], [0, 0]])
    )
    return lib.lie.adjoint_representation(a)


def pinned_delta(field, expected, degree):
    """The matrix of delta^degree of that representation, as pinned in
    expected.json, with Fraction entries over Q and int entries over F_p."""
    rows = expected["cli_batch_delta"][field.name][str(degree)]
    scalar = int if field.finite else Fraction
    return [[scalar(x) for x in row] for row in rows]


def apply_delta(field, m, vec):
    """m * vec in plain Python arithmetic, independent of avglie."""
    out = [sum(a * x for a, x in zip(row, vec)) for row in m]
    return [x % field.p for x in out] if field.finite else out


def cli_inputs(lib, root, workdir, seed, expected, tiny=False):
    """Seeded cochains and non-abelian cocycles, plus the fixed skeletal
    structure.  Writes manifest.json with what each document should give.

    Each cochain is a seeded random vector, or, for every second one of
    degree >= 2, the pinned previous differential applied to one.  Whether
    it is a cocycle is read off the pinned differentials, so the check does
    not rest on the code it checks."""
    rng = rng_for("cli_batch", seed)
    docs = lib.documents
    coh = lib.cohomology
    t, p = skeletal_structure(lib)
    write_doc(lib, workdir, "skeletal.json", docs.two_term_doc(t, p))
    _, r3, c3 = lib.homotopy.skeletal_to_triple(t, p)
    write_doc(lib, workdir, "cocycle3.json", docs.cochain_doc(r3, c3))

    manifest = {"cochains": {}, "cocycles": []}
    per_degree = 1 if tiny else 3
    for field in (lib.fields.QQ, lib.fields.GF(3)):
        r = cochain_representation(lib, field)
        for degree in DELTA_DEGREES:
            delta = pinned_delta(field, expected, degree)
            for k in range(per_degree):
                if degree >= 2 and k % 2 == 1:
                    prev = pinned_delta(field, expected, degree - 1)
                    vec = apply_delta(
                        field, prev, [random_scalar(rng, field) for _ in prev[0]]
                    )
                else:
                    vec = [random_scalar(rng, field) for _ in delta[0]]
                c = coh.Cochain.from_vector(
                    field, r.dim, r.vdim, degree, [field.coerce(x) for x in vec]
                )
                name = f"cochain_{field.name}_d{degree}_{k}.json"
                write_doc(lib, workdir, name, docs.cochain_doc(r, c))
                manifest["cochains"][name] = not any(apply_delta(field, delta, vec))

    count = 2 if tiny else 16
    fields = (lib.fields.GF(2), lib.fields.GF(3), lib.fields.QQ)
    for k in range(count):
        field = fields[k % len(fields)]
        seed_cocycle = rng.choice(cocycle_seeds(lib, field))
        e = lib.extensions.build_extension(seed_cocycle)
        mu = lib.linalg.Matrix(
            field,
            [[random_scalar(rng, field) for _ in range(seed_cocycle.base.dim)]
             for _ in range(seed_cocycle.coef.dim)],
        )
        c = lib.extensions.extract_cocycle(e, lib.extensions.perturbed_section(e, mu))
        name = f"cocycle_{k}.json"
        write_doc(lib, workdir, name, docs.cocycle_doc(c))
        ident = lib.extensions.AutomorphismPair(
            lib.linalg.Matrix.identity(field, c.coef.dim),
            lib.linalg.Matrix.identity(field, c.base.dim),
        )
        write_doc(lib, workdir, f"pair_{k}.json", docs.pair_doc(c.base, c.coef, ident))
        manifest["cocycles"].append(name)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate(lib, workload, root, workdir, seed, expected, tiny=False):
    """Write the inputs of one workload for one seed into workdir;
    `expected` is the content of expected.json."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "cohomology":
        cohomology_inputs(lib, root, workdir, seed)
    elif workload == "automorphism_search":
        search_inputs(lib, root, workdir, seed, tiny)
    elif workload == "cli_batch":
        cli_inputs(lib, root, workdir, seed, expected, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")

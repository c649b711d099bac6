"""File format for every object kind: one self-describing JSON schema.

All scalars are strings in the exact text form of the declared field
("-3/2" over Q, a decimal residue over F_p).  Linear data is written as
{"shape": [...], "entries": [...]} in row-major order; alternating maps
as {"arity": k, "dim": n, "vdim": m, "entries": [...]} on increasing
index tuples.  Emission is canonical (sorted keys, two-space indent), so
fixtures diff cleanly and reports are byte-stable.
"""

from __future__ import annotations

import json
from math import comb, prod

from .cohomology import Cochain
from .errors import ParseError
from .extensions import AutomorphismPair, ExtensionData, NonAbelianCocycle
from .fields import Field, field_from_string
from .homotopy import CrossedModule, HomotopyAveraging, TwoTermLinf
from .lie import AveragingLieAlgebra, LieAlgebra, Representation
from .linalg import Matrix, Tensor
from .multilinear import AltMap

# ---------------------------------------------------------------------------
# Low-level pieces.


def _want(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{kind}: missing key {key!r}")
    return obj[key]


def _is_nat(x):
    # bool is a subclass of int, but JSON true and false are not numbers
    return type(x) is int and x >= 0


def _natural(obj, key, kind):
    val = _want(obj, key, kind)
    if not _is_nat(val):
        raise ParseError(f"{kind}: {key} must be a natural")
    return val


def _nat_list(val, kind, key):
    if not isinstance(val, list) or not all(_is_nat(x) for x in val):
        raise ParseError(f"{kind}: {key} must be a list of naturals")
    return val


def _scalars(field: Field, val, kind, key, want_len):
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise ParseError(f"{kind}: {key}.entries must be a list of scalar strings")
    if len(val) != want_len:
        raise ParseError(
            f"{kind}: {key} wants {want_len} entries, document has {len(val)}"
        )
    try:
        return [field.parse(x) for x in val]
    except ParseError as exc:
        raise ParseError(f"{kind}: {key}: {exc}") from exc


def parse_matrix(field, obj, kind, key, rows=None, cols=None) -> Matrix:
    shape = _nat_list(_want(obj, "shape", kind), kind, f"{key}.shape")
    if len(shape) != 2:
        raise ParseError(f"{kind}: {key} must be 2-dimensional")
    if rows is not None and shape[0] != rows:
        raise ParseError(f"{kind}: {key} wants {rows} rows, document has {shape[0]}")
    if cols is not None and shape[1] != cols:
        raise ParseError(f"{kind}: {key} wants {cols} cols, document has {shape[1]}")
    flat = _scalars(field, _want(obj, "entries", kind), kind, key, shape[0] * shape[1])
    return Matrix.from_flat(field, shape[0], shape[1], flat)


def parse_tensor(field, obj, kind, key, shape=None) -> Tensor:
    got = tuple(_nat_list(_want(obj, "shape", kind), kind, f"{key}.shape"))
    if shape is not None and got != tuple(shape):
        raise ParseError(
            f"{kind}: {key} wants shape {tuple(shape)}, document has {got}"
        )
    flat = _scalars(
        field, _want(obj, "entries", kind), kind, key, prod(got, start=1)
    )
    return Tensor._of(field, got, flat)


def parse_altmap(field, obj, kind, key, dim, arity, vdim) -> AltMap:
    for name, want in (("arity", arity), ("dim", dim), ("vdim", vdim)):
        val = _want(obj, name, kind)
        if type(val) is not int or val != want:
            raise ParseError(f"{kind}: {key}.{name} must be {want}, got {val}")
    flat = _scalars(
        field, _want(obj, "entries", kind), kind, key, comb(dim, arity) * vdim
    )
    return AltMap.from_flat(field, dim, arity, vdim, flat)


def matrix_doc(m: Matrix):
    f = m.field
    return {
        "shape": [m.rows, m.cols],
        "entries": [f.format(x) for x in m.flat()],
    }


def tensor_doc(t: Tensor):
    f = t.field
    return {"shape": list(t.shape), "entries": [f.format(x) for x in t.entries]}


def altmap_doc(a: AltMap):
    f = a.field
    return {
        "arity": a.arity,
        "dim": a.dim,
        "vdim": a.vdim,
        "entries": [f.format(x) for x in a.flat()],
    }


# ---------------------------------------------------------------------------
# Whole documents.  Parsers return library objects with shapes and scalars
# checked; algebraic laws are validated separately so the CLI can report
# the violated clause instead of refusing to parse.


def _field_of(obj, kind) -> Field:
    tag = _want(obj, "field", kind)
    if not isinstance(tag, str):
        raise ParseError(f"{kind}: field tag must be a string")
    return field_from_string(tag)


def _sub(obj, key, kind, want_kind, field):
    sub = _want(obj, key, kind)
    if not isinstance(sub, dict):
        raise ParseError(f"{kind}: {key} must be an object")
    if sub.get("kind") != want_kind:
        raise ParseError(f"{kind}: {key}.kind must be {want_kind!r}")
    if _field_of(sub, want_kind) != field:
        raise ParseError(f"{kind}: {key} declares a different field")
    return sub


def parse_lie(obj, kind="lie_algebra"):
    field = _field_of(obj, kind)
    dim = _natural(obj, "dim", kind)
    bracket = parse_tensor(field, _want(obj, "bracket", kind), kind, "bracket", (dim,) * 3)
    return field, dim, bracket


def parse_averaging(obj):
    kind = "averaging_lie_algebra"
    field, dim, bracket = parse_lie(obj, kind)
    P = parse_matrix(field, _want(obj, "P", kind), kind, "P", dim, dim)
    return field, dim, bracket, P


def realize_averaging(obj) -> AveragingLieAlgebra:
    field, dim, bracket, P = parse_averaging(obj)
    return AveragingLieAlgebra.validate(LieAlgebra.validate(field, dim, bracket), P)


def parse_representation(obj):
    kind = "representation"
    field = _field_of(obj, kind)
    base = _sub(obj, "base", kind, "averaging_lie_algebra", field)
    vdim = _natural(obj, "vdim", kind)
    dim = _natural(base, "dim", "averaging_lie_algebra")
    psi = parse_tensor(field, _want(obj, "psi", kind), kind, "psi", (dim, vdim, vdim))
    Q = parse_matrix(field, _want(obj, "Q", kind), kind, "Q", vdim, vdim)
    return base, vdim, psi, Q


def realize_representation(obj) -> Representation:
    base, vdim, psi, Q = parse_representation(obj)
    return Representation.validate(realize_averaging(base), vdim, psi, Q)


def parse_cochain(obj):
    kind = "cochain"
    field = _field_of(obj, kind)
    rep = _sub(obj, "representation", kind, "representation", field)
    degree = _want(obj, "degree", kind)
    if type(degree) is not int or degree < 1:
        raise ParseError("cochain: degree must be a positive integer")
    dim = _natural(_want(rep, "base", "representation"), "dim", "averaging_lie_algebra")
    vdim = _natural(rep, "vdim", "representation")
    f = parse_altmap(field, _want(obj, "f", kind), kind, "f", dim, degree, vdim)
    theta = None
    if degree >= 2:
        shape = (dim,) * (degree - 1) + (vdim,)
        theta = parse_tensor(field, _want(obj, "theta", kind), kind, "theta", shape)
    elif obj.get("theta") is not None:
        raise ParseError("cochain: degree-1 cochains carry no theta")
    return rep, field, dim, vdim, degree, f, theta


def realize_cochain(obj):
    rep, field, dim, vdim, degree, f, theta = parse_cochain(obj)
    return realize_representation(rep), Cochain(field, dim, vdim, degree, f, theta)


def parse_cocycle(obj):
    kind = "nonabelian_cocycle"
    field = _field_of(obj, kind)
    base = _sub(obj, "base", kind, "averaging_lie_algebra", field)
    coef = _sub(obj, "coef", kind, "averaging_lie_algebra", field)
    n = _natural(base, "dim", "averaging_lie_algebra")
    m = _natural(coef, "dim", "averaging_lie_algebra")
    chi = parse_altmap(field, _want(obj, "chi", kind), kind, "chi", n, 2, m)
    psi = parse_tensor(field, _want(obj, "psi", kind), kind, "psi", (n, m, m))
    Phi = parse_matrix(field, _want(obj, "Phi", kind), kind, "Phi", m, n)
    return base, coef, chi, psi, Phi


def realize_cocycle(obj) -> NonAbelianCocycle:
    base, coef, chi, psi, Phi = parse_cocycle(obj)
    return NonAbelianCocycle.validate(
        realize_averaging(base), realize_averaging(coef), chi, psi, Phi
    )


def parse_extension(obj):
    kind = "extension"
    field = _field_of(obj, kind)
    base = _sub(obj, "base", kind, "averaging_lie_algebra", field)
    coef = _sub(obj, "coef", kind, "averaging_lie_algebra", field)
    total = _sub(obj, "total", kind, "averaging_lie_algebra", field)
    n = _natural(base, "dim", "averaging_lie_algebra")
    m = _natural(coef, "dim", "averaging_lie_algebra")
    dim = _natural(total, "dim", "averaging_lie_algebra")
    i = parse_matrix(field, _want(obj, "i", kind), kind, "i", dim, m)
    p = parse_matrix(field, _want(obj, "p", kind), kind, "p", n, dim)
    s = None
    if obj.get("s") is not None:
        s = parse_matrix(field, obj["s"], kind, "s", dim, n)
    return base, coef, total, i, p, s


def realize_extension(obj) -> ExtensionData:
    base, coef, total, i, p, s = parse_extension(obj)
    return ExtensionData.validate(
        realize_averaging(base), realize_averaging(coef), realize_averaging(total), i, p, s
    )


def parse_pair(obj):
    kind = "automorphism_pair"
    field = _field_of(obj, kind)
    base = _sub(obj, "base", kind, "averaging_lie_algebra", field)
    coef = _sub(obj, "coef", kind, "averaging_lie_algebra", field)
    n = _natural(base, "dim", "averaging_lie_algebra")
    m = _natural(coef, "dim", "averaging_lie_algebra")
    beta = parse_matrix(field, _want(obj, "beta", kind), kind, "beta", m, m)
    alpha = parse_matrix(field, _want(obj, "alpha", kind), kind, "alpha", n, n)
    return base, coef, AutomorphismPair(beta, alpha)


def parse_two_term(obj):
    kind = "two_term"
    field = _field_of(obj, kind)
    dims = _nat_list(_want(obj, "dims", kind), kind, "dims")
    if len(dims) != 2:
        raise ParseError("two_term: dims must be [n0, n1]")
    n0, n1 = dims
    d = parse_matrix(field, _want(obj, "d", kind), kind, "d", n0, n1)
    l2_00 = parse_tensor(field, _want(obj, "l2_00", kind), kind, "l2_00", (n0,) * 3)
    l2_01 = parse_tensor(field, _want(obj, "l2_01", kind), kind, "l2_01", (n0, n1, n1))
    l3 = parse_altmap(field, _want(obj, "l3", kind), kind, "l3", n0, 3, n1)
    t = TwoTermLinf(field, n0, n1, d, l2_00, l2_01, l3)
    have = [obj.get(k) is not None for k in ("P0", "P1", "P2")]
    if any(have) and not all(have):
        raise ParseError("two_term: P0, P1, P2 must be given together")
    p = None
    if all(have):
        P0 = parse_matrix(field, obj["P0"], kind, "P0", n0, n0)
        P1 = parse_matrix(field, obj["P1"], kind, "P1", n1, n1)
        P2 = parse_altmap(field, obj["P2"], kind, "P2", n0, 2, n1)
        p = HomotopyAveraging(P0, P1, P2)
    return t, p


def parse_crossed(obj):
    kind = "crossed_module"
    field = _field_of(obj, kind)
    g0 = _sub(obj, "g0", kind, "averaging_lie_algebra", field)
    g1 = _sub(obj, "g1", kind, "averaging_lie_algebra", field)
    n0 = _natural(g0, "dim", "averaging_lie_algebra")
    n1 = _natural(g1, "dim", "averaging_lie_algebra")
    d = parse_matrix(field, _want(obj, "d", kind), kind, "d", n0, n1)
    rho = parse_tensor(field, _want(obj, "rho", kind), kind, "rho", (n0, n1, n1))
    return g0, g1, d, rho


def realize_crossed(obj) -> CrossedModule:
    g0, g1, d, rho = parse_crossed(obj)
    return CrossedModule(realize_averaging(g1), realize_averaging(g0), d, rho)


def parse_bare_matrix(obj):
    field = _field_of(obj, "matrix")
    return parse_matrix(field, _want(obj, "matrix", "matrix"), "matrix", None, None)


# Every document kind with its parser; a kind missing here is not a document.
PARSERS = {
    "lie_algebra": parse_lie,
    "averaging_lie_algebra": parse_averaging,
    "representation": parse_representation,
    "cochain": parse_cochain,
    "nonabelian_cocycle": parse_cocycle,
    "extension": parse_extension,
    "automorphism_pair": parse_pair,
    "two_term": parse_two_term,
    "crossed_module": parse_crossed,
    "matrix": parse_bare_matrix,
}
KINDS = tuple(PARSERS)
# The sub-documents of each kind, in the order its realize step parses them.
NESTED = {
    "representation": ("base",),
    "cochain": ("representation",),
    "nonabelian_cocycle": ("base", "coef"),
    "extension": ("base", "coef", "total"),
    "automorphism_pair": ("base", "coef"),
    "crossed_module": ("g1", "g0"),
}


def parse_nested(obj):
    """Parse a document, then each sub-document nested in it, depth first:
    every shape and scalar is checked, no algebraic law."""
    PARSERS[obj["kind"]](obj)
    for key in NESTED.get(obj["kind"], ()):
        parse_nested(obj[key])


def load_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError(f"{path}: unknown document kind {kind!r}")
    return obj


def dump_document(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Emitters: library objects back to document dictionaries.


def lie_doc(g: LieAlgebra):
    return {
        "kind": "lie_algebra",
        "field": g.field.name,
        "dim": g.dim,
        "bracket": tensor_doc(g.bracket),
    }


def averaging_doc(a: AveragingLieAlgebra):
    doc = lie_doc(a.algebra)
    doc["kind"] = "averaging_lie_algebra"
    doc["P"] = matrix_doc(a.P)
    return doc


def representation_doc(r: Representation):
    return {
        "kind": "representation",
        "field": r.field.name,
        "base": averaging_doc(r.base),
        "vdim": r.vdim,
        "psi": tensor_doc(r.psi),
        "Q": matrix_doc(r.Q),
    }


def cochain_doc(r: Representation, c: Cochain):
    return {
        "kind": "cochain",
        "field": c.field.name,
        "representation": representation_doc(r),
        "degree": c.degree,
        "f": altmap_doc(c.f),
        "theta": None if c.theta is None else tensor_doc(c.theta),
    }


def cocycle_doc(c: NonAbelianCocycle):
    return {
        "kind": "nonabelian_cocycle",
        "field": c.base.field.name,
        "base": averaging_doc(c.base),
        "coef": averaging_doc(c.coef),
        "chi": altmap_doc(c.chi),
        "psi": tensor_doc(c.psi),
        "Phi": matrix_doc(c.Phi),
    }


def extension_doc(e: ExtensionData):
    return {
        "kind": "extension",
        "field": e.total.field.name,
        "base": averaging_doc(e.base),
        "coef": averaging_doc(e.coef),
        "total": averaging_doc(e.total),
        "i": matrix_doc(e.i),
        "p": matrix_doc(e.p),
        "s": matrix_doc(e.s) if e.s is not None else None,
    }


def pair_doc(base: AveragingLieAlgebra, coef: AveragingLieAlgebra, pair: AutomorphismPair):
    return {
        "kind": "automorphism_pair",
        "field": base.field.name,
        "base": averaging_doc(base),
        "coef": averaging_doc(coef),
        "beta": matrix_doc(pair.beta),
        "alpha": matrix_doc(pair.alpha),
    }


def two_term_doc(t: TwoTermLinf, p: HomotopyAveraging | None = None):
    doc = {
        "kind": "two_term",
        "field": t.field.name,
        "dims": [t.n0, t.n1],
        "d": matrix_doc(t.d),
        "l2_00": tensor_doc(t.l2_00),
        "l2_01": tensor_doc(t.l2_01),
        "l3": altmap_doc(t.l3),
        "P0": None,
        "P1": None,
        "P2": None,
    }
    if p is not None:
        doc["P0"] = matrix_doc(p.P0)
        doc["P1"] = matrix_doc(p.P1)
        doc["P2"] = altmap_doc(p.P2)
    return doc


def crossed_doc(c: CrossedModule):
    return {
        "kind": "crossed_module",
        "field": c.g0.field.name,
        "g0": averaging_doc(c.g0),
        "g1": averaging_doc(c.g1),
        "d": matrix_doc(c.d),
        "rho": tensor_doc(c.rho),
    }


def bare_matrix_doc(m: Matrix):
    return {"kind": "matrix", "field": m.field.name, "matrix": matrix_doc(m)}

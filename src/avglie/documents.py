"""File format for every object kind: one self-describing JSON schema.

All scalars are strings in the exact text form of the declared field
("-3/2" over Q, a decimal residue over F_p).  Linear data is written as
{"shape": [...], "entries": [...]} in row-major order; alternating maps
as {"arity": k, "dim": n, "vdim": m, "entries": [...]} on increasing
index tuples.  Emission is canonical (sorted keys, two-space indent), so
fixtures diff cleanly and reports are byte-stable.

`SCHEMAS` states each kind once: its keys in the order they are read,
each with its type and shape.  One walker reads every kind by it, and
each `parse_*` is a view of the values the walker returns.  One entry
of `OBJECTS` per kind builds its object from those values and names the
laws the object must satisfy: `check` reports them, `realize_*` requires
them.
"""

from __future__ import annotations

import json
from math import comb, prod
from operator import itemgetter

from .cohomology import Cochain, is_cocycle
from .errors import InternalError, ParseError, Verdict
from .extensions import (AutomorphismPair, ExtensionData, NonAbelianCocycle,
                         check_automorphism_pair, check_cocycle, check_extension)
from .fields import Field, field_from_string
from .homotopy import (CrossedModule, HomotopyAveraging, TwoTermLinf, check_crossed_module,
                       check_homotopy_averaging, check_two_term, is_skeletal, is_strict)
from .lie import (AveragingLieAlgebra, LieAlgebra, Representation, check_averaging, check_lie,
                  check_representation)
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
        raise ParseError(f"{kind}: {key} wants {want_len} entries, document has {len(val)}")
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


def parse_tensor(field, obj, kind, key, *shape) -> Tensor:
    got = tuple(_nat_list(_want(obj, "shape", kind), kind, f"{key}.shape"))
    if shape and got != shape:
        raise ParseError(f"{kind}: {key} wants shape {shape}, document has {got}")
    flat = _scalars(field, _want(obj, "entries", kind), kind, key, prod(got, start=1))
    return Tensor._of(field, got, flat)


def parse_altmap(field, obj, kind, key, dim, arity, vdim) -> AltMap:
    for name, want in (("arity", arity), ("dim", dim), ("vdim", vdim)):
        val = _want(obj, name, kind)
        if type(val) is not int or val != want:
            raise ParseError(f"{kind}: {key}.{name} must be {want}, got {val}")
    flat = _scalars(field, _want(obj, "entries", kind), kind, key, comb(dim, arity) * vdim)
    return AltMap.from_flat(field, dim, arity, vdim, flat)


def matrix_doc(m: Matrix):
    return {"shape": [m.rows, m.cols], "entries": [m.field.format(x) for x in m.flat()]}


def tensor_doc(t: Tensor):
    return {"shape": list(t.shape), "entries": [t.field.format(x) for x in t.entries]}


def altmap_doc(a: AltMap):
    entries = [a.field.format(x) for x in a.flat()]
    return {"arity": a.arity, "dim": a.dim, "vdim": a.vdim, "entries": entries}


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


def _degree(obj, field, v):
    """A positive integer."""
    degree = _want(obj, "degree", "cochain")
    if type(degree) is not int or degree < 1:
        raise ParseError("cochain: degree must be a positive integer")
    return degree


def _theta(obj, field, v):
    """A dense tensor of shape (dim,) * (degree - 1) + (vdim,), absent in degree 1."""
    if v["degree"] == 1:
        if obj.get("theta") is not None:
            raise ParseError("cochain: degree-1 cochains carry no theta")
        return None
    shape = (v["dim"],) * (v["degree"] - 1) + (v["vdim"],)
    return parse_tensor(field, _want(obj, "theta", "cochain"), "cochain", "theta", *shape)


def _dims(obj, field, v):
    """The pair [n0, n1], also read as n0 and n1."""
    dims = _nat_list(_want(obj, "dims", "two_term"), "two_term", "dims")
    if len(dims) != 2:
        raise ParseError("two_term: dims must be [n0, n1]")
    v["n0"], v["n1"] = dims
    return dims


def _operators(obj, field, v):
    """P0, once P0, P1 and P2 are known to be given together or not at all."""
    have = [obj.get(k) is not None for k in ("P0", "P1", "P2")]
    if any(have) and not all(have):
        raise ParseError("two_term: P0, P1, P2 must be given together")
    return parse_matrix(field, obj["P0"], "two_term", "P0", v["n0"], v["n0"]) if have[0] else None


# Each kind's keys after its field tag, in the order they are read:
# (key, type, shape).  A type is "nat" (a natural); "mat", "ten" or "alt"
# (a matrix, tensor or alternating map), or "mat?" or "alt?" when it may
# be null; a nested kind; a natural of a nested document, such as
# "coef.dim"; or one of the four rules above.  A shape names earlier keys
# or gives constants: (rows, cols), the tensor's shape or (dim, arity, vdim).
_AVG = "averaging_lie_algebra"
SCHEMAS = {
    "lie_algebra": (("dim", "nat", ()), ("bracket", "ten", ("dim", "dim", "dim"))),
    _AVG: (("dim", "nat", ()), ("bracket", "ten", ("dim", "dim", "dim")),
           ("P", "mat", ("dim", "dim"))),
    "representation": (("base", _AVG, ()), ("vdim", "nat", ()), ("dim", "base.dim", ()),
                       ("psi", "ten", ("dim", "vdim", "vdim")), ("Q", "mat", ("vdim", "vdim"))),
    "cochain": (("representation", "representation", ()), ("degree", _degree, ()),
                ("dim", "representation.base.dim", ()), ("vdim", "representation.vdim", ()),
                ("f", "alt", ("dim", "degree", "vdim")), ("theta", _theta, ())),
    "nonabelian_cocycle": (("base", _AVG, ()), ("coef", _AVG, ()), ("n", "base.dim", ()),
                           ("m", "coef.dim", ()), ("chi", "alt", ("n", 2, "m")),
                           ("psi", "ten", ("n", "m", "m")), ("Phi", "mat", ("m", "n"))),
    "extension": (("base", _AVG, ()), ("coef", _AVG, ()), ("total", _AVG, ()),
                  ("n", "base.dim", ()), ("m", "coef.dim", ()), ("dim", "total.dim", ()),
                  ("i", "mat", ("dim", "m")), ("p", "mat", ("n", "dim")),
                  ("s", "mat?", ("dim", "n"))),
    "automorphism_pair": (("base", _AVG, ()), ("coef", _AVG, ()), ("n", "base.dim", ()),
                          ("m", "coef.dim", ()), ("beta", "mat", ("m", "m")),
                          ("alpha", "mat", ("n", "n"))),
    "two_term": (("dims", _dims, ()), ("d", "mat", ("n0", "n1")),
                 ("l2_00", "ten", ("n0", "n0", "n0")), ("l2_01", "ten", ("n0", "n1", "n1")),
                 ("l3", "alt", ("n0", 3, "n1")), ("P0", _operators, ()),
                 ("P1", "mat?", ("n1", "n1")), ("P2", "alt?", ("n0", 2, "n1"))),
    "crossed_module": (("g0", _AVG, ()), ("g1", _AVG, ()), ("n0", "g0.dim", ()),
                       ("n1", "g1.dim", ()), ("d", "mat", ("n0", "n1")),
                       ("rho", "ten", ("n0", "n1", "n1"))),
    "matrix": (("matrix", "mat", (None, None)),),
}
KINDS = tuple(SCHEMAS)
# The sub-documents of each kind, in the order its realize step parses them.
NESTED = {kind: tuple(k for k, t, _ in entries if t in SCHEMAS)
          for kind, entries in SCHEMAS.items()}
NESTED["crossed_module"] = ("g1", "g0")


def _reader(kind, key, typ, shape):
    """One entry compiled into a function of the document, its field and
    the values read before it, giving the entry's value."""
    if callable(typ):
        return typ
    if typ == "nat":
        return lambda obj, field, v: _natural(obj, key, kind)
    if typ in SCHEMAS:
        return lambda obj, field, v: _sub(obj, key, kind, typ, field)
    if "." in typ:
        first, *hops, last = typ.split(".")
        kinds = [kind]  # the kind of each document on the way down
        for hop in [first, *hops]:
            kinds.append({k: t for k, t, _ in SCHEMAS[kinds[-1]]}[hop])

        def nested_natural(obj, field, v):
            doc = v[first]
            for hop, of in zip(hops, kinds[1:]):
                doc = _want(doc, hop, of)
            return _natural(doc, last, kinds[-1])
        return nested_natural
    parse = {"mat": parse_matrix, "ten": parse_tensor, "alt": parse_altmap}[typ.rstrip("?")]
    if all(type(s) is str for s in shape):
        dims = itemgetter(*shape)
    else:  # constants among the names
        def dims(v):
            return [v[s] if type(s) is str else s for s in shape]
    if typ.endswith("?"):
        return lambda obj, field, v: None if obj.get(key) is None else parse(
            field, obj[key], kind, key, *dims(v))
    return lambda obj, field, v: parse(field, _want(obj, key, kind), kind, key, *dims(v))


_READERS = {kind: [(key, _reader(kind, key, typ, shape)) for key, typ, shape in entries]
            for kind, entries in SCHEMAS.items()}


def _walk(obj, kind):
    """The field and the value of every entry of a document of kind."""
    field = _field_of(obj, kind)
    v = {"field": field}
    for key, read in _READERS[kind]:
        v[key] = read(obj, field, v)
    return v


def _view(kind, *names):
    """The parser of kind that returns the named values."""
    get = itemgetter(*names)
    return lambda obj: get(_walk(obj, kind))


parse_lie = _view("lie_algebra", "field", "dim", "bracket")
parse_averaging = _view(_AVG, "field", "dim", "bracket", "P")
parse_representation = _view("representation", "base", "vdim", "psi", "Q")
parse_cochain = _view("cochain", "representation", "field", "dim", "vdim", "degree", "f", "theta")
parse_cocycle = _view("nonabelian_cocycle", "base", "coef", "chi", "psi", "Phi")
parse_extension = _view("extension", "base", "coef", "total", "i", "p", "s")
parse_crossed = _view("crossed_module", "g0", "g1", "d", "rho")


def parse_pair(obj):
    v = _walk(obj, "automorphism_pair")
    return v["base"], v["coef"], AutomorphismPair(v["beta"], v["alpha"])


def parse_two_term(obj):
    return unchecked("two_term", obj)


def parse_bare_matrix(obj):
    return _walk(obj, "matrix")["matrix"]


# ---------------------------------------------------------------------------
# Objects and their laws.


def _two_term(v):
    t = TwoTermLinf(*[v[k] for k in ("field", "n0", "n1", "d", "l2_00", "l2_01", "l3")])
    return t, None if v["P0"] is None else HomotopyAveraging(v["P0"], v["P1"], v["P2"])


def _two_term_laws(tp):
    t, p = tp
    v, data = check_two_term(t), {"has_operators": p is not None}
    if v:
        data["skeletal"] = is_skeletal(t)
        if p is not None:
            v = check_homotopy_averaging(t, p)
            data["strict"] = is_strict(t, p) if v else None
    return v, data


# kind -> (build, laws).  build makes the kind's object from the walker's
# values, every nested document realized and none of the kind's own laws
# checked; laws gives the verdict on them and the data `check` reports.
OBJECTS = {
    "lie_algebra": (lambda v: LieAlgebra(v["field"], v["dim"], v["bracket"]),
                    lambda g: (check_lie(g.field, g.dim, g.bracket), {})),
    _AVG: (lambda v: AveragingLieAlgebra(LieAlgebra(v["field"], v["dim"], v["bracket"]), v["P"]),
           lambda a: (check_lie(a.field, a.dim, a.algebra.bracket)
                      and check_averaging(a.algebra, a.P), {})),
    "representation": (
        lambda v: Representation(realize_averaging(v["base"]), v["vdim"], v["psi"], v["Q"]),
        lambda r: (check_representation(r.base, r.vdim, r.psi, r.Q, r.sparse_acts), {})),
    "cochain": (
        lambda v: (realize_representation(v["representation"]), Cochain(
            *itemgetter("field", "dim", "vdim", "degree", "f", "theta")(v))),
        lambda rc: (Verdict.passed(), {"degree": rc[1].degree, "is_cocycle": is_cocycle(*rc)})),
    "nonabelian_cocycle": (
        lambda v: NonAbelianCocycle(realize_averaging(v["base"]), realize_averaging(v["coef"]),
                                    v["chi"], v["psi"], v["Phi"]),
        lambda c: (check_cocycle(c), {})),
    "extension": (
        lambda v: ExtensionData(*map(realize_averaging, itemgetter("base", "coef", "total")(v)),
                                v["i"], v["p"], v["s"]),
        lambda e: (check_extension(e), {})),
    "automorphism_pair": (
        lambda v: (realize_averaging(v["base"]), realize_averaging(v["coef"]),
                   AutomorphismPair(v["beta"], v["alpha"])),
        lambda x: (check_automorphism_pair(x[2], x[0], x[1]), {})),
    "two_term": (_two_term, _two_term_laws),
    "crossed_module": (
        lambda v: CrossedModule(realize_averaging(v["g1"]), realize_averaging(v["g0"]),
                                v["d"], v["rho"]),
        lambda c: (check_crossed_module(c), {})),
    "matrix": (itemgetter("matrix"),
               lambda m: (Verdict.passed(), {"shape": [m.rows, m.cols]})),
}


def unchecked(kind, obj):
    """The object of a document of kind, every nested document realized
    and none of the kind's own laws checked."""
    return OBJECTS[kind][0](_walk(obj, kind))


def check(obj):
    """The verdict on a document's laws and the data its report carries.
    A nested document that breaks its laws raises ValidationError."""
    kind = obj["kind"]
    return OBJECTS[kind][1](unchecked(kind, obj))


def _realizer(kind):
    def realize(obj):
        """The document's object with its laws required: a broken law
        raises ValidationError carrying the verdict `check` gives."""
        x = unchecked(kind, obj)
        verdict, _ = OBJECTS[kind][1](x)
        if not verdict.require().notes.get("sides_agree", True):  # as AveragingLieAlgebra.validate
            raise InternalError("left and right averaging checks disagree")
        return x
    return realize


realize_averaging = _realizer(_AVG)
realize_representation = _realizer("representation")
realize_cocycle = _realizer("nonabelian_cocycle")
realize_extension = _realizer("extension")
realize_crossed = _realizer("crossed_module")


def realize_cochain(obj):
    """A cochain has no laws of its own: whether it is a cocycle is data
    `check` reports, which realizing does not compute."""
    return unchecked("cochain", obj)


def parse_nested(obj):
    """Parse a document, then each sub-document nested in it, depth first:
    every shape and scalar is checked, no algebraic law."""
    _walk(obj, obj["kind"])
    for key in NESTED[obj["kind"]]:
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


def _doc(kind, field, **values):
    """A document of kind over field, each matrix, tensor, alternating map
    and averaging Lie algebra among the values written as a document."""
    for key, x in values.items():
        if isinstance(x, Matrix):
            values[key] = matrix_doc(x)
        elif isinstance(x, Tensor):
            values[key] = tensor_doc(x)
        elif isinstance(x, AltMap):
            values[key] = altmap_doc(x)
        elif isinstance(x, AveragingLieAlgebra):
            values[key] = averaging_doc(x)
    return {"kind": kind, "field": field.name, **values}


def lie_doc(g: LieAlgebra):
    return _doc("lie_algebra", g.field, dim=g.dim, bracket=g.bracket)


def averaging_doc(a: AveragingLieAlgebra):
    return _doc(_AVG, a.field, dim=a.dim, bracket=a.algebra.bracket, P=a.P)


def representation_doc(r: Representation):
    return _doc("representation", r.field, base=r.base, vdim=r.vdim, psi=r.psi, Q=r.Q)


def cochain_doc(r: Representation, c: Cochain):
    return _doc("cochain", c.field, representation=representation_doc(r), degree=c.degree,
                f=c.f, theta=c.theta)


def cocycle_doc(c: NonAbelianCocycle):
    return _doc("nonabelian_cocycle", c.base.field, base=c.base, coef=c.coef, chi=c.chi,
                psi=c.psi, Phi=c.Phi)


def extension_doc(e: ExtensionData):
    return _doc("extension", e.total.field, base=e.base, coef=e.coef, total=e.total,
                i=e.i, p=e.p, s=e.s)


def pair_doc(base: AveragingLieAlgebra, coef: AveragingLieAlgebra, pair: AutomorphismPair):
    return _doc("automorphism_pair", base.field, base=base, coef=coef, beta=pair.beta,
                alpha=pair.alpha)


def two_term_doc(t: TwoTermLinf, p: HomotopyAveraging | None = None):
    P0, P1, P2 = (None, None, None) if p is None else (p.P0, p.P1, p.P2)
    return _doc("two_term", t.field, dims=[t.n0, t.n1], d=t.d, l2_00=t.l2_00,
                l2_01=t.l2_01, l3=t.l3, P0=P0, P1=P1, P2=P2)


def crossed_doc(c: CrossedModule):
    return _doc("crossed_module", c.g0.field, g0=c.g0, g1=c.g1, d=c.d, rho=c.rho)


def bare_matrix_doc(m: Matrix):
    return _doc("matrix", m.field, matrix=m)

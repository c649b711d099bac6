"""Command-line front end: validate documents, compute cohomology, build
and audit extensions, decide inducibility, convert homotopy structures.

Structured JSON reports go to stdout; a one-line human summary goes to
stderr.  Exit codes: 0 pass, 1 fail, 2 parse error, 3 indeterminate,
4 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import documents as docs
from .cohomology import cohomology_report, is_cocycle
from .errors import AvgLieError, FieldTooLarge, InternalError, ParseError, ValidationError, Verdict
from .extensions import (
    ExtensionData,
    NonAbelianCocycle,
    abelian_wells,
    audit_round_trip,
    build_extension,
    check_automorphism_pair,
    check_cocycle,
    check_compatible_pair,
    check_extension,
    extract_cocycle,
    induced_representation,
    lift_automorphism,
    wells_class,
)
from .homotopy import (
    check_crossed_module,
    check_homotopy_averaging,
    check_two_term,
    crossed_semidirect,
    crossed_to_strict,
    is_skeletal,
    is_strict,
    skeletal_to_triple,
    strict_to_crossed,
    triple_to_skeletal,
)
from .lie import LieAlgebra, check_averaging, check_lie, check_representation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _witness_json(verdict: Verdict):
    if verdict.witness is None:
        return None
    return verdict.witness.as_strings()


def _clean_notes(notes):
    return {
        k: v for k, v in notes.items() if isinstance(v, (bool, int, str, type(None)))
    }


def _report(status, clause=None, witness=None, notes=None, data=None):
    return {
        "status": status,
        "clause": clause,
        "witness": witness,
        "notes": _clean_notes(notes or {}),
        "data": data or {},
    }


def _emit(report, summary):
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(summary + "\n")


def _finish(report):
    status = report["status"]
    if status == "pass":
        _emit(report, "PASS")
        return EXIT_PASS
    if status == "indeterminate":
        _emit(report, f"INDETERMINATE: {report['notes'].get('reason', '')}")
        return EXIT_INDETERMINATE
    clause = report.get("clause")
    _emit(report, f"FAIL clause={clause}")
    return EXIT_PARSE if clause == "parse-error" else EXIT_FAIL


def _parse_error_report(exc):
    return _report("fail", clause="parse-error", notes={"message": str(exc)})


def _verdict_report(verdict: Verdict, data=None):
    if verdict.ok:
        return _report("pass", notes=verdict.notes, data=data)
    return _report(
        "fail",
        clause=verdict.clause,
        witness=_witness_json(verdict),
        notes=verdict.notes,
        data=data,
    )


def _finish_conversion(out_doc, args, data):
    """Pass report carrying the output document, or written to --output."""
    if args.output:
        text = docs.dump_document(out_doc)
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.output}: {exc.strerror}\n")
            return EXIT_USAGE
        data["output"] = args.output
    else:
        data["document"] = out_doc
    return _finish(_report("pass", data=data))


# ---------------------------------------------------------------------------
# check


def _unchecked_cocycle(obj) -> NonAbelianCocycle:
    """The triple of a cocycle document over its validated algebras, with
    the cocycle clauses not yet checked."""
    base, coef, chi, psi, Phi = docs.parse_cocycle(obj)
    a = docs.realize_averaging(base)
    h = docs.realize_averaging(coef)
    return NonAbelianCocycle(a, h, chi, psi, Phi)


def _check_dispatch(obj):
    """The verdict on a document and the data its report carries."""
    kind = obj["kind"]
    if kind == "lie_algebra":
        return check_lie(*docs.parse_lie(obj)), {}
    if kind == "averaging_lie_algebra":
        field, dim, bracket, P = docs.parse_averaging(obj)
        v = check_lie(field, dim, bracket)
        if not v:
            return v, {}
        return check_averaging(LieAlgebra(field, dim, bracket), P), {}
    if kind == "representation":
        base, vdim, psi, Q = docs.parse_representation(obj)
        a = docs.realize_averaging(base)
        return check_representation(a, vdim, psi, Q), {}
    if kind == "cochain":
        r, c = docs.realize_cochain(obj)
        return Verdict.passed(), {"degree": c.degree, "is_cocycle": is_cocycle(r, c)}
    if kind == "nonabelian_cocycle":
        return check_cocycle(_unchecked_cocycle(obj)), {}
    if kind == "extension":
        *algebras, i, p, s = docs.parse_extension(obj)
        e = ExtensionData(*map(docs.realize_averaging, algebras), i, p, s)
        return check_extension(e), {}
    if kind == "automorphism_pair":
        base, coef, pair = docs.parse_pair(obj)
        a = docs.realize_averaging(base)
        h = docs.realize_averaging(coef)
        return check_automorphism_pair(pair, a, h), {}
    if kind == "two_term":
        t, p = docs.parse_two_term(obj)
        v = check_two_term(t)
        if not v or p is None:
            data = {"has_operators": p is not None}
            if v:
                data["skeletal"] = is_skeletal(t)
            return v, data
        hv = check_homotopy_averaging(t, p)
        data = {
            "has_operators": True,
            "skeletal": is_skeletal(t),
            "strict": is_strict(t, p) if hv else None,
        }
        return hv, data
    if kind == "crossed_module":
        return check_crossed_module(docs.realize_crossed(obj)), {}
    if kind == "matrix":
        m = docs.parse_bare_matrix(obj)
        return Verdict.passed(), {"shape": [m.rows, m.cols]}
    raise ParseError(f"unsupported kind {kind!r}")


def cmd_check(args):
    obj = docs.load_document(args.path)
    if args.field_check:
        # re-parse only: shapes and scalars, no algebraic laws
        docs.parse_nested(obj)
        return _finish(_report("pass", data={"kind": obj["kind"]}))
    verdict, data = _check_dispatch(obj)
    data["kind"] = obj["kind"]
    return _finish(_verdict_report(verdict, data))


# ---------------------------------------------------------------------------
# cohomology


def cmd_cohomology(args):
    obj = docs.load_document(args.path)
    if obj["kind"] != "representation":
        raise ParseError("cohomology needs a representation document")
    r = docs.realize_representation(obj)
    return _finish(_report("pass", data=cohomology_report(r, args.degree)))


# ---------------------------------------------------------------------------
# extension


def _parse_section(obj, e):
    """A section matrix over the extension's field, total dim x base dim."""
    s = docs.parse_bare_matrix(obj)
    if s.field != e.total.field:
        raise ParseError(f"matrix: section over {s.field}, extension over {e.total.field}")
    want, got = (e.total.dim, e.base.dim), (s.rows, s.cols)
    if got != want:
        raise ParseError(f"matrix: section wants shape {want}, document has {got}")
    return s


def cmd_extension(args):
    if args.sub == "build":
        # build_extension checks the cocycle clauses
        e = build_extension(_unchecked_cocycle(docs.load_document(args.path)))
        out = docs.extension_doc(e)
        return _finish_conversion(out, args, {"total_dim": e.total.dim})
    if args.sub == "extract":
        e = docs.realize_extension(docs.load_document(args.path))
        section = None
        if args.section:
            section = _parse_section(docs.load_document(args.section), e)
        c = extract_cocycle(e, section)
        out = docs.cocycle_doc(c)
        data = {"chi_zero": c.chi.is_zero(), "Phi_zero": c.Phi.is_zero()}
        return _finish_conversion(out, args, data)
    if args.sub == "audit":
        e = docs.realize_extension(docs.load_document(args.path))
        v = audit_round_trip(e)
        data = {}
        if v:
            data["round_trip"] = "equivalent"
        return _finish(_verdict_report(v, data))
    raise ParseError(f"unknown extension subcommand {args.sub!r}")


# ---------------------------------------------------------------------------
# wells


def cmd_wells(args):
    e = docs.realize_extension(docs.load_document(args.extension))
    base_doc, coef_doc, pair = docs.parse_pair(docs.load_document(args.pair))
    pbase = docs.realize_averaging(base_doc)
    pcoef = docs.realize_averaging(coef_doc)
    if pbase != e.base or pcoef != e.coef:
        return _finish(
            _report(
                "fail",
                clause="pair-extension-mismatch",
                notes={"message": "pair document algebras differ from the extension"},
            )
        )
    pv = check_automorphism_pair(pair, e.base, e.coef)
    if not pv:
        return _finish(_verdict_report(pv))
    data = {}
    if args.abelian:
        rep = induced_representation(e)
        compatible = bool(check_compatible_pair(pair, rep))
        data["compatible_pair"] = compatible
        if not compatible:
            return _finish(
                _report(
                    "fail",
                    clause="compatible",
                    notes={"message": "pair is not compatible with the action"},
                    data=data,
                )
            )
        cochain, zero = abelian_wells(pair, e)
        data["difference"] = {
            "chi": docs.altmap_doc(cochain.f),
            "Phi": [e.total.field.format(x) for x in cochain.theta.entries],
        }
        data["zero_class"] = zero
        data["inducible"] = zero
        status = "pass" if zero else "fail"
        clause = None if zero else "wells-nonzero"
        if zero and args.lift:
            w = wells_class(pair, e)
            if w.phi is None:  # the abelian class is zero exactly when one exists
                raise InternalError("zero abelian Wells class without an equivalence")
            gamma = lift_automorphism(pair, e, w.phi)
            data["gamma"] = docs.matrix_doc(gamma)
        return _finish(_report(status, clause=clause, data=data))
    w = wells_class(pair, e)
    data["difference"] = {
        "chi": docs.altmap_doc(w.delta_chi),
        "psi": docs.tensor_doc(w.delta_psi),
        "Phi": docs.matrix_doc(w.delta_phi),
    }
    data["inducible"] = w.inducible
    if w.inducible:
        data["phi"] = docs.matrix_doc(w.phi)
        if args.lift:
            gamma = lift_automorphism(pair, e, w.phi)
            data["gamma"] = docs.matrix_doc(gamma)
        return _finish(_report("pass", data=data))
    return _finish(_report("fail", clause="wells-nonzero", data=data))


# ---------------------------------------------------------------------------
# homotopy


def cmd_homotopy(args):
    sub = args.sub
    if sub == "check":
        obj = docs.load_document(args.path)
        verdict, data = _check_dispatch(obj)
        data["kind"] = obj["kind"]
        return _finish(_verdict_report(verdict, data))
    if sub == "skeletal-to-cocycle":
        t, p = docs.parse_two_term(docs.load_document(args.path))
        if p is None:
            raise ParseError("two_term document must carry P0, P1, P2")
        a, r, c = skeletal_to_triple(t, p)
        out = docs.cochain_doc(r, c)
        return _finish_conversion(out, args, {"is_cocycle": True})
    if sub == "cocycle-to-skeletal":
        r, c = docs.realize_cochain(docs.load_document(args.path))
        t, p = triple_to_skeletal(r.base, r, c)
        out = docs.two_term_doc(t, p)
        return _finish_conversion(out, args, {"skeletal": True})
    if sub == "strict-to-crossed":
        t, p = docs.parse_two_term(docs.load_document(args.path))
        if p is None:
            raise ParseError("two_term document must carry P0, P1, P2")
        cm = strict_to_crossed(t, p)
        out = docs.crossed_doc(cm)
        return _finish_conversion(out, args, {"crossed_module": True})
    if sub == "crossed-to-strict":
        cm = docs.realize_crossed(docs.load_document(args.path))
        t, p = crossed_to_strict(cm)
        out = docs.two_term_doc(t, p)
        return _finish_conversion(out, args, {"strict": True})
    if sub == "semidirect":
        cm = docs.realize_crossed(docs.load_document(args.path))
        a = crossed_semidirect(cm)
        out = docs.averaging_doc(a)
        return _finish_conversion(out, args, {"dim": a.dim})
    raise ParseError(f"unknown homotopy subcommand {sub!r}")


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = _Parser(prog="avglie", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    pc = subs.add_parser("check", help="validate a document")
    pc.add_argument("path")
    pc.add_argument(
        "--field-check",
        action="store_true",
        help="re-verify scalar parsing only, skip algebraic laws",
    )

    ph = subs.add_parser("cohomology", help="cohomology dimensions of a representation")
    ph.add_argument("path")
    ph.add_argument("--degree", type=int, required=True)

    pe = subs.add_parser("extension", help="build, extract or audit extensions")
    pe.add_argument("sub", choices=["build", "extract", "audit"])
    pe.add_argument("path")
    pe.add_argument("--section", help="matrix document with a user-supplied section")
    pe.add_argument("--output")

    pw = subs.add_parser("wells", help="inducibility of an automorphism pair")
    pw.add_argument("extension")
    pw.add_argument("pair")
    pw.add_argument("--abelian", action="store_true")
    pw.add_argument("--lift", action="store_true")

    pm = subs.add_parser("homotopy", help="2-term structure commands")
    pm.add_argument(
        "sub",
        choices=[
            "check",
            "skeletal-to-cocycle",
            "cocycle-to-skeletal",
            "strict-to-crossed",
            "crossed-to-strict",
            "semidirect",
        ],
    )
    pm.add_argument("path")
    pm.add_argument("--output")
    return parser


COMMANDS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "extension": cmd_extension,
    "wells": cmd_wells,
    "homotopy": cmd_homotopy,
}


# parsing leaves the parser as it was, so one serves every call
_parser = cache(build_parser)


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "cohomology" and not 1 <= args.degree <= 4:
        parser.error("--degree must be between 1 and 4")
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        return _finish(_parse_error_report(exc))
    except FieldTooLarge as exc:
        return _finish(_report("indeterminate", notes={"reason": str(exc)}))
    except ValidationError as exc:
        return _finish(_verdict_report(exc.verdict))
    except AvgLieError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

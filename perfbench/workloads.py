"""The three workloads: their job lists, the check of every answer, and the
per-layer metrics taken from a traced pass.

Every workload is a closed loop with one client: a job starts when the
previous one has returned.  A job returns its raw output; its check runs
after the pass, outside the timed region, and returns None when the answer
is right or a short reason when it is not.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from statistics import median

import inputs
from tracing import total

WORKLOADS = ("cohomology", "automorphism_search", "cli_batch")


class Job:
    __slots__ = ("name", "group", "run", "check")

    def __init__(self, name, group, run, check):
        self.name, self.group, self.run, self.check = name, group, run, check


def run_cli(lib, argv):
    """avglie's CLI in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_of(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_pinned(pin):
    def check(out):
        code, stdout = out
        if code != pin["code"]:
            return f"exit code {code}, expected {pin['code']}"
        if digest(stdout) != pin["stdout_sha256"]:
            return "stdout differs from the pinned report"
        return None

    return check


def rel(root, path):
    return os.path.relpath(path, root)


class Workload:
    """Common shape: `jobs` run in order once per pass."""

    def __init__(self, lib, workdir, seed):
        self.lib, self.workdir, self.seed = lib, workdir, seed
        self.jobs = []

    def warmup(self):
        """A few cheap calls through the same code, outside any timing."""

    def probes(self, tracer):
        """Separate traced calls for per-layer numbers; returns metrics."""
        return {}


# ---------------------------------------------------------------------------
# cohomology


class Cohomology(Workload):
    def __init__(self, lib, root, workdir, seed, expected, tiny=False):
        super().__init__(lib, workdir, seed)
        pins = expected["cohomology"]
        table = inputs.COHOMOLOGY_TINY if tiny else inputs.COHOMOLOGY_JOBS
        for job, (fname, degree, _) in table.items():
            argv = ["cohomology", rel(root, os.path.join(workdir, fname)), "--degree", str(degree)]
            self.jobs.append(
                Job(job, "cohomology", _cli_call(lib, argv), check_cohomology(pins[job]))
            )

    def warmup(self):
        code, _ = run_cli(self.lib, ["cohomology", "fixtures/adjoint_rep.json", "--degree", "2"])
        if code != 0:
            raise RuntimeError("warm-up cohomology command failed")

    def probes(self, tracer):
        """delta_alie and its parts on one seeded degree-2 cochain of the
        dim-6 representation over Q; median of five calls each."""
        lib = self.lib
        coh = lib.cohomology
        obj = lib.documents.load_document(os.path.join(self.workdir, "dim6_q.json"))
        r = lib.documents.realize_representation(obj)
        c = coh.Cochain.random(random.Random(f"probe:{self.seed}"), r.field, r.dim, r.vdim, 2)
        pcols = [r.base.P.col(j) for j in range(r.dim)]

        def eval_p_columns():
            for tup in product(range(r.dim), repeat=c.degree):
                c.f.eval_vectors([pcols[t] for t in tup])

        calls = {
            "cohomology.delta_alie_ms": ("cohomology.delta_alie", lambda: coh.delta_alie(r, c)),
            "cohomology.delta_lie_ms": ("cohomology.delta_lie", lambda: coh.delta_lie(r, c.f)),
            "cohomology.partial_leib_ms": (
                "cohomology.partial_leib", lambda: coh.partial_leib(r, c.theta)
            ),
            "multilinear.eval_vectors_ms": ("multilinear.eval_vectors", eval_p_columns),
        }
        out = {}
        for metric, (span_name, fn) in calls.items():
            times = []
            for _ in range(5):
                with tracer.span(span_name, job="probe") as s:
                    fn()
                times.append(s.dur)
            out[metric] = 1e3 * median(times)
        return out


def _cli_call(lib, argv):
    return lambda: run_cli(lib, argv)


def check_cohomology(pin):
    pinned = check_pinned(pin)

    def check(out):
        bad = pinned(out)
        if bad:
            return bad
        report = report_of(out[1])
        if report is None or report["data"] != pin["report"]:
            return "ranks or dimensions differ from the basis before scrambling"
        return None

    return check


def matrix_product_is_zero(a, b):
    """a * b == 0, using only the nonzero entries of both."""
    f = a.field
    b_rows = [[(j, x) for j, x in enumerate(row) if x != f.zero] for row in b.entries]
    for row in a.entries:
        acc = {}
        for k, x in enumerate(row):
            if x == f.zero:
                continue
            for j, y in b_rows[k]:
                acc[j] = f.add(acc.get(j, f.zero), f.mul(x, y))
        if any(v != f.zero for v in acc.values()):
            return False
    return True


def cohomology_trace_checks(jobs, tracer, outputs):
    """(job, reason) pairs.  For every cohomology command of the traced
    pass: delta o delta = 0 on the two assembled matrices, and the
    separately recorded ranks equal the ranks in the report."""
    failures = []
    for job in jobs:
        if job.group != "cohomology" or job.name not in outputs:
            continue
        report = report_of(outputs[job.name][1])
        if report is None or report["status"] != "pass":
            continue
        data = report["data"]
        mats, ranks = {}, {}
        for s, args, result in tracer.captured:
            if s.job != job.name:
                continue
            if s.name == "cohomology.assemble_delta_matrix":
                mats[args[1]] = result
            elif s.name == "linalg.rank":
                ranks[id(args[0])] = result
        n = data["degree"]
        if n not in mats or ranks.get(id(mats[n])) != data["rank_delta"]:
            failures.append((job.name, f"traced rank of delta^{n} disagrees"))
            continue
        if n >= 2:
            prev = mats.get(n - 1)
            if prev is None or ranks.get(id(prev)) != data["rank_delta_prev"]:
                failures.append((job.name, f"traced rank of delta^{n - 1} disagrees"))
            elif not matrix_product_is_zero(mats[n], prev):
                failures.append((job.name, f"delta^{n} o delta^{n - 1} != 0"))
    return failures


# ---------------------------------------------------------------------------
# automorphism_search


def lex_key(g):
    return tuple(g.flat())


def check_group(lib, a, order):
    def check(found):
        if len(found) != order:
            return f"{len(found)} automorphisms, expected {order}"
        keys = [lex_key(g) for g in found]
        if any(x >= y for x, y in zip(keys, keys[1:])):
            return "automorphisms not in strict lexicographic order"
        for g in found:
            if not lib.extensions.check_algebra_automorphism(a, g, "aut"):
                return "a returned map fails the automorphism check"
        return None

    return check


def extension_job(lib, e):
    ext = lib.extensions
    autos = ext.extension_automorphisms(e)
    pairs = [ext.project_automorphism(e, g) for g in autos]
    wells = [ext.wells_class(p, e) for p in pairs]
    return autos, pairs, wells


def check_extension_job(lib, e, order):
    group = check_group(lib, e.total, order)

    def check(out):
        autos, pairs, wells = out
        bad = group(autos)
        if bad:
            return bad
        for g in autos:
            for a in range(e.coef.dim):
                if lib.linalg.solve_affine(e.i, g.matvec(e.i.col(a))) is None:
                    return "an automorphism does not preserve the kernel"
        if len(pairs) != len(autos) or len(wells) != len(autos):
            return "not one pair and one Wells class per automorphism"
        for p, w in zip(pairs, wells):
            if not lib.extensions.check_automorphism_pair(p, e.base, e.coef):
                return "a projected pair fails the pair check"
            if w.inducible is not True:
                return "a pair projected from an automorphism is not inducible"
        return None

    return check


class AutomorphismSearch(Workload):
    def __init__(self, lib, root, workdir, seed, expected, tiny=False):
        super().__init__(lib, workdir, seed)
        pins = expected["automorphism_search"]
        docs = lib.documents
        self.spaces = {}
        for name in inputs.search_algebras(lib, tiny):
            a = docs.realize_averaging(docs.load_document(os.path.join(workdir, name + ".json")))
            self.spaces[name] = (a.dim, a.field)
            self.jobs.append(
                Job(name, "search", _search_call(lib, a), check_group(lib, a, pins[name]))
            )
        name, _ = inputs.search_extension(lib, tiny)
        e = docs.realize_extension(docs.load_document(os.path.join(workdir, name + ".json")))
        self.spaces[name] = (e.total.dim, e.total.field)
        self.jobs.append(
            Job(name, "search", lambda: extension_job(lib, e),
                check_extension_job(lib, e, pins[name]))
        )

    def warmup(self):
        F2 = self.lib.fields.GF(2)
        a = self.lib.lie.AveragingLieAlgebra.validate(
            inputs.g2(self.lib, F2), self.lib.linalg.Matrix(F2, [[1, 0], [0, 0]])
        )
        self.lib.extensions.averaging_automorphisms(a)

    def probes(self, tracer):
        """enumerate_linear_maps alone over the spaces the searches walk."""
        spent = 0.0
        for name, (n, f) in self.spaces.items():
            with tracer.span("linalg.enumerate_linear_maps", job="probe") as s:
                for _ in self.lib.linalg.enumerate_linear_maps(n, n, f):
                    pass
            spent += s.dur
        return {"linalg.enumerate_s": spent}


def _search_call(lib, a):
    return lambda: lib.extensions.averaging_automorphisms(a)


# ---------------------------------------------------------------------------
# cli_batch

VALID_FIXTURES = (
    "adjoint_rep.json", "cocycle_adjoint.json", "crossed_adjoint.json",
    "double2.json", "double3_P.json", "double3_Q2.json", "double3_Q3.json",
    "embedding_tensor.json", "extension_abelian_f3.json", "extension_f3.json",
    "extension_f3_scrambled.json", "extension_split_f2.json",
    "identity_averaging.json", "pair_abelian_f3_obstructed.json",
    "pair_f3_identity.json", "pair_f3_noninducible.json",
    "strict_two_term.json", "zero_module_rep.json",
)
BROKEN_FIXTURES = {
    "antisymmetry.json": "antisymmetry",
    "averaging_eq1.json": "eq1",
    "cocycle_A.json": "(A)",
    "cocycle_D.json": "(D)",
    "crossed_peiffer.json": "cm-peiffer",
    "extension_exactness.json": "exactness",
    "jacobi.json": "jacobi",
    "pair_alpha_operator.json": "alpha-operator",
    "representation_chain2.json": "rep-chain-2",
    "two_term_A2.json": "A2",
    "two_term_L6.json": "L6",
}
EXTENSION_FIXTURES = (
    "extension_f3.json", "extension_split_f2.json",
    "extension_abelian_f3.json", "extension_f3_scrambled.json",
)
WELLS_FIXTURES = (
    ("extension_f3.json", "pair_f3_identity.json", "--lift"),
    ("extension_f3.json", "pair_f3_identity.json", None),
    ("extension_f3.json", "pair_f3_noninducible.json", None),
    ("extension_abelian_f3.json", "pair_abelian_f3_obstructed.json", "--abelian"),
    ("extension_f3.json", "pair_abelian_f3_obstructed.json", None),
)


def fixture_commands(workdir_rel):
    """name -> (group, argv) for commands whose stdout is pinned."""
    fx = "fixtures/"
    cmds = {}
    for name in VALID_FIXTURES:
        cmds[f"check:{name}"] = ("check", ["check", fx + name])
    for name in BROKEN_FIXTURES:
        cmds[f"check:broken/{name}"] = ("check", ["check", fx + "broken/" + name])
    for name in VALID_FIXTURES:
        cmds[f"check-field:{name}"] = ("check", ["check", fx + name, "--field-check"])
    for degree in (1, 2, 3, 4):
        cmds[f"cohomology:adjoint_rep.json:d{degree}"] = (
            "cohomology", ["cohomology", fx + "adjoint_rep.json", "--degree", str(degree)]
        )
    for degree in (1, 2):
        cmds[f"cohomology:zero_module_rep.json:d{degree}"] = (
            "cohomology", ["cohomology", fx + "zero_module_rep.json", "--degree", str(degree)]
        )
    cmds["extension-build:cocycle_adjoint.json"] = (
        "extension", ["extension", "build", fx + "cocycle_adjoint.json"]
    )
    for name in EXTENSION_FIXTURES:
        cmds[f"extension-extract:{name}"] = ("extension", ["extension", "extract", fx + name])
        cmds[f"extension-audit:{name}"] = ("extension", ["extension", "audit", fx + name])
    for ext, pair, flag in WELLS_FIXTURES:
        argv = ["wells", fx + ext, fx + pair] + ([flag] if flag else [])
        cmds[f"wells:{ext}:{pair}:{flag or ''}"] = ("wells", argv)
    homotopy = (
        ("check", fx + "strict_two_term.json"),
        ("check", fx + "crossed_adjoint.json"),
        ("strict-to-crossed", fx + "strict_two_term.json"),
        ("crossed-to-strict", fx + "crossed_adjoint.json"),
        ("semidirect", fx + "crossed_adjoint.json"),
        ("skeletal-to-cocycle", workdir_rel + "/skeletal.json"),
        ("cocycle-to-skeletal", workdir_rel + "/cocycle3.json"),
    )
    for sub, path in homotopy:
        cmds[f"homotopy-{sub}:{os.path.basename(path)}"] = ("homotopy", ["homotopy", sub, path])
    return cmds


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expect_report(code, **data):
    """Check the exit code and some fields of the report's data."""

    def check(out):
        got, stdout = out
        if got != code:
            return f"exit code {got}, expected {code}"
        report = report_of(stdout)
        if report is None:
            return "stdout is not a JSON report"
        for key, want in data.items():
            if report["data"].get(key) != want:
                return f"data.{key} = {report['data'].get(key)!r}, expected {want!r}"
        return None

    return check


def expect_output_equals(path, want_path):
    """Exit code 0, and the document written to `path` equals `want_path`."""

    def check(out):
        if out[0] != 0:
            return f"exit code {out[0]}, expected 0"
        if load_json(path) != load_json(want_path):
            return f"{os.path.basename(path)} differs from {os.path.basename(want_path)}"
        return None

    return check


class CliBatch(Workload):
    def __init__(self, lib, root, workdir, seed, expected, tiny=False):
        super().__init__(lib, workdir, seed)
        pins = expected["cli_batch"]
        wrel = rel(root, workdir)
        out_dir = os.path.join(workdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        orel = rel(root, out_dir)
        add = self._add
        cmds = fixture_commands(wrel)
        if tiny:
            cmds = dict(list(cmds.items())[::8])
        for name, (group, argv) in cmds.items():
            check = check_pinned(pins[name])
            if name.startswith("check:broken/"):
                check = _both(check, expect_clause(BROKEN_FIXTURES[name.split("/", 1)[1]]))
            add(name, group, argv, check)

        # Conversions written with --output and read back.
        add("homotopy-out:strict-to-crossed", "homotopy",
            ["homotopy", "strict-to-crossed", "fixtures/strict_two_term.json",
             "--output", f"{orel}/crossed.json"],
            expect_output_equals(os.path.join(out_dir, "crossed.json"),
                                 os.path.join(root, "fixtures/crossed_adjoint.json")))
        add("homotopy-out:crossed-to-strict", "homotopy",
            ["homotopy", "crossed-to-strict", f"{orel}/crossed.json",
             "--output", f"{orel}/strict.json"],
            expect_output_equals(os.path.join(out_dir, "strict.json"),
                                 os.path.join(root, "fixtures/strict_two_term.json")))

        manifest = load_json(os.path.join(workdir, "manifest.json"))
        for name, is_cocycle in sorted(manifest["cochains"].items()):
            add(f"check:{name}", "check", ["check", f"{wrel}/{name}"],
                expect_report(0, kind="cochain", is_cocycle=is_cocycle))
        for k, name in enumerate(manifest["cocycles"]):
            src = f"{wrel}/{name}"
            ext = f"{orel}/extension_{k}.json"
            back = f"{orel}/cocycle_{k}.json"
            add(f"check:{name}", "check", ["check", src], expect_report(0, kind="nonabelian_cocycle"))
            add(f"extension-build:{name}", "extension",
                ["extension", "build", src, "--output", ext], expect_report(0, output=ext))
            add(f"extension-extract:{name}", "extension",
                ["extension", "extract", ext, "--output", back],
                expect_output_equals(os.path.join(root, back), os.path.join(root, src)))
            add(f"extension-audit:{name}", "extension", ["extension", "audit", ext],
                expect_report(0, round_trip="equivalent"))
            add(f"wells:{name}", "wells", ["wells", ext, f"{wrel}/pair_{k}.json", "--lift"],
                expect_report(0, inducible=True))

    def _add(self, name, group, argv, check):
        self.jobs.append(Job(name, group, _cli_call(self.lib, argv), check))

    def warmup(self):
        for job in self.jobs[:5]:
            job.run()


def expect_clause(clause):
    def check(out):
        report = report_of(out[1])
        if out[0] != 1 or report is None or report["clause"] != clause:
            return f"expected exit 1 with clause {clause!r}"
        return None

    return check


def _both(first, second):
    return lambda out: first(out) or second(out)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.  Every workload reports every metric;
# a metric of a layer or job the workload does not exercise reads 0.

COHOMOLOGY_JOB_NAMES = tuple(inputs.COHOMOLOGY_JOBS)
SEARCH_JOB_NAMES = ("aut_f2_dim4", "aut_f3_dim3_idP", "ext_f2_dim4")
CLI_GROUPS = ("check", "cohomology", "extension", "wells", "homotopy")
LIE_CHECKS = ("lie.check_lie", "lie.check_averaging", "lie.check_representation")
HOMOTOPY_CHECKS = (
    "homotopy.check_two_term", "homotopy.check_homotopy_averaging", "homotopy.check_crossed_module"
)
HOMOTOPY_CONVERSIONS = (
    "homotopy.skeletal_to_triple", "homotopy.triple_to_skeletal", "homotopy.strict_to_crossed",
    "homotopy.crossed_to_strict", "homotopy.crossed_semidirect",
)
SEARCHES = ("extensions.averaging_automorphisms", "extensions.extension_automorphisms")


def ratio(a, b):
    return a / b if b else 0.0


def pass_layer_metrics(workload, tracer, outputs):
    """Per-layer metrics of one traced pass (probe metrics come separately)."""
    spans = [s for s in tracer.spans if s.job != "probe"]
    m = {}
    assemble = {j: total(spans, ["cohomology.assemble_delta_matrix"], j) for j in COHOMOLOGY_JOB_NAMES}
    for j in COHOMOLOGY_JOB_NAMES:
        m[f"cohomology.assemble.{j}_s"] = assemble[j]
        m[f"linalg.rank.{j}_s"] = total(spans, ["linalg.rank"], j)
    rows = cols = nnz = 0
    for s, _, result in tracer.captured:
        if s.name == "cohomology.assemble_delta_matrix" and s.job in COHOMOLOGY_JOB_NAMES:
            zero = result.field.zero
            rows += result.rows
            cols += result.cols
            nnz += sum(1 for row in result.entries for x in row if x != zero)
    m["cohomology.matrix_rows"] = rows
    m["cohomology.matrix_cols"] = cols
    m["cohomology.matrix_nnz"] = nnz
    m["fields.q_over_f7_assemble_ratio"] = ratio(assemble["dim6_q_d2"], assemble["dim6_f7_d2"])
    overheads = [
        s.dur
        - total(spans, ["cohomology.assemble_delta_matrix"], s.job)
        - total(spans, ["linalg.rank"], s.job)
        for s in spans
        if s.name == "cli.main" and s.job in COHOMOLOGY_JOB_NAMES
    ]
    m["cli.cohomology_overhead_ms"] = 1e3 * median(overheads) if overheads else 0.0

    for j in SEARCH_JOB_NAMES:
        m[f"extensions.aut.{j}_s"] = total(spans, SEARCHES, j)
    found = 0
    for job in workload.jobs:
        if job.group == "search" and job.name in outputs:
            out = outputs[job.name]
            found += len(out[0] if isinstance(out, tuple) else out)
    candidates, checking = tracer.counted("extensions.check_algebra_automorphism", SEARCHES)
    m["extensions.candidates"] = candidates
    m["extensions.found"] = found
    m["extensions.hit_ratio"] = ratio(found, candidates)
    m["extensions.check_candidate_us"] = 1e6 * ratio(checking, candidates)
    m["extensions.project_ms"] = 1e3 * total(spans, ["extensions.project_automorphism"])
    m["extensions.wells_ms"] = 1e3 * total(spans, ["extensions.wells_class"])

    group_of = {job.name: job.group for job in workload.jobs}
    for group in CLI_GROUPS:
        durs = [s.dur for s in spans if s.name == "cli.main" and group_of.get(s.job) == group]
        m[f"cli.{group}_ms"] = 1e3 * median(durs) if durs else 0.0
    m["documents.load_ms"] = 1e3 * total(spans, ["documents.load_document"])
    m["documents.dump_ms"] = 1e3 * total(spans, ["documents.dump_document"])
    m["documents.bytes_in"] = sum(
        os.path.getsize(args[0]) for s, args, _ in tracer.captured
        if s.name == "documents.load_document" and s.job != "probe"
    )
    m["documents.bytes_out"] = sum(
        len(result.encode("utf-8")) for s, _, result in tracer.captured
        if s.name == "documents.dump_document" and s.job != "probe"
    )
    m["lie.validate_ms"] = 1e3 * total(spans, LIE_CHECKS)
    m["homotopy.check_ms"] = 1e3 * total(spans, HOMOTOPY_CHECKS)
    m["homotopy.convert_ms"] = 1e3 * total(spans, HOMOTOPY_CONVERSIONS)
    m["extensions.build_ms"] = 1e3 * total(spans, ["extensions.build_extension"])
    m["extensions.extract_ms"] = 1e3 * total(spans, ["extensions.extract_cocycle"])
    m["extensions.audit_ms"] = 1e3 * total(spans, ["extensions.audit_round_trip"])
    return m


# Probe metrics; a workload without the probe reports 0.
PROBE_METRICS = (
    "cohomology.delta_alie_ms", "cohomology.delta_lie_ms", "cohomology.partial_leib_ms",
    "multilinear.eval_vectors_ms", "linalg.enumerate_s",
)


def build(name, lib, root, workdir, seed, expected, tiny=False):
    cls = {"cohomology": Cohomology, "automorphism_search": AutomorphismSearch,
           "cli_batch": CliBatch}[name]
    return cls(lib, root, workdir, seed, expected, tiny)

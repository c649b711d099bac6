"""Spans around calls into avglie's public functions, recorded from outside.

While installed, the tracer replaces each listed function, in every avglie
module that refers to it, by a wrapper that records a span: name, start,
end, parent span and job id.  Calls made inside the library go through the
module globals, so the spans nest the way the calls do.  Spans are kept in
memory and written out once, when the run ends.

Only boundaries called at most a few thousand times per pass are wrapped;
inner loops (field arithmetic, AltMap evaluation) run inside the spans of
their callers.  The per-candidate automorphism check is only counted: its
calls and their time are summed per enclosing span, without a span each.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# layer -> public functions wrapped at that layer's boundary
BOUNDARIES = {
    "cli": ["main"],
    "documents": [
        "load_document", "dump_document",
        "parse_lie", "parse_averaging", "parse_representation", "parse_cochain",
        "parse_cocycle", "parse_extension", "parse_pair", "parse_two_term",
        "parse_crossed", "parse_bare_matrix",
        "realize_averaging", "realize_representation", "realize_cochain",
        "realize_cocycle", "realize_extension", "realize_crossed",
        "averaging_doc", "representation_doc", "cochain_doc", "cocycle_doc",
        "extension_doc", "two_term_doc", "crossed_doc",
        "matrix_doc", "tensor_doc", "altmap_doc",
    ],
    "lie": ["check_lie", "check_averaging", "check_representation"],
    "cohomology": ["cohomology_report", "assemble_delta_matrix", "is_cocycle", "is_coboundary"],
    "linalg": ["rank", "kernel_basis", "solve_affine"],
    "extensions": [
        "averaging_automorphisms", "extension_automorphisms",
        "project_automorphism", "wells_class", "lift_automorphism",
        "build_extension", "extract_cocycle", "audit_round_trip",
        "check_cocycle", "check_extension", "check_automorphism_pair",
        "cocycles_equivalent", "transform_cocycle", "abelian_wells",
        "induced_representation", "check_compatible_pair",
    ],
    "homotopy": [
        "check_two_term", "check_homotopy_averaging", "check_crossed_module",
        "skeletal_to_triple", "triple_to_skeletal", "strict_to_crossed",
        "crossed_to_strict", "crossed_semidirect",
    ],
}
# layer -> functions counted, not spanned
COUNTED = {"extensions": ["check_algebra_automorphism"]}
# Layers that own spans; "bench" is the benchmark's own job span.
LAYERS = ["bench", "cli", "documents", "lie", "cohomology", "linalg", "extensions", "homotopy"]


class Span:
    __slots__ = ("id", "parent", "name", "job", "start", "end")

    def __init__(self, sid, parent, name, job, start):
        self.id, self.parent, self.name, self.job = sid, parent, name, job
        self.start, self.end = start, start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """Records spans; `capture` names the wrapped functions whose
    arguments and results are kept for checking."""

    def __init__(self, lib, capture=()):
        self.lib = lib
        self.capture = set(capture)
        self.spans = []
        self.captured = []  # (span, args, result)
        self.counts = {}  # (counted name, enclosing span name) -> [calls, seconds]
        self.job = None
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.job, perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s):
        s.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, job=None):
        """A span opened by the benchmark itself, optionally starting a job."""
        if job is not None:
            self.job = job
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name):
        tracer = self
        keep = name in self.capture

        def wrapper(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if keep:
                tracer.captured.append((s, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - t0
                key = (name, tracer._stack[-1].name if tracer._stack else None)
                tally = tracer.counts.get(key)
                if tally is None:
                    tally = tracer.counts[key] = [0, 0.0]
                tally[0] += 1
                tally[1] += spent

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, within):
        """(calls, seconds) of a counted function called directly inside
        spans named in `within`."""
        calls, spent = 0, 0.0
        for (counted, parent), (n, dt) in self.counts.items():
            if counted == name and parent in within:
                calls += n
                spent += dt
        return calls, spent

    def install(self):
        modules = [getattr(self.lib, m) for m in self.lib.MODULES]
        for table, make in ((BOUNDARIES, self._wrap), (COUNTED, self._count)):
            for layer, names in table.items():
                home = getattr(self.lib, layer)
                for fname in names:
                    orig = getattr(home, fname)
                    wrapped = make(orig, f"{layer}.{fname}")
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapped)
                                self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans):
    """Self time per layer: each span's duration minus the part covered by
    its direct children (children lie inside their parent's interval)."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.dur
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.dur - child.get(s.id, 0.0)
    return out


def outermost(spans, names, job=None):
    """Spans named in `names` that have no ancestor also named there, so
    nested calls of the same kind are not counted twice."""
    by_id = {s.id: s for s in spans}
    names = set(names)
    out = []
    for s in spans:
        if s.name not in names or (job is not None and s.job != job):
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def total(spans, names, job=None):
    return sum(s.dur for s in outermost(spans, names, job))

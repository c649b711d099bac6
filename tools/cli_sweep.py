"""Run every CLI command on the shipped fixtures and print a digest per run.

Run from anywhere:  python tools/cli_sweep.py > sweep.txt

The commands run in-process through `avglie.cli.main`, importing avglie
from the `src/` next to this script, in a temporary directory that holds a
copy of `fixtures/`, so every path a report or an error message shows is
the same relative path on every checkout.  The sweep covers:

- `check` and `check --field-check` on every fixture file;
- `cohomology --degree 1..4` on every fixture file, 4 being the CLI's cap;
- every `extension` and `homotopy` subcommand on every fixture file, with
  and without `--output`;
- `extension extract --section` on every valid extension fixture, and on
  the extension built from every valid cocycle fixture, each with three
  section documents written into the temporary copy: the default section,
  a `perturbed_section` and a non-section (zero);
- `wells` on every extension document x automorphism-pair document, with
  every combination of `--abelian` and `--lift`.

Each run prints one line: the command, its exit code and the first 16 hex
digits of the sha256 of its stdout, its stderr and the file it wrote (`-`
when it wrote none).  Two checkouts give the same answers when their
outputs are equal: `diff parent.txt change.txt`.  The run count and the
time taken go to stderr.  `tests/data/cli_sweep.txt` holds the pinned
output, which `tests/test_cli.py` compares with `sweep_lines()`; a change
that alters an answer on purpose rewrites it with this script.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from avglie import documents as docs  # noqa: E402
from avglie.cli import main  # noqa: E402
from avglie.extensions import build_extension, default_section, perturbed_section  # noqa: E402
from avglie.linalg import Matrix  # noqa: E402

EXTENSION_SUBS = ("build", "extract", "audit")
HOMOTOPY_SUBS = (
    "check",
    "skeletal-to-cocycle",
    "cocycle-to-skeletal",
    "strict-to-crossed",
    "crossed-to-strict",
    "semidirect",
)


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def fixture_kinds():
    """(relative path, kind) of every fixture document, in sorted order."""
    found = []
    for dirpath, _, names in os.walk("fixtures"):
        for name in names:
            if name.endswith(".json"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    found.append((path, json.load(fh).get("kind")))
    return sorted(found)


def write_sections(kinds):
    """Write the default, a perturbed and a non-section document for each
    valid extension fixture, and for the extension built from each valid
    cocycle fixture, under `sections/`.  Returns (extension path, section
    path) pairs, in order."""
    os.makedirs("sections")
    extensions = []
    for path, kind in kinds:
        if path.startswith(os.path.join("fixtures", "broken")):
            continue
        if kind == "extension":
            extensions.append((path, docs.realize_extension(docs.load_document(path))))
        elif kind == "nonabelian_cocycle":
            e = build_extension(docs.realize_cocycle(docs.load_document(path)))
            built = os.path.join("sections", f"{stem_of(path)}-extension.json")
            write_document(built, docs.extension_doc(e))
            extensions.append((built, e))
    pairs = []
    for path, e in extensions:
        f, n, m = e.total.field, e.base.dim, e.coef.dim
        for name, s in (
            ("default", default_section(e)),
            ("perturbed", perturbed_section(e, Matrix(f, [[1] * n] * m))),
            ("nonsection", Matrix.zero(f, e.total.dim, n)),
        ):
            out = os.path.join("sections", f"{stem_of(path)}-{name}.json")
            write_document(out, docs.bare_matrix_doc(s))
            pairs.append((path, out))
    return pairs


def stem_of(path):
    return os.path.splitext(os.path.basename(path))[0]


def write_document(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(docs.dump_document(doc))


def commands(kinds, sections):
    """(argv, output path or None) of every run, in a fixed order;
    `sections` holds (extension path, section path) pairs."""
    paths = [p for p, _ in kinds]
    runs = []
    for path in paths:
        runs.append((["check", path], None))
        runs.append((["check", path, "--field-check"], None))
    for path in paths:
        for degree in ("1", "2", "3", "4"):
            runs.append((["cohomology", path, "--degree", degree], None))
    for group, subs in (("extension", EXTENSION_SUBS), ("homotopy", HOMOTOPY_SUBS)):
        for sub in subs:
            for path in paths:
                runs.append(([group, sub, path], None))
                stem = os.path.splitext(path)[0].replace(os.sep, "-")
                out = os.path.join("out", f"{group}-{sub}-{stem}.json")
                runs.append(([group, sub, path, "--output", out], out))
    for path, section in sections:
        runs.append((["extension", "extract", path, "--section", section], None))
    extensions = [p for p, k in kinds if k == "extension"]
    pairs = [p for p, k in kinds if k == "automorphism_pair"]
    for ext in extensions:
        for pair in pairs:
            for flags in ([], ["--abelian"], ["--lift"], ["--abelian", "--lift"]):
                runs.append((["wells", ext, pair] + flags, None))
    return runs


def run(argv, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is a finding, not a crash of the sweep
            code = f"raised-{type(exc).__name__}"
    written = "-"
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            written = sha(fh.read())
        os.remove(out)
    return (
        f"{' '.join(argv)}  exit={code} stdout={sha(stdout.getvalue().encode())}"
        f" stderr={sha(stderr.getvalue().encode())} file={written}"
    )


def sweep_lines():
    """The sweep's output lines, in order.  The runs see a temporary copy
    of `fixtures/` as the working directory, and the caller's working
    directory is restored afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "fixtures"), os.path.join(tmp, "fixtures"))
        os.makedirs(os.path.join(tmp, "out"))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            kinds = fixture_kinds()
            return [run(argv, out) for argv, out in commands(kinds, write_sections(kinds))]
        finally:
            os.chdir(cwd)


def sweep():
    start = time.perf_counter()
    lines = sweep_lines()
    for line in lines:
        print(line)
    sys.stderr.write(f"{len(lines)} runs in {time.perf_counter() - start:.1f} s\n")


if __name__ == "__main__":
    sweep()

"""Break every fixture one key at a time, check each broken document with
the CLI and print a digest per fixture and key path.

Run from anywhere:  python tools/parse_sweep.py > sweep.txt

The fixtures are the documents directly under `fixtures/`.  A key path
names a key of the document or of any object nested in it
(`base.P.shape`), or the first element of a `shape`, `entries` or `dims`
list (`base.P.shape.0`).  Each path gets every single fault in `FAULTS`:
the key (or element) deleted, or set to each of the values listed.  Every
broken document is written to `doc.json` in a temporary directory, the
working directory of the runs, and goes through `check` and
`check --field-check`, in-process through `avglie.cli.main` as in
`tools/cli_sweep.py`.

Each single-fault line reads

    fixtures/NAME.json PATH  check=CODES field-check=CODES out=DIGEST

with one exit code per fault, in the order of `FAULTS` (`!` for a run
that raised instead of exiting), and the first 16 hex digits of the
sha256 of every run's stdout and stderr in turn.  A second block of lines,
`two-fault`, does the same for a seeded sample: for every fixture and key
path, `PAIRS` documents with a fault drawn at that path and a second one
drawn at another path.  A parser that checks the keys of a document in
another order reports another first fault on some of them.

`tests/data/parse_sweep.txt` holds the pinned output, which
`tests/test_documents.py` compares with `sweep_lines()`; a change that
alters a parse error on purpose rewrites it with this script.  The run
count, the number of runs that raised and the time taken go to stderr.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from avglie.cli import main  # noqa: E402

DELETE = object()
FAULTS = (DELETE, None, "x", 1.5, True, -1, 0, 7, [], {}, [1], ["1"], [2, 2],
          {"kind": "matrix"})
LISTS = ("shape", "entries", "dims")
PAIRS = 8
SEED = 20241


def fixtures():
    """The relative path of every valid fixture document, sorted;
    `fixtures/broken/` holds the same kinds, broken in a law rather than
    in the format."""
    names = os.listdir(os.path.join(ROOT, "fixtures"))
    return sorted(os.path.join("fixtures", n) for n in names if n.endswith(".json"))


def key_paths(obj, prefix=()):
    """Every key path of obj, depth first in the document's key order; a
    path is a tuple of keys and list indices."""
    paths = []
    for key, value in obj.items():
        path = prefix + (key,)
        paths.append(path)
        if isinstance(value, dict):
            paths.extend(key_paths(value, path))
        elif key in LISTS and isinstance(value, list) and value:
            paths.append(path + (0,))
    return paths


def broken(doc, faults):
    """A copy of doc with each (path, fault) applied in turn, or None when
    a path no longer leads anywhere once the earlier faults are in."""
    doc = copy.deepcopy(doc)
    for path, fault in faults:
        parent = doc
        for step in path[:-1]:
            if isinstance(parent, dict) and step in parent:
                parent = parent[step]
            elif isinstance(parent, list) and isinstance(step, int) and step < len(parent):
                parent = parent[step]
            else:
                return None
        last = path[-1]
        if isinstance(parent, dict) and last in parent or (
                isinstance(parent, list) and isinstance(last, int) and last < len(parent)):
            if fault is DELETE:
                del parent[last]
            else:
                parent[last] = copy.deepcopy(fault)
        else:
            return None
    return doc


def run(argv):
    """The exit code of one in-process run and its stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a finding, not a crash of the sweep
            code = "!"
            stderr.write(f"raised {type(exc).__name__}: {exc}")
    return str(code), stdout.getvalue() + "\0" + stderr.getvalue()


def digest(docs):
    """The line tail for a list of documents: exit codes of `check` and of
    `check --field-check`, then the digest of all their output."""
    codes = {"check": [], "field-check": []}
    out = hashlib.sha256()
    for doc in docs:
        with open("doc.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for name, argv in (("check", ["check", "doc.json"]),
                           ("field-check", ["check", "doc.json", "--field-check"])):
            code, text = run(argv)
            codes[name].append(code)
            out.update(text.encode() + b"\0")
    return (f"check={''.join(codes['check'])} field-check={''.join(codes['field-check'])}"
            f" out={out.hexdigest()[:16]}")


def label(path):
    return ".".join(str(step) for step in path)


def sweep_lines():
    """The sweep's output lines, in order.  The runs see a temporary
    directory as the working directory, and the caller's working
    directory is restored afterwards."""
    rng = random.Random(SEED)
    singles, doubles = [], []
    for name in fixtures():
        with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        paths = key_paths(doc)
        for path in paths:
            singles.append((f"{name} {label(path)}",
                            [broken(doc, [(path, fault)]) for fault in FAULTS]))
        for path in paths:
            others = [p for p in paths if p != path]
            pairs = []
            while others and len(pairs) < PAIRS:
                faults = [(path, rng.choice(FAULTS)), (rng.choice(others), rng.choice(FAULTS))]
                pair = broken(doc, faults)
                if pair is not None:
                    pairs.append(pair)
            doubles.append((f"two-fault {name} {label(path)}", pairs))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for head, docs in singles + doubles:
                lines.append(f"{head}  {digest(docs)}")
        finally:
            os.chdir(cwd)
    return lines


def sweep():
    start = time.perf_counter()
    lines = sweep_lines()
    for line in lines:
        print(line)
    runs = sum(len(line.split()[-3]) - len("check=") for line in lines) * 2
    raised = sum(line.count("!") for line in lines)
    sys.stderr.write(f"{runs} runs, {raised} raised, in {time.perf_counter() - start:.1f} s\n")


if __name__ == "__main__":
    sweep()

"""Regenerate perfbench/expected.json, the answers the benchmark checks.

Run from the repository root:  python3 perfbench/pin.py

Cohomology answers and automorphism group orders are computed on the
bases before scrambling; CLI answers are the exit code and the SHA-256 of
stdout of each fixture command.  The differentials of the complex that
cli_batch draws its cochains from are pinned as matrices, and checked to
compose to zero, so later runs can tell cocycles apart without avglie.  Rerun only when avglie's answers or
report format change on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import inputs
import run
import workloads


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    lib = run.import_avglie()
    workdir = os.path.join(run.WORK, f"pin-{os.getpid()}")
    expected = {
        "cohomology": {}, "automorphism_search": {}, "cli_batch": {}, "cli_batch_delta": {},
    }
    try:
        inputs.generate(lib, "cohomology", run.ROOT, workdir, 0, expected)
        table = dict(inputs.COHOMOLOGY_JOBS, **inputs.COHOMOLOGY_TINY)
        for job, (_, degree, oracle) in table.items():
            path = os.path.relpath(os.path.join(workdir, oracle), run.ROOT)
            code, stdout = workloads.run_cli(lib, ["cohomology", path, "--degree", str(degree)])
            expected["cohomology"][job] = {
                "code": code,
                "stdout_sha256": workloads.digest(stdout),
                "report": json.loads(stdout)["data"],
            }
            print(job, expected["cohomology"][job]["report"], flush=True)

        ext = lib.extensions
        for tiny in (False, True):
            for name, (a, _) in inputs.search_algebras(lib, tiny).items():
                expected["automorphism_search"][name] = len(ext.averaging_automorphisms(a))
            name, e = inputs.search_extension(lib, tiny)
            expected["automorphism_search"][name] = len(ext.extension_automorphisms(e))
        print(expected["automorphism_search"], flush=True)

        for field in (lib.fields.QQ, lib.fields.GF(3)):
            r = inputs.cochain_representation(lib, field)
            mats = {n: lib.cohomology.assemble_delta_matrix(r, n) for n in inputs.DELTA_DEGREES}
            for n in inputs.DELTA_DEGREES[1:]:
                assert workloads.matrix_product_is_zero(mats[n], mats[n - 1]), (field.name, n)
            expected["cli_batch_delta"][field.name] = {
                str(n): [[str(x) for x in row] for row in m.entries] for n, m in mats.items()
            }

        inputs.generate(lib, "cli_batch", run.ROOT, workdir, 0, expected)
        wrel = os.path.relpath(workdir, run.ROOT)
        for name, (_, argv) in workloads.fixture_commands(wrel).items():
            code, stdout = workloads.run_cli(lib, argv)
            expected["cli_batch"][name] = {"code": code, "stdout_sha256": workloads.digest(stdout)}
        print(len(expected["cli_batch"]), "CLI commands pinned", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every metric
   named in BENCHMARK.json with its unit, and every answer checks out.
   The metrics are listed as the runs make them.
2. A wrong expected answer is caught and counted as failed.
3. Two generations from the same seed are byte-identical, and another
   seed gives other inputs.
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys

import inputs
import run
import workloads

SEEDS = (7, 8)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def tiny_run(workload, trace, expected=None):
    buf = io.StringIO()
    result = run.run(workload, 7, 0.01, trace, tiny=True, expected=expected, out=buf)
    assert last_json(buf.getvalue()) == result
    return result


def check_metric_names(spec):
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok   tiny {workload} trace={trace}: {len(got)} metrics with units")
            for name, metric in result["metrics"].items():
                print(f"       {name} = {metric['value']:.6g} {metric['unit']}")


def check_wrong_answers_counted():
    base = run.load_expected()
    for workload, spoil in (
        ("cohomology", lambda e: e["cohomology"]["dense4_q_d2"]["report"].update(rank_delta=25)),
        ("automorphism_search", lambda e: e["automorphism_search"].update(aut_f2_dim3_idP=25)),
        ("cli_batch", lambda e: e["cli_batch"]["check:adjoint_rep.json"].update(
            stdout_sha256="0" * 64)),
        # delta^2 over Q pinned as zero: the random degree-2 cochain over Q
        # is then expected to be a cocycle, which it is not.
        ("cli_batch", lambda e: e["cli_batch_delta"]["Q"].update(
            {"2": [["0"] * 6 for _ in range(8)]})),
    ):
        expected = copy.deepcopy(base)
        spoil(expected)
        result = tiny_run(workload, 0, expected)
        passes = result["attempted"] // len(build_jobs(workload, expected))
        assert not result["correct"], workload
        assert result["failed"] == passes >= 1, (workload, result["failed"], passes)
        print(f"ok   wrong answer caught on {workload}: failed={result['failed']}")


def build_jobs(workload, expected):
    lib = run.import_avglie()
    workdir = os.path.join(run.WORK, f"selftest-jobs-{os.getpid()}")
    try:
        inputs.generate(lib, workload, run.ROOT, workdir, SEEDS[0], expected, tiny=True)
        return workloads.build(workload, lib, run.ROOT, workdir, SEEDS[0], expected, True).jobs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def read_tree(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_generation_is_deterministic():
    lib = run.import_avglie()
    expected = run.load_expected()
    for workload in workloads.WORKLOADS:
        trees = []
        for k, seed in enumerate((SEEDS[0], SEEDS[0], SEEDS[1])):
            workdir = os.path.join(run.WORK, f"selftest-gen-{os.getpid()}-{k}")
            try:
                inputs.generate(lib, workload, run.ROOT, workdir, seed, expected)
                trees.append(read_tree(workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        assert trees[0] == trees[1], workload
        assert trees[0] != trees[2], workload
        print(f"ok   {workload}: same seed gives identical inputs, another seed other inputs")


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_wrong_answers_counted()
    check_generation_is_deterministic()
    print("selftest passed")


if __name__ == "__main__":
    main()

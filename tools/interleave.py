"""Compare two checkouts on one benchmark workload, their passes interleaved
in one process.

Run from anywhere:

    python tools/interleave.py BASE CHANGE --workload cohomology --passes 100

BASE and CHANGE are checkout roots.  Each tree's `src/avglie` is copied
into a temporary directory under its own package name (`avglie_base`,
`avglie_change`), so both are imported side by side.  The workload's
inputs and job list are built for each with the `perfbench/` next to this
script, from the same seed, and the inputs are written only to that
temporary directory; the jobs read `fixtures/` of this checkout.  The two
sides then run their passes in turn, the order flipping every round, so
both see the same phases of the machine's speed.  Every answer goes
through the workload's own checks, outside the timed passes.

It prints each side's median and quartiles of the pass time, the ratio
change / base of the medians, the median of that ratio taken round by
round (steadier when pass times jump between the machine's speed phases),
and the number of rounds each side won; under "jobs", each job's median
time on each side and its paired ratio, which show where a change lands.
It exits 1 if any answer fails its check.
"""

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import types
from statistics import median, quantiles

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIDES = ("base", "change")


def load_side(tree, name, tmp, workload, seed, expected):
    """The workload built on tree's avglie, imported as avglie_<name>."""
    package = f"avglie_{name}"
    shutil.copytree(os.path.join(tree, "src", "avglie"), os.path.join(tmp, package))
    lib = types.SimpleNamespace(
        MODULES=run.MODULES,
        **{m: importlib.import_module(f"{package}.{m}") for m in run.MODULES},
    )
    workdir = os.path.join(tmp, f"inputs-{name}")
    inputs.generate(lib, workload, ROOT, workdir, seed, expected)
    wl = workloads.build(workload, lib, ROOT, workdir, seed, expected)
    wl.warmup()
    return wl


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--passes", type=int, default=50, help="passes per side, at least 2")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    trees = [os.path.abspath(args.base), os.path.abspath(args.change)]
    os.chdir(ROOT)
    expected = run.load_expected()
    times = {side: [] for side in SIDES}
    job_times = {side: [] for side in SIDES}
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        loaded = {
            side: load_side(tree, side, tmp, args.workload, args.seed, expected)
            for side, tree in zip(SIDES, trees)
        }
        for k in range(args.passes):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                outputs, per_job, wall = run.run_pass(loaded[side])
                times[side].append(wall)
                job_times[side].append(per_job)
                for job, reason in run.verify(loaded[side], outputs):
                    print(f"FAILED {side} {job}: {reason}", file=sys.stderr)
                    failed += 1
    base, change = times["base"], times["change"]
    won = sum(c < b for b, c in zip(base, change))
    jobs = {}
    for k, job in enumerate(loaded["base"].jobs):
        b, c = ([row[k] for row in job_times[side]] for side in SIDES)
        jobs[job.name] = {
            "base_median_s": median(b), "change_median_s": median(c),
            "paired_ratio": median(y / x for x, y in zip(b, c)),
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": args.passes, "failed": failed,
        "base_median_s": median(base), "change_median_s": median(change),
        "ratio": median(change) / median(base),
        "paired_ratio": median(c / b for b, c in zip(base, change)),
        "base_quartiles_s": quantiles(base, n=4), "change_quartiles_s": quantiles(change, n=4),
        "change_won": won, "base_won": len(base) - won, "jobs": jobs,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

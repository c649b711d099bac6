"""avglie benchmark: three closed-loop workloads with one client each.

Run from the repository root:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 25 --trace 0

Workloads: cohomology, automorphism_search, cli_batch (see README.md).
With --trace 0 the run measures with tracing off and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The benchmark imports avglie from src/ of the checkout it sits in, writes
inputs only to perfbench/.work/, and runs in one process and one thread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import sys
import types
from statistics import median
from time import perf_counter, sleep

import inputs
import workloads
from tracing import LAYERS, Tracer, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, ".work")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
MODULES = (
    "fields", "linalg", "multilinear", "lie", "cohomology",
    "homotopy", "extensions", "documents", "cli",
)
# Set-up is repeated this many times per run, spread out between jobs, so
# that the samples span the run and not one phase of the machine's speed;
# setup_s is the median.
SETUPS = 14
# The machine's speed changes from one second to the next.  Set-ups left
# over when a run has too few job boundaries follow the passes this far
# apart, so that they too sample it at different times.
SETUP_GAP_S = 1.0
# A cohomology pass takes about 20 s, so a run of --seconds 25 would
# otherwise end after one pass or two, depending on the machine's speed.
MIN_PASSES = 2
CAPTURE = (
    "cohomology.assemble_delta_matrix", "linalg.rank",
    "documents.load_document", "documents.dump_document",
)


def metric_units():
    """name -> unit of every metric BENCHMARK.json names."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def checkout_ok():
    return all(
        os.path.isfile(os.path.join(ROOT, *parts))
        for parts in (("src", "avglie", "__init__.py"), ("fixtures", "double3_P.json"), ("BENCHMARK.json",))
    )


def import_avglie():
    """A fresh import of every avglie module, so set-up pays for it each time."""
    for name in [m for m in sys.modules if m == "avglie" or m.startswith("avglie.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"avglie.{m}") for m in MODULES}
    return types.SimpleNamespace(MODULES=MODULES, **mods)


def setup(workload, seed, run_dir, expected, tiny):
    workdir = os.path.join(run_dir, "inputs")
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    t0 = perf_counter()
    lib = import_avglie()
    inputs.generate(lib, workload, ROOT, workdir, seed, expected, tiny)
    wl = workloads.build(workload, lib, ROOT, workdir, seed, expected, tiny)
    wl.warmup()
    return wl, perf_counter() - t0


class JobError:
    """A job that raised; never equal to an answer."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(wl, tracer=None, between=None):
    """Run every job once; the pass time is the sum of the job times.
    `between` is called after each job, outside its timing."""
    outputs, times = {}, []
    for job in wl.jobs:
        t0 = perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.span("bench.job", job=job.name):
                    out = job.run()
        except Exception as exc:  # a failing job is counted, the run goes on
            out = JobError(exc)
        times.append(perf_counter() - t0)
        outputs[job.name] = out
        if between is not None:
            between()
    return outputs, times, sum(times)


def verify(wl, outputs):
    """(job, reason) for every wrong answer of one pass."""
    failures = []
    for job in wl.jobs:
        out = outputs[job.name]
        reason = out.text if isinstance(out, JobError) else job.check(out)
        if reason:
            failures.append((job.name, reason))
    return failures


def failed_jobs(per_pass):
    """Jobs with at least one wrong answer, counted once per pass."""
    return sum(len({name for name, _ in failures}) for failures in per_pass)


def tail(samples):
    """(percentile, value): the highest of 99.9/99/90/75/50 with at least ten
    samples beyond it (nearest rank), else the maximum as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99, 90, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, run_dir, expected, tiny=False):
    """Untraced run: end-to-end metrics, from passes repeated until
    `seconds` have gone by and at least MIN_PASSES have run."""
    wl, first = setup(workload, seed, run_dir, expected, tiny)
    setups = [first]
    spare = (workload, seed, os.path.join(run_dir, "setup-samples"), expected, tiny)

    def sample_setup():
        """Another set-up, in its own directory, once its turn has come."""
        if len(setups) < SETUPS and perf_counter() - start >= len(setups) * seconds / SETUPS:
            setups.append(setup(*spare)[1])

    passes, samples, failures, attempted = [], [], [], 0
    start = perf_counter()
    while True:
        outputs, times, wall = run_pass(wl, between=sample_setup)
        passes.append(wall)
        samples.extend(times)
        attempted += len(times)
        failures.append(verify(wl, outputs))
        if perf_counter() - start >= seconds and len(passes) >= MIN_PASSES:
            break
    while len(setups) < SETUPS:
        sleep(SETUP_GAP_S)
        setups.append(setup(*spare)[1])
    p, tail_value = tail(samples)
    metrics = {
        "setup_s": median(setups),
        "pass_s": median(passes),
        "job_p50_ms": 1e3 * median(samples),
        "job_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "setups": len(setups), "passes": len(passes), "job_samples": len(samples),
        "tail_percentile": p, "pass_times_s": ",".join(f"{x:.3f}" for x in passes),
        "setup_times_s": ",".join(f"{x:.3f}" for x in setups),
    }
    return metrics, attempted, failures, info


def measure_traced(workload, seed, seconds, run_dir, expected, tiny=False):
    """Traced run: pairs of one untraced and one traced pass, then probes.
    A further pair starts only if it is expected to end within `seconds`."""
    wl, _ = setup(workload, seed, run_dir, expected, tiny)
    untraced, traced, per_pass, tracers = [], [], [], []
    failures, attempted = [], 0
    start = perf_counter()
    while True:
        plain, times, wall = run_pass(wl)
        untraced.append(wall)
        attempted += len(times)
        failures.append(verify(wl, plain))
        tracer = Tracer(wl.lib, capture=CAPTURE)
        with tracer.installed():
            outputs, times, wall = run_pass(wl, tracer)
        traced.append(wall)
        attempted += len(times)
        failures.append(
            verify(wl, outputs)
            + workloads.cohomology_trace_checks(wl.jobs, tracer, outputs)
            + [
                (job.name, "traced answer differs from the untraced one")
                for job in wl.jobs
                if not isinstance(plain[job.name], JobError)
                and outputs[job.name] != plain[job.name]
            ]
        )
        m = workloads.pass_layer_metrics(wl, tracer, outputs)
        for layer, spent in self_times(tracer.spans).items():
            m[f"{layer}.self_s"] = spent
            m[f"{layer}.self_share"] = spent / wall
        m["trace.spans"] = len(tracer.spans)
        per_pass.append(m)
        tracer.captured = []
        tracers.append(tracer)
        if perf_counter() - start + median(untraced) + median(traced) > seconds:
            break
    probe = Tracer(wl.lib)
    metrics = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(wl.probes(probe))
    for name in workloads.PROBE_METRICS:
        metrics.setdefault(name, 0.0)
    metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
    trace_path = write_trace(workload, seed, tracers + [probe])
    info = {
        "passes": len(traced), "untraced_pass_s": median(untraced),
        "traced_pass_s": median(traced), "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, attempted, failures, info


def write_trace(workload, seed, tracers):
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{workload}-seed{seed}-{os.getpid()}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({
                    "pass": k, "id": s.id, "parent": s.parent, "name": s.name,
                    "job": s.job, "start": s.start, "end": s.end,
                }) + "\n")
    return path


def self_time_table(metrics):
    lines = ["layer        self_s    share_of_traced_pass"]
    for layer in LAYERS:
        lines.append(
            f"{layer:<12} {metrics[f'{layer}.self_s']:9.4f} {metrics[f'{layer}.self_share']:8.1%}"
        )
    return "\n".join(lines)


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace, tiny=False, expected=None, out=sys.stdout):
    """One benchmark run; prints the summary and the result line to `out`."""
    expected = expected if expected is not None else load_expected()
    units = metric_units()
    run_dir = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    try:
        fn = measure_traced if trace else measure
        metrics, attempted, failures, info = fn(
            workload, seed, seconds, run_dir, expected, tiny
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, reason in (f for per_pass in failures for f in per_pass):
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    failed = failed_jobs(failures)
    print(
        f"workload={workload} seed={seed} trace={trace} attempted={attempted} failed={failed} "
        f"failed_ratio={failed / attempted:.6f} "
        + " ".join(f"{k}={v}" for k, v in info.items()),
        file=out,
    )
    if trace:
        print(self_time_table(metrics), file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout_ok():
        print(f"error: no avglie sources, fixtures or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

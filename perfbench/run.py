"""Benchmark of the defect-bands engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from its ``src``.
Workloads: guided-2d, query-mix, oracle-boxes, and nested-2d, which
BENCHMARK.json leaves out (see README.md).

``--trace 0`` measures with tracing off and reports the end-to-end metrics;
``--trace 1`` runs the same units once untraced and once traced, reports the
per-layer metrics of the traced units and the tracing overhead, and writes
the spans to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Lines before it
report every end-to-end figure of the workload and the run environment.
"""

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: BLAS threads for the workload and its set-up probes; one thread keeps
#: small-matrix paths free of threading overhead and runs steadier on a
#: shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups timed per run, each in a fresh interpreter, half before and half
#: after the measured units so they sample more of the machine's drift;
#: setup_s is their median
SETUP_REPEATS = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setups(paths, repeats):
    """Wall seconds of `repeats` set-ups, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, probe, *paths], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, tally, seconds, max_units=None, gauge=None):
    """Run units 0, 1, ... for about `seconds`.

    Another unit starts while it would end no later than `seconds` plus
    half a unit, the longest unit so far being the estimate; so a run ends
    within half a unit of `seconds`, or after the workload's first `cycle`
    units.  With `max_units`, exactly that many run instead.  A `gauge`
    samples the machine's speed between units and once after the last, and
    records each unit under its place in the cycle.  Returns the number of
    units run.
    """
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while max_units is None or index < max_units:
        if gauge is not None:
            gauge.sample_if_due()
            engine_s, ops = sum(tally.latencies), len(tally.latencies)
        unit_start = time.perf_counter()
        workload.unit(index, tally)
        if gauge is not None:
            gauge.unit_done(index % workload.cycle,
                            sum(tally.latencies) - engine_s,
                            len(tally.latencies) - ops)
        index += 1
        longest = max(longest, time.perf_counter() - unit_start)
        if max_units is None and index >= workload.cycle and \
                time.perf_counter() - start + longest / 2 > seconds:
            break
    if gauge is not None:
        gauge.sample()
    return index


def blas_threads():
    """Threads OpenBLAS reports inside this process (None if unknown)."""
    import ctypes
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args):
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "blas_threads_env": BLAS_THREADS,
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "defect_bands", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload, tally, args):
    """End-to-end metrics, tracing off."""
    from hostref import HostGauge

    setups = time_setups(workload.setup_paths, SETUP_REPEATS // 2)
    workload.prepare()
    gauge = HostGauge()
    units = measure(workload, tally, args.seconds, gauge=gauge)
    setups += time_setups(workload.setup_paths, SETUP_REPEATS // 2)
    setup_s = statistics.median(setups)
    best_ms = [x * 1e3 for x in tally.best()]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_rel": metric(gauge.relative(), "ratio"),
    }
    figures = {"setup_s": (setup_s, "s"),
               "op_mean_ms": (statistics.fmean(best_ms), "ms"),
               "host_ref_ms": (statistics.median(gauge.times) * 1e3, "ms")}
    figures.update(workload.report(tally))
    figures.update({
        "ref_err_max": (tally.ref_err, "abs"),
        "fail_frac": (tally.failed / max(1, tally.attempted), "fraction"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    counts = {"setup_repeats": len(setups), "units": units,
              "operations": len(tally.latencies), "inputs": len(best_ms),
              "host_ref_samples": len(gauge.times)}
    return metrics, figures, counts


def run_traced(workload, tally, args):
    """Per-layer metrics: the same units untraced, then traced."""
    from tracer import Tracer, layer_metrics
    from workloads import Tally

    tracer = Tracer()
    tracer.install()
    try:
        workload.timer.tracer = tracer
        workload.prepare()                # traced: load and validate
        workload.timer.tracer = None
        untraced = Tally()
        units = measure(workload, untraced, args.seconds / 2.0)
        workload.timer.tracer = tracer
        measure(workload, tally, 0.0, max_units=units)
    finally:
        tracer.uninstall()
        workload.timer.tracer = None
    out = layer_metrics(tracer.spans, workload.scan_grid)
    out["trace.overhead_s"] = metric(
        sum(tally.latencies) - sum(untraced.latencies), "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    out["repo.src_lines"] = metric(src_lines(), "count")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-"
                              f"seed{args.seed}.jsonl.gz"))
    # failures of the untraced units count as well
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    tally.notes.extend(untraced.notes)
    figures = {"traced_op_s": (sum(tally.latencies), "s"),
               "untraced_op_s": (sum(untraced.latencies), "s")}
    return out, figures, {"units": units}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "defect_bands")):
        print(f"no engine source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    known = workloads.WORKLOADS + workloads.EXTRA_WORKLOADS
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, out_root)
        tally = workloads.Tally()
        run = run_traced if args.trace else run_untraced
        metrics, figures, counts = run(workload, tally, args)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    for name, (value, unit) in figures.items():
        print(f"{args.workload}: {name} = {value!r} {unit}")
    for note in tally.notes:
        print(f"{args.workload}: FAILED {note}", file=sys.stderr)
    print(json.dumps({"environment": environment(args), "counts": counts,
                      "details": workload.details()}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

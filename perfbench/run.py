"""histspec benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload n7_thm1_full --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  A run
sets the workload up, then makes a fixed number of passes over its inputs
on a single thread, as many as fill --seconds at the workload's recorded
pass time.  Every pass makes the same unit calls.  Short reference chunks
run between them (see reference.py), and each unit time is divided by the
machine's speed factor around it: on a shared machine identical passes
swing between speeds up to 1.6x apart for seconds to minutes at a time.
A unit's latency is the median of its corrected times over the passes.
Outputs of every pass are checked after the timed section.  The last line
of stdout is the result:

  --trace 0: end-to-end metrics (graphs_per_s, item_p50_ms, item_tail_ms,
             setup_s, peak_rss_mb);
  --trace 1: per-layer metrics from spans recorded by wrappers around
             public histspec functions (see spans.py), with the tracing
             overhead.

The line before it records the environment, sample counts and failed_frac.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import common

SETUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_PASSES = 3
SETUP_REF_CHUNKS = 5
REF_EVERY_S = 0.3


def main(argv=None):
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description="histspec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up once in this fresh process; print the seconds "
                         "taken and the machine's speed factor")
    args = ap.parse_args(argv)

    common.pin_threads()
    try:
        common.import_histspec()
    except common.MissingProgram as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.setup(args.seed, small=False)
        elapsed = time.perf_counter() - t_start
        wl.close()
        factor = statistics.median(reference.chunk_seconds() for _ in range(SETUP_REF_CHUNKS))
        print(json.dumps([elapsed, factor / reference.REF_NOMINAL_S]))
        return 0
    setup = None if args.trace else _setup_seconds(args)
    try:
        result, info = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        wl.close()
    if setup is not None:
        result["metrics"]["setup_s"] = (statistics.median(t / f for t, f in setup), "s")
        info["samples"]["setup_s"] = SETUP_REPEATS
        info["samples"]["setup_raw_s"] = [t for t, _ in setup]
        info["samples"]["setup_speed_factor"] = [f for _, f in setup]
    print(json.dumps(info))
    print(json.dumps(_result_json(result)))
    return 0


def _setup_seconds(args) -> list:
    """Set-up times in fresh interpreters, with the speed factor measured
    right after each: import, thresholds and input generation, so work
    moved into import time shows too."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def run_workload(wl, seed, seconds, traced, small=False, corrupt=None):
    """Set wl up, measure it, check its outputs.

    Returns (result, info): result has correct/attempted/failed and the
    metrics as {name: (value, unit)}; info holds the environment and the
    sample counts.  `corrupt`, when given, replaces the first output before
    the checks, so that a smoke run can show the failure is counted.
    """
    import reference
    import spans as tr

    reference.chunk_seconds()  # the first chunk of a process runs cold
    if traced:
        setup_tracer = tr.Tracer()
        with setup_tracer:
            wl.setup(seed, small)
        outputs, metrics, samples = _measure_traced(wl, seconds, setup_tracer)
    else:
        wl.setup(seed, small)
        outputs, metrics, samples = _measure(wl, seconds)
    if corrupt is not None:
        key, out = outputs[0]
        outputs[0] = (key, corrupt(out))
    failed = sum(1 for key, out in outputs if isinstance(out, Exception) or not wl.check(key, out))
    result = {"correct": failed == 0, "attempted": len(outputs), "failed": failed,
              "metrics": metrics}
    info = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "failed_frac": failed / len(outputs), "samples": samples, "env": environment()}
    return result, info


def _errors():
    from histspec import ConvergenceError, InvariantViolation, SearchBudgetError

    return (SearchBudgetError, ConvergenceError, InvariantViolation)


def _run_pass(wl, outputs):
    """Run the unit calls of one pass, with reference chunks between them.

    Returns (latencies, factors): per unit, its seconds and the speed
    factor of the machine around it, the mean time of the reference chunks
    before and after the unit's stretch of calls over REF_NOMINAL_S.  A
    chunk runs before the first unit, after the last, and after any unit
    that ends REF_EVERY_S or more after the previous chunk.
    """
    import reference

    errors = _errors()
    lat, factors, pending = [], [], 0
    ref_before = reference.chunk_seconds()
    last_ref = time.perf_counter()
    units = wl.pass_units()
    for i, (key, call, _) in enumerate(units):
        t0 = time.perf_counter()
        try:
            out = call()
        except errors as err:
            out = err
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        outputs.append((key, out))
        pending += 1
        if t1 - last_ref >= REF_EVERY_S or i == len(units) - 1:
            ref_after = reference.chunk_seconds()
            factors += [(ref_before + ref_after) / (2 * reference.REF_NOMINAL_S)] * pending
            ref_before, last_ref, pending = ref_after, time.perf_counter(), 0
    return lat, factors


def pass_count(wl, seconds) -> int:
    """Passes of a run: as many as fill --seconds at the workload's recorded
    pass time, and at least MIN_PASSES.  The count does not depend on how
    fast the code under test is."""
    return max(MIN_PASSES, round(seconds / wl.PASS_S))


def _measure(wl, seconds):
    outputs = []
    passes = [_run_pass(wl, outputs) for _ in range(pass_count(wl, seconds))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    norm = [[t / f for t, f in zip(lat, fac)] for lat, fac in passes]
    per_unit = sorted(statistics.median(col) for col in zip(*norm))
    graphs = sum(n_graphs for _, _, n_graphs in wl.pass_units())
    # The highest percentile with TAIL_BEYOND samples above it; with fewer
    # units than that (the n7, n8 and corpus passes) the slowest unit.
    tail_idx = len(per_unit) - 1 - (TAIL_BEYOND if len(per_unit) > TAIL_BEYOND else 0)
    metrics = {
        "graphs_per_s": (graphs / sum(per_unit), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(per_unit), "ms"),
        "item_tail_ms": (1e3 * per_unit[tail_idx], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    factors = [f for _, fac in passes for f in fac]
    samples = {
        "passes": len(passes), "units_per_pass": len(per_unit), "graphs_per_pass": graphs,
        "item_tail_percentile": 100.0 * tail_idx / max(1, len(per_unit) - 1),
        # What the passes did, before and after the speed correction.
        "median_pass_graphs_per_s": graphs / statistics.median(sum(lat) for lat, _ in passes),
        "median_pass_graphs_per_s_at_nominal_speed": graphs / statistics.median(map(sum, norm)),
        "speed_factor": {"median": statistics.median(factors), "min": min(factors),
                         "max": max(factors)},
    }
    return outputs, metrics, samples


def _measure_traced(wl, seconds, setup_tracer):
    """Pairs of an untraced and a traced pass, half as many as the passes
    of an untraced run.

    Every pass makes the same calls, so per-pass counts repeat exactly.
    The two passes of a pair run back to back, so the median over pairs of
    the drop in throughput is the tracing overhead.
    """
    import spans as tr

    tracer = tr.Tracer()
    outputs = []

    def pair():
        plain = sum(_run_pass(wl, outputs)[0])
        with tracer:
            traced = sum(_run_pass(wl, outputs)[0])
        return 1.0 - plain / traced

    drops = [pair() for _ in range(max(1, pass_count(wl, seconds) // 2))]
    metrics = tr.per_layer_metrics(tracer, len(drops), statistics.median(drops))
    metrics["verification.setup_threshold_s"] = (setup_tracer.layer_seconds()[tr.THRESHOLD], "s")
    os.makedirs(common.OUT_DIR, exist_ok=True)
    span_file = os.path.join(common.OUT_DIR, f"spans-{wl.name}-{os.getpid()}.npz")
    tracer.save(span_file)
    samples = {"pairs": len(drops), "spans_file": os.path.relpath(span_file, common.ROOT),
               "site_calls": tracer.site_calls()}
    return outputs, metrics, samples


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in common.THREAD_VARS},
    }


def _result_json(result) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())

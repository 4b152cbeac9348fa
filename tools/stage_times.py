"""Seconds and call counts per stage of the labeled scan, written to JSON.

Times one in-process `verify_theorem1(7)` pass and one pass over four
fixed 2^19-mask shards of the n=8 `thm2` scan (shards 136, 338, 414 and
255, the `n8_thm2_shards` benchmark shards).  Each stage is a module
function of `histspec.scan` (and `numpy.linalg.eigvalsh`), wrapped with
`time.perf_counter` at the name its callers resolve, so a stage's time
includes the stages it calls: `over_threshold` holds `_sandwich` and
`eigvalsh`, `_classify_over` holds `_connected_filter` and the rest of
classification.  BLAS and OpenMP pools are pinned to 1 thread before
numpy loads.  Every figure is the minimum over the passes; call counts do
not depend on the pass.  Stage names missing from the checkout are
skipped, so the tool runs on older trees too.

    python3 tools/stage_times.py [--passes N] [--out BENCH_stages.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from histspec import scan, verification  # noqa: E402

STAGES = ("_prescreen", "_rows_of_masks", "over_threshold", "_sandwich", "_connected_filter",
          "_classify_over", "_double_star_feasible", "proof_guided_hist", "find_hist",
          "_graph_of_row")
N8_SHARDS = (136, 338, 414, 255)
SHARD_BITS = 19


def _wrap(owner, name, seconds, calls):
    real = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - t0
            calls[name] += 1

    setattr(owner, name, timed)
    return real


def _n7_pass():
    verification.verify_theorem1(7)


def _n8_pass():
    cfg = scan.ScanConfig(n=8, theta=verification.threshold_two_connected(8), mode="thm2")
    for s in N8_SHARDS:
        scan.scan_range(cfg, s << SHARD_BITS, (s + 1) << SHARD_BITS)


def measure(run_pass, passes: int) -> dict:
    """Per-stage minimum seconds over `passes` passes, and call counts."""
    sites = [(scan, name) for name in STAGES if hasattr(scan, name)]
    sites.append((np.linalg, "eigvalsh"))
    best, calls = {}, {}
    for _ in range(passes):
        seconds = {name: 0.0 for _, name in sites}
        counts = {name: 0 for _, name in sites}
        reals = [(owner, name, _wrap(owner, name, seconds, counts)) for owner, name in sites]
        try:
            t0 = time.perf_counter()
            run_pass()
            seconds["pass"] = time.perf_counter() - t0
        finally:
            for owner, name, real in reals:
                setattr(owner, name, real)
        for name, s in seconds.items():
            best[name] = min(best.get(name, s), s)
        calls = counts
    return {name: {"s": round(best[name], 4), "calls": calls.get(name, 1),
                   "share": round(best[name] / best["pass"], 3)} for name in best}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--out", default="BENCH_stages.json")
    args = ap.parse_args(argv)
    result = {"passes": args.passes, "numpy": np.__version__, "python": sys.version.split()[0],
              "n7_thm1_full": measure(_n7_pass, args.passes),
              "n8_thm2_shards": measure(_n8_pass, args.passes)}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    for workload in ("n7_thm1_full", "n8_thm2_shards"):
        print(workload)
        for name, row in result[workload].items():
            print(f"  {name:<24} {row['s']:>8.3f} s {row['share']:>6.1%} {row['calls']:>8}")


if __name__ == "__main__":
    main()

"""Seconds and call counts per stage of the labeled scan and the graph6
corpus path, written to JSON.

Times one in-process `verify_theorem1(7)` pass, one pass over four
fixed 2^19-mask shards of the n=8 `thm2` scan (shards 136, 338, 414 and
255, the `n8_thm2_shards` benchmark shards), and one n=9 corpus pass: the
seed-1 file of the `n9_corpus` benchmark workload (2,000 records, written
by `perfbench/workloads.py`) through both corpus drivers.  Each stage is a
module function (and `numpy.linalg.eigvalsh`), wrapped with
`time.perf_counter` at the name its callers resolve, so a stage's time
includes the stages it calls.  In both labeled passes `scan_range`
scans the first window of each window class of its range, in blocks of
`scan.BLOCK_WINDOWS` scanned windows, and inside each window only the
low masks least in their orbit under the window's stabilizer
(`_orbit_table`).  `_survivors` lists the prescreen survivors of one
block's windows and their weights per call (it takes no array, so its
rows are its calls); the windows scanned and in range, the low masks
examined and the rows keyed per pass are written out too.  `_key_words`
then runs once per block, on every survivor: in groups of
`scan.GROUP_ROWS` rows it builds the rows (`_rows_of_masks`) and holds
`_class_keys`, the key that groups the rows by isomorphism class, and
packs each key in one word.  `_decide` then runs once per block, on
the keys of the block that the `scan_range` call has not decided yet,
and each row takes its key's verdict code, so every later stage sees
each distinct key once per call; its calls are
the blocks with new keys and its rows the keys decided per pass.  It
holds `over_threshold` (with `_sandwich` and `eigvalsh`), then
`_connected_filter` on the over-threshold keys, with `_reach_vec`, the
bitset BFS, once per call (for 2-connectivity its n searches, one per
deleted vertex, run in that one call), then `_classify`, which holds,
in its order,
`_double_star_feasible`, the recognizer `is_family_L` or `is_family_B`,
once per key the double-star test leaves, proof replay, once
per such key that is not extremal, and the search, once per key that
replay leaves open.  `Graph.is_2_connected` and
`Graph.cut_vertices` are wrapped the same way as class attributes, so the
n=8 pass shows what the proof replay's 2-connectivity re-check costs.
The corpus pass wraps, in the order a chunk meets them, the per-record
decode, the chunk stages `_connected_filter` and `over_threshold`,
`hong_bound` on the graphs `over_threshold` leaves under,
`_hub_double_star` once per chunk on the over-threshold graphs that are
not stars, the two recognizers, and proof replay, on the graphs without
a double star at the hub, with the `is_valid_hist` check inside it.
`Graph.is_connected`, `Graph.is_2_connected` and `Graph.cut_vertices`
are wrapped there too, so the corpus pass shows what the repeated
connectivity checks cost: `hong_bound`'s search (when 2δ < n - 1) and
the replay's re-check of the theorem's connectivity.  BLAS and OpenMP
pools are pinned to 1 thread before numpy loads, and
`histspec` is imported from this checkout's `src/` (both by
`perfbench/common.py`).

A reference chunk of fixed work (`perfbench/reference.py`) runs before
and after each pass.  The pass's speed factor is the mean of the two chunk
times over `REF_NOMINAL_S`, and each of the pass's stage and pass seconds
is divided by it, as `perfbench/run.py` does with unit times: on a shared
machine identical passes swing between speeds up to 1.6x apart.  Every
figure is the minimum of these corrected seconds over the passes, and the
factors are written out beside them.  One untimed warm-up pass per
workload runs first, so that the cached tables (`_codec`, the orbit
tables) are built outside the timed passes, even with `--passes 1`.
Besides its calls, each stage counts its rows: the length of its first
numpy-array argument, or one per call for a stage that takes none (a
`Graph`, a path) or takes one graph's row (`ONE_ROW`); a stage that takes
its rows transposed, one array per vertex (`TRANSPOSED`), counts the
graphs, the array's second axis.  Calls and rows do not depend on the
pass.  Seconds are rounded to 1 µs.

Stage names missing from the checkout are skipped, so the tool runs on
older trees too, and named on stderr, so a renamed stage does not drop
out unseen.

    python3 tools/stage_times.py [--passes N] [--out BENCH_stages.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import common  # noqa: E402

common.pin_threads()
common.import_histspec()

import numpy as np  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

from histspec import graph6, hist, scan, verification  # noqa: E402
from histspec.graphs import Graph  # noqa: E402

STAGES = ("_survivors", "_rows_of_masks", "_key_words", "_class_keys", "_decide",
          "over_threshold", "_sandwich", "_connected_filter", "_reach_vec", "_classify",
          "_double_star_feasible", "is_family_L", "is_family_B", "proof_guided_hist",
          "find_hist", "_graph_of_row")
ONE_ROW = ("_graph_of_row",)
TRANSPOSED = ("_reach_vec",)
CORPUS_STAGES = ((graph6, "decode_graph6"), (scan, "_connected_filter"),
                 (scan, "over_threshold"), (verification, "hong_bound"), (scan, "_hub_double_star"),
                 (verification, "is_family_L"), (verification, "is_family_B"),
                 (hist, "proof_guided_hist"), (hist, "is_valid_hist"),
                 (Graph, "is_connected"), (Graph, "is_2_connected"), (Graph, "cut_vertices"))
N8_SHARDS = (136, 338, 414, 255)
CORPUS_SEED = 1
SHARD_BITS = 19


def _wrap(owner, name, seconds, calls, rows):
    real = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - t0
            calls[name] += 1
            first = next((a for a in args if isinstance(a, np.ndarray)), None)
            rows[name] += (1 if name in ONE_ROW or first is None
                           else first.shape[1] if name in TRANSPOSED else len(first))

    setattr(owner, name, timed)
    return real


def _n7_pass():
    verification.verify_theorem1(7)


def _n8_pass():
    cfg = scan.ScanConfig(n=8, theta=verification.threshold_two_connected(8), mode="thm2")
    for s in N8_SHARDS:
        scan.scan_range(cfg, s << SHARD_BITS, (s + 1) << SHARD_BITS)


def _corpus_pass(path):
    def run_pass():
        for driver in (verification.verify_theorem1, verification.verify_theorem2):
            driver(9, source="graph6_corpus", corpus_path=path)
    return run_pass


def count_windows(run_pass) -> dict:
    """Windows scanned and in range, low masks examined and rows keyed
    over one pass of the labeled scan.  From the (window, weight) lists
    `scan._scan` takes, a window counts once as scanned and its weight
    times as in range; the low masks examined are the representatives of
    each window's `_orbit_table`; the rows keyed are the rows
    `_key_words` takes."""
    counts = {"scanned": 0, "in_range": 0, "examined": 0, "keyed": 0}
    reals = {name: getattr(scan, name) for name in ("_scan", "_orbit_table", "_key_words")
             if hasattr(scan, name)}

    def scanned(cfg, c, windows):
        counts["scanned"] += len(windows)
        counts["in_range"] += sum(weight for _, weight in windows)
        return reals["_scan"](cfg, c, windows)

    def table(blocks):
        tables = reals["_orbit_table"](blocks)
        counts["examined"] += len(tables[0])
        return tables

    def keyed(*args):  # (codec, masks), or (rows) on older trees
        counts["keyed"] += len(args[-1])
        return reals["_key_words"](*args)

    for name, wrapper in (("_scan", scanned), ("_orbit_table", table), ("_key_words", keyed)):
        if name in reals:
            setattr(scan, name, wrapper)
    try:
        run_pass()
    finally:
        for name, real in reals.items():
            setattr(scan, name, real)
    return counts


def measure(run_pass, passes: int, sites) -> tuple[dict, list[float]]:
    """Per-stage minimum speed-corrected seconds over `passes` passes, call
    and row counts, and the speed factor of each pass."""
    best, calls, rows, factors = {}, {}, {}, []
    run_pass()  # untimed warm-up
    for _ in range(passes):
        seconds = {name: 0.0 for _, name in sites}
        counts = {name: 0 for _, name in sites}
        sizes = {name: 0 for _, name in sites}
        ref_before = reference.chunk_seconds()
        reals = [(owner, name, _wrap(owner, name, seconds, counts, sizes))
                 for owner, name in sites]
        try:
            t0 = time.perf_counter()
            run_pass()
            seconds["pass"] = time.perf_counter() - t0
        finally:
            for owner, name, real in reals:
                setattr(owner, name, real)
        factor = (ref_before + reference.chunk_seconds()) / (2 * reference.REF_NOMINAL_S)
        factors.append(round(factor, 4))
        for name, s in seconds.items():
            best[name] = min(best.get(name, float("inf")), s / factor)
        calls, rows = counts, sizes
    stages = {name: {"s": round(best[name], 6), "calls": calls.get(name, 1),
                     "rows": rows.get(name, 1), "share": round(best[name] / best["pass"], 3)}
              for name in best}
    return stages, factors


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--out", default="BENCH_stages.json")
    args = ap.parse_args(argv)
    skipped = [f"scan.{name}" for name in STAGES if not hasattr(scan, name)]
    skipped += [f"{owner.__name__}.{name}" for owner, name in CORPUS_STAGES
                if not hasattr(owner, name)]
    if skipped:
        print(f"skipped stages not in histspec: {', '.join(skipped)}", file=sys.stderr)
    reference.chunk_seconds()  # the first chunk of a process runs cold
    result = {"passes": args.passes, "numpy": np.__version__, "python": sys.version.split()[0],
              "speed_factors": {}, "windows": {}}
    labeled = [(scan, name) for name in STAGES if hasattr(scan, name)]
    labeled += [(np.linalg, "eigvalsh"), (Graph, "is_2_connected"), (Graph, "cut_vertices")]
    corpus = workloads.N9Corpus()
    corpus.setup(CORPUS_SEED, small=False)
    try:
        for workload, run_pass, sites in (
                ("n7_thm1_full", _n7_pass, labeled),
                ("n8_thm2_shards", _n8_pass, labeled),
                ("n9_corpus", _corpus_pass(corpus.path),
                 [(owner, name) for owner, name in CORPUS_STAGES if hasattr(owner, name)])):
            result[workload], result["speed_factors"][workload] = measure(
                run_pass, args.passes, sites)
            if sites is labeled and hasattr(scan, "_scan"):
                result["windows"][workload] = count_windows(run_pass)
    finally:
        corpus.close()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    for workload in ("n7_thm1_full", "n8_thm2_shards", "n9_corpus"):
        factors = ", ".join(f"{f:.2f}" for f in result["speed_factors"][workload])
        windows = result["windows"].get(workload)
        scanned = (f"; windows scanned {windows['scanned']} of {windows['in_range']}, "
                   f"low masks examined {windows['examined']}, rows keyed {windows['keyed']}"
                   if windows else "")
        print(f"{workload} (speed factors {factors}{scanned})")
        for name, row in result[workload].items():
            print(f"  {name:<24} {row['s'] * 1e3:>9.3f} ms {row['share']:>6.1%} {row['calls']:>8}"
                  f" {row['rows']:>9}")


if __name__ == "__main__":
    main()

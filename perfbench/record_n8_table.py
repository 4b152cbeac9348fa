"""Record the reference table that checks the n8_thm2_shards workload.

Scans all 512 shards (2^19 masks each) of the n=8 2-connected labeled
scan and writes, per shard, the over-threshold, extremal and HIST counts
and the counterexample list to perfbench/n8_thm2_table.json.  The table
is recorded once, from a trusted commit, and committed with the
benchmark; the benchmark never rewrites it.

    python3 perfbench/record_n8_table.py --workers 2

The full scan takes about 10 minutes of one core.  Per-shard seconds go
to stderr as "shard <index> <seconds>".
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import sys
import time

import common

SHARD_BITS = 19
N_SHARDS = 1 << (28 - SHARD_BITS)


def _scan_shard(idx):
    common.pin_threads()
    hs = common.import_histspec()
    from histspec import scan

    cfg = scan.ScanConfig(n=8, theta=hs.threshold_two_connected(8), mode="thm2", extremal="B")
    t0 = time.perf_counter()
    out = scan.scan_range(cfg, idx << SHARD_BITS, (idx + 1) << SHARD_BITS)
    return idx, time.perf_counter() - t0, [out.over, out.extremal, out.hists, out.counterexamples]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=common.N8_TABLE)
    args = ap.parse_args(argv)
    if not 1 <= args.workers <= 8:
        ap.error("--workers must be 1..8")
    common.pin_threads()
    hs = common.import_histspec()
    rows = [None] * N_SHARDS
    with mp.get_context("spawn").Pool(args.workers) as pool:
        for idx, secs, row in pool.imap_unordered(_scan_shard, range(N_SHARDS)):
            rows[idx] = row
            print(f"shard {idx} {secs:.4f}", file=sys.stderr, flush=True)
    table = {
        "n": 8, "mode": "thm2", "extremal": "B", "shard_bits": SHARD_BITS,
        "threshold": hs.threshold_two_connected(8),
        "columns": ["over", "extremal", "hists", "counterexamples"],
        "shards": rows,
    }
    with open(args.out, "w") as fh:
        fh.write("{\n")
        for key in ("n", "mode", "extremal", "shard_bits", "threshold", "columns"):
            fh.write(f"  {json.dumps(key)}: {json.dumps(table[key])},\n")
        fh.write('  "shards": [\n')
        fh.write(",\n".join("    " + json.dumps(r) for r in rows))
        fh.write("\n  ]\n}\n")


if __name__ == "__main__":
    main()

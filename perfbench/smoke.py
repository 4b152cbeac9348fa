"""Smoke run of the benchmark itself, at reduced size.

Runs every workload on small inputs (n7_thm1_full as it is, one n=8 shard,
301 corpus graphs, six random search instances and K_{2,4}, K_{2,5}),
untraced and traced, so that every output check and every trace wrapper
runs.  Then it runs each workload again with its first output corrupted
and requires failed_frac to count the corruption.

    python3 perfbench/smoke.py

Prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import common


# An order-9 graph whose proof replay ends outside the constructive cases,
# so the corpus drivers fall back to find_hist; record 1064 of the seed-2
# corpus.  Small corpora rarely contain one.
SEARCH_FALLBACK_G6 = "HvsGLqz"


def _smoke_corpus(workloads):
    from histspec import decode_graph6

    class SmokeCorpus(workloads.N9Corpus):
        def setup(self, seed, small):
            super().setup(seed, small)
            self.graphs.append(decode_graph6(SEARCH_FALLBACK_G6))
            with open(self.path, "a", encoding="ascii") as fh:
                fh.write(SEARCH_FALLBACK_G6 + "\n")

    return SmokeCorpus


def _bump(rep):
    """A report claiming one more over-threshold graph (and HIST) than it saw."""
    return dataclasses.replace(rep, over_threshold=rep.over_threshold + 1,
                               hists_found=rep.hists_found + 1)


def _corruptors():
    from histspec import HistOutcome
    from histspec.hist import EXHAUSTED_SEARCH, Certificate

    def shard(out):
        return dataclasses.replace(out, over=out.over + 1, hists=out.hists + 1)

    def outcome(o):
        if o.found:
            return HistOutcome(found=False, certificate=Certificate(EXHAUSTED_SEARCH))
        return HistOutcome(found=True, tree_edges=((0, 1),))

    return {
        "n7_thm1_full": _bump,
        "n8_thm2_shards": shard,
        "n9_corpus": lambda reps: (_bump(reps[0]),) + tuple(reps[1:]),
        "hist_search": outcome,
    }


def main():
    common.pin_threads()
    common.import_histspec()
    import run
    import workloads

    corrupt = _corruptors()
    failures = []
    with open(f"{common.ROOT}/BENCHMARK.json") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"] for m in declared["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in declared["per_layer"]}
    site_calls = {}

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    classes = dict(workloads.WORKLOADS, n9_corpus=_smoke_corpus(workloads))
    for name, cls in classes.items():
        wl = cls()
        try:
            res, _ = run.run_workload(wl, seed=1, seconds=0, traced=False, small=True)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name}: untraced outputs pass their checks ({res['attempted']} items)")
            expect(set(res["metrics"]) == end_to_end
                   and all(v > 0 for v, _ in res["metrics"].values()),
                   f"{name}: untraced run reports every declared end-to-end metric, all positive")

            res, info = run.run_workload(wl, seed=1, seconds=0, traced=True, small=True)
            expect(res["correct"], f"{name}: traced outputs pass their checks")
            expect(set(res["metrics"]) == per_layer,
                   f"{name}: traced run reports every declared per-layer metric")
            for site, calls in info["samples"]["site_calls"].items():
                site_calls[site] = site_calls.get(site, 0) + calls

            res, info = run.run_workload(wl, seed=1, seconds=0, traced=False, small=True,
                                         corrupt=corrupt[name])
            expect(res["failed"] == 1 and not res["correct"] and info["failed_frac"] > 0,
                   f"{name}: a corrupted output is counted "
                   f"(failed {res['failed']}/{res['attempted']}, failed_frac {info['failed_frac']:.4f})")
        finally:
            wl.close()

    idle = sorted(site for site, calls in site_calls.items() if not calls)
    expect(not idle, f"every trace wrapper was called ({len(site_calls)} sites; idle: {idle})")
    if failures:
        print(f"{len(failures)} smoke check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

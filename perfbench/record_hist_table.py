"""Record the oracle verdicts that check the hist_search workload.

For every search instance that find_hist answers "no HIST" by exhausting
its search, runs the spanning-tree oracle `oracle_hist` and writes the
verdict, keyed by the instance's graph6 string, to
perfbench/hist_search_table.json.  The table is recorded once, from a
trusted commit, and committed with the benchmark; instances missing from
it are checked with the oracle during the run instead.

    python3 perfbench/record_hist_table.py

Takes about 15 s.
"""

from __future__ import annotations

import json

import common


def main():
    common.pin_threads()
    common.import_histspec()
    from histspec import encode_graph6, hist

    import workloads

    wl = workloads.HistSearch()
    wl.setup(seed=0, small=False)
    verdicts = {}
    for g in wl.graphs:
        outcome = hist.find_hist(g)
        if not outcome.found and outcome.certificate.kind == hist.EXHAUSTED_SEARCH:
            verdicts[encode_graph6(g)] = hist.oracle_hist(g).found
    with open(common.HIST_TABLE, "w") as fh:
        json.dump({"has_hist": verdicts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(verdicts)} verdicts, {sum(verdicts.values())} with a HIST")


if __name__ == "__main__":
    main()

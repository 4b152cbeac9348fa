"""A mutation matrix for the shortcuts of the verdict path.

Each mutant is one textual edit to one file of `src/histspec/` and the
fast test selection expected to catch it.  For each mutant the tool copies
`src/`, `tests/` and `pyproject.toml` of this checkout to a fresh
temporary directory, applies the edit there (the checkout is never
written), runs the selection with pytest and prints one line of the kill
matrix.  A mutant is killed when its selection fails (pytest exit 1, or 2
for a collection error), and survives when the selection passes.  Before
the mutants, the union of the selections runs once on an unmutated copy,
so a kill is never a test that fails anyway.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the unmutated selections fail, an edit's text is not found exactly once,
or pytest cannot run a selection (no such test).

A PR that adds a shortcut to the verdict path adds its mutant here.

    python3 tools/mutants.py [--list] [NAME ...]
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
VERIFICATION = "tests/test_verification.py::"


class Mutant(NamedTuple):
    name: str
    path: str       # relative to src/histspec
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple    # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant("sandwich-under-margin", "scan.py",
           "under = theta - GUARD - 1e-12", "under = theta + 1e-3",
           (VERIFICATION + "test_corpus_batch_matches_power_iteration_near_threshold",)),
    Mutant("degree-floor-strict", "scan.py",
           "(dmax >= floor)", "(dmax > floor)",
           (VERIFICATION + "test_prescreen_matches_per_graph_reference",)),
    Mutant("hong-table-strict", "scan.py",
           "hong_value(d[ok], n, m[ok]) >= cfg.theta - GUARD",
           "hong_value(d[ok], n, m[ok]) > cfg.theta - GUARD",
           (VERIFICATION + "test_prescreen_table_matches_elementwise_hong",)),
    Mutant("window-high-half-of-next-window", "scan.py",
           "hi_deg = c.hi_deg[y]", "hi_deg = c.hi_deg[min(y + 1, len(c.hi_deg) - 1)]",
           (VERIFICATION + "test_survivors_match_per_mask_prescreen",)),
    Mutant("window-end-one-short", "scan.py",
           "flat.take(dmin * cols + m))\n",
           "flat.take(dmin * cols + m))\n            keep = keep[keep < len(lo_m) - 1]\n",
           (VERIFICATION + "test_survivors_match_per_mask_prescreen",)),
    Mutant("scan-range-skips-alignment-check", "scan.py",
           " or lo % width or hi % width:", ":",
           (VERIFICATION + "test_scan_range_rejects_masks_outside_the_order",)),
    Mutant("bfs-step-bound", "scan.py",
           "    for _ in range(len(cols)):\n        acc = np.zeros_like(reach)",
           "    for _ in range(len(cols) - 2):\n        acc = np.zeros_like(reach)",
           (VERIFICATION + "test_connected_filter_matches_bfs_and_cut_vertices",)),
    Mutant("two-connected-one-deletion-enough", "scan.py",
           ".all(axis=0)", ".any(axis=0)",
           (VERIFICATION + "test_connected_filter_matches_n_search_reference",)),
    Mutant("double-star-split-one-shared", "scan.py",
           "return ((both >= 2)", "return ((both >= 1)",
           (VERIFICATION + "test_double_star_feasible_matches_brute_force",
            VERIFICATION + "test_hub_double_star_matches_brute_force")),
    Mutant("double-star-centres-count-themselves", "scan.py",
           "full ^ bit[a] ^ bit[a + 1:]", "full",
           (VERIFICATION + "test_double_star_feasible_matches_brute_force",)),
    Mutant("double-star-centre-b-unchecked", "scan.py",
           "((a_only != 1) & (b_only + both != 1))", "(a_only != 1)",
           (VERIFICATION + "test_scan_below_the_replay_order_floor_matches_per_graph_reference",
            VERIFICATION + "test_double_star_feasible_matches_brute_force",
            VERIFICATION + "test_double_star_test_settles_every_spanning_star")),
    Mutant("hub-double-star-no-domination", "scan.py",
           "(((ra | rows) == full) & split)", "(split)",
           (VERIFICATION + "test_hub_double_star_matches_brute_force",
            VERIFICATION + "test_corpus_star_settle_is_sound_below_threshold")),
    Mutant("hub-double-star-min-degree-hub", "scan.py",
           "np.bitwise_count(rows).argmax(axis=1)", "np.bitwise_count(rows).argmin(axis=1)",
           (VERIFICATION + "test_corpus_replays_only_graphs_without_a_hub_double_star",)),
    Mutant("class-keys-rows-not-bits", "scan.py",
           "np.multiply(q[v], ahead.view(np.uint8), out=scratch)",
           "np.multiply(cols[v], ahead.view(np.uint8), out=scratch)",
           (VERIFICATION + "test_class_keys_are_relabelings",)),
    Mutant("verdicts-outlive-call", "scan.py",
           "verdicts = _Verdicts()", 'verdicts = globals().setdefault("_kept", _Verdicts())',
           (VERIFICATION + "test_verdict_table_keeps_no_state_between_calls",)),
    Mutant("verdict-codes-one-slot-off", "scan.py",
           "return self.codes[np.searchsorted(self.words, distinct)][row]",
           "return self.codes[np.searchsorted(self.words, distinct) - 1][row]",
           (VERIFICATION + "test_verdict_codes_follow_row_order_and_decide_only_new_words",)),
    Mutant("tally-without-row-weights", "scan.py",
           "np.bincount(code, weights=weights, minlength=BAD + 1)",
           "np.bincount(code, minlength=BAD + 1)",
           (VERIFICATION + "test_window_classes_match_scanning_every_window",)),
    Mutant("window-class-without-high-rows", "scan.py",
           "high[:, :low].sort(axis=1)", "high[:, :low].sort(axis=1)\n        high[:, low:] = 0",
           (VERIFICATION + "test_window_classes_are_orbits_of_the_low_vertices",)),
    Mutant("survivors-without-window-weight", "scan.py",
           "out.survivors += int(weights.sum(dtype=np.int64))", "out.survivors += len(weights)",
           (VERIFICATION + "test_window_classes_match_scanning_every_window",)),
    Mutant("orbit-weight-dropped", "scan.py",
           "size[keep] * np.uint32(weight)", "np.full_like(size[keep], weight)",
           (VERIFICATION + "test_orbit_representatives_expand_to_the_window_survivors",)),
    Mutant("orbit-generator-across-types", "scan.py",
           "if blocks[w] == blocks[a]", "if blocks[w] != blocks[a]",
           (VERIFICATION + "test_orbit_tables_match_the_least_mask_over_the_young_subgroup",)),
    Mutant("audit-first-class-only", "verification.py",
           "_window_classes(c, range(len(c.hi_rows)))]",
           "_window_classes(c, range(len(c.hi_rows)))][:1]",
           (VERIFICATION + "test_audit_small",)),
    Mutant("audit-unweighted", "verification.py",
           "w[code != _scan.UNDER]) for m, w, code in",
           "np.ones_like(w[code != _scan.UNDER])) for m, w, code in",
           (VERIFICATION + "test_audit_small",)),
    Mutant("driver-scans-half-the-order", "verification.py",
           "scan_range(cfg, 0, 1 << (n * (n - 1) // 2))",
           "scan_range(cfg, 0, 1 << (n * (n - 1) // 2) - 1)",
           (VERIFICATION + "test_theorem1_whole_order_counts",)),
    Mutant("corpus-survivors-drop-over", "verification.py",
           "out.survivors += n_over + int(rest.sum())", "out.survivors += int(rest.sum())",
           (VERIFICATION + "test_corpus_filter_matches_per_graph_reference",)),
    Mutant("corpus-rest-skips-hong", "verification.py",
           "        rest[rest] = [hong_bound(g) >= theta - GUARD for g in itertools.compress(graphs, rest)]\n",
           "",
           (VERIFICATION + "test_corpus_runs_hong_only_on_graphs_the_bounds_leave_under",)),
    Mutant("counterexample-copies-dropped", "scan.py",
           "weights[bad].tolist()", "[1] * int(bad.sum())",
           (VERIFICATION + "test_window_classes_list_every_copy_of_a_counterexample",
            VERIFICATION + "test_orbit_weights_rescan_a_counterexample")),
    Mutant("counterexamples-wrong-code", "scan.py",
           "bad = code == BAD", "bad = code == SEARCHED",
           (VERIFICATION + "test_scan_below_threshold_reports_real_counterexamples",)),
    Mutant("replay-below-order-floor", "scan.py",
           "replay = n >= spec.order_floor", "replay = True",
           (VERIFICATION + "test_scan_below_the_replay_order_floor_matches_per_graph_reference",)),
    Mutant("replay-loop-unchecked", "hist.py",
           "if missed.bit_count() != n - 1 - delta:", "if False:",
           ("tests/test_hist.py::test_proof_guided_rejects_a_loop_at_the_hub",)),
    Mutant("hist-check-skips-adjacency", "hist.py",
           "0 <= v < n and rows[u] >> v & 1)", "0 <= v < n)",
           ("tests/test_hist.py::test_is_valid_hist_rejects",)),
    Mutant("search-adopter-needs-three", "hist.py",
           "if kids & (kids - 1):  # an adopter", 'if kids.bit_count() >= 3:  # an adopter',
           ("tests/test_hist.py::test_oracle_equivalence_exhaustive_n6",)),
    Mutant("search-forced-node-uncounted", "hist.py",
           "# forced: no children\n            nodes += 1\n", "# forced: no children\n",
           ("tests/test_hist.py::test_search_node_counts_are_pinned",)),
    Mutant("search-forced-with-two-free", "hist.py",
           "free.bit_count() < 2:  # forced", "free.bit_count() < 3:  # forced",
           ("tests/test_hist.py::test_oracle_equivalence_exhaustive_n6",)),
    Mutant("spanning-trees-skip-unchecked", "hist.py",
           "if _reach(usable, 1, full) == full:", "if True:",
           ("tests/test_hist.py::test_spanning_trees_skip_only_edges_the_rest_can_spare",)),
    Mutant("hong-skips-bfs-at-half-degree", "spectral.py",
           "2 * dmin < g.n - 1 and", "2 * dmin < g.n - 2 and",
           ("tests/test_spectral.py::test_hong_bound_values",)),
    Mutant("ears-not-distinct", "graphs.py",
           "if len({s0, s1, s2, s3, s4}) == 5:", "if True:",
           ("tests/test_graphs.py::test_family_recognizers_are_pinned",)),
    Mutant("graph6-padding-unchecked", "graphs.py",
           "table = [0] + [None] * ((1 << 6 - len(group)) - 1)",
           "table = [0] * (1 << 6 - len(group))",
           ("tests/test_graph6.py::test_format_errors_carry_offsets",)),
)


def _copy(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(tree: str, tests) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _apply(tree: str, m: Mutant) -> None:
    path = os.path.join(tree, "src", "histspec", m.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(m.old, m.new))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:<36} {m.path:<10} {' '.join(m.tests)}")
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        base = os.path.join(scratch, "base")
        _copy(base)
        for m in chosen:  # every edit applies before anything runs
            _apply(base, m)
        shutil.rmtree(base)
        _copy(base)
        selection = sorted({t for m in chosen for t in m.tests})
        rc = _pytest(base, selection)
        if rc != 0:
            print(f"unmutated selections fail or name no test (pytest exit {rc})",
                  file=sys.stderr)
            return 2
        survived, errors = [], []
        for i, m in enumerate(chosen):
            tree = os.path.join(scratch, f"m{i}")
            _copy(tree)
            _apply(tree, m)
            t0 = time.perf_counter()
            rc = _pytest(tree, m.tests)
            verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(rc, f"error (exit {rc})")
            if rc == 0:
                survived.append(m.name)
            elif rc not in (1, 2):
                errors.append(m.name)
            print(f"{m.name:<36} {verdict:<10} {time.perf_counter() - t0:6.1f} s  "
                  f"{' '.join(t.split('::')[-1] for t in m.tests)}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survived) - len(errors)} of {len(chosen)} mutants killed")
    if errors:
        return 2
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

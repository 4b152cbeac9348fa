"""Acceptance suite: one test per acceptance criterion, in running order
(cheap criteria first, the full order-8 scan last).  Each test prints a
single PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`.

Stated tolerances: threshold guard 1e-9 (over-inclusive), quartic residue
1e-6, bisection/eigensolver agreement 1e-8.  The exhaustive scans verify
the claims at the stated desk-scale orders only; the theorems themselves
are unbounded and the reports say so explicitly.
"""

import time

import numpy as np

from histspec import (
    Graph6FormatError,
    audit_prescreens,
    charpoly_B,
    charpoly_L,
    decode_graph6,
    delta_bound,
    encode_graph6,
    family_B,
    family_L,
    find_hist,
    hong_bound,
    largest_root,
    oracle_hist,
    spectral_radius,
    verify_certificates,
    verify_theorem1,
    verify_theorem2,
)
from histspec import enumerate_labeled

from helpers import all_labeled_graphs, identity_scan, labeled_copy_count, random_connected


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{' - ' if detail else ''}{detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_theorem1_exhaustive_n7():
    t0 = time.monotonic()
    rep = verify_theorem1(7)
    copies = labeled_copy_count(family_L(7))
    elapsed = time.monotonic() - t0
    ok = (rep.ok and rep.scanned == 2**21
          and rep.extremal_matches == copies and elapsed < 600)
    _report(
        "criterion 1 (connected threshold, n=7, all 2^21 labeled graphs)",
        ok,
        f"counterexamples={rep.counterexample_copies}, "
        f"extremal={rep.extremal_matches} (brute copy count {copies}), "
        f"over={rep.over_threshold}, elapsed={elapsed:.1f}s",
    )


def test_criterion_3_quartic_consistency():
    worst_l = worst_b = worst_gap = 0.0
    for n in range(7, 51):
        rho = spectral_radius(family_L(n)).rho
        worst_l = max(worst_l, abs(charpoly_L(n)(rho)))
        worst_gap = max(worst_gap, abs(rho - largest_root(charpoly_L(n), n - 3, n - 2)))
    for n in range(8, 51):
        rho = spectral_radius(family_B(n)).rho
        worst_b = max(worst_b, abs(charpoly_B(n)(rho)))
        worst_gap = max(worst_gap, abs(rho - largest_root(charpoly_B(n), n - 4, n - 3)))
    ok = worst_l <= 1e-6 and worst_b <= 1e-6 and worst_gap <= 1e-8
    _report(
        "criterion 3 (quartic consistency, n=7..50)",
        ok,
        f"max |P_L(rho)|={worst_l:.2e}, max |P_B(rho)|={worst_b:.2e}, "
        f"max |bisection-eigensolver|={worst_gap:.2e}",
    )


def test_criterion_4_bound_suite():
    violations = 0
    for n in range(7, 51):
        rho = spectral_radius(family_L(n)).rho
        if not (n - 3 < rho < n - 3 + 1 / (n - 3)):
            violations += 1
    for n in range(8, 51):
        rho = spectral_radius(family_B(n)).rho
        if not (n - 4 < rho < n - 4 + 2 / (n - 4)):
            violations += 1

    rng = np.random.default_rng(424242)
    done = 0
    while done < 1000:
        n = int(rng.integers(4, 13))
        g = random_connected(rng, n, 0.5)
        res = spectral_radius(g)
        if res.rho > delta_bound(g) + 1e-9:
            violations += 1
        if res.rho > hong_bound(g) + 1e-9:
            violations += 1
        edges = list(g.edges())
        removable = [e for e in edges
                     if g.remove_edge(*e).is_connected()]
        if not removable:
            continue
        u, v = removable[int(rng.integers(len(removable)))]
        sub = spectral_radius(g.remove_edge(u, v))
        if not (sub.rho < res.rho
                and res.rho - sub.rho > 2 * max(res.residual, sub.residual)):
            violations += 1
        done += 1
    _report(
        "criterion 4 (bound suite: families n<=50, 1000 random graphs n<=12)",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    disagreements = 0
    checked = 0
    for n in range(1, 7):
        for g in enumerate_labeled(n, connected=True):
            checked += 1
            if find_hist(g).found != oracle_hist(g).found:
                disagreements += 1
    rng = np.random.default_rng(5150)
    for n in (7, 8):
        for _ in range(10_000):
            g = random_connected(rng, n, 0.5)
            checked += 1
            if find_hist(g).found != oracle_hist(g).found:
                disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 900
    _report(
        "criterion 5 (search vs all-spanning-trees oracle)",
        ok,
        f"graphs={checked}, disagreements={disagreements}, elapsed={elapsed:.0f}s",
    )


def test_criterion_6_prescreen_safety_audit():
    rep = audit_prescreens(8, "thm2")
    _report(
        f"criterion 6 (prescreen safety audit, n=8, all {rep.windows} window classes)",
        rep.ok,
        f"over with={rep.over_with_prescreens} without={rep.over_without_prescreens} "
        f"discrepancies={rep.discrepancies}, elapsed={rep.elapsed:.0f}s",
    )


def test_criterion_7_certificate_soundness():
    rep = verify_certificates(6)
    fam_ok = all(r["certificate"] is not None for r in rep.family_rows)
    kinds = {(r["family"], r["n"]): r["certificate"] for r in rep.family_rows}
    l_ok = all(kinds[("L", n)] == "cut_vertex_deg2" for n in range(4, 11))
    b_ok = all(kinds[("B", n)] == "p5_pattern" for n in range(6, 11))
    ok = rep.soundness_violations == 0 and fam_ok and l_ok and b_ok
    _report(
        "criterion 7 (certificate soundness, exhaustive n<=6 + families n<=10)",
        ok,
        f"checked={rep.graphs_checked}, fired={rep.certificates_fired}, "
        f"violations={rep.soundness_violations}",
    )


def test_criterion_8_graph6_round_trip(tmp_path):
    count = 0
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            assert decode_graph6(encode_graph6(g)) == g
            count += 1

    # supplied corpus file round-trips as well
    rng = np.random.default_rng(8)
    corpus = [family_L(7), family_B(8)] + [random_connected(rng, 9, 0.4)
                                           for _ in range(50)]
    path = tmp_path / "corpus.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in corpus))
    from histspec import read_graph6_file

    got = [g for _, g in read_graph6_file(str(path))]
    assert got == corpus

    # malformed input always raises the format error with an offset,
    # never anything else
    fuzz_ok = True
    for _ in range(3000):
        length = int(rng.integers(0, 12))
        s = "".join(chr(int(c)) for c in rng.integers(1, 127, size=length))
        try:
            decode_graph6(s)
        except Graph6FormatError as err:
            if not isinstance(err.offset, int):
                fuzz_ok = False
        except Exception:
            fuzz_ok = False
    _report(
        "criterion 8 (graph6 round-trip + malformed input handling)",
        fuzz_ok,
        f"round-tripped {count} labeled graphs (n<=6) plus a 52-record corpus",
    )


def test_criterion_2_theorem2_exhaustive_n8():
    # The full 2^28 scan, one scan_range call over the order's 168 window
    # classes.  Prescreens (max degree, Hong-type edge bound,
    # 2-connectivity) were audited by criterion 6, and the window-class
    # weighting by the identity-route test below.
    t0 = time.monotonic()
    rep = verify_theorem2(8)
    copies = labeled_copy_count(family_B(8))
    elapsed = time.monotonic() - t0
    # The survivor, over-threshold and HIST counts pin every stage's
    # verdicts: a connectivity filter that dropped a 2-connected graph, or
    # kept one that is not, would move them while ok and extremal held.
    ok = (rep.ok and rep.scanned == 2**28
          and rep.extremal_matches == copies and elapsed < 60
          and rep.prescreen_survivors == 125_811_193
          and rep.over_threshold == 74_986_629
          and rep.hists_found == 74_983_269)
    _report(
        "criterion 2 (2-connected threshold, n=8, all 2^28 labeled graphs)",
        ok,
        f"counterexamples={rep.counterexample_copies}, "
        f"extremal={rep.extremal_matches} (brute copy count {copies}), "
        f"over={rep.over_threshold}, survivors={rep.prescreen_survivors}, "
        f"hists={rep.hists_found}, "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_2_identity_route_matches_window_classes():
    # An independent gate for the window-class and orbit weighting: the
    # identity route of helpers.py, every low mask of every window of the
    # n=8 order scanned at weight 1, gives the same ShardOut, every field,
    # as the class-and-orbit route criterion 2 takes.  It prescreens and
    # keys all 2^28 masks, so it is slow, and its name puts it in the
    # criterion-2 run.
    from histspec import scan, threshold_two_connected

    t0 = time.monotonic()
    cfg = scan.ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    classes = scan.scan_range(cfg, 0, 1 << 28)
    identity = identity_scan(cfg, range(1 << 13))
    _report(
        "criterion 2 identity route (n=8 thm2, every low mask of every window at weight 1)",
        identity == classes,
        f"survivors={identity.survivors}, over={identity.over}, "
        f"extremal={identity.extremal}, elapsed={time.monotonic() - t0:.0f}s",
    )

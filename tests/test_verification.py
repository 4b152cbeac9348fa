import itertools
import json

import numpy as np
import pytest

from histspec import (
    Graph,
    complete,
    encode_graph6,
    enumerate_labeled,
    family_B,
    family_L,
    find_hist,
    threshold_connected,
    threshold_two_connected,
    verify_certificates,
    verify_corollaries,
    verify_theorem1,
    verify_theorem2,
)
from histspec import audit_prescreens
from histspec.scan import ScanConfig, graph_from_mask, mask_of_graph, scan_range
from histspec.verification import GRAPH6_CORPUS, VerificationReport

from helpers import connected_labeled_count, random_connected


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    got = sum(1 for _ in enumerate_labeled(4, connected=True))
    assert got == 38 == connected_labeled_count(4)
    for n in (3, 5, 6):
        got = sum(1 for _ in enumerate_labeled(n, connected=True))
        assert got == connected_labeled_count(n)


def test_enumerate_count_n7_matches_recurrence():
    got = sum(1 for _ in enumerate_labeled(7, connected=True))
    assert got == connected_labeled_count(7) == 1866256


def test_enumerate_rejects_large_order():
    with pytest.raises(ValueError):
        next(enumerate_labeled(9))


def test_mask_graph_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_connected(rng, 8, 0.5)
        assert graph_from_mask(8, mask_of_graph(g)) == g


def test_thresholds_cross_checked():
    assert threshold_connected(7) == pytest.approx(4.05479588952, abs=1e-9)
    assert threshold_two_connected(8) == pytest.approx(4.11394494360, abs=1e-9)


def test_theorem1_subsample_properties():
    rep = verify_theorem1(7, subsample=64)
    assert rep.ok
    assert rep.scanned == 2**21
    assert rep.over_threshold == rep.extremal_matches + rep.hists_found
    assert rep.threshold == pytest.approx(threshold_connected(7))


def test_theorem2_subsample_properties():
    rep = verify_theorem2(8, subsample=4096)
    assert rep.ok
    assert rep.scanned == 2**28
    assert rep.over_threshold == rep.extremal_matches + rep.hists_found


def test_reports_deterministic_and_thread_invariant():
    a = verify_theorem1(7, subsample=64).to_json()
    b = verify_theorem1(7, subsample=64).to_json()
    c = verify_theorem1(7, subsample=64, threads=2).to_json()

    def strip(js):
        d = json.loads(js)
        d.pop("elapsed")
        return d

    assert strip(a) == strip(b) == strip(c)


def test_report_arithmetic_enforced():
    with pytest.raises(Exception):
        VerificationReport(
            theorem="thm1", n=7, source="labeled_exhaustive", threshold=4.0,
            scanned=10, prescreen_survivors=5, over_threshold=3,
            extremal_matches=1, hists_found=1, counterexamples=[],
            elapsed=0.0, scope="x",
        )


def test_scan_artificially_low_threshold_is_more_inclusive():
    # Lowering the threshold to the clique bound must add over-threshold
    # graphs (thresholding is monotone).
    true_cfg = ScanConfig(n=7, theta=threshold_connected(7), mode="thm1",
                          extremal="L", subsample=32)
    low_cfg = ScanConfig(n=7, theta=4.0, mode="thm1",
                         extremal="L", subsample=32)
    hi = 1 << 21
    true_out = scan_range(true_cfg, 0, hi)
    low_out = scan_range(low_cfg, 0, hi)
    assert low_out.over > true_out.over


def test_family_members_survive_prescreens_and_match():
    # full run: prescreens must keep every labeled copy of the family and
    # the matcher must count each exactly once
    rep = verify_theorem1(7)
    assert rep.extremal_matches == 210


def test_audit_small():
    rep = audit_prescreens(7, "thm1", subsample=256)
    assert rep.ok
    rep = audit_prescreens(8, "thm1", subsample=1024)
    assert rep.ok
    rep = audit_prescreens(8, "thm2", subsample=65536)
    assert rep.ok


def test_scan_engine_order_limit():
    with pytest.raises(ValueError, match="uint8"):
        ScanConfig(n=9, theta=5.0, mode="thm2", extremal="B")
    with pytest.raises(ValueError, match="uint32"):
        audit_prescreens(9, "thm2")


@pytest.mark.parametrize("n,mode,extremal", [(7, "thm1", "L"), (8, "thm2", "B")])
def test_sandwich_matches_eigensolve_near_threshold(monkeypatch, n, mode, extremal):
    # Every labeled copy of the extremal family has rho exactly theta, and
    # one edge added or removed lands just above or below it: the rows
    # where the bounds of the refine path are tightest and must hand over
    # to the eigensolver.  The refine path requires minimum degree >= 1.
    from histspec.scan import _Tables, _eig_over

    theta = threshold_connected(n) if mode == "thm1" else threshold_two_connected(n)
    cfg = ScanConfig(n=n, theta=theta, mode=mode, extremal=extremal)
    t = _Tables(cfg)
    fam = family_L(n) if extremal == "L" else family_B(n)
    copies = {mask_of_graph(fam.relabel(p)) for p in itertools.permutations(range(n))}
    near = set(copies)
    for mk in copies:
        near.update(mk ^ (1 << b) for b in range(t.nbits))
    masks = np.array(sorted(near), dtype=np.uint32)
    deg = np.stack([np.bitwise_count(masks & t.inc[v]) for v in range(n)], axis=1)
    keep = deg.min(axis=1) >= 1
    masks, deg = masks[keep], deg[keep]

    plain = _eig_over(cfg, t, masks, deg, refine=False)
    solved = []
    real = np.linalg.eigvalsh

    def counted(a):
        solved.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    refined = _eig_over(cfg, t, masks, deg, refine=True)
    assert np.array_equal(refined, plain)
    assert set(copies) <= set(refined.tolist())
    assert len(copies) <= sum(solved) < len(masks)


def _labeled_copies(g, moved, limit=None, seed=0):
    """Permutations giving distinct labeled copies of g, whose automorphisms
    permute the vertices outside `moved` freely: every injective image of
    `moved`, the other vertices in increasing order; a seeded sample of
    `limit` copies when set."""
    n = g.n
    perms, seen = [], set()
    for image in itertools.permutations(range(n), len(moved)):
        perm = [0] * n
        for v, w in zip(moved, image):
            perm[v] = w
        rest = iter(sorted(set(range(n)) - set(image)))
        for v in range(n):
            if v not in moved:
                perm[v] = next(rest)
        rows = g.relabel(perm).rows
        if rows not in seen:
            seen.add(rows)
            perms.append(perm)
    if limit is not None and limit < len(perms):
        rng = np.random.default_rng(seed)
        perms = [perms[i] for i in sorted(rng.choice(len(perms), limit, replace=False))]
    return np.array(perms)


def _relabeled(base, perms):
    """Every graph of `base` under every permutation, as Graph values:
    vertex v of a base graph becomes perms[c][v]."""
    n = base[0].n
    adj = np.array([[[r >> w & 1 for w in range(n)] for r in g.rows] for g in base])
    inv = np.argsort(perms, axis=1)
    out = adj[:, inv[:, :, None], inv[:, None, :]]  # (base, copy, n, n)
    rows = (out.astype(np.int64) << np.arange(n)).sum(axis=3).reshape(-1, n)
    return [Graph._from_rows_unchecked(n, tuple(r)) for r in rows.tolist()]


@pytest.mark.parametrize("n", [9, 10, 11])
def test_corpus_batch_matches_power_iteration_near_threshold(monkeypatch, n):
    # Labeled copies of L_n and B_n (rho exactly theta) and their one-edge
    # additions and deletions that stay connected (rho just above or below)
    # are where the batched bounds of the corpus path are tightest.  rho is
    # a relabeling invariant, so the per-graph verdict of each unlabeled
    # graph is computed once by power iteration.  Every copy of L_n, and
    # of B_n at n = 9, is checked; at n = 10 and 11 a seeded 1,000 of
    # B_n's 15,120 and 27,720 copies, which all fall to power iteration.
    from histspec import verification
    from histspec.spectral import GUARD, spectral_radius
    from histspec.verification import CORPUS_BATCH, _over_threshold

    calls = []
    real = verification.spectral_radius

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(verification, "spectral_radius", counted)
    b_limit = None if n == 9 else 1000
    for fam, theta, moved, limit in (
            (family_L(n), threshold_connected(n), (0, 1, 2), None),
            (family_B(n), threshold_two_connected(n), (0, 1, 2, 3, 4), b_limit)):
        base = [fam]
        for i, j in itertools.combinations(range(n), 2):
            h = fam.remove_edge(i, j) if fam.has_edge(i, j) else fam.add_edge(i, j)
            if h.is_connected():
                base.append(h)
        want = [spectral_radius(h).rho >= theta - GUARD for h in base]
        assert want[0] and not all(want)
        perms = _labeled_copies(fam, moved, limit, seed=n)
        graphs = _relabeled(base, perms)
        expected = [w for w in want for _ in perms]
        del calls[:]
        got = []
        for s in range(0, len(graphs), CORPUS_BATCH):
            batch = graphs[s:s + CORPUS_BATCH]
            over = {id(g) for g in _over_threshold(batch, theta)}
            got.extend(id(g) in over for g in batch)
        assert got == expected
        assert len(perms) <= len(calls) < len(graphs)


def test_corpus_batch_at_order_62(tmp_path):
    # graph6's short form stops at n = 62; the corpus path packs rows into
    # int64, so bit 61 is the highest it must read.
    from histspec.spectral import GUARD, spectral_radius
    from histspec.verification import _over_threshold

    n = 62
    graphs = [complete(n), complete(n).remove_edge(0, n - 1), family_L(n), family_B(n)]
    for theta in (threshold_connected(n), threshold_two_connected(n)):
        want = [g for g in graphs if spectral_radius(g).rho >= theta - GUARD]
        assert _over_threshold(graphs, theta) == want
    path = tmp_path / "corpus62.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    for verify in (verify_theorem1, verify_theorem2):
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert rep.ok
        assert (rep.over_threshold, rep.extremal_matches, rep.hists_found) == (3, 1, 2)


def test_corpus_and_scan_share_one_spectral_decision(tmp_path, monkeypatch):
    # Every connected graph of one n=7 mask range, written as graph6, goes
    # through the corpus driver; its over-threshold graphs must be exactly
    # those of scan_range on the same range.
    from histspec import verification

    n, lo, hi = 7, 29 << 16, 30 << 16
    theta = threshold_connected(n)
    graphs = [g for g in (graph_from_mask(n, mk) for mk in range(lo, hi)) if g.is_connected()]
    path = tmp_path / "range7.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))

    seen = []
    real = verification.is_family_L

    def recorded(g):  # every over-threshold corpus graph is tested first
        seen.append(mask_of_graph(g))
        return real(g)

    monkeypatch.setattr(verification, "is_family_L", recorded)
    rep = verify_theorem1(n, source=GRAPH6_CORPUS, corpus_path=str(path))
    shard = scan_range(ScanConfig(n=n, theta=theta, mode="thm1", collect_over=True), lo, hi)
    assert rep.scanned == len(graphs)
    assert rep.over_threshold == shard.over == len(seen) > 0
    assert sorted(seen) == sorted(shard.over_masks)
    assert (rep.extremal_matches, rep.hists_found, rep.counterexamples) == (
        shard.extremal, shard.hists, shard.counterexamples)


def test_double_star_shortcut_is_sound():
    # The vectorized spanning-double-star test counts a graph as having a
    # HIST without materializing the tree; wherever it fires, the exact
    # search must agree (find_hist itself is oracle-checked elsewhere).
    from histspec.scan import _Tables, _double_star_feasible, _rows_of_masks

    cfg = ScanConfig(n=8, theta=4.0, mode="thm2", extremal="B")
    t = _Tables(cfg)
    rng = np.random.default_rng(31)
    masks = rng.integers(0, 1 << 28, size=4000, dtype=np.uint32)
    rows = _rows_of_masks(t, masks)
    feas = _double_star_feasible(t, masks, rows)
    connected = 0
    for mk in masks[feas][:400]:
        g = graph_from_mask(8, int(mk))
        if not g.is_connected():
            continue
        connected += 1
        assert find_hist(g).found
    assert connected > 100  # the sample actually exercised the shortcut


def test_corollaries_range():
    rep = verify_corollaries(7, 30)
    assert rep.ok
    row8 = next(r for r in rep.rows if r.n == 8)
    assert row8.cap_B == pytest.approx(4.5)
    assert row8.rho_B < row8.cap_B
    assert isinstance(row8.stated_B_cap_holds, bool)
    with pytest.raises(ValueError):
        verify_corollaries(6, 10)


def test_certificates_driver():
    rep = verify_certificates(5)
    assert rep.ok
    assert rep.soundness_violations == 0
    kinds = {(r["family"], r["n"]): r["certificate"] for r in rep.family_rows}
    assert kinds[("L", 10)] == "cut_vertex_deg2"
    assert kinds[("B", 10)] == "p5_pattern"


def test_corpus_source(tmp_path):
    # A small synthetic order-9 corpus: the extremal family, the complete
    # graph, a near-complete graph, and some sparse 2-connected graphs.
    from histspec import cycle

    graphs = [family_B(9), complete(9), complete(9).remove_edge(0, 1), cycle(9)]
    path = tmp_path / "corpus9.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    rep = verify_theorem2(9, source=GRAPH6_CORPUS, corpus_path=str(path))
    assert rep.ok
    assert rep.scanned == 4
    assert rep.extremal_matches == 1
    assert rep.hists_found == 2  # K_9 and K_9 minus an edge; the cycle is under
    assert rep.over_threshold == 3


def test_corpus_wrong_order_rejected(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text(encode_graph6(complete(5)) + "\n")
    with pytest.raises(ValueError):
        verify_theorem2(9, source=GRAPH6_CORPUS, corpus_path=str(path))


def test_corpus_source_rejects_subsample(tmp_path):
    # The corpus is always read whole, so a subsample would mislabel the
    # report's scope.
    path = tmp_path / "corpus7.g6"
    path.write_text(encode_graph6(family_L(7)) + "\n")
    with pytest.raises(ValueError, match="labeled source only"):
        verify_theorem1(7, source=GRAPH6_CORPUS, corpus_path=str(path), subsample=4)


def test_subsample_must_be_positive():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="subsample must be >= 1"):
            verify_theorem1(7, subsample=bad)


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="unknown theorem"):
        audit_prescreens(8, theorem="thm3")
    with pytest.raises(ValueError, match="unknown theorem"):
        ScanConfig(n=7, theta=4.0, mode="thm3")


def test_scan_extremal_implied_by_mode():
    with pytest.raises(ValueError, match="extremal family L"):
        ScanConfig(n=7, theta=4.0, mode="thm1", extremal="B")
    assert ScanConfig(n=8, theta=4.0, mode="thm2", extremal="B") == ScanConfig(
        n=8, theta=4.0, mode="thm2")


def test_driver_preconditions():
    with pytest.raises(ValueError):
        verify_theorem1(6)
    with pytest.raises(ValueError):
        verify_theorem2(7)
    with pytest.raises(ValueError):
        verify_theorem1(9)  # labeled exhaustive beyond n=8
    with pytest.raises(ValueError):
        verify_theorem2(9, source=GRAPH6_CORPUS)  # corpus path missing

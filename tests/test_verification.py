import dataclasses
import itertools
import json

import numpy as np
import pytest

from histspec import (
    Graph,
    complete,
    decode_graph6,
    encode_graph6,
    enumerate_labeled,
    family_B,
    family_L,
    find_hist,
    is_family_B,
    is_family_L,
    threshold_connected,
    threshold_two_connected,
    verify_certificates,
    verify_corollaries,
    verify_theorem1,
    verify_theorem2,
)
from histspec import audit_prescreens
from histspec.graphs import graph_from_mask, mask_of_graph
from histspec.scan import ScanConfig, scan_range
from histspec.verification import GRAPH6_CORPUS, VerificationReport

from helpers import (
    all_labeled_graphs,
    bfs_connected,
    brute_cut_vertices,
    brute_double_star,
    connected_labeled_count,
    cut_vertex_cases,
    eigvalsh_rho,
    every_mask_table,
    identity_scan,
    random_connected,
)


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    got = sum(1 for _ in enumerate_labeled(4, connected=True))
    assert got == 38 == connected_labeled_count(4)
    for n in (3, 5, 6):
        got = sum(1 for _ in enumerate_labeled(n, connected=True))
        assert got == connected_labeled_count(n)
    # The vectorized blocks yield exactly the scalar decode of each mask,
    # in mask order, and keep exactly the graphs Graph.is_connected keeps.
    for n in range(1, 6):
        every = [graph_from_mask(n, mk) for mk in range(1 << (n * (n - 1) // 2))]
        assert list(enumerate_labeled(n)) == every
        assert list(enumerate_labeled(n, connected=True)) == [
            g for g in every if g.is_connected()]


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


def test_theorem1_whole_order_counts():
    # The whole labeled order, n = 7 and n = 8: (prescreen survivors,
    # over, extremal, HISTs).
    for n, counts in ((7, (387_388, 231_148, 210, 230_938)),
                      (8, (14_681_860, 6_212_812, 336, 6_212_476))):
        rep = verify_theorem1(n)
        assert rep.ok
        assert rep.scanned == 2 ** (n * (n - 1) // 2)
        assert (rep.prescreen_survivors, rep.over_threshold, rep.extremal_matches,
                rep.hists_found) == counts
        assert rep.threshold == pytest.approx(threshold_connected(n))


def test_theorem2_whole_order_counts():
    # The whole labeled order, the counts criterion 2 pins.
    rep = verify_theorem2(8)
    assert rep.ok
    assert rep.scanned == 2**28
    assert (rep.prescreen_survivors, rep.over_threshold, rep.extremal_matches,
            rep.hists_found) == (125_811_193, 74_986_629, 3_360, 74_983_269)


def test_reports_deterministic():
    a = verify_theorem1(7).to_json()
    b = verify_theorem1(7).to_json()

    def strip(js):
        d = json.loads(js)
        d.pop("elapsed")
        return d

    assert strip(a) == strip(b)


def test_report_arithmetic_enforced():
    # over_threshold must equal extremal + HISTs + the counterexamples'
    # copies, and each counterexample stands for at least one copy.
    from histspec.spectral import InvariantViolation

    def report(over, counterexamples):
        return VerificationReport(
            theorem="thm1", n=7, source="labeled_exhaustive", threshold=4.0,
            scanned=10, prescreen_survivors=5, over_threshold=over,
            extremal_matches=1, hists_found=1, counterexamples=counterexamples,
            elapsed=0.0042, scope="x",
        )

    with pytest.raises(InvariantViolation):
        report(3, [])
    rep = report(5, [["C~", 3]])
    assert rep.counterexample_copies == 3 and not rep.ok
    assert "  counterexamples      3\n    counterexample C~ copies 3\n" in rep.text()
    assert "  elapsed 0.004s" in rep.text()  # a whole order of n <= 8 takes ms
    for over, counterexamples in ((4, [["C~", 3]]), (2, [["C~", 0]]), (1, [["C~", -1]]),
                                  (3, [["C~", 2], ["C~", -1]])):
        with pytest.raises(InvariantViolation):
            report(over, counterexamples)


def test_scan_artificially_low_threshold_is_more_inclusive():
    # Lowering the threshold to the clique bound must add over-threshold
    # graphs (thresholding is monotone), and the prescreens must still
    # keep every one of them: their maximum-degree floor follows theta.
    # The identity route lists the over-threshold masks of the whole
    # order with and without the prescreens.
    true_cfg = ScanConfig(n=7, theta=threshold_connected(7), mode="thm1", extremal="L")
    low = dict(n=7, theta=4.0, mode="thm1")
    hi = 1 << 21
    true_out = scan_range(true_cfg, 0, hi)
    low_out = scan_range(ScanConfig(**low), 0, hi)
    assert (true_out.over, low_out.over) == (231_148, 253_873)
    pre, bare = [], []
    assert identity_scan(ScanConfig(**low), range(64), pre) == low_out
    identity_scan(ScanConfig(prescreens=False, **low), range(64), bare)
    assert pre == bare and len(pre) == low_out.over


def test_scan_below_threshold_reports_real_counterexamples(monkeypatch):
    # A negative control: at theta' = 3.7, under rho(L_7), the theorem's
    # conclusion fails, and the scan must report graphs without a HIST.
    # The whole order lists 11 counterexample representatives, whose
    # copies sum to 2,100; each has no HIST by the spanning-tree oracle
    # and is not L_7.  Without the prescreens, and in groups of 2^12 rows,
    # it lists the same pairs in the same order.  The identity route
    # lists the same over-threshold masks with and without the
    # prescreens, and one counterexample per copy.  Graphs of maximum
    # degree 4 are over here, below proof replay's range, so replay hands
    # them to the search instead of raising.
    from histspec import oracle_hist, scan

    common = dict(n=7, theta=3.7, mode="thm1")
    pre = scan_range(ScanConfig(**common), 0, 1 << 21)
    bare = scan_range(ScanConfig(prescreens=False, **common), 0, 1 << 21)
    assert (bare.over, bare.counterexamples) == (pre.over, pre.counterexamples)
    assert (pre.over, pre.extremal, len(pre.counterexamples)) == (530_779, 210, 11)
    assert sum(copies for _, copies in pre.counterexamples) == 2_100
    for text, _ in pre.counterexamples:
        g = decode_graph6(text)
        assert not oracle_hist(g).found
        assert not is_family_L(g)
    over, bare_over = [], []
    listed = identity_scan(ScanConfig(**common), range(64), over)
    identity_scan(ScanConfig(prescreens=False, **common), range(64), bare_over)
    assert over == bare_over and len(over) == pre.over
    assert len(listed.counterexamples) == 2_100
    assert all(copies == 1 for _, copies in listed.counterexamples)
    assert dataclasses.replace(listed, counterexamples=[]) == dataclasses.replace(
        pre, counterexamples=[])
    monkeypatch.setattr(scan, "GROUP_ROWS", 1 << 12)
    assert scan_range(ScanConfig(**common), 0, 1 << 21) == pre


@pytest.mark.parametrize("mode, n, counts", [
    pytest.param("thm1", 6, (9_573, 120, 0), id="thm1-counts0"),
    pytest.param("thm2", 6, (10_948, 360, 195), id="thm2-counts1"),
    *(pytest.param(mode, n, counts, id=f"{mode}-n{n}") for mode, n, counts in (
        ("thm1", 3, (4, 0, 4)), ("thm1", 4, (38, 12, 3)), ("thm1", 5, (728, 60, 412)),
        ("thm2", 3, (1, 0, 1)), ("thm2", 4, (10, 0, 3)), ("thm2", 5, (238, 0, 112))))])
def test_scan_below_the_replay_order_floor_matches_per_graph_reference(mode, n, counts):
    # Orders 3 to 6 are under both theorems' order floors (7 and 8), where
    # proof replay is undefined, so the scan decides the graphs the
    # double-star test leaves by the complete search alone.  At theta
    # = rho of the extremal graph at n = 6, and at theta = 1 below, it
    # reports what a per-graph reference reports: connectivity by BFS and
    # cut vertices by removal, rho by eigvalsh, the recognizer, then
    # find_hist.  thm1's conclusion holds at n = 6; thm2's fails there.
    # At n = 3 the spanning star of P3 and K3 has a centre of degree 2, so
    # neither has a HIST.  The identity route lists the reference's
    # over-threshold masks and one counterexample per copy; the scan
    # counts alike, its counterexamples' copies summing to as many.
    from histspec.graphs import is_family_B, make_family
    from histspec.spectral import GUARD, theorem_spec

    spec = theorem_spec(mode)
    theta = eigvalsh_rho(make_family(spec.family, n)) if n == 6 else 1.0
    is_extremal = is_family_L if spec.family == "L" else is_family_B
    over, extremal, bad = [], 0, []
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graph_from_mask(n, mask)
        if (not bfs_connected(g) or spec.two_connected and brute_cut_vertices(g)
                or eigvalsh_rho(g) < theta - GUARD):
            continue
        over.append(mask)
        if is_extremal(g):
            extremal += 1
        elif not find_hist(g).found:
            bad.append(encode_graph6(g))
    cfg = ScanConfig(n=n, theta=theta, mode=mode)
    listed = []
    copies = identity_scan(cfg, [0], listed)
    assert (listed, copies.extremal, copies.counterexamples) == (
        over, extremal, [[text, 1] for text in bad])
    out = scan_range(cfg, 0, 1 << (n * (n - 1) // 2))
    assert (out.over, out.extremal, sum(k for _, k in out.counterexamples)) == counts == (
        len(over), extremal, len(bad))
    assert out.hists == out.over - out.extremal - len(bad)
    assert dataclasses.replace(out, counterexamples=[]) == dataclasses.replace(
        copies, counterexamples=[])


def test_family_members_survive_prescreens_and_match():
    # full run: prescreens must keep every labeled copy of the family and
    # the matcher must count each exactly once
    rep = verify_theorem1(7)
    assert rep.extremal_matches == 210


def test_audit_small():
    # The first window of every window class, with and without the
    # prescreens: (windows, masks in them, over-threshold masks listed on
    # each side), and no mask listed on one side only.
    for n, theorem, counts in ((7, "thm1", (7, 7 << 15, 39_097)),
                               (8, "thm1", (168, 168 << 15, 289_302)),
                               (8, "thm2", (168, 168 << 15, 1_652_865))):
        rep = audit_prescreens(n, theorem)
        assert rep.ok and rep.discrepancies == 0
        assert (rep.windows, rep.masks_considered, rep.over_with_prescreens) == counts
        assert rep.over_without_prescreens == rep.over_with_prescreens


def test_scan_engine_order_limit():
    with pytest.raises(ValueError, match="uint8"):
        ScanConfig(n=9, theta=5.0, mode="thm2", extremal="B")
    with pytest.raises(ValueError, match="uint32"):
        audit_prescreens(9, "thm2")
    with pytest.raises(ValueError, match="got n=0"):
        ScanConfig(n=0, theta=1.0, mode="thm1")


def test_scan_range_rejects_masks_outside_the_order():
    # n = 7 has 2^21 masks in 64 windows of 2^15; a mask with bit 21 set is
    # no graph of order 7, and a range must be whole windows.  Order 6 is
    # one window of 2^15 masks.
    cfg = ScanConfig(n=7, theta=threshold_connected(7), mode="thm1")
    six = ScanConfig(n=6, theta=3.0, mode="thm1")
    for c, lo, hi in ((cfg, 1 << 21, 1 << 22), (cfg, 0, (1 << 21) + 1), (cfg, -5, 3),
                      (cfg, 3, 2), (cfg, 3, 1 << 21), (cfg, (1 << 21) - 4, 1 << 21),
                      (six, 0, 1 << 14)):
        with pytest.raises(ValueError, match="whole windows"):
            scan_range(c, lo, hi)
    assert scan_range(cfg, 1 << 21, 1 << 21).scanned == 0
    assert scan_range(cfg, (1 << 21) - (1 << 15), 1 << 21).scanned == 1 << 15
    assert scan_range(six, 0, 1 << 15).scanned == 1 << 15


@pytest.mark.parametrize("n,mode,extremal", [(7, "thm1", "L"), (8, "thm2", "B")])
def test_sandwich_matches_eigensolve_near_threshold(monkeypatch, n, mode, extremal):
    # Every labeled copy of the extremal family has rho exactly theta, and
    # one edge added or removed lands just above or below it: the rows
    # where the bounds of the refine path are tightest and must hand over
    # to the eigensolver.  The refine path requires minimum degree >= 1.
    # The same rows as int64, the corpus path's dtype, must decide alike.
    from histspec.scan import _codec, _rows_of_masks, over_threshold

    theta = threshold_connected(n) if mode == "thm1" else threshold_two_connected(n)
    t = _codec(n)
    fam = family_L(n) if extremal == "L" else family_B(n)
    copies = {mask_of_graph(fam.relabel(p)) for p in itertools.permutations(range(n))}
    near = set(copies)
    for mk in copies:
        near.update(mk ^ (1 << b) for b in range(t.nbits))
    masks = np.array(sorted(near), dtype=np.uint32)
    rows = _rows_of_masks(t, masks)
    keep = np.bitwise_count(rows).min(axis=1) >= 1
    masks, rows = masks[keep], rows[keep]

    solved = []
    real = np.linalg.eigvalsh

    def counted(a):
        solved.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    plain = over_threshold(theta, rows, refine=False)
    assert sum(solved) == len(masks)
    assert set(copies) <= set(masks[plain].tolist())
    for r in (rows, rows.astype(np.int64)):
        assert np.array_equal(over_threshold(theta, r, refine=False), plain)
        del solved[:]
        assert np.array_equal(over_threshold(theta, r, refine=True), plain)
        assert len(copies) <= sum(solved) < len(masks)


def _random_rows(rng, n, count, dtype=np.int64):
    """Adjacency bit rows of `count` seeded random graphs of order n, each
    with its own edge probability, and their dense 0/1 adjacency."""
    adj = np.zeros((count, n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    for k in range(count):
        adj[k][iu] = rng.random(len(iu[0])) < rng.uniform(0.2, 0.9)
    adj |= adj.transpose(0, 2, 1)
    rows = [[sum(int(b) << w for w, b in enumerate(r)) for r in a] for a in adj]
    return np.array(rows, dtype=dtype), adj


@pytest.mark.parametrize("n", [*range(1, 13), 62])
def test_bit_row_product_matches_dense(n):
    # The sandwich's A x, from subset-sum tables of each 4-bit group of x
    # gathered at the bit rows' nibbles, equals the dense product: exactly
    # on integer x, to rounding on float x.  uint8 rows (the scan engine's)
    # for n <= 8, int64 rows (the corpus path's) for every n.
    from histspec.scan import _adj_times, _nibbles

    rng = np.random.default_rng(100 + n)
    rows, adj = _random_rows(rng, n, 300)
    dtypes = (np.uint8, np.int64) if n <= 8 else (np.int64,)
    for x in (rng.integers(0, 1000, (300, n)).astype(np.float64), rng.random((300, n))):
        want = np.matmul(adj.astype(np.float64), x[:, :, None])[:, :, 0]
        for dtype in dtypes:
            got = _adj_times(_nibbles(rows.astype(dtype)), x)
            assert got.shape == want.shape
            if x[0, 0] == int(x[0, 0]):
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_refined_over_threshold_matches_eigensolve_on_random_rows():
    # On seeded random rows with minimum degree >= 1, the bounds of the
    # refine path decide exactly as the plain eigensolve, at thresholds
    # that split the sample and at the exact spectral radius of some of
    # its graphs (a tie with the eigensolve, settled by GUARD).
    from histspec.scan import over_threshold

    rng = np.random.default_rng(44)
    for n in range(3, 13):
        rows, adj = _random_rows(rng, n, 1500)
        rows = rows[adj.sum(axis=2).min(axis=1) >= 1]
        rho = np.sort(np.linalg.eigvalsh(
            np.array([[[(r >> w) & 1 for w in range(n)] for r in row] for row in rows],
                     dtype=np.float64))[:, -1])
        split = set()
        for theta in (*np.quantile(rho, [0.1, 0.5, 0.9]), rho[len(rho) // 3]):
            plain = over_threshold(theta, rows, refine=False)
            split.update(plain.tolist())
            for r in (rows, rows.astype(np.uint8)) if n <= 8 else (rows,):
                assert np.array_equal(over_threshold(theta, r, refine=True), plain)
        assert split == {False, True}


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
    """Every graph of `base` under every permutation, as int64 bit rows:
    vertex v of a base graph becomes perms[c][v]."""
    n = base[0].n
    adj = np.array([[[r >> w & 1 for w in range(n)] for r in g.rows] for g in base])
    inv = np.argsort(perms, axis=1)
    out = adj[:, inv[:, :, None], inv[:, None, :]]  # (base, copy, n, n)
    return (out.astype(np.int64) << np.arange(n)).sum(axis=3).reshape(-1, n)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_corpus_batch_matches_power_iteration_near_threshold(monkeypatch, n):
    # Labeled copies of L_n and B_n (rho exactly theta) and their one-edge
    # additions and deletions that stay connected (rho just above or below)
    # are where the batched bounds of the corpus path are tightest; they
    # go through `over_threshold` as int64 rows, one chunk at a time.  rho
    # is a relabeling invariant, so the per-graph verdict of each unlabeled
    # graph is computed once by power iteration.  Every copy of L_n, and
    # of B_n at n = 9, is checked; at n = 10 and 11 a seeded 1,000 of
    # B_n's 15,120 and 27,720 copies, which all fall to the eigensolver.
    from histspec.scan import over_threshold
    from histspec.spectral import GUARD, spectral_radius
    from histspec.verification import CORPUS_BATCH

    solved = []
    real = np.linalg.eigvalsh

    def counted(a):
        solved.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
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
        rows = _relabeled(base, perms)
        expected = [w for w in want for _ in perms]
        del solved[:]
        got = []
        for s in range(0, len(rows), CORPUS_BATCH):
            got.extend(over_threshold(theta, rows[s:s + CORPUS_BATCH]).tolist())
        assert got == expected
        assert len(perms) <= sum(solved) < len(rows)


def test_corpus_batch_at_order_62(tmp_path):
    # graph6's short form stops at n = 62; the corpus path packs rows into
    # int64, so bit 61 is the highest it must read.
    from histspec.scan import over_threshold
    from histspec.spectral import GUARD, spectral_radius

    n = 62
    graphs = [complete(n), complete(n).remove_edge(0, n - 1), family_L(n), family_B(n)]
    rows = np.array([g.rows for g in graphs], dtype="<i8")
    for theta in (threshold_connected(n), threshold_two_connected(n)):
        want = [spectral_radius(g).rho >= theta - GUARD for g in graphs]
        assert over_threshold(theta, rows).tolist() == want
        assert over_threshold(theta, rows[:1]).tolist() == [True]  # no row left open
    path = tmp_path / "corpus62.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    for verify in (verify_theorem1, verify_theorem2):
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert rep.ok
        assert (rep.over_threshold, rep.extremal_matches, rep.hists_found) == (3, 1, 2)


def test_corpus_and_scan_share_one_spectral_decision(tmp_path, monkeypatch):
    # Every connected graph of one n=7 mask range, written as graph6, goes
    # through the corpus driver; its over-threshold graphs must be exactly
    # those the identity route lists on the same range, its
    # counterexamples the identity route's, one per copy, and its counts
    # those of scan_range.  Also at theta' = 3.7, under the true
    # threshold, against the scan without prescreens: both degree floors
    # follow theta, and replay hands the graphs below its range to the
    # search.
    from histspec import scan, verification
    from histspec.scan import (BAD, EXTREMAL, HIST, SEARCHED, UNDER, _classify, _codec,
                               _rows_of_masks)
    from histspec.spectral import THM1

    n, lo, hi = 7, 29 << 16, 30 << 16
    graphs = [g for g in (graph_from_mask(n, mk) for mk in range(lo, hi)) if g.is_connected()]
    path = tmp_path / "range7.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))

    seen = []
    real = scan.over_threshold

    def recorded(theta, rows, refine=True):  # the last spectral step of the corpus
        over = real(theta, rows, refine)
        seen.extend(mask_of_graph(Graph._from_rows_unchecked(n, tuple(row)))
                    for row in rows[over].tolist())
        return over

    monkeypatch.setattr(scan, "over_threshold", recorded)
    for theta, prescreens in ((threshold_connected(n), True), (3.7, False)):
        monkeypatch.setattr(verification, "threshold_connected", lambda n, theta=theta: theta)
        del seen[:]
        rep = verify_theorem1(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        corpus_over = sorted(seen)  # before scan_range adds the engine's calls
        cfg = ScanConfig(n=n, theta=theta, mode="thm1", prescreens=prescreens)
        listed = []
        shard = identity_scan(cfg, range(lo >> 15, hi >> 15), listed)
        assert dataclasses.replace(scan_range(cfg, lo, hi), counterexamples=[]) == (
            dataclasses.replace(shard, counterexamples=[]))
        assert rep.scanned == len(graphs)
        assert rep.over_threshold == shard.over == len(corpus_over) > 0
        assert corpus_over == listed
        assert (rep.extremal_matches, rep.hists_found, rep.counterexamples) == (
            shard.extremal, shard.hists, shard.counterexamples)
        # the engine's classification decides alike on the corpus's int64
        # rows, each row one copy
        rows = _rows_of_masks(_codec(n), np.array(listed, dtype=np.uint32))
        code = _classify(THM1, rows.astype("<i8"))
        tally = np.bincount(code, minlength=BAD + 1)
        listed = [[encode_graph6(Graph._from_rows_unchecked(n, tuple(row))), 1]
                  for row in rows[code == BAD].tolist()]
        assert tally[UNDER] == 0
        assert (tally[EXTREMAL], tally[HIST] + tally[SEARCHED], listed) == (
            shard.extremal, shard.hists, shard.counterexamples)
        assert tally[SEARCHED] + tally[BAD] == shard.fallback_searches


def test_double_star_shortcut_is_sound():
    # The vectorized spanning-double-star test counts a graph as having a
    # HIST without materializing the tree; wherever it fires, the exact
    # search must agree (find_hist itself is oracle-checked elsewhere).
    from histspec.scan import _codec, _double_star_feasible, _rows_of_masks

    rng = np.random.default_rng(31)
    masks = rng.integers(0, 1 << 28, size=4000, dtype=np.uint32)
    feas = _double_star_feasible(_rows_of_masks(_codec(8), masks))
    connected = 0
    for mk in masks[feas][:400]:
        g = graph_from_mask(8, int(mk))
        if not g.is_connected():
            continue
        connected += 1
        assert find_hist(g).found
    assert connected > 100  # the sample actually exercised the shortcut


N8_THM2_SHARDS = (136, 338, 414, 301)  # the benchmark's dense shards and the golden one
N7_THM1_SHARDS = range(4)  # all of verify_theorem1(7)


def _unchanged(rows):
    """A `_class_keys` that keys every labeled graph by itself, so that a
    scan decides each graph on its own rows: the ungrouped reference."""
    return rows


def _shard(cfg, s):
    return scan_range(cfg, s << 19, (s + 1) << 19)


def _identity_shard(cfg, s, over=None):
    """Shard s by the identity route: its 16 windows of 2^15 masks."""
    return identity_scan(cfg, range(s << 4, (s + 1) << 4), over)


def test_grouped_fallback_matches_per_graph_reference(monkeypatch):
    # Each dense n=8 thm2 shard and each n=7 thm1 shard gives the same
    # ShardOut, every field, as the ungrouped reference, the identity
    # route with every labeled graph its own key, in which the spectral
    # decision, connectivity and classification run on every labeled
    # graph.  The grouped run decides fewer graphs than it counts:
    # on n=8 by replay, on n=7, where every fallback row is a copy of L_7,
    # by the recognizer.
    from histspec import scan

    replays, recognized, fallbacks = [], [], {}
    for name, seen in (("proof_guided_hist", replays), ("is_family_L", recognized),
                       ("is_family_B", recognized)):
        real = getattr(scan, name)
        monkeypatch.setattr(scan, name,
                            lambda g, *a, real=real, seen=seen: seen.append(g) or real(g, *a))
    for n, mode, threshold, shards in (
            (8, "thm2", threshold_two_connected, N8_THM2_SHARDS),
            (7, "thm1", threshold_connected, N7_THM1_SHARDS)):
        cfg = ScanConfig(n=n, theta=threshold(n), mode=mode)
        for s in shards:
            del replays[:], recognized[:]
            grouped = _shard(cfg, s)
            if mode == "thm2":
                assert 0 < len(replays) < grouped.fallback_searches
            else:
                assert not replays and grouped.fallback_searches == 0
                assert 0 < len(recognized) < grouped.extremal
                assert all(map(is_family_L, recognized))
            with monkeypatch.context() as m:
                m.setattr(scan, "_class_keys", _unchanged)
                del replays[:]
                reference = _identity_shard(cfg, s)
            assert len(replays) == reference.fallback_searches
            assert grouped == reference
            fallbacks[n, s] = grouped.fallback_searches
    assert fallbacks[8, 301] == 1489  # the golden shard 301


def _canonical_mask(g):
    """The least edge mask over the labelings that list g's vertices by
    ascending degree, an isomorphism invariant by brute force."""
    degs = g.degrees()
    cells = [[v for v in range(g.n) if degs[v] == d] for d in sorted(set(degs))]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
        order = [v for part in parts for v in part]
        pos = [0] * g.n
        for i, v in enumerate(order):
            pos[v] = i
        mask = mask_of_graph(g.relabel(pos))
        best = mask if best is None else min(best, mask)
    return best


def test_grouped_fallback_lists_every_copy_of_a_no_hist_class(monkeypatch):
    # With replay and the search told that one isomorphism class has no
    # HIST, the ungrouped reference (the identity route, every labeled
    # graph its own key) lists every labeled copy of it as its own
    # counterexample, in ascending mask order, and the scan counts every
    # copy: it lists representatives of the class only, whose copies sum
    # to the number of copies, though the class has copies in windows and
    # orbits that the scan does not examine.
    from types import SimpleNamespace

    from histspec import scan

    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    seen = []
    real_replay, real_search = scan.proof_guided_hist, scan.find_hist
    with monkeypatch.context() as m:
        m.setattr(scan, "proof_guided_hist", lambda g, r: seen.append(g) or real_replay(g, r))
        m.setattr(scan, "_class_keys", _unchanged)
        # the identity route examines every mask, so each replayed graph is seen
        _identity_shard(cfg, 136)
    canon = [_canonical_mask(g) for g in seen]
    target = max(set(canon), key=canon.count)
    copies = [encode_graph6(g) for g in sorted(
        (g for g, c in zip(seen, canon) if c == target), key=mask_of_graph)]
    assert len(copies) >= 2

    def replay(g, r):
        return SimpleNamespace(found_tree=False) if _canonical_mask(g) == target else real_replay(g, r)

    def search(g):
        return SimpleNamespace(found=False) if _canonical_mask(g) == target else real_search(g)

    monkeypatch.setattr(scan, "proof_guided_hist", replay)
    monkeypatch.setattr(scan, "find_hist", search)
    grouped = _shard(cfg, 136)
    monkeypatch.setattr(scan, "_class_keys", _unchanged)
    reference = _identity_shard(cfg, 136)
    assert reference.counterexamples == [[text, 1] for text in copies]
    assert 0 < len(grouped.counterexamples) < len(copies)
    assert sum(k for _, k in grouped.counterexamples) == len(copies)
    assert {_canonical_mask(decode_graph6(text)) for text, _ in grouped.counterexamples} == {target}
    assert dataclasses.replace(grouped, counterexamples=[]) == dataclasses.replace(
        reference, counterexamples=[])


def test_verdict_table_keeps_no_state_between_calls(monkeypatch):
    # The verdict table lives for one scan_range call and spans its
    # blocks and groups.  Shard 301 scanned alone, after shard 136 in the
    # same process, and with blocks of 2 windows (eight blocks) and groups
    # of 2^12 rows gives one ShardOut and hands
    # over_threshold the same key rows, each once; so does a scan of it
    # under a lower threshold right after the first, which would inherit
    # verdicts of the true threshold from a table that outlived its call.
    from histspec import scan

    real_over = scan.over_threshold
    decided = []

    def over(theta, rows, refine=True):
        decided.extend(map(tuple, rows.tolist()))
        return real_over(theta, rows, refine)

    def run(cfg, s):
        del decided[:]
        out = _shard(cfg, s)
        assert len(set(decided)) == len(decided) > 0
        return out, sorted(decided)

    monkeypatch.setattr(scan, "over_threshold", over)
    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    low = ScanConfig(n=8, theta=3.9, mode="thm2")
    alone = run(cfg, 301)
    lowered = run(low, 301)
    assert lowered[0].over > alone[0].over
    run(cfg, 136)
    assert run(cfg, 301) == alone
    assert run(low, 301) == lowered
    monkeypatch.setattr(scan, "BLOCK_WINDOWS", 2)
    monkeypatch.setattr(scan, "GROUP_ROWS", 1 << 12)
    assert run(cfg, 301) == alone


def test_verdict_codes_follow_row_order_and_decide_only_new_words(monkeypatch):
    # _Verdicts.codes_of gives each of unsorted words with repeats its
    # word's code, in row order, and hands _decide, in one call, only the
    # words the table has not seen, each once, as key rows; a call whose
    # words are all seen decides nothing.
    from histspec import scan

    decided = []

    def decide(cfg, keys):
        decided.append(keys.view(np.uint64).ravel().tolist())
        return keys[:, 3] % 5

    def code(words):
        return (words.view(np.uint8).reshape(-1, 8)[:, 3] % 5).tolist()

    monkeypatch.setattr(scan, "_decide", decide)
    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    rng = np.random.default_rng(7)
    pool = rng.integers(0, 1 << 64, 60, dtype=np.uint64, endpoint=False)
    verdicts = scan._Verdicts()
    first = rng.choice(pool[:40], 300)
    assert len(set(first.tolist())) < len(first) and not (first[1:] >= first[:-1]).all()
    assert verdicts.codes_of(cfg, first).tolist() == code(first)
    assert [sorted(words) for words in decided] == [sorted(set(first.tolist()))]
    second = rng.choice(pool, 300)
    assert verdicts.codes_of(cfg, second).tolist() == code(second)
    assert len(decided) == 2 and len(decided[1]) == len(set(decided[1]))
    assert set(decided[1]) == set(second.tolist()) - set(first.tolist()) != set()
    again = first[::-1].copy()
    assert verdicts.codes_of(cfg, again).tolist() == code(again)
    assert len(decided) == 2


def _window_list(rng, n, count):
    """Ascending distinct windows of order n: the first and the last, the
    windows at the first two nonzero multiples of BLOCK_WINDOWS, and
    `count` random ones."""
    from histspec.scan import BLOCK_WINDOWS, _codec

    top = len(_codec(n).hi_rows)
    fixed = [y for y in (0, top - 1, BLOCK_WINDOWS, 2 * BLOCK_WINDOWS) if y < top]
    return np.union1d(fixed, rng.choice(top, min(count, top), replace=False)).tolist()


def test_window_classes_are_orbits_of_the_low_vertices():
    # The low half holds the edges among vertices 0..5, and two windows
    # share a class exactly when a permutation of those vertices maps the
    # high half of one onto the other: the least high half over the 720
    # permutations, moved slot by slot, partitions the windows as
    # window_class does.  Orders up to 6 have one window; order 7 has 7
    # classes of 64 windows, order 8 168 of 8,192.
    from histspec.graphs import edge_slots
    from histspec.scan import _codec

    classes = {}
    for n in range(1, 9):
        c = _codec(n)
        slots = edge_slots(n)
        high = slots[c.low_bits:]
        assert all(j < 6 for _, j in slots[:c.low_bits]) and all(j >= 6 for _, j in high)
        slot_of = {edge: b for b, edge in enumerate(high)}
        ys = np.arange(1 << len(high))
        least = ys.copy()
        for perm in itertools.permutations(range(min(n, 6))):
            p = [*perm, *range(6, n)]
            moved = np.zeros_like(ys)
            for b, (i, j) in enumerate(high):
                moved |= ((ys >> b) & 1) << slot_of[min(p[i], p[j]), max(p[i], p[j])]
            np.minimum(least, moved, out=least)
        pairs = set(zip(least.tolist(), c.window_class.tolist()))
        assert len(pairs) == len(set(least.tolist())) == len(set(c.window_class.tolist()))
        classes[n] = len(pairs)
    assert classes == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 7, 8: 168}


def test_window_classes_match_scanning_every_window(monkeypatch):
    # scan_range scans the orbit representatives of the first window of
    # each window class and counts each once per mask of its orbit and
    # window of its class, and gives the same ShardOut, every field, as
    # the identity route, every low mask of every window at weight 1: n=7
    # thm1 shards 0-3, the n=8 thm2 benchmark shards and the golden shard
    # 301, some without the prescreens; each shard skips windows.  `_scan`
    # does the same on the window classes of random lists of n=8 windows whose
    # classes fill several blocks, with blocks of BLOCK_WINDOWS and of 5
    # windows, for both theorems.
    from histspec import scan

    t7, t8 = threshold_connected(7), threshold_two_connected(8)
    thm1 = ScanConfig(n=7, theta=t7, mode="thm1")
    thm2 = ScanConfig(n=8, theta=t8, mode="thm2")
    cases = [(thm1, s << 19, (s + 1) << 19) for s in range(4)]
    cases += [(thm2, s << 19, (s + 1) << 19) for s in (136, 338, 414, 255, 301)]
    cases += [(dataclasses.replace(thm1, prescreens=False), 0, 1 << 19),
              (dataclasses.replace(thm2, prescreens=False), 301 << 19, 302 << 19)]
    for cfg, lo, hi in cases:
        c = scan._codec(cfg.n)
        windows = range(lo >> c.low_bits, hi >> c.low_bits)
        assert len(scan._window_classes(c, windows)) < len(windows)
        grouped = scan_range(cfg, lo, hi)
        assert grouped == identity_scan(cfg, windows)
        assert grouped.scanned == hi - lo and grouped.survivors > 0
    rng = np.random.default_rng(71)
    c = scan._codec(8)
    thm1_8 = ScanConfig(n=8, theta=threshold_connected(8), mode="thm1")
    for cfg, blocks in ((thm2, (scan.BLOCK_WINDOWS, 5)), (thm1_8, (5,))):
        windows = _window_list(rng, 8, 300)
        classes = scan._window_classes(c, windows)
        assert sum(k for _, k in classes) == len(windows)
        assert len(classes) > 2 * scan.BLOCK_WINDOWS
        for block in blocks:
            monkeypatch.setattr(scan, "BLOCK_WINDOWS", block)
            grouped = scan._scan(cfg, c, classes)
            assert grouped == identity_scan(cfg, windows)
            assert grouped.scanned == len(windows) << c.low_bits


def _least_in_orbit(blocks):
    """Brute force for `_orbit_table`: each low mask's least image under
    every permutation of the low vertices that keeps each block of
    `blocks` (the Young subgroup), not only the generators."""
    from histspec.graphs import edge_slots

    low = len(blocks)
    slots = edge_slots(low)
    slot_of = {edge: b for b, edge in enumerate(slots)}
    members = [[v for v in range(low) if blocks[v] == b] for b in sorted(set(blocks))]
    z = np.arange(1 << len(slots))
    least = z.copy()
    for images in itertools.product(*(itertools.permutations(m) for m in members)):
        p = dict(zip(itertools.chain(*members), itertools.chain(*images)))
        moved = np.zeros_like(z)
        for b, (i, j) in enumerate(slots):
            moved |= ((z >> b) & 1) << slot_of[min(p[i], p[j]), max(p[i], p[j])]
        np.minimum(least, moved, out=least)
    return least


def _scanned_partitions(n):
    """The block partitions of the windows a whole-order scan of order n
    scans, the first window of each window class."""
    from histspec.scan import _codec, _window_classes

    c = _codec(n)
    return {c.blocks(y) for y, _ in _window_classes(c, range(len(c.hi_rows)))}


def test_orbit_tables_match_the_least_mask_over_the_young_subgroup():
    # For every block partition the scans of orders 6, 7 and 8 meet, the
    # table built from the adjacent swaps inside each block lists exactly
    # the low masks least in their orbit under every permutation of the
    # blocks, with their orbit sizes, which sum to 2^15.  Order 6 has one
    # window, whose blocks are one: its 156 representatives are the
    # unlabeled graphs on 6 vertices.
    # Each table carries the low degree and edge-count tables gathered at
    # its representatives, equal to those of every order that meets it.
    from histspec.scan import _codec, _orbit_table

    parts = {n: _scanned_partitions(n) for n in (6, 7, 8)}
    assert {n: len(p) for n, p in parts.items()} == {6: 1, 7: 6, 8: 26}
    for blocks in set().union(*parts.values()):
        reps, sizes, lo_deg, lo_m = _orbit_table(blocks)
        least = _least_in_orbit(blocks)
        assert reps.dtype == sizes.dtype == np.uint32
        assert reps.tolist() == np.flatnonzero(least == np.arange(len(least))).tolist()
        assert sizes.tolist() == np.bincount(least)[reps].tolist()
        assert int(sizes.sum(dtype=np.int64)) == 1 << 15
        for c in (_codec(n) for n, p in parts.items() if blocks in p):
            assert np.array_equal(lo_deg, c.lo_deg[:c.low, reps])
            assert np.array_equal(lo_m, c.lo_m[reps])
    assert len(_orbit_table((0,) * 6)[0]) == 156


def _mask_survivors(monkeypatch, cfg, c, windows):
    """`_survivors` on the identity route's tables (`every_mask_table`):
    every low mask of each window, each its own orbit."""
    from histspec import scan

    with monkeypatch.context() as m:
        m.setattr(scan, "_orbit_table", every_mask_table)
        return scan._survivors(cfg, c, windows)


def test_orbit_representatives_expand_to_the_window_survivors(monkeypatch):
    # A window's surviving representatives, each expanded to its orbit
    # (by the brute-force least mask), are exactly the window's survivors
    # scanned mask by mask, and each carries its orbit size times the
    # window's weight: the one window of order 6, the windows scanned at
    # order 7 and some scanned at order 8, both theorems, prescreens on and
    # off.
    from histspec.scan import _codec, _survivors, _window_classes

    rng = np.random.default_rng(89)
    least = {}
    for n, thetas in ((6, (2.5, 3.5)), (7, (threshold_connected(7), 3.7)),
                      (8, (threshold_connected(8), threshold_two_connected(8)))):
        c = _codec(n)
        scanned = [y for y, _ in _window_classes(c, range(len(c.hi_rows)))]
        if n == 8:
            scanned = rng.choice(scanned, 12, replace=False).tolist()
        for y in scanned:
            blocks = c.blocks(y)
            orbit = least.setdefault(blocks, _least_in_orbit(blocks))
            size = np.bincount(orbit)
            weight = int(rng.integers(1, 100))
            for mode, theta, prescreens in itertools.product(
                    ("thm1", "thm2"), thetas, (True, False)):
                cfg = ScanConfig(n=n, theta=theta, mode=mode, prescreens=prescreens)
                full, ones = _mask_survivors(monkeypatch, cfg, c, [(y, 1)])
                reps, weights = _survivors(cfg, c, [(y, weight)])
                low = reps - (y << c.low_bits)
                assert (orbit[low] == low).all() and (ones == 1).all()
                assert weights.tolist() == (size[low] * weight).tolist()
                kept = np.isin(orbit, low)
                assert np.array_equal(full, np.flatnonzero(kept) + (y << c.low_bits))


def test_scans_examine_the_orbits_of_the_whole_order(monkeypatch):
    # A whole-order scan examines one low mask per orbit of each scanned
    # window, so the masks it examines are the orbits of S_6 on the
    # order's edge masks (Burnside): 156 at n = 6, 5,096 at n = 7 and
    # 483,040 at n = 8, against 2^15, 7 * 2^15 and 168 * 2^15 before.
    from histspec import scan

    examined = []
    real = scan._orbit_table
    monkeypatch.setattr(scan, "_orbit_table", lambda blocks: (
        examined.append(len(real(blocks)[0])) or real(blocks)))
    for n, cfg, want in ((6, ScanConfig(n=6, theta=2.5, mode="thm1"), 156),
                         (7, ScanConfig(n=7, theta=threshold_connected(7), mode="thm1"), 5_096),
                         (8, ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2"),
                          483_040)):
        del examined[:]
        out = scan_range(cfg, 0, 1 << (n * (n - 1) // 2))
        assert sum(examined) == want and out.survivors > 0


def _scan_once_with_counterexamples(monkeypatch, cfg, lo, hi):
    """Scan [lo, hi), check that it is one `_scan` call over the window
    classes that lists each counterexample representative once, with at
    least one of weight above 1, and that the identity route, which lists
    one counterexample per copy, agrees on every other field and on the
    number of copies."""
    from histspec import scan

    runs = []
    real = scan._scan
    monkeypatch.setattr(scan, "_scan", lambda *args: runs.append(args[2]) or real(*args))
    out = scan_range(cfg, lo, hi)
    c = scan._codec(cfg.n)
    windows = range(lo >> c.low_bits, hi >> c.low_bits)
    assert runs == [scan._window_classes(c, windows)]
    assert max(k for _, k in out.counterexamples) > 1
    listed = identity_scan(cfg, windows)
    assert len(listed.counterexamples) == sum(k for _, k in out.counterexamples)
    assert dataclasses.replace(out, counterexamples=[]) == dataclasses.replace(
        listed, counterexamples=[])
    return out


def test_window_classes_list_every_copy_of_a_counterexample(monkeypatch):
    # At theta = 3.7, under rho(L_7), n=7 shard 1 has counterexamples in
    # window classes of several windows.  The scan finds them in its one
    # `_scan` call, no rescan: 11 representatives whose copies sum to the
    # 524 counterexamples the identity route lists.
    cfg = ScanConfig(n=7, theta=3.7, mode="thm1")
    out = _scan_once_with_counterexamples(monkeypatch, cfg, 1 << 19, 2 << 19)
    assert (len(out.counterexamples), sum(k for _, k in out.counterexamples)) == (11, 524)


def test_orbit_weights_rescan_a_counterexample(monkeypatch):
    # n = 6 is one window, its own class of weight 1, whose stabilizer is
    # all of S_6: under thm2 at theta = rho(B_6) its counterexamples are
    # found on orbit representatives of weight above 1.  The orbit weights
    # recount them in the one `_scan` call, no rescan: 2 representatives,
    # in mask order, whose copies sum to the 195 counterexamples the
    # identity route lists.
    from histspec.graphs import make_family

    cfg = ScanConfig(n=6, theta=eigvalsh_rho(make_family("B", 6)), mode="thm2")
    out = _scan_once_with_counterexamples(monkeypatch, cfg, 0, 1 << 15)
    assert (out.over, out.extremal) == (10_948, 360)
    assert (len(out.counterexamples), sum(k for _, k in out.counterexamples)) == (2, 195)
    masks = [mask_of_graph(decode_graph6(text)) for text, _ in out.counterexamples]
    assert masks == sorted(set(masks))


def test_sampled_and_listing_scans_scan_every_window():
    # The identity route lists masks, so it scans every window; its
    # counts are pinned: (survivors, over, extremal, hists,
    # fallback_searches), and the number and sum of the over-threshold
    # masks.
    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    over = []
    out = _identity_shard(cfg, 301, over)
    assert (out.survivors, out.over, out.extremal, out.hists,
            out.fallback_searches) == (278596, 156601, 6, 156595, 1489)
    assert (len(over), sum(over)) == (156601, 24764934039437)


@pytest.mark.parametrize("dtype, orders", [(np.uint8, range(1, 9)), (np.int64, range(1, 21))])
def test_class_keys_are_relabelings(dtype, orders):
    # Each key row is its graph under the permutation that sorts the
    # vertices by descending (degree, sum of neighbour degrees), ties in
    # label order, recovered here by Python's stable sort: key vertex i is
    # vertex order[i] of the graph, and key bit j of row i is its edge
    # order[i] order[j].
    from histspec.scan import _class_keys

    rng = np.random.default_rng(83)
    for n in orders:
        rows, adj = _random_rows(rng, n, 60, dtype)
        keys = _class_keys(rows)
        assert keys.dtype == rows.dtype and keys.shape == rows.shape
        for key, a in zip(keys.tolist(), adj):
            deg = a.sum(axis=1)
            nsum = a @ deg
            order = sorted(range(n), key=lambda v: (-deg[v], -nsum[v]))
            assert key == [sum(int(a[order[i], order[j]]) << j for j in range(n))
                           for i in range(n)]
    # one graph in several labelings, all with distinct sort keys, gets
    # one key
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 5), (3, 4), (4, 5)])
    copies = [g.relabel(rng.permutation(6)) for _ in range(5)]
    keys = _class_keys(np.array([c.rows for c in copies], dtype=dtype))
    assert (keys == keys[0]).all()


def _rows_of_graphs(graphs):
    return np.array([g.rows for g in graphs], dtype=np.uint8)


def test_connected_filter_matches_bfs_and_cut_vertices():
    # Both modes of the bitset BFS against a per-graph BFS and cut-vertex
    # removal: every labeled graph of order 3..6, uniform random masks of
    # order 7 and 8, and labeled paths and cycles, whose BFS from vertex 0
    # (with one vertex removed, for a cycle) takes up to n - 1 steps.
    from histspec.scan import _connected_filter

    rng = np.random.default_rng(41)
    for n in range(3, 9):
        if n <= 6:
            graphs = list(all_labeled_graphs(n))
        else:
            graphs = [graph_from_mask(n, int(mk))
                      for mk in rng.integers(0, 1 << (n * (n - 1) // 2), 5000)]
            path = [(v, v + 1) for v in range(n - 1)]
            for perm in [range(n)] + [rng.permutation(n) for _ in range(20)]:
                graphs += [Graph(n, path).relabel(perm),
                           Graph(n, path + [(n - 1, 0)]).relabel(perm)]
        connected = [bfs_connected(g) for g in graphs]
        two = [ok and not brute_cut_vertices(g) for g, ok in zip(graphs, connected)]
        assert 0 < sum(two) < sum(connected) < len(graphs)
        rows = _rows_of_graphs(graphs)
        assert _connected_filter(rows, False).tolist() == connected
        assert _connected_filter(rows, True).tolist() == two


def test_connected_filter_on_int64_rows():
    # The corpus filter's rows: little-endian int64, any order up to
    # graph6's 62.  Every labeled graph of order 3..6, seeded random graphs
    # of order 9..16 over a spread of edge densities, and at n = 62 the
    # path (whose BFS from vertex 0 takes all 61 steps), cycle, complete
    # graph and L_62, each also with one edge removed.
    from histspec import cycle, path_graph
    from histspec.scan import _connected_filter

    rng = np.random.default_rng(43)
    cases = [list(all_labeled_graphs(n)) for n in range(3, 7)]
    for n in range(9, 17):
        pairs = list(itertools.combinations(range(n), 2))
        cases.append([Graph(n, [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < p)])
                      for p in rng.uniform(1.5 / n, 4.0 / n, 300)])
    big = [path_graph(62), cycle(62), complete(62), family_L(62)]
    cases.append(big + [g.remove_edge(*next(g.edges())) for g in big])
    for graphs in cases:
        connected = [g.is_connected() for g in graphs]
        two = [ok and not brute_cut_vertices(g) for g, ok in zip(graphs, connected)]
        assert 0 < sum(two) < sum(connected) < len(graphs)
        rows = np.array([g.rows for g in graphs], dtype="<i8")
        assert _connected_filter(rows, False).tolist() == connected
        assert _connected_filter(rows, True).tolist() == two


def _two_connected_reference(rows):
    """2-connectivity as "G - v is connected for every v", each decided by
    n sweeps of a plain bitset BFS from the lowest vertex of G - v."""
    n, word = rows.shape[1], rows.dtype.type
    full = (1 << n) - 1
    ok = np.ones(len(rows), dtype=bool)
    for v in range(n):
        alive = word(full ^ (1 << v))
        reach = np.full(len(rows), word(2 if v == 0 else 1) & alive, dtype=rows.dtype)
        for _ in range(n):
            for w in range(n):
                reach |= np.where((reach >> w) & 1 == 1, rows[:, w] & alive, word(0))
        ok &= reach == alive
    return ok


def test_connected_filter_matches_n_search_reference():
    # Every labeled graph of order 7, then the hand-made graphs of
    # cut_vertex_cases as uint8 and int64 rows at n = 6..8 and int64 rows at
    # n = 9..16 and 62, with and without cut vertices, disconnected ones
    # among them.
    from histspec import scan

    rng = np.random.default_rng(47)
    c = scan._codec(7)
    groups = [scan._rows_of_masks(c, np.arange(1 << c.nbits, dtype=np.uint32))]
    for n in [*range(6, 17), 62]:
        graphs = cut_vertex_cases(n, rng)
        expect = [g.is_connected() and not brute_cut_vertices(g) for g in graphs]
        for dtype in (np.uint8, "<i8") if n <= 8 else ("<i8",):
            rows = np.array([g.rows for g in graphs], dtype=dtype)
            assert _two_connected_reference(rows).tolist() == expect
            groups.append(rows)
    for rows in groups:
        assert np.array_equal(scan._connected_filter(rows, True), _two_connected_reference(rows))


def test_rows_of_masks_matches_per_slot_reference():
    # The half-table gathers against the per-slot loop they replace: every
    # mask of order 7, a boolean-indexed subsample of them, random masks
    # of order 8, and random masks of every order 1..8 (order 1 has no
    # edge slot).
    from histspec.graphs import edge_slots
    from histspec.scan import _codec, _rows_of_masks

    def per_slot(n, masks):
        rows = np.zeros((len(masks), n), dtype=np.uint8)
        for b, (i, j) in enumerate(edge_slots(n)):
            bit = ((masks >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
            rows[:, i] |= bit << np.uint8(j)
            rows[:, j] |= bit << np.uint8(i)
        return rows

    rng = np.random.default_rng(53)
    every = np.arange(1 << 21, dtype=np.uint32)
    cases = [(7, every), (7, every[rng.random(len(every)) < 0.3]),
             (8, rng.integers(0, 1 << 28, 200_000).astype(np.uint32))]
    for n in range(1, 9):
        masks = rng.integers(0, 1 << (n * (n - 1) // 2), 500).astype(np.uint32)
        cases += [(n, masks), (n, masks[:0])]
    for n, masks in cases:
        assert np.array_equal(_rows_of_masks(_codec(n), masks), per_slot(n, masks))


def test_rows_of_masks_matches_graph_from_mask():
    # The engine's rows against the scalar decode, on random masks of every
    # order 1..8 and, per order, on the empty and the complete graph and
    # the masks on both sides of every window edge of the low half.
    from histspec.scan import _codec, _rows_of_masks

    rng = np.random.default_rng(67)
    for n in range(1, 9):
        c = _codec(n)
        top = 1 << c.nbits
        edges = [w + d for w in range(1 << c.low_bits, top, 1 << c.low_bits) for d in (-1, 0)]
        masks = np.array([0, top - 1, *edges, *rng.integers(0, top, 2000)], dtype=np.uint32)
        rows = _rows_of_masks(c, masks)
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), n)
        assert [tuple(r) for r in rows.tolist()] == [graph_from_mask(n, int(mk)).rows
                                                     for mk in masks]


def test_double_star_feasible_matches_brute_force():
    # Both directions: the vectorized split rule fires exactly where some
    # edge's endpoints dominate the graph and a split of their common
    # neighbours avoids degree 2, on every labeled graph of order 4..6 and
    # on uniform random order-8 masks (uint8 rows, the engine's), and on
    # random order-9 graphs (int64 rows, the corpus path's).
    from histspec.scan import _double_star_feasible

    rng = np.random.default_rng(47)
    for n in (4, 5, 6, 8, 9):
        if n <= 6:
            graphs = list(all_labeled_graphs(n))
        else:
            graphs = [graph_from_mask(n, int(mk))
                      for mk in rng.integers(0, 1 << (n * (n - 1) // 2), 2000)]
        want = [brute_double_star(g) for g in graphs]
        assert 0 < sum(want) < len(want)
        rows = np.array([g.rows for g in graphs], dtype=np.uint8 if n <= 8 else "<i8")
        assert _double_star_feasible(rows).tolist() == want


def test_double_star_test_settles_every_spanning_star():
    # A spanning star is a double star whose second centre takes no leaf,
    # so `_classify` runs no star test of its own.  Random graphs with one
    # vertex joined to all others, at n = 4..12 and 62 (int64 rows), each
    # have one; K_3 and P_3, whose star centre has degree 2, have none;
    # K_1, with no second centre, and K_2 still count as HISTs.
    from histspec.scan import HIST, SEARCHED, _classify, _double_star_feasible
    from histspec.spectral import THM1, THM2

    rng = np.random.default_rng(61)
    for n in [*range(4, 13), 62]:
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [Graph(n, [e for e in pairs if rng.random() < p or centre in e])
                  for p, centre in zip(rng.uniform(0, 1, 100), rng.integers(0, n, 100))]
        assert _double_star_feasible(np.array([g.rows for g in graphs], dtype="<i8")).all()
    for g in (complete(3), Graph(3, [(0, 1), (1, 2)])):
        assert not _double_star_feasible(np.array([g.rows], dtype="<i8")).any()
    for spec in (THM1, THM2):
        for g in (complete(1), complete(2)):
            assert _classify(spec, np.array([g.rows], dtype="<i8"))[0] in (HIST, SEARCHED)


def test_hub_double_star_matches_brute_force():
    # The chunk kernel of the corpus path against the brute-force double
    # star restricted to edges at the hub, the lowest vertex of maximum
    # degree: every labeled graph of order 3..6 (uint8 rows), random
    # order-9 and order-12 graphs of mixed density (int64 rows, the
    # corpus path's), and K_62 - e, L_62, B_62 at graph6's largest order.
    from histspec.scan import _hub_double_star

    def hub(g):
        degs = g.degrees()
        return degs.index(max(degs))

    rng = np.random.default_rng(53)
    for n in (3, 4, 5, 6, 9, 12):
        if n <= 6:
            graphs = list(all_labeled_graphs(n))
        else:
            pairs = list(itertools.combinations(range(n), 2))
            graphs = [Graph(n, [e for e in pairs if rng.random() < p])
                      for p in rng.uniform(0.3, 0.95, 3000)]
        want = [brute_double_star(g, hub(g)) for g in graphs]
        assert n == 3 or 0 < sum(want) < len(want)
        rows = np.array([g.rows for g in graphs], dtype=np.uint8 if n <= 8 else "<i8")
        assert _hub_double_star(rows).tolist() == want
    graphs = [complete(62).remove_edge(0, 61), family_L(62), family_B(62)]
    rows = np.array([g.rows for g in graphs], dtype="<i8")
    assert _hub_double_star(rows).tolist() == [brute_double_star(g, hub(g)) for g in graphs]
    assert _hub_double_star(rows).tolist() == [True, False, False]


def _slot_degrees(n, masks):
    """Per-mask vertex degrees, (len(masks), n), by a loop over the edge
    slots: the reference for the engine's half-table degrees."""
    from histspec.graphs import edge_slots

    deg = np.zeros((len(masks), n), dtype=np.int64)
    for b, (i, j) in enumerate(edge_slots(n)):
        bit = (masks >> np.uint32(b)) & np.uint32(1)
        deg[:, i] += bit
        deg[:, j] += bit
    return deg


def _window_masks(n, windows):
    """Every mask of the windows `windows` of order n, in order, as uint32."""
    from histspec.scan import _codec

    width = 1 << _codec(n).low_bits
    return np.concatenate([np.arange(y * width, (y + 1) * width, dtype=np.uint32)
                           for y in windows])


def test_prescreen_matches_per_graph_reference(monkeypatch):
    # The windowed degree and Hong prescreens of _survivors keep exactly
    # the masks a per-graph check keeps, for both theorems, on the one
    # window of order 6 and on a random list of order-8 windows, at
    # thresholds that split them, every low mask examined.  The degree check is rho <= Δ itself:
    # the order-6 thresholds lie under both theorems', where
    # Δ >= n - degree_gap would drop graphs.
    from histspec.scan import _codec
    from histspec.spectral import GUARD, hong_value, theorem_spec

    rng = np.random.default_rng(43)
    cases = (
        (6, [0], (2.5, 3.0, 3.5)),
        (8, _window_list(rng, 8, 1), (threshold_connected(8), threshold_two_connected(8))),
    )
    for n, windows, thetas in cases:
        masks = _window_masks(n, windows)
        graphs = [graph_from_mask(n, int(mk)) for mk in masks]
        for mode in ("thm1", "thm2"):
            spec = theorem_spec(mode)
            for theta in thetas:
                want = []
                for mk, g in zip(masks.tolist(), graphs):
                    d = g.degrees()
                    if (max(d) >= theta - GUARD and min(d) >= spec.min_degree
                            and hong_value(min(d), n, g.m) >= theta - GUARD):
                        want.append(mk)
                assert 0 < len(want) < len(masks)
                cfg = ScanConfig(n=n, theta=theta, mode=mode)
                got = _mask_survivors(monkeypatch, cfg, _codec(n), [(y, 1) for y in windows])[0]
                assert got.tolist() == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prescreen_table_matches_elementwise_hong(monkeypatch):
    # The table lookup keeps exactly the masks that the element-wise
    # degree and Hong test keeps (hong_value on float64 d and int64 m per
    # mask), for both theorems, on the one window of order 6 and on a
    # random list of order-8 windows, every low mask examined.  The
    # thresholds include Hong values
    # themselves (plus GUARD), where the >= test is a tie that only a
    # bit-identical table decides alike; neither side may raise a
    # RuntimeWarning.
    from histspec.scan import _codec
    from histspec.spectral import GUARD, hong_value, theorem_spec

    rng = np.random.default_rng(59)
    for n, windows, thetas in (
            (6, [0], (2.5, 3.0, 3.5)),
            (8, _window_list(rng, 8, 4), (threshold_connected(8), threshold_two_connected(8)))):
        c = _codec(n)
        masks = _window_masks(n, windows)
        m = np.bitwise_count(masks).astype(np.int64)
        deg = _slot_degrees(n, masks)
        dmax, dmin = deg.max(axis=1), deg.min(axis=1)
        hong = hong_value(dmin.astype(np.float64), n, m)
        ties = [hong_value(float(d), n, mm) + GUARD for d, mm in ((1, n + 2), (2, 2 * n), (3, 2 * n))]
        for mode in ("thm1", "thm2"):
            spec = theorem_spec(mode)
            for theta in (*thetas, *ties):
                want = ((dmax >= theta - GUARD) & (dmin >= spec.min_degree)
                        & (hong >= theta - GUARD))
                assert 0 < want.sum() < len(masks)
                cfg = ScanConfig(n=n, theta=theta, mode=mode)
                got = _mask_survivors(monkeypatch, cfg, c, [(y, 1) for y in windows])[0]
                assert np.array_equal(got, masks[want])


def test_survivors_match_per_mask_prescreen(monkeypatch):
    # _survivors, every low mask examined, against the straight path it
    # replaces: every mask of the windows, then a per-mask degree floor
    # and Hong check, for every
    # order 1..8, prescreens on and off, each survivor weighted by its
    # window's (random) weight.  Orders up to 6 are one window; orders 7
    # and 8 take random window lists, longer than a block.
    from histspec.scan import BLOCK_WINDOWS, _codec, degree_floor
    from histspec.spectral import GUARD, hong_value

    rng = np.random.default_rng(61)
    kept = {}
    for n in range(1, 9):
        c = _codec(n)
        windows = _window_list(rng, n, BLOCK_WINDOWS + 8)
        assert len(windows) > BLOCK_WINDOWS or n <= 6
        theta = {7: threshold_connected(7), 8: threshold_two_connected(8)}.get(n, n - 2.5)
        for mode in ("thm1", "thm2"):
            for prescreens in (True, False):
                cfg = ScanConfig(n=n, theta=theta, mode=mode, prescreens=prescreens)
                weight = rng.integers(1, 1000, size=len(windows)).tolist()
                want, want_weights = [], []
                for y, k in zip(windows, weight):
                    masks = _window_masks(n, [y])
                    if prescreens:
                        d = _slot_degrees(n, masks)
                        dmin = d.min(axis=1)
                        hong = hong_value(dmin.astype(np.float64), n,
                                          np.bitwise_count(masks).astype(np.int64))
                        masks = masks[(d.max(axis=1) >= degree_floor(theta))
                                      & (dmin >= cfg.spec.min_degree)
                                      & (hong >= theta - GUARD)]
                    want.append(masks)
                    want_weights.append(np.full(len(masks), k))
                got, weights = _mask_survivors(monkeypatch, cfg, c, list(zip(windows, weight)))
                assert got.dtype == weights.dtype == np.uint32
                assert np.array_equal(got, np.concatenate(want))
                assert np.array_equal(weights, np.concatenate(want_weights))
                kept[prescreens] = kept.get(prescreens, 0) + len(got)
    assert all(kept.values())


def test_extremal_check_runs_once_per_fallback_key(monkeypatch):
    # Per scan_range call, the recognizer runs exactly once on each
    # distinct key that is over the threshold and left by the double-star
    # test, on the key row itself, and never on a graph that test
    # settles, whichever group of 2^8 rows the key first appears in; every
    # labeled copy of the extremal graph still counts: out.extremal equals
    # the recognizer's count over all over-threshold graphs, and the
    # ungrouped reference (the identity route, every labeled graph its own
    # key) gives the same ShardOut with one recognizer call per
    # over-threshold graph the test leaves, and lists those graphs.  n = 7
    # scans its whole order; n = 8 the golden shard 301, since listing
    # every over-threshold mask of its order would list 74,986,629.
    from histspec import graphs, scan

    for n, mode, name in ((7, "thm1", "is_family_L"), (8, "thm2", "is_family_B")):
        calls, groups = [], []
        real, real_keys = getattr(scan, name), scan._class_keys
        monkeypatch.setattr(scan, name, lambda g, real=real: calls.append(g) or real(g))

        def keyed(rows):
            keys = real_keys(rows)
            groups.append((rows, keys))
            return keys

        monkeypatch.setattr(scan, "_class_keys", keyed)
        theta = threshold_connected(n) if mode == "thm1" else threshold_two_connected(n)
        cfg = ScanConfig(n=n, theta=theta, mode=mode)
        lo, hi = (0, 1 << 21) if n == 7 else (301 << 19, 302 << 19)
        with monkeypatch.context() as m:
            m.setattr(scan, "GROUP_ROWS", 1 << 8)
            out = scan_range(cfg, lo, hi)
        grouped = len(calls)
        monkeypatch.setattr(scan, "_class_keys", _unchanged)
        listed = []
        reference = identity_scan(cfg, range(lo >> 15, hi >> 15), listed)
        monkeypatch.undo()
        assert reference == out
        assert len(calls) - grouped == out.extremal + out.fallback_searches > grouped
        assert len(groups) > 1  # the keys of later groups are looked up
        # Being over is a property of the key (reference == out), so one
        # row per distinct key tells which keys are over.
        first = {}
        for rows, keys in groups:
            for row, key in zip(rows.tolist(), keys.tolist()):
                first.setdefault(tuple(key), row)
        over = set(listed)
        left = set()
        for key, row in first.items():
            if (mask_of_graph(Graph._from_rows_unchecked(n, tuple(row))) in over
                    and not brute_double_star(Graph._from_rows_unchecked(n, key))):
                left.add(key)
        assert sorted(g.rows for g in calls[:grouped]) == sorted(left)
        assert grouped > 0
        is_extremal = getattr(graphs, name)
        want = sum(is_extremal(graph_from_mask(n, mk)) for mk in listed)
        assert out.extremal == want
        assert len(listed) == out.over > want


def test_scan_decides_each_key_once_per_call(monkeypatch):
    # verify_theorem1(7) makes one scan_range call and hands
    # over_threshold key rows only, each key once: the rows of all its
    # calls are pairwise distinct, and together they hold as many rows as
    # the groups hold distinct keys, 266 for the 387,388 prescreen
    # survivors (1,080 of them keyed, the orbit representatives in the 7
    # windows scanned for their window classes).  _decide runs once per block that has keys the
    # call has not decided yet, on all of them: the 7 windows are one
    # block, so one call.  Each block keys its rows in one _key_words call.  Shard 301 scans 8 windows, and with blocks of
    # 32, 4, 2 and 1 windows it makes one _decide call per block, each
    # block bringing new keys, on exactly those keys; with blocks of one
    # window, the n = 7 order makes one call for 6 of its 7 blocks, since
    # one brings no new key.
    from histspec import scan

    decided, distinct, calls = [], [], []
    real_over, real_keys, real_range = scan.over_threshold, scan._class_keys, scan.scan_range
    real_decide, real_words = scan._decide, scan._key_words

    def ranged(*args):
        decided.append([])
        distinct.append(set())
        return real_range(*args)

    def over(theta, rows, refine=True):
        decided[-1].extend(map(tuple, rows.tolist()))
        return real_over(theta, rows, refine)

    def keyed(rows):
        keys = real_keys(rows)
        distinct[-1].update(map(tuple, keys.tolist()))
        return keys

    def decide(cfg, keys):
        calls.append(set(map(tuple, keys.tolist())))
        return real_decide(cfg, keys)

    monkeypatch.setattr(scan, "scan_range", ranged)
    monkeypatch.setattr(scan, "over_threshold", over)
    monkeypatch.setattr(scan, "_class_keys", keyed)
    monkeypatch.setattr(scan, "_decide", decide)
    rep = verify_theorem1(7)
    assert rep.prescreen_survivors == 387_388
    assert len(decided) == 1
    for rows, keys in zip(decided, distinct):
        assert len(set(rows)) == len(rows) == len(keys) == 266
    assert len(calls) == 1 and sum(map(len, calls)) == 266

    def block(*args):
        distinct.append(set())
        return real_words(*args)

    monkeypatch.setattr(scan, "_key_words", block)
    decided.append([])
    n7 = ScanConfig(n=7, theta=threshold_connected(7), mode="thm1")
    n8 = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    for cfg, lo, hi, windows, blocks, fresh_blocks in (
            *((n8, 301 << 19, 302 << 19, w, b, b) for w, b in ((32, 1), (4, 2), (2, 4), (1, 8))),
            (n7, 0, 1 << 21, 1, 7, 6)):
        monkeypatch.setattr(scan, "BLOCK_WINDOWS", windows)
        del distinct[:], calls[:]
        scan_range(cfg, lo, hi)
        assert len(distinct) == blocks
        seen, fresh = set(), []
        for keys in distinct:
            if keys - seen:
                fresh.append(keys - seen)
            seen |= keys
        assert calls == fresh and len(fresh) == fresh_blocks


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


def test_certificates_driver_rejects_large_nmax_before_enumerating(monkeypatch):
    # Above n_max = 8 the sweep would first enumerate every labeled graph
    # of orders 3..8 (2^28 masks at n = 8) before enumerate_labeled(9)
    # raised; the bound is checked before any enumeration starts.
    from histspec import verification

    def enumerate_labeled(*args, **kwargs):
        raise AssertionError("enumerate_labeled called")

    monkeypatch.setattr(verification, "enumerate_labeled", enumerate_labeled)
    for n_max in (2, 9, 20):
        with pytest.raises(ValueError, match="3 <= n_max <= 8"):
            verify_certificates(n_max)


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


def _mixed_corpus(n, count, seed):
    """Seeded graphs of order n, edge densities from sparse to complete,
    with a labeled copy of L_n or B_n every 40 records."""
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for k in range(count):
        if k % 40 == 0:
            fam = family_L(n) if k % 80 == 0 else family_B(n)
            graphs.append(fam.relabel(rng.permutation(n)))
        else:
            keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.95)
            graphs.append(Graph(n, [pairs[i] for i in np.flatnonzero(keep)]))
    return graphs


def _per_graph_corpus_report(spec, theta, graphs):
    """What the corpus driver must report, graph by graph: the theorem's
    connectivity, degree floor and Hong bound, then power iteration, the
    extremal recognizer and the exact HIST search, each counterexample
    one copy.  The degree floor is Δ >= theta - GUARD, from rho <= Δ; at
    the theorem's threshold that is Δ >= n - degree_gap."""
    from histspec import hong_bound, is_family_B, is_family_L, spectral_radius
    from histspec.spectral import GUARD

    is_extremal = is_family_L if spec.family == "L" else is_family_B
    survivors, over, hists, counterexamples = 0, [], 0, []
    for g in graphs:
        if g.max_degree() < theta - GUARD or not spec.admits(g):
            continue
        if hong_bound(g) < theta - GUARD:
            continue
        survivors += 1
        if spectral_radius(g).rho < theta - GUARD:
            continue
        over.append(g)
        if is_extremal(g):
            continue
        if find_hist(g).found:
            hists += 1
        else:
            counterexamples.append([encode_graph6(g), 1])
    return survivors, over, hists, counterexamples


def test_corpus_filter_matches_per_graph_reference(tmp_path, monkeypatch):
    # Three chunks of the batched corpus filter, the last one partial,
    # against a per-graph reference, for both drivers.  The corpus mixes
    # disconnected graphs, connected ones with a cut vertex, connected
    # ones below the degree floor and over-threshold ones.  Chunks of 256
    # records keep the corpus small; the chunk-width test below covers the
    # driver's own width.
    from histspec import verification
    from histspec.spectral import THM1, THM2

    CORPUS_BATCH = 256
    monkeypatch.setattr(verification, "CORPUS_BATCH", CORPUS_BATCH)
    n = 9
    graphs = _mixed_corpus(n, 2 * CORPUS_BATCH + 100, seed=7)
    path = tmp_path / "mixed9.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    connected = [g.is_connected() for g in graphs]
    assert 0 < sum(connected) < len(graphs)
    assert any(ok and not g.is_2_connected() for g, ok in zip(graphs, connected))
    for spec, verify, theta in ((THM1, verify_theorem1, threshold_connected(n)),
                                (THM2, verify_theorem2, threshold_two_connected(n))):
        assert any(ok and g.max_degree() < n - spec.degree_gap
                   for g, ok in zip(graphs, connected))
        survivors, over, hists, counterexamples = _per_graph_corpus_report(spec, theta, graphs)
        over_ids = {id(g) for g in over}
        chunks = {k // CORPUS_BATCH for k, g in enumerate(graphs) if id(g) in over_ids}
        assert chunks == {0, 1, 2}
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert rep.scanned == len(graphs)
        assert (rep.prescreen_survivors, rep.over_threshold, rep.hists_found,
                rep.counterexamples) == (survivors, len(over), hists, counterexamples)
        assert 0 < rep.extremal_matches < rep.over_threshold


def test_corpus_runs_hong_only_on_graphs_the_bounds_leave_under(tmp_path, monkeypatch):
    # Hong's bound is at least rho, so it cannot drop an over-threshold
    # graph, and the corpus path calls it only on the connected graphs at
    # or above the degree floor that the batched bounds leave under: once
    # each, in corpus order.  Some of them fail it, so counting every
    # under graph as a survivor changes the survivor count.
    from histspec import spectral_radius, verification
    from histspec.spectral import GUARD, THM1, THM2

    monkeypatch.setattr(verification, "CORPUS_BATCH", 256)
    n = 9
    graphs = _mixed_corpus(n, 2 * 256 + 100, seed=7)
    path = tmp_path / "mixed9.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    real = verification.hong_bound
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(verification, "hong_bound", counted)
    for spec, verify, theta in ((THM1, verify_theorem1, threshold_connected(n)),
                                (THM2, verify_theorem2, threshold_two_connected(n))):
        under = [g for g in graphs if g.max_degree() >= theta - GUARD and spec.admits(g)
                 and spectral_radius(g).rho < theta - GUARD]
        del calls[:]
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert calls == under
        failing = sum(real(g) < theta - GUARD for g in under)
        assert 0 < failing < len(under)
        assert rep.prescreen_survivors == rep.over_threshold + len(under) - failing
        assert rep.prescreen_survivors == _per_graph_corpus_report(spec, theta, graphs)[0]


def test_corpus_star_settle_is_sound_below_threshold(tmp_path, monkeypatch):
    # At the true thresholds every non-extremal over-threshold graph has a
    # HIST, so counts cannot tell a sound HIST settle from one that claims
    # too much.  At theta' = 3.5 the mixed corpus has over-threshold graphs
    # without a HIST, one of them (thm1) of maximum degree n - 2.  Both
    # reports must equal the per-graph reference, counterexamples included,
    # and only graphs of maximum degree below n - 1 may reach proof
    # replay.  Settling maximum degree >= n - 2 without replay, instead of
    # exactly n - 1, makes this test fail.
    from histspec import decode_graph6, hist, verification
    from histspec.spectral import THM1, THM2

    CORPUS_BATCH = 256  # a full chunk and a partial one
    monkeypatch.setattr(verification, "CORPUS_BATCH", CORPUS_BATCH)
    n, theta = 9, 3.5
    graphs = _mixed_corpus(n, CORPUS_BATCH + 100, seed=9)
    path = tmp_path / "mixed9.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    replayed = []
    real = hist.proof_guided_hist

    def recorded(g, theorem):
        replayed.append(g.max_degree())
        return real(g, theorem)

    monkeypatch.setattr(hist, "proof_guided_hist", recorded)
    missed = []
    for spec, verify, name in ((THM1, verify_theorem1, "threshold_connected"),
                               (THM2, verify_theorem2, "threshold_two_connected")):
        monkeypatch.setattr(verification, name, lambda n: theta)
        del replayed[:]
        survivors, over, hists, counterexamples = _per_graph_corpus_report(spec, theta, graphs)
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert rep.threshold == theta and counterexamples
        assert (rep.prescreen_survivors, rep.over_threshold, rep.hists_found,
                rep.counterexamples) == (survivors, len(over), hists, counterexamples)
        assert rep.extremal_matches == len(over) - hists - len(counterexamples)
        assert any(g.max_degree() == n - 1 for g in over)
        assert replayed and max(replayed) < n - 1
        missed += [decode_graph6(c).max_degree() for c, _ in counterexamples]
    assert n - 2 in missed


def test_corpus_replays_only_graphs_without_a_hub_double_star(tmp_path, monkeypatch):
    # The corpus path counts a non-extremal over-threshold graph with a
    # double star centred at its hub as a HIST, so proof replay sees, in
    # corpus order, exactly the over-threshold graphs that are not stars,
    # not extremal and have no such double star (brute force).  HvsGLqz
    # has only a double star on centres 4 and 8 while its hub is 0, so
    # under thm2 it still reaches replay, and then the search.
    from histspec import hist, verification
    from histspec.spectral import THM1, THM2

    monkeypatch.setattr(verification, "CORPUS_BATCH", 256)
    n = 9
    fallback = decode_graph6("HvsGLqz")
    graphs = _mixed_corpus(n, 2 * 256 + 100, seed=7) + [fallback]
    path = tmp_path / "mixed9.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    replayed, searched = [], []
    real_replay, real_search = hist.proof_guided_hist, verification.find_hist

    def replay(g, theorem):
        replayed.append(encode_graph6(g))
        return real_replay(g, theorem)

    def search(g):
        searched.append(encode_graph6(g))
        return real_search(g)

    monkeypatch.setattr(hist, "proof_guided_hist", replay)
    monkeypatch.setattr(verification, "find_hist", search)
    for spec, verify, theta in ((THM1, verify_theorem1, threshold_connected(n)),
                                (THM2, verify_theorem2, threshold_two_connected(n))):
        is_extremal = is_family_L if spec.family == "L" else is_family_B
        over = _per_graph_corpus_report(spec, theta, graphs)[1]
        fallbacks = [g for g in over if g.max_degree() < n - 1 and not is_extremal(g)]
        want = [encode_graph6(g) for g in fallbacks
                if not brute_double_star(g, g.degrees().index(g.max_degree()))]
        del replayed[:], searched[:]
        rep = verify(n, source=GRAPH6_CORPUS, corpus_path=str(path))
        assert rep.ok and replayed == want
        assert len(want) < len(fallbacks)
    assert "HvsGLqz" in replayed and "HvsGLqz" in searched


def test_corpus_errors_in_a_later_chunk(tmp_path, monkeypatch):
    # A wrong-order record or a malformed one past the first chunk still
    # stops the driver, each with its line number.
    from histspec import Graph6FormatError, verification

    CORPUS_BATCH = 256
    monkeypatch.setattr(verification, "CORPUS_BATCH", CORPUS_BATCH)
    lines = [encode_graph6(g) + "\n" for g in _mixed_corpus(9, CORPUS_BATCH + 10, seed=8)]
    path = tmp_path / "late.g6"
    path.write_text("".join(lines[:-5] + [encode_graph6(complete(8)) + "\n"] + lines[-5:]))
    with pytest.raises(ValueError, match="order 8, expected 9") as err:
        verify_theorem1(9, source=GRAPH6_CORPUS, corpus_path=str(path))
    assert str(err.value).endswith(f"(line {CORPUS_BATCH + 6})")
    bad = lines[-5][:-2] + "\n"  # one data byte short
    path.write_text("".join(lines[:-5] + [bad] + lines[-4:]))
    with pytest.raises(Graph6FormatError) as err:
        verify_theorem2(9, source=GRAPH6_CORPUS, corpus_path=str(path))
    assert err.value.lineno == CORPUS_BATCH + 6


def test_corpus_reports_do_not_depend_on_the_chunk_width(tmp_path, monkeypatch):
    # One mixed n = 9 corpus, longer than the driver's own chunk, through
    # both drivers at chunk widths from one record to CORPUS_BATCH: the
    # reports must be equal, and a malformed record past the first chunk
    # must stop each width with the same error and line number.
    from histspec import Graph6FormatError, verification
    from histspec.verification import CORPUS_BATCH

    widths = (1, 7, 512, CORPUS_BATCH)
    lines = [encode_graph6(g) + "\n"
             for g in _mixed_corpus(9, CORPUS_BATCH + 100, seed=12)]
    path = tmp_path / "mixed9.g6"
    path.write_text("".join(lines))
    bad = tmp_path / "bad9.g6"
    cut = CORPUS_BATCH + 50
    bad.write_text("".join(lines[:cut] + [lines[cut][:-2] + "\n"] + lines[cut + 1:]))
    for verify in (verify_theorem1, verify_theorem2):
        reports, errors = set(), set()
        for width in widths:
            monkeypatch.setattr(verification, "CORPUS_BATCH", width)
            rep = json.loads(verify(9, source=GRAPH6_CORPUS, corpus_path=str(path)).to_json())
            del rep["elapsed"]
            reports.add(json.dumps(rep, sort_keys=True))
            with pytest.raises(Graph6FormatError) as err:
                verify(9, source=GRAPH6_CORPUS, corpus_path=str(bad))
            assert err.value.lineno == cut + 1
            errors.add(str(err.value))
        assert len(reports) == len(errors) == 1
        assert 0 < rep["extremal_matches"] < rep["over_threshold"]
        assert rep["scanned"] == len(lines) and rep["counterexamples"] == []


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
    for n in (7, 9):  # a corpus path on the labeled source, never read
        with pytest.raises(ValueError, match="corpus source only"):
            verify_theorem1(n, corpus_path="/nonexistent.g6")

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
from histspec.graphs import graph_from_mask, mask_of_graph
from histspec.scan import ScanConfig, scan_range
from histspec.verification import GRAPH6_CORPUS, VerificationReport

from helpers import (
    all_labeled_graphs,
    bfs_connected,
    brute_cut_vertices,
    brute_double_star,
    connected_labeled_count,
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
    # B_n's 15,120 and 27,720 copies, which all fall to the eigensolver.
    from histspec.spectral import GUARD, spectral_radius
    from histspec.verification import CORPUS_BATCH, _over_threshold

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
        graphs = _relabeled(base, perms)
        expected = [w for w in want for _ in perms]
        del solved[:]
        got = []
        for s in range(0, len(graphs), CORPUS_BATCH):
            batch = graphs[s:s + CORPUS_BATCH]
            over = {id(g) for g in _over_threshold(batch, theta)}
            got.extend(id(g) in over for g in batch)
        assert got == expected
        assert len(perms) <= sum(solved) < len(graphs)


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
        assert _over_threshold(graphs[:1], theta) == graphs[:1]  # no row left open
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
    from histspec.scan import _codec, _double_star_feasible, _rows_of_masks

    t = _codec(8)
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
        two = [ok and g.is_2_connected() for g, ok in zip(graphs, connected)]
        assert 0 < sum(two) < sum(connected) < len(graphs)
        rows = np.array([g.rows for g in graphs], dtype="<i8")
        assert _connected_filter(rows, False).tolist() == connected
        assert _connected_filter(rows, True).tolist() == two


def test_double_star_feasible_matches_brute_force():
    # Both directions: the vectorized split rule fires exactly where some
    # edge's endpoints dominate the graph and a split of their common
    # neighbours avoids degree 2, on every labeled graph of order 4..6 and
    # on uniform random order-8 masks.
    from histspec.scan import _codec, _double_star_feasible

    rng = np.random.default_rng(47)
    for n in (4, 5, 6, 8):
        if n <= 6:
            graphs = list(all_labeled_graphs(n))
        else:
            graphs = [graph_from_mask(8, int(mk)) for mk in rng.integers(0, 1 << 28, 2000)]
        masks = np.array([mask_of_graph(g) for g in graphs], dtype=np.uint32)
        want = [brute_double_star(g) for g in graphs]
        assert 0 < sum(want) < len(want)
        got = _double_star_feasible(_codec(n), masks, _rows_of_graphs(graphs))
        assert got.tolist() == want


def test_prescreen_matches_per_graph_reference():
    # The vectorized degree and Hong prescreens keep exactly the masks a
    # per-graph check keeps, for both theorems, on every order-6 mask and
    # on uniform random order-8 masks, at thresholds that split them.
    from histspec.scan import _codec, _prescreen
    from histspec.spectral import GUARD, hong_value, theorem_spec

    rng = np.random.default_rng(43)
    cases = (
        (6, np.arange(1 << 15, dtype=np.uint32), (2.5, 3.0, 3.5)),
        (8, rng.integers(0, 1 << 28, 20000).astype(np.uint32),
         (threshold_connected(8), threshold_two_connected(8))),
    )
    for n, masks, thetas in cases:
        graphs = [graph_from_mask(n, int(mk)) for mk in masks]
        for mode in ("thm1", "thm2"):
            spec = theorem_spec(mode)
            for theta in thetas:
                want = []
                for g in graphs:
                    d = g.degrees()
                    want.append(max(d) >= n - spec.degree_gap and min(d) >= spec.min_degree
                                and hong_value(min(d), n, g.m) >= theta - GUARD)
                assert 0 < sum(want) < len(want)
                cfg = ScanConfig(n=n, theta=theta, mode=mode)
                assert _prescreen(cfg, _codec(n), masks).tolist() == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_prescreen_table_matches_elementwise_hong():
    # The table lookup keeps exactly the masks that the element-wise
    # degree and Hong test keeps (hong_value on float64 d and int64 m per
    # mask), for both theorems, on every order-6 mask and on one 2^16 range
    # of order-8 masks.  The thresholds include Hong values themselves
    # (plus GUARD), where the >= test is a tie that only a bit-identical
    # table decides alike; neither side may raise a RuntimeWarning.
    from histspec.scan import _codec, _prescreen
    from histspec.spectral import GUARD, hong_value, theorem_spec

    lo8 = 0x0F0F0000
    for n, masks, thetas in (
            (6, np.arange(1 << 15, dtype=np.uint32), (2.5, 3.0, 3.5)),
            (8, np.arange(lo8, lo8 + (1 << 16), dtype=np.uint32),
             (threshold_connected(8), threshold_two_connected(8)))):
        c = _codec(n)
        m = np.bitwise_count(masks).astype(np.int64)
        deg = np.stack([np.bitwise_count(masks & c.inc[v]) for v in range(n)], axis=1)
        dmax, dmin = deg.max(axis=1), deg.min(axis=1)
        hong = hong_value(dmin.astype(np.float64), n, m)
        ties = [hong_value(float(d), n, mm) + GUARD for d, mm in ((1, n + 2), (2, 2 * n), (3, 2 * n))]
        for mode in ("thm1", "thm2"):
            spec = theorem_spec(mode)
            for theta in (*thetas, *ties):
                want = ((dmax >= n - spec.degree_gap) & (dmin >= spec.min_degree)
                        & (hong >= theta - GUARD))
                assert 0 < want.sum() < len(masks)
                cfg = ScanConfig(n=n, theta=theta, mode=mode)
                assert np.array_equal(_prescreen(cfg, c, masks), want)


def test_extremal_prefilter_calls_recognizer_on_degree_matches(monkeypatch):
    # The recognizer runs once per over-threshold graph whose sorted
    # degrees equal the family's, the edge-count prefilter aside.
    from histspec import scan

    for n, mode, fam, name in ((7, "thm1", family_L(7), "is_family_L"),
                               (8, "thm2", family_B(8), "is_family_B")):
        calls = []
        real = getattr(scan, name)
        monkeypatch.setattr(scan, name, lambda g, real=real: calls.append(g) or real(g))
        theta = threshold_connected(n) if mode == "thm1" else threshold_two_connected(n)
        cfg = ScanConfig(n=n, theta=theta, mode=mode, subsample=16 if n == 7 else 2048,
                         collect_over=True)
        out = scan_range(cfg, 0, 1 << (n * (n - 1) // 2))
        fam_degs = sorted(fam.degrees())
        want = [mk for mk in out.over_masks if sorted(graph_from_mask(n, mk).degrees()) == fam_degs]
        assert len(calls) == len(want) > 0
        assert [mask_of_graph(g) for g in calls] == want
        assert out.extremal == sum(1 for g in calls if real(g))


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
    extremal recognizer and the exact HIST search."""
    from histspec import hong_bound, is_family_B, is_family_L, spectral_radius
    from histspec.spectral import GUARD

    is_extremal = is_family_L if spec.family == "L" else is_family_B
    survivors, over, hists, counterexamples = 0, [], 0, []
    for g in graphs:
        if g.max_degree() < g.n - spec.degree_gap or not spec.admits(g):
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
            counterexamples.append(encode_graph6(g))
    return survivors, over, hists, counterexamples


def test_corpus_filter_matches_per_graph_reference(tmp_path):
    # Three chunks of the batched corpus filter, the last one partial,
    # against a per-graph reference, for both drivers.  The corpus mixes
    # disconnected graphs, connected ones with a cut vertex, connected
    # ones below the degree floor and over-threshold ones.
    from histspec.spectral import THM1, THM2
    from histspec.verification import CORPUS_BATCH

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


def test_corpus_errors_in_a_later_chunk(tmp_path):
    # A wrong-order record or a malformed one past the first chunk still
    # stops the driver, the malformed one with its line number.
    from histspec import Graph6FormatError
    from histspec.verification import CORPUS_BATCH

    lines = [encode_graph6(g) + "\n" for g in _mixed_corpus(9, CORPUS_BATCH + 10, seed=8)]
    path = tmp_path / "late.g6"
    path.write_text("".join(lines[:-5] + [encode_graph6(complete(8)) + "\n"] + lines[-5:]))
    with pytest.raises(ValueError, match="order 8, expected 9"):
        verify_theorem1(9, source=GRAPH6_CORPUS, corpus_path=str(path))
    bad = lines[-5][:-2] + "\n"  # one data byte short
    path.write_text("".join(lines[:-5] + [bad] + lines[-4:]))
    with pytest.raises(Graph6FormatError) as err:
        verify_theorem2(9, source=GRAPH6_CORPUS, corpus_path=str(path))
    assert err.value.lineno == CORPUS_BATCH + 6


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


def test_threads_must_be_positive():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            verify_theorem1(7, threads=bad)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            verify_theorem2(8, threads=bad)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            audit_prescreens(7, "thm1", subsample=16, threads=bad)


def test_workers_capped_at_shard_count(monkeypatch):
    # A fake pool records how many workers each scan asks for and runs the
    # shards in process; n=7 has 2^21 masks, so four 2^19-mask shards.
    import multiprocessing

    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return list(itertools.starmap(fn, args))

    class Context:
        pass

    Context.Pool = Pool
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    serial = json.loads(verify_theorem1(7, subsample=64).to_json())
    assert started == []
    for threads, workers in ((2, 2), (4, 4), (64, 4)):
        rep = json.loads(verify_theorem1(7, subsample=64, threads=threads).to_json())
        assert started.pop() == workers and not started
        assert {**rep, "elapsed": 0} == {**serial, "elapsed": 0}
    audit_prescreens(7, "thm1", subsample=512, threads=64)
    assert started == [4, 4]


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

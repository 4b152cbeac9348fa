import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from histspec import (
    SearchBudgetError,
    complete,
    complete_bipartite,
    cycle,
    decode_graph6,
    enumerate_labeled,
    family_B,
    family_L,
    find_hist,
    is_family_B,
    is_family_L,
    is_valid_hist,
    no_hist_certificate,
    oracle_hist,
    path_graph,
    proof_guided_hist,
    spanning_trees,
    star,
)
from histspec.graphs import Graph
from histspec.hist import CUT_VERTEX_DEG2, EXHAUSTED_SEARCH, P5_PATTERN, Certificate, HistOutcome
from histspec.spectral import InvariantViolation

from helpers import (
    brute_cut_vertices,
    combo_spanning_trees,
    kirchhoff_tree_count,
    random_connected,
    tree_has_degree_two,
)


def test_certificates_on_families():
    c = no_hist_certificate(family_L(7))
    assert c.kind == CUT_VERTEX_DEG2 and c.vertices == (1,)
    c = no_hist_certificate(family_B(8))
    assert c.kind == P5_PATTERN
    s0, s1, s2, s3, s4 = c.vertices
    g = family_B(8)
    assert g.degree(s0) >= 3 and g.degree(s4) >= 3
    assert all(g.degree(s) == 2 for s in (s1, s2, s3))
    assert g.has_edge(s0, s1) and g.has_edge(s1, s2)
    assert g.has_edge(s2, s3) and g.has_edge(s3, s4)
    assert no_hist_certificate(complete(5)) is None
    with pytest.raises(ValueError):
        no_hist_certificate(complete(2))


def test_p5_pattern_requires_distinct_ends():
    # 4-cycle through three degree-2 vertices closed at one high-degree
    # vertex: chain ends coincide, so the pattern must not fire.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5), (4, 5)])
    cert = no_hist_certificate(g)
    assert cert is None or cert.kind != P5_PATTERN


def test_find_hist_small_cases():
    assert find_hist(complete(1)).found
    assert find_hist(complete(2)).found
    out = find_hist(star(7))
    assert out.found and len(out.tree_edges) == 6
    out = find_hist(cycle(5))
    assert not out.found
    out = find_hist(complete(4))
    assert out.found
    deg = [0] * 4
    for u, v in out.tree_edges:
        deg[u] += 1
        deg[v] += 1
    assert sorted(deg) == [1, 1, 1, 3]  # a claw
    with pytest.raises(ValueError):
        find_hist(Graph(4, [(0, 1), (2, 3)]))


def test_find_hist_checks_connectivity_once(monkeypatch):
    # Disconnected graphs raise at every order; from n = 3 on the check is
    # the certificate's alone, so a connected graph costs one BFS.
    from histspec import hist

    for g in (Graph(2), Graph(3, [(0, 1)]), Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
              Graph(9, [(v, v + 1) for v in range(7)])):
        with pytest.raises(ValueError, match="connected graph"):
            find_hist(g)
    calls = []
    real_connected, real_cert = Graph.is_connected, hist.no_hist_certificate

    def connected(g):
        calls.append("is_connected")
        return real_connected(g)

    def certificate(g):
        calls.append("no_hist_certificate")
        return real_cert(g)

    monkeypatch.setattr(Graph, "is_connected", connected)
    monkeypatch.setattr(hist, "no_hist_certificate", certificate)
    for g in (complete(4), cycle(5), family_B(9), complete_bipartite(2, 5)):
        del calls[:]
        find_hist(g)
        assert calls == ["no_hist_certificate", "is_connected"]
    del calls[:]
    assert find_hist(complete(2)).found
    assert calls == ["is_connected"]


def test_oracle_small_cases():
    assert not oracle_hist(path_graph(4)).found
    assert oracle_hist(complete(4)).found
    assert not oracle_hist(family_L(7)).found
    assert not oracle_hist(family_B(8)).found


def test_spanning_tree_counts():
    # Cayley counts for complete graphs, plus the matrix-tree theorem on
    # random graphs, validate the deletion/contraction enumerator.
    assert sum(1 for _ in spanning_trees(complete(4))) == 16
    assert sum(1 for _ in spanning_trees(complete(5))) == 125
    k4_trees = list(spanning_trees(complete(4)))
    claws = sum(1 for t in k4_trees if not tree_has_degree_two(4, t))
    assert claws == 4
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected(rng, int(rng.integers(2, 8)))
        trees = list(spanning_trees(g))
        assert len(trees) == kirchhoff_tree_count(g)
        assert len(set(trees)) == len(trees)


def test_spanning_trees_match_combination_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected(rng, 6, 0.5)
        mine = set(spanning_trees(g))
        ref = {tuple(sorted(t)) for t in combo_spanning_trees(g)}
        assert {tuple(sorted(t)) for t in mine} == ref


# SHA-256 of repr(list(spanning_trees(g))): oracle_hist returns the first
# HIST in this order, and tree_cap counts trees in it.
PINNED_TREE_ORDER = {
    "K5": "d6b6f11fedc8a8e63e3b6afe047d9bf55fa372d3e0ea9ce9bc598fb9571c70c9",
    "K33": "a8c45a744b003ef5e4bbabc7c8c0cfe133f4d09b0a5cf8002052c43737f10c92",
    "L7": "a16d8b50758e63b8288e1e67ec96f5a8a9235b37a1ecd43dd1b6bec42e7493bd",
    "B8": "3bc2e9bad51eeb681c811e693262a732c978e06e3ae831f511dac9b0ae30a9ed",
    "G6_0": "5b56933cd27ec43d01742ac425de687cae80e6f97ffe125bb8c963d1b5bc6ca3",
    "G7_1": "099e9a962347c0a20672345f825e9960abcf98c5f6dc3e3b74838e6b6f3ad713",
    "G8_2": "d438c3351abf587868fe4facacc1be9fb851c5f17b9b495c8a2a11ff532eb0cd",
    "G7_3": "61ce6adaa8b77ecc8e8a77c08df8af7708890d51a7f529d81330d9619617109d",
    "G8_4": "0daf90c7f0cf9b21c4d56f24a4038fc8e0f83f9eba43a778ba72fb4e95667280",
}


def test_spanning_tree_order_is_pinned():
    graphs = {"K5": complete(5), "K33": complete_bipartite(3, 3),
              "L7": family_L(7), "B8": family_B(8)}
    for seed, n in zip(range(5), (6, 7, 8, 7, 8)):
        graphs[f"G{n}_{seed}"] = random_connected(np.random.default_rng(seed), n)
    digests = {name: hashlib.sha256(repr(list(spanning_trees(g))).encode()).hexdigest()
               for name, g in graphs.items()}
    assert digests == PINNED_TREE_ORDER


# SHA-256 of repr([(kind, vertices) or None]) of no_hist_certificate on the
# connected labeled graphs of each order in mask order: reports and
# `histspec hist` print the first certificate found, so its vertices and the
# order of the walks that find it are part of the output.
PINNED_CERTIFICATES = {
    3: "c043798544c3d5c70c5b4c68f215d5117efffadae03f9fb89407faf51d6c8c95",
    4: "83fd68d088ffa02bda4f792f7d1abd0e16da2fab2cf4480be86158cf79d15aeb",
    5: "6783eaafe7a482a237fa609318c6fd28ba7382095587bca16f9f1c100844c7b8",
    6: "e47a0c0eb5b9e7e8b6a35a600196f9f00ee78541f35a76006caa0124f9353c8a",
}


def test_certificates_are_pinned():
    digests = {}
    for n in PINNED_CERTIFICATES:
        certs = map(no_hist_certificate, enumerate_labeled(n, connected=True))
        digests[n] = hashlib.sha256(repr(
            [None if c is None else (c.kind, c.vertices) for c in certs]).encode()).hexdigest()
    assert digests == PINNED_CERTIFICATES


def test_spanning_trees_skip_only_edges_the_rest_can_spare(monkeypatch):
    # Every branch ends in a tree, so the work is polynomial per tree: at
    # most n - 1 branch points per tree, each scanning at most m edges.
    # Skipping an edge the remaining ones cannot spare would, on a tree,
    # open 2^(n-1) dead branches.
    from histspec import hist

    calls = [0]
    real = hist._reach

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(hist, "_reach", counted)
    for g in (path_graph(16), star(16), family_L(7), complete_bipartite(2, 5)):
        calls[0] = 0
        trees = sum(1 for _ in spanning_trees(g))
        assert 0 < calls[0] <= trees * g.n * (g.m + 1)


def test_tree_cap():
    # HIST-free with 192 spanning trees, so the scan cannot exit early
    with pytest.raises(SearchBudgetError):
        oracle_hist(complete_bipartite(2, 6), tree_cap=10)
    assert not oracle_hist(complete_bipartite(2, 6)).found


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_search_budget():
    with pytest.raises(SearchBudgetError):
        find_hist(_petersen(), budget=3)
    # The root's full star settles K_8 at the first child set.
    assert find_hist(complete(8), budget=1).found


def test_sparse_n20_found_within_small_budget():
    # A search deciding edge by edge spends 5,000,000 nodes on this
    # sparse graph (about 80 s) without a verdict.
    g = decode_graph6("S_KPU?E_?AHoIGaG_?G_?_?E?OCLIGG`W")
    assert (g.n, g.m) == (20, 41)
    out = find_hist(g, budget=1_000)
    assert out.found and is_valid_hist(g, out.tree_edges)


@pytest.mark.parametrize("code, budget", [
    ("RY?eA?Gh?G_S??O???JfAAJ?o_A?UG", 100),
    ("T_agB??P?K[?OGO?a???_CEGX_????O?D??@", 2_500),
])
def test_sparse_graphs_found_within_small_budget(code, budget):
    # Without the adopter prune the search counts 64,204 (n=19) and
    # 17,304 (n=21) nodes before its first HIST; with it, far fewer
    # (test_search_node_counts_are_pinned).
    g = decode_graph6(code)
    out = find_hist(g, budget=budget)
    assert out.found and is_valid_hist(g, out.tree_edges)


@pytest.mark.parametrize("code, nodes", [
    ("S_KPU?E_?AHoIGaG_?G_?_?E?OCLIGG`W", 11),
    ("RY?eA?Gh?G_S??O???JfAAJ?o_A?UG", 78),
    ("T_agB??P?K[?OGO?a???_CEGX_????O?D??@", 1_922),
])
def test_search_node_counts_are_pinned(code, nodes):
    # The exact number of nodes the search counts up to its first HIST: a
    # budget one short raises, the count itself finds.  A change to the
    # search that is meant to keep its order and its counting keeps these.
    g = decode_graph6(code)
    with pytest.raises(SearchBudgetError):
        find_hist(g, budget=nodes - 1)
    out = find_hist(g, budget=nodes)
    assert out.found and is_valid_hist(g, out.tree_edges)


def test_degree2_leaves_settle_structured_no_hist_graphs_without_search():
    # Without the degree-2 leaf rule both families cost exponential search
    # (K_{2,40} did not finish in 60 s), so budget=1 would raise.
    graphs = [complete_bipartite(2, q) for q in (4, 12, 40)]
    graphs += [cycle(n) for n in range(4, 13)]
    for g in graphs:
        out = find_hist(g, budget=1)
        assert not out.found and out.certificate.kind == EXHAUSTED_SEARCH


def _subdivide(g, edges):
    """g with each of the given edges replaced by a path of length 2."""
    kept = [e for e in g.edges() if e not in edges]
    new = [(e[0], g.n + i) for i, e in enumerate(edges)]
    new += [(g.n + i, e[1]) for i, e in enumerate(edges)]
    return Graph(g.n + len(edges), kept + new)


def test_degree2_leaf_rule_agrees_with_oracle():
    # Orders 7..10, rich in degree-2 vertices: random connected graphs
    # with some edges subdivided, and sparse G(n, 2.6/n).
    rng = np.random.default_rng(31)
    tally = {True: 0, False: 0}
    for i in range(400):
        if i % 2:
            base = random_connected(rng, int(rng.integers(4, 8)), 0.5)
            edges = list(base.edges())
            k = int(rng.integers(max(1, 7 - base.n), min(len(edges), 10 - base.n) + 1))
            picked = rng.choice(len(edges), size=k, replace=False)
            g = _subdivide(base, [edges[j] for j in sorted(picked)])
        else:
            n = int(rng.integers(7, 11))
            g = random_connected(rng, n, 2.6 / n)
        out = find_hist(g)
        assert out.found == oracle_hist(g).found
        if out.found:
            assert is_valid_hist(g, out.tree_edges)
        if 2 in g.degrees() and no_hist_certificate(g) is None:
            tally[out.found] += 1
    # The rule acts on both verdicts, past the structural certificates.
    assert min(tally.values()) >= 20, tally
    # Orders 11..13, as sparse as the hist_search benchmark's graphs.
    verdicts = set()
    for _ in range(40):
        n = int(rng.integers(11, 14))
        g = random_connected(rng, n, 2.6 / n + rng.uniform(0, 0.1))
        out = find_hist(g)
        assert out.found == oracle_hist(g).found
        verdicts.add(out.found)
    assert verdicts == {True, False}


def test_found_trees_validate():
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = random_connected(rng, int(rng.integers(4, 9)))
        out = find_hist(g)
        if out.found:
            assert is_valid_hist(g, out.tree_edges)


def test_oracle_equivalence_exhaustive_n6():
    for n in range(1, 7):
        for g in enumerate_labeled(n, connected=True):
            assert find_hist(g).found == oracle_hist(g).found


def test_cut_vertex_certificate_is_lowest_degree2_cut_vertex():
    rng = np.random.default_rng(5)
    graphs = [g for n in range(3, 7) for g in enumerate_labeled(n, connected=True)]
    graphs += [random_connected(rng, int(rng.integers(7, 16)), 0.2) for _ in range(300)]
    for g in graphs:
        cuts = [v for v in sorted(brute_cut_vertices(g)) if g.degree(v) == 2]
        cert = no_hist_certificate(g)
        if cuts:
            assert cert == Certificate(CUT_VERTEX_DEG2, (cuts[0],))
        else:
            assert cert is None or cert.kind != CUT_VERTEX_DEG2


def test_certificate_soundness_small():
    for n in range(3, 6):
        for g in enumerate_labeled(n, connected=True):
            if no_hist_certificate(g) is not None:
                assert not oracle_hist(g).found


def test_families_certified_and_oracle_confirmed_to_n10():
    for n in range(4, 11):
        g = family_L(n)
        assert no_hist_certificate(g) is not None
        assert not oracle_hist(g).found
    for n in range(6, 11):
        g = family_B(n)
        assert no_hist_certificate(g) is not None
        assert not oracle_hist(g).found


def test_is_valid_hist_rejects():
    k4 = complete(4)
    assert not is_valid_hist(k4, [(0, 1), (1, 2), (2, 3)])   # path: degree 2
    assert not is_valid_hist(k4, [(0, 1), (2, 3)])           # too few
    assert not is_valid_hist(k4, [(0, 1), (0, 2), (1, 2)])   # cycle
    assert is_valid_hist(k4, [(0, 1), (0, 2), (0, 3)])
    s4 = star(4)
    for bad in ((-1, 0), (0, -1), (4, 0)):                    # not a vertex
        assert not is_valid_hist(s4, [(0, 1), (0, 2), bad])
    k5 = complete(5)
    for bad in ((0, 3),                                       # duplicate edge
                (3, 0),                                       # reversed duplicate
                (4, 4),                                       # loop
                (5, 0), (0, 5), (-1, 4)):                     # not a vertex
        assert not is_valid_hist(k5, [(0, 1), (0, 2), (0, 3), bad])
    assert not is_valid_hist(k5.remove_edge(0, 4), [(0, 1), (0, 2), (0, 3), (0, 4)])  # non-edge
    assert is_valid_hist(k5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    # numpy-integer endpoints, as rows of an int64 array or as scalars
    assert is_valid_hist(k5, np.array([(0, 1), (0, 2), (0, 3), (4, 0)]))
    assert is_valid_hist(k5, [(np.int32(0), np.int8(v)) for v in range(1, 5)])
    assert not is_valid_hist(k5, np.array([(0, 1), (1, 2), (2, 3), (3, 4)]))


def test_is_valid_hist_matches_spanning_tree_enumeration():
    # Every (n - 1)-edge subset of K_5 and K_6, in either orientation, is
    # accepted iff the deletion/contraction enumeration yields it as a
    # spanning tree and no vertex has degree 2 in it.
    for n in (5, 6):
        g = complete(n)
        trees = {frozenset(t) for t in spanning_trees(g)}
        assert len(trees) == n ** (n - 2)
        accepted = 0
        for edges in itertools.combinations(g.edges(), n - 1):
            degs = [sum(v in e for e in edges) for v in range(n)]
            want = frozenset(edges) in trees and 2 not in degs
            accepted += want
            assert is_valid_hist(g, edges) == want
            assert is_valid_hist(g, [(v, u) for u, v in reversed(edges)]) == want
        # K_5: the 5 stars; K_6: 6 stars and 15 * 6 double stars (3, 3)
        assert accepted == {5: 5, 6: 96}[n]


# -- proof-guided construction ---------------------------------------------------


def test_proof_guided_star_case():
    t = proof_guided_hist(complete(7), "one_connected")
    assert t.case_label.endswith("star") and t.found_tree
    assert len(t.outcome.tree_edges) == 6
    # complete graph minus a perfect matching on six vertices still
    # has a dominating vertex
    g = complete(7)
    for u, v in ((1, 2), (3, 4), (5, 6)):
        g = g.remove_edge(u, v)
    t = proof_guided_hist(g, "one_connected")
    assert t.case_label.endswith("star") and t.found_tree


def test_proof_guided_recognizes_families():
    t = proof_guided_hist(family_L(9), "one_connected")
    assert t.recognized_family == "L" and is_family_L(family_L(9))
    t = proof_guided_hist(family_B(8), "two_connected")
    assert t.recognized_family == "B"
    assert t.case_label.endswith("pendant-chain")


def test_proof_guided_detour_case():
    # order-7 graph: hub of degree 5, outsider attached at one neighbor
    # that also has a neighbor inside the hub's neighborhood
    g = family_L(7).add_edge(1, 3)
    t = proof_guided_hist(g, "one_connected")
    assert t.found_tree


def test_proof_guided_outside_cases():
    t = proof_guided_hist(complete_bipartite(2, 8), "two_connected")
    assert t.outside and "complete-bipartite" in t.case_label
    assert not find_hist(complete_bipartite(2, 8)).found
    # Max degree below the cases' range, which only a threshold under the
    # theorem's lets through: an outside trace, so the search decides.
    t = proof_guided_hist(path_graph(8), "one_connected")
    assert t.outside and t.case_label == "one_connected/max-degree<n-2/outside:below-range"
    t = proof_guided_hist(cycle(8), "two_connected")
    assert t.outside and t.case_label == "two_connected/max-degree<n-3/outside:below-range"


def test_proof_guided_preconditions():
    with pytest.raises(ValueError):
        proof_guided_hist(family_L(7), "two_connected")    # not 2-connected
    with pytest.raises(ValueError):
        proof_guided_hist(complete(6), "one_connected")    # below order range
    with pytest.raises(ValueError):
        proof_guided_hist(complete(7), "nope")


def test_proof_guided_rejects_a_loop_at_the_hub():
    # Graph._from_rows_unchecked skips validation, so replay is the one to
    # see that the hub's row holds its own bit: a clear ValueError, not a
    # TypeError from a case that takes a fixed number of outsiders.
    for g, theorem in ((family_B(8), "two_connected"), (family_L(8), "one_connected")):
        rows = list(g.rows)
        hub = g.degrees().index(max(g.degrees()))
        rows[hub] |= 1 << hub
        looped = Graph._from_rows_unchecked(g.n, tuple(rows))
        with pytest.raises(ValueError, match="simple graph"):
            proof_guided_hist(looped, theorem)


def test_proof_guided_consistency_random_dense():
    # Wherever the replay emits a tree, the exact search agrees a HIST
    # exists; wherever it recognizes a family, the matcher agrees.
    rng = np.random.default_rng(23)
    done = 0
    while done < 300:
        n = int(rng.integers(8, 11))
        g = random_connected(rng, n, 0.7)
        if g.max_degree() < n - 3 or not g.is_2_connected():
            continue
        t = proof_guided_hist(g, "two_connected")
        if t.found_tree:
            assert is_valid_hist(g, t.outcome.tree_edges)
            assert find_hist(g).found
        elif t.recognized_family == "B":
            assert is_family_B(g)
        else:
            assert find_hist(g).found == oracle_hist(g).found
        done += 1


def test_proof_guided_thm1_consistency_random():
    rng = np.random.default_rng(29)
    done = 0
    while done < 300:
        n = int(rng.integers(7, 10))
        g = random_connected(rng, n, 0.75)
        if g.max_degree() < n - 2:
            continue
        t = proof_guided_hist(g, "one_connected")
        if t.found_tree:
            assert is_valid_hist(g, t.outcome.tree_edges)
            assert find_hist(g).found
        elif t.recognized_family == "L":
            assert is_family_L(g)
        done += 1


def test_hist_outcome_invariant_survives_optimize():
    # A found outcome carries a tree and no certificate, a not-found one
    # the reverse; the check is not an assert, so `python -O` keeps it.
    cert = Certificate(EXHAUSTED_SEARCH)
    for bad in (dict(found=True), dict(found=False),
                dict(found=True, tree_edges=((0, 1),), certificate=cert),
                dict(found=False, tree_edges=((0, 1),), certificate=cert)):
        with pytest.raises(InvariantViolation):
            HistOutcome(**bad)
    assert HistOutcome(found=True, tree_edges=((0, 1),)).found
    assert not HistOutcome(found=False, certificate=cert).found
    code = ("from histspec.hist import HistOutcome\n"
            "from histspec.spectral import InvariantViolation\n"
            "try:\n    HistOutcome(found=True)\nexcept InvariantViolation:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0

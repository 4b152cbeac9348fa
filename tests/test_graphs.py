import hashlib
from itertools import combinations

import numpy as np
import pytest

from histspec import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    enumerate_labeled,
    family_B,
    family_L,
    is_family_B,
    is_family_L,
    make_family,
    path_graph,
    star,
)
from histspec.graphs import edge_slots, graph_from_mask

from helpers import brute_cut_vertices, brute_isomorphic, cut_vertex_cases, random_connected


def test_degree_basics():
    k4 = complete(4)
    assert all(k4.degree(v) == 3 for v in range(4))
    l7 = family_L(7)
    assert l7.degree(0) == 1  # pendant end of the attached path
    p3 = path_graph(3)
    assert p3.degree(1) == 2
    with pytest.raises(ValueError):
        p3.degree(3)
    assert p3.has_edge(0, 1) and not p3.has_edge(0, 2)
    for u, v in ((-1, 0), (0, -1), (3, 0), (0, 3)):
        with pytest.raises(ValueError):
            p3.has_edge(u, v)


def test_edge_count_and_handshake():
    for g in (complete(5), family_L(7), family_B(8), cycle(6), star(7)):
        assert sum(g.degrees()) == 2 * g.m


def test_family_edge_counts():
    assert family_L(7).m == 12   # C(5,2) + 2
    assert family_B(8).m == 14   # C(5,2) + 4
    assert complete(4).m == 6
    assert make_family("complete", 4) == complete(4)
    assert make_family("K", 4) == complete(4)
    assert make_family("Kpq", 2, 8) == complete_bipartite(2, 8)


def test_family_param_validation():
    with pytest.raises(ValueError):
        family_L(3)
    with pytest.raises(ValueError):
        family_B(5)
    with pytest.raises(ValueError):
        make_family("cycle", 2)
    with pytest.raises(ValueError):
        make_family("nope", 3)
    with pytest.raises(ValueError):
        make_family("K", 3, 3)


def test_connectivity():
    assert complete(5).is_connected()
    assert Graph(4, [(0, 1), (2, 3)]).is_connected() is False
    assert family_B(8).is_connected()
    assert Graph(1).is_connected()


def test_cut_vertices_against_brute_force_families():
    l7 = family_L(7)
    assert l7.cut_vertices() == brute_cut_vertices(l7) == frozenset({1, 2})
    assert complete(6).cut_vertices() == frozenset()
    assert path_graph(4).cut_vertices() == frozenset({1, 2})
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (2, 3)]).cut_vertices()


def test_cut_vertices_rejects_disconnected_input():
    # The reach from vertex 0 is the connectivity check, down to n = 2.
    for g in (Graph(2), Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph(5, [(1, 2), (2, 3), (3, 4)])):
        with pytest.raises(ValueError, match="connected"):
            g.cut_vertices()
    assert Graph(1).cut_vertices() == frozenset()
    assert complete(2).cut_vertices() == frozenset()
    assert not Graph(5, [(0, 1), (1, 2), (3, 4)]).is_2_connected()


def test_two_connectivity_examples():
    assert family_B(8).is_2_connected()
    assert not family_L(7).is_2_connected()
    assert cycle(5).is_2_connected()
    with pytest.raises(ValueError):
        complete(2).is_2_connected()


def test_two_connectivity_equivalence_exhaustive_small():
    # For every connected graph up to order 6: cut vertices agree with
    # brute force over induced subgraphs, and 2-connectivity is exactly
    # "connected and no cut vertex".
    for n in range(3, 7):
        for g in enumerate_labeled(n, connected=True):
            cuts = g.cut_vertices()
            assert cuts == brute_cut_vertices(g)
            assert g.is_2_connected() == (len(cuts) == 0)


def test_cut_vertices_match_brute_force():
    # Hand-made graphs, then the graphs of cut_vertex_cases at n = 6..16
    # and 62, with and without cut vertices, disconnected ones among them,
    # all against brute force.  Vertex 0 has maximum degree, and the
    # pendant 6 makes it the only cut vertex.
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    for g, cuts in ((Graph(6, edges), frozenset()), (Graph(7, edges + [(0, 6)]), frozenset({0}))):
        assert g.cut_vertices() == brute_cut_vertices(g) == cuts
    rng = np.random.default_rng(19)
    for n in [*range(6, 17), 62]:
        for g in cut_vertex_cases(n, rng):
            cuts = brute_cut_vertices(g)
            if not g.is_connected():
                with pytest.raises(ValueError, match="connected"):
                    g.cut_vertices()
                assert not g.is_2_connected()
                continue
            assert g.cut_vertices() == cuts
            assert g.is_2_connected() == (not cuts)


def test_cut_vertices_at_wide_rows():
    # Orders up to 62, where each Python-int row spans several digits:
    # families with known cut vertices, then sparse random connected graphs
    # (a random tree plus a few chords), all against brute force.
    k31 = list(combinations(range(31), 2))
    known = {
        path_graph(62): frozenset(range(1, 61)),
        cycle(62): frozenset(),
        family_L(62): frozenset({1, 2}),
        family_B(62): frozenset(),
        star(62): frozenset({0}),
        Graph(61, k31 + [(30 + u, 30 + v) for u, v in k31]): frozenset({30}),
    }
    rng = np.random.default_rng(15)
    graphs = list(known)
    for _ in range(40):
        n = int(rng.integers(20, 63))
        perm = rng.permutation(n)
        edges = [(perm[v], perm[rng.integers(v)]) for v in range(1, n)]
        edges += [tuple(rng.choice(n, 2, replace=False)) for _ in range(n // 8)]
        graphs.append(Graph(n, edges))
    for g in graphs:
        cuts = brute_cut_vertices(g)
        assert cuts == known.get(g, cuts)
        assert g.cut_vertices() == cuts
        assert g.is_2_connected() == (not cuts)


def test_graph_from_mask_rejects_masks_outside_its_order():
    # Order 4 has six slots: bit 6 and a negative mask name no edge set.
    assert graph_from_mask(4, (1 << 6) - 1) == complete(4)
    for mask in (1 << 6, -1):
        with pytest.raises(ValueError, match="outside"):
            graph_from_mask(4, mask)
    for n in (0, 65):
        with pytest.raises(ValueError, match="orders"):
            graph_from_mask(n, 0)


def test_induced_subgraph():
    k5 = complete(5)
    assert k5.induced_subgraph([0, 2, 4]) == complete(3)
    l7 = family_L(7)
    assert l7.induced_subgraph(range(2, 7)) == complete(5)
    # the five path-and-attachment vertices of the B family induce a cycle
    b8 = family_B(8)
    c = b8.induced_subgraph([0, 1, 2, 3, 4])
    assert sorted(c.degrees()) == [2, 2, 2, 2, 2] and c.is_connected()
    with pytest.raises(ValueError):
        k5.induced_subgraph([])


def test_relabel_roundtrip():
    g = family_B(8)
    perm = [3, 1, 4, 0, 6, 2, 7, 5]
    inv = [perm.index(i) for i in range(8)]
    assert g.relabel(perm).relabel(inv) == g


def test_family_recognizers_on_relabelings():
    rng = np.random.default_rng(7)
    for n, ctor, rec in ((7, family_L, is_family_L), (8, family_B, is_family_B),
                         (10, family_L, is_family_L), (9, family_B, is_family_B)):
        g = ctor(n)
        for _ in range(20):
            perm = list(rng.permutation(n))
            assert rec(g.relabel(perm))
    assert not is_family_L(complete(7))
    assert not is_family_B(complete(8))
    # removing one clique edge must break the match
    b8 = family_B(8)
    assert not is_family_B(b8.remove_edge(5, 6))
    l7 = family_L(7)
    assert not is_family_L(l7.remove_edge(3, 4))


def test_family_recognizer_vs_brute_iso_on_degree_twins():
    # All connected graphs sharing L_7's or B_6's degree multiset (twins):
    # each recognizer must agree with brute-force isomorphism, and the
    # copies number n!/|Aut| (L_7's 210 is cross-checked in test_acceptance).
    # B_7's 52,290 twins take minutes of brute force, so B stops at order 6.
    for n, family, recognize, twins, copies in (
            (7, family_L, is_family_L, 4830, 210), (6, family_B, is_family_B, 810, 360)):
        target = sorted(family(n).degrees())
        slots = edge_slots(n)
        inc = np.zeros(n, dtype=np.uint32)
        for b, (i, j) in enumerate(slots):
            inc[i] |= np.uint32(1 << b)
            inc[j] |= np.uint32(1 << b)
        masks = np.arange(1 << len(slots), dtype=np.uint32)
        deg = np.empty((len(masks), n), dtype=np.uint8)
        for v in range(n):
            deg[:, v] = np.bitwise_count(masks & inc[v])
        cand = (np.sort(deg, axis=1) == np.array(target, dtype=np.uint8)).all(axis=1)
        h = family(n)
        seen = found = 0
        for mk in masks[cand]:
            g = graph_from_mask(n, int(mk))
            if not g.is_connected():
                continue
            iso = brute_isomorphic(g, h)
            assert recognize(g) == iso
            seen += 1
            found += iso
        assert (seen, found) == (twins, copies)


# SHA-256 of the "LB" bits ("1" when is_family_L / is_family_B holds) of
# every labeled graph of each order in mask order: the verdict of each
# recognizer on each graph is pinned, not only on the families' copies.
PINNED_RECOGNIZERS = {
    1: "f1534392279bddbf9d43dde8701cb5be14b82f76ec6607bf8d6ad557f60f304e",
    2: "9af15b336e6a9619928537df30b2e6a2376569fcf9d7e773eccede65606529a0",
    3: "fcdb4b423f4e5283afa249d762ef6aef150e91fccd810d43e5e719d14512dec7",
    4: "a0ec4889e5df5c3582b9bba93d20b397306d36d32c9465cf4b06e578659f38f3",
    5: "ef41d56bf335d03bb4cd46dff989b7167eec576fca014df0b9d475739f31ea39",
    6: "6eeb5c3869dfbf2edf2dc6c18aedbbad8dfce53760f87ff5db7def32b4367ab5",
}


def test_family_recognizers_are_pinned():
    digests = {n: hashlib.sha256("".join(
        f"{is_family_L(g):d}{is_family_B(g):d}" for g in enumerate_labeled(n)).encode()
    ).hexdigest() for n in PINNED_RECOGNIZERS}
    assert digests == PINNED_RECOGNIZERS


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    # Vertex labels, rows and permutations must be integers: a float is
    # refused, not truncated (int() would turn these edges into the path
    # 0-1-2-3), while numpy integers are accepted.
    with pytest.raises(TypeError, match="integer"):
        Graph(4, [(0, 1.9), (1.5, 2), (2.99, 3)])
    with pytest.raises(TypeError, match="integer"):
        Graph(4, [(np.float64(0), 1)])
    with pytest.raises(TypeError, match="integer"):
        Graph.from_rows(2, (2.5, 1.0))
    with pytest.raises(TypeError, match="integer"):
        path_graph(3).relabel([1.9, 0.5, 2.0])
    p3 = Graph(3, [(np.int64(0), np.uint8(1)), (1, np.int32(2))])
    assert p3 == path_graph(3) == Graph.from_rows(3, np.array([2, 5, 2]))
    assert p3.relabel(np.array([2, 1, 0])) == p3
    with pytest.raises(ValueError):
        Graph.from_rows(2, (1, 0))  # asymmetric
    g = Graph.from_rows(2, (2, 1))
    assert g.m == 1


def test_immutability_of_edits():
    g = cycle(5)
    h = g.remove_edge(0, 1)
    assert g.m == 5 and h.m == 4
    k = h.add_edge(0, 1)
    assert k == g


def test_random_graphs_invariants():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_connected(rng, 9, 0.4)
        assert sum(g.degrees()) == 2 * g.m
        for u, v in g.edges():
            assert g.has_edge(v, u)
        assert g.cut_vertices() == brute_cut_vertices(g)

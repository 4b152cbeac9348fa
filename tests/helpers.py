"""Independent oracles shared by the test modules.

Everything here but the identity route at the end deliberately avoids
the package's own algorithms: brute force, closed formulas, recurrences,
and numpy's dense eigensolver serve as the second route for every value
the package computes.  The identity route is the scan engine itself with
its orbit and window-class weighting switched off, the reference for
that weighting and the one route that lists every labeled graph.
"""

from __future__ import annotations

import itertools
from math import comb
from unittest import mock

import numpy as np

from histspec import Graph, scan


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search isomorphism test (test-suite fallback only)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.n
    gdeg = g.degrees()
    hdeg = h.degrees()
    # Map vertices in degree-class order to prune early.
    for perm in itertools.permutations(range(n)):
        ok = True
        for v in range(n):
            if gdeg[v] != hdeg[perm[v]]:
                ok = False
                break
        if not ok:
            continue
        if all(h.has_edge(perm[u], perm[v]) for u, v in g.edges()):
            return True
    return False


def brute_cut_vertices(g: Graph) -> frozenset[int]:
    """Remove each vertex in turn and test connectivity of the rest."""
    out = set()
    for v in range(g.n):
        rest = [w for w in range(g.n) if w != v]
        if not rest:
            continue
        sub = g.induced_subgraph(rest)
        if not sub.is_connected():
            out.add(v)
    return frozenset(out)


def cut_vertex_cases(n: int, rng: np.random.Generator) -> list[Graph]:
    """Graphs of order n >= 6 for the cut-vertex and 2-connectivity tests,
    each also under two random relabelings.

    Two cliques sharing one vertex and the star have one cut vertex, of
    maximum degree; K_n, K_{2,n-2}, C_n and B_n are 2-connected; L_n and
    the path are connected, with cut vertices; two disjoint cliques are
    disconnected.  K_n, C_n and the path have many vertices of maximum
    degree, K_{2,n-2} two.
    """
    a = n // 2 + 1
    cases = [
        Graph(n, list(itertools.combinations(range(a), 2))
              + list(itertools.combinations(range(a - 1, n), 2))),
        Graph(n, [(0, v) for v in range(1, n)]),
        Graph(n, list(itertools.combinations(range(n), 2))),
        Graph(n, [(u, v) for u in range(2) for v in range(2, n)]),
        Graph(n, [(v, (v + 1) % n) for v in range(n)]),
        Graph(n, [(0, 1), (1, 2), (0, 3), (2, 4)]
              + list(itertools.combinations(range(3, n), 2))),
        Graph(n, [(0, 1), (1, 2)] + list(itertools.combinations(range(2, n), 2))),
        Graph(n, [(v, v + 1) for v in range(n - 1)]),
        Graph(n, list(itertools.combinations(range(a), 2))
              + list(itertools.combinations(range(a, n), 2))),
    ]
    return cases + [g.relabel(rng.permutation(n)) for g in cases for _ in range(2)]


def bfs_connected(g: Graph) -> bool:
    """Breadth-first search from vertex 0 over has_edge."""
    seen = [0]
    for u in seen:
        seen.extend(v for v in range(g.n) if v not in seen and g.has_edge(u, v))
    return len(seen) == g.n


def brute_double_star(g: Graph, centre: int | None = None) -> bool:
    """Whether some edge ab is the centre of a spanning double star with no
    vertex of degree 2: a and b dominate every vertex, and some split of
    their common neighbours between them leaves neither centre degree 2.
    With `centre` given, only the edges at that vertex are tried."""
    for a, b in g.edges():
        if centre is not None and centre not in (a, b):
            continue
        rest = [v for v in range(g.n) if v not in (a, b)]
        if not all(g.has_edge(a, v) or g.has_edge(b, v) for v in rest):
            continue
        common = [v for v in rest if g.has_edge(a, v) and g.has_edge(b, v)]
        for k in range(len(common) + 1):
            for to_a in itertools.combinations(common, k):
                edges = [(a, b)] + [
                    (a, v) if v in to_a or not g.has_edge(b, v) else (b, v) for v in rest]
                if not tree_has_degree_two(g.n, edges):
                    return True
    return False


def connected_labeled_count(n: int) -> int:
    """Standard recurrence for the number of connected labeled graphs."""
    c = {}
    for k in range(1, n + 1):
        total = 2 ** comb(k, 2)
        c[k] = total - sum(
            comb(k - 1, j - 1) * c[j] * 2 ** comb(k - j, 2) for j in range(1, k)
        )
    return c[n]


def all_labeled_graphs(n: int):
    """Every labeled graph of order n, built straight from edge subsets."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        yield Graph(n, edges)


def combo_spanning_trees(g: Graph) -> list[tuple]:
    """All spanning trees by trying every (n-1)-subset of edges."""
    edges = list(g.edges())
    out = []
    for subset in itertools.combinations(edges, g.n - 1):
        parent = list(range(g.n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            out.append(subset)
    return out


def kirchhoff_tree_count(g: Graph) -> int:
    """Matrix-tree theorem: determinant of a Laplacian minor."""
    if g.n == 1:
        return 1
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    minor = lap[1:, 1:]
    return round(float(np.linalg.det(minor)))


def eigvalsh_rho(g: Graph) -> float:
    """Reference spectral radius from numpy's dense symmetric solver."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def labeled_copy_count(g: Graph) -> int:
    """Number of distinct labeled copies of g, by brute relabelling."""
    seen = set()
    for perm in itertools.permutations(range(g.n)):
        seen.add(g.relabel(perm).rows)
    return len(seen)


def random_connected(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    """Uniform G(n, p) conditioned on connectivity, by rejection."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        keep = rng.random(len(pairs)) < p
        g = Graph(n, [pairs[i] for i in np.nonzero(keep)[0]])
        if g.is_connected():
            return g


def tree_has_degree_two(n: int, edges) -> bool:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return 2 in deg


def every_mask_table(blocks: tuple) -> tuple[np.ndarray, ...]:
    """The identity route's stand-in for `scan._orbit_table`: every low
    mask of the partition's order, each its own orbit of size 1, with the
    low degree and edge-count tables of that order."""
    c = scan._codec(len(blocks))
    width = 1 << c.low_bits
    return (np.arange(width, dtype=np.uint32), np.ones(width, dtype=np.uint32), c.lo_deg, c.lo_m)


def identity_scan(cfg, windows, over=None):
    """The identity route, the reference for window classes and orbits:
    `scan._scan` over every window of the ascending window indices
    `windows` at weight 1, every low mask of each examined at weight 1
    (`scan._orbit_table` returns `every_mask_table` while it runs).  So
    every count is of masks examined one by one, and each counterexample
    is one [graph6, 1] pair per labeled copy, in mask order.  With a list
    `over`, the over-threshold masks are appended to it, in mask order."""
    real_blocks = scan._blocks

    def listed(*args):
        for masks, weights, code in real_blocks(*args):
            if over is not None:
                over.extend(masks[code != scan.UNDER].tolist())
            yield masks, weights, code

    with mock.patch.object(scan, "_orbit_table", every_mask_table), \
            mock.patch.object(scan, "_blocks", listed):
        return scan._scan(cfg, scan._codec(cfg.n), [(y, 1) for y in windows])

"""HIST search in action: certificates, tree-growth search, oracle, replay.

A HIST is a spanning tree with no vertex of degree exactly 2.  The
decision problem is NP-complete in general; at desk scale we decide it
exactly three different ways and show they agree.
"""

import numpy as np

from histspec import (
    complete,
    complete_bipartite,
    cycle,
    family_B,
    find_hist,
    oracle_hist,
    proof_guided_hist,
    spanning_trees,
    star,
)
from histspec.graphs import Graph

print("-- quick verdicts --")
for name, g in [
    ("star on 7 vertices", star(7)),
    ("5-cycle", cycle(5)),
    ("complete graph K4", complete(4)),
    ("complete bipartite K_{2,6}", complete_bipartite(2, 6)),
    ("attached-3-path family, n=8", family_B(8)),
]:
    out = find_hist(g)
    if out.found:
        print(f"{name}: HIST {out.tree_edges}")
    else:
        print(f"{name}: no HIST ({out.certificate})")

print()
print("-- the oracle route: enumerate every spanning tree --")
k4 = complete(4)
trees = list(spanning_trees(k4))
claws = [t for t in trees
         if sorted(sum([[u, v] for u, v in t], []).count(x) for x in range(4))
         == [1, 1, 1, 3]]
print(f"K4 has {len(trees)} spanning trees, {len(claws)} of them degree-2-free")
print(f"oracle verdict: {oracle_hist(k4).found}")

print()
print("-- proof replay on a dense graph --")
rng = np.random.default_rng(1)
while True:
    edges = [(i, j) for i in range(9) for j in range(i + 1, 9)
             if rng.random() < 0.7]
    g = Graph(9, edges)
    if g.is_connected() and g.is_2_connected() and g.max_degree() >= 6:
        break
trace = proof_guided_hist(g, "two_connected")
print(f"case: {trace.case_label}")
print(f"roles: {trace.vertex_roles}")
if trace.found_tree:
    print(f"tree: {trace.outcome.tree_edges}")
print(f"exact search agrees: {find_hist(g).found}")

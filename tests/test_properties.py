"""Property tests over generated graphs.

Every test runs a fixed, derandomized set of examples, so the suite stays
deterministic; no example database is written.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from histspec import (
    Graph,
    decode_graph6,
    encode_graph6,
    find_hist,
    hong_bound,
    hong_value,
    is_valid_hist,
    spectral_radius,
)

PROPS = dict(derandomize=True, database=None, deadline=None)


@st.composite
def graphs(draw, min_n=1, max_n=12, connected=False):
    """A graph of order min_n..max_n.  With connected=True a random
    recursive tree (each vertex joined to an earlier one) is drawn first,
    then any further edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    if connected:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(i, j) for j in range(n) for i in range(j) if (i, j) not in edges]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges.update(e for e, on in zip(pairs, picks) if on)
    return Graph(n, sorted(edges))


@settings(max_examples=300, **PROPS)
@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    text = encode_graph6(g)
    assert decode_graph6(text) == g
    assert encode_graph6(decode_graph6(text)) == text


@settings(max_examples=120, **PROPS)
@given(st.data())
def test_find_hist_verdict_invariant_under_relabel(data):
    g = data.draw(graphs(max_n=9, connected=True))
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabel(perm)
    a, b = find_hist(g), find_hist(h)
    assert a.found == b.found
    if b.found:
        assert is_valid_hist(h, b.tree_edges)


@settings(max_examples=200, **PROPS)
@given(graphs(min_n=2, max_n=10, connected=True))
def test_hong_value_matches_bound_and_dominates_rho(g):
    bound = hong_bound(g)
    d, n, m = g.min_degree(), g.n, g.m
    assert hong_value(d, n, m) == bound
    assert hong_value(np.array([float(d)]), n, np.array([m]))[0] == bound
    assert spectral_radius(g).rho <= bound + 1e-9

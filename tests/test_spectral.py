import math

import numpy as np
import pytest

from histspec import (
    THM1,
    THM2,
    ConvergenceError,
    QuarticPoly,
    charpoly_B,
    charpoly_L,
    complete,
    complete_bipartite,
    cycle,
    delta_bound,
    family_B,
    family_L,
    hong_bound,
    largest_root,
    make_family,
    path_graph,
    slack_bounds,
    spectral_radius,
    star,
)
from histspec.graphs import Graph

from helpers import eigvalsh_rho, random_connected


def test_known_spectra():
    for n in (3, 4, 5, 8):
        assert spectral_radius(complete(n)).rho == pytest.approx(n - 1, abs=1e-9)
    assert spectral_radius(complete_bipartite(2, 8)).rho == pytest.approx(4.0, abs=1e-9)
    assert spectral_radius(complete_bipartite(3, 3)).rho == pytest.approx(3.0, abs=1e-9)
    assert spectral_radius(star(7)).rho == pytest.approx(math.sqrt(6), abs=1e-9)
    # cycle: rho = 2; path: rho = 2 cos(pi / (n+1))
    assert spectral_radius(cycle(6)).rho == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(path_graph(4)).rho == pytest.approx(
        2 * math.cos(math.pi / 5), abs=1e-9)
    assert spectral_radius(complete(1)).rho == 0.0


def test_result_invariants():
    for g in (family_L(7), family_B(8), path_graph(6), complete_bipartite(2, 5)):
        res = spectral_radius(g)
        assert res.residual <= 1e-10
        assert (res.perron > 0).all()
        assert res.perron.max() == pytest.approx(1.0)
        assert res.rho <= g.max_degree() + res.residual


def test_matches_reference_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_connected(rng, int(rng.integers(2, 11)))
        assert spectral_radius(g).rho == pytest.approx(eigvalsh_rho(g), abs=1e-8)


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        spectral_radius(Graph(4, [(0, 1), (2, 3)]))


def test_non_convergence_error():
    with pytest.raises(ConvergenceError):
        spectral_radius(path_graph(4), tol=1e-12, max_iter=2)


def test_power_iteration_settings_validated():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            spectral_radius(path_graph(4), tol=tol)
    with pytest.raises(ValueError, match="max_iter"):
        spectral_radius(complete(4), max_iter=-1)
    assert spectral_radius(complete(4), max_iter=0).rho == pytest.approx(3.0)


def test_quartic_coefficients():
    assert charpoly_L(7).coefficients() == (1, -3, -6, 6, 4)
    assert charpoly_B(8).coefficients() == (1, -3, -7, 8, 8)
    with pytest.raises(ValueError):
        charpoly_L(6)
    with pytest.raises(ValueError):
        charpoly_B(7)
    with pytest.raises(ValueError):
        QuarticPoly(2.0, 0, 0, 0, 0)


def test_quartic_vanishes_at_family_rho():
    for n in range(7, 31):
        rho = spectral_radius(family_L(n)).rho
        assert abs(charpoly_L(n)(rho)) <= 1e-6
    for n in range(8, 31):
        rho = spectral_radius(family_B(n)).rho
        assert abs(charpoly_B(n)(rho)) <= 1e-6


def test_largest_root_cross_checks():
    for n in (7, 12, 25):
        root = largest_root(charpoly_L(n), n - 3, n - 2)
        assert root == pytest.approx(spectral_radius(family_L(n)).rho, abs=1e-8)
    for n in (8, 12, 25):
        root = largest_root(charpoly_B(n), n - 4, n - 3)
        assert root == pytest.approx(spectral_radius(family_B(n)).rho, abs=1e-8)


def test_theorem_specs_consistent():
    # Each spec's quartic, bracket, degree gap and minimum degree must
    # describe its own extremal family, and the scan's degree floor at the
    # threshold must be the bottom of proof replay's range.
    from histspec.scan import degree_floor

    for spec in (THM1, THM2):
        for n in range(spec.order_floor, 31):
            fam = make_family(spec.family, n)
            root = largest_root(spec.quartic(n), *spec.bracket(n))
            rho = spectral_radius(fam).rho
            assert abs(root - rho) <= 1e-8, (spec.name, n)
            assert fam.max_degree() == degree_floor(rho) == n - spec.degree_gap
            assert fam.min_degree() == spec.min_degree
            assert spec.admits(fam)


def test_largest_root_constructed():
    # (x - 2) x^3 has largest root 2
    p = QuarticPoly(1.0, -2.0, 0.0, 0.0, 0.0)
    assert largest_root(p, 1.0, 3.0) == pytest.approx(2.0, abs=1e-11)
    with pytest.raises(ValueError):
        largest_root(p, 3.0, 4.0)


def test_delta_bound():
    assert delta_bound(complete(5)) == 4
    assert delta_bound(family_L(7)) == 5
    assert delta_bound(star(7)) == 6
    assert spectral_radius(complete(5)).rho == pytest.approx(4.0, abs=1e-9)


def test_hong_bound_values():
    assert hong_bound(complete(4)) == pytest.approx(3.0)          # tight
    assert hong_bound(path_graph(4)) == pytest.approx(math.sqrt(3))
    # Two disjoint copies of K_{n/2} have 2δ = n - 2, the largest minimum
    # degree a disconnected graph of order n can have, so hong_bound must
    # still run its connectivity check there.
    for n in (4, 8, 10):
        half = n // 2
        edges = [(i, j) for j in range(half) for i in range(j)]
        g = Graph(n, edges + [(i + half, j + half) for i, j in edges])
        assert 2 * min(g.degrees()) == n - 2 and not g.is_connected()
        with pytest.raises(ValueError):
            hong_bound(g)


def test_hong_value_scalar_and_array_paths_agree_bit_for_bit():
    # hong_bound's operands (Python ints, math.sqrt) against the prescreen
    # table's (float64 d, int64 m, np.sqrt) on every feasible (d, m) of
    # orders 2..62: 0 <= d <= n - 1 and d n <= 2m <= n(n - 1).
    from histspec.spectral import hong_value

    assert type(hong_value(2, 5, 6)) is float
    for n in range(2, 63):
        pairs = [(d, m) for d in range(n) for m in range(-(-d * n // 2), n * (n - 1) // 2 + 1)]
        d, m = np.array(pairs).T
        array = hong_value(d.astype(np.float64), n, m.astype(np.int64))
        assert [hong_value(dd, n, mm).hex() for dd, mm in pairs] == [x.hex() for x in array.tolist()]


def test_hong_bound_decides_as_the_prescreen_table():
    # On every connected graph of order 2..6, hong_bound(g) >= theta - GUARD
    # (with the minimum-degree floor) is the scan engine's _hong_table
    # entry at (min degree, edge count), at thresholds that include Hong
    # values themselves plus GUARD, where only equal bits decide alike.
    from histspec import enumerate_labeled
    from histspec.scan import ScanConfig, _hong_table
    from histspec.spectral import GUARD, hong_value

    for n in range(2, 7):
        graphs = [(min(g.degrees()), g.m, hong_bound(g))
                  for g in enumerate_labeled(n, connected=True)]
        ties = {hong_value(d, n, m) + GUARD for d, m, _ in graphs}
        for mode, spec in (("thm1", THM1), ("thm2", THM2)):
            for theta in (n - 2.5, n - 1.5, *ties):
                ok = _hong_table(ScanConfig(n=n, theta=theta, mode=mode), n)
                assert [bool(ok[d, m]) for d, m, _ in graphs] == \
                    [d >= spec.min_degree and hong >= theta - GUARD for d, m, hong in graphs]


def test_hong_bound_dominates_exhaustively():
    from histspec import enumerate_labeled

    for n in range(2, 7):
        for g in enumerate_labeled(n, connected=True):
            rho = eigvalsh_rho(g)
            assert rho <= hong_bound(g) + 1e-9
            assert rho <= delta_bound(g) + 1e-9


def test_slack_bounds():
    sl = slack_bounds("L", 7)
    assert sl.base == 4 and sl.upper == pytest.approx(0.25)
    assert sl.slack == pytest.approx(0.0548, abs=2e-3)
    sb = slack_bounds("B", 8)
    assert sb.upper == pytest.approx(0.5)
    assert sb.slack < 0.5
    big = slack_bounds("L", 100)
    assert big.slack < 1 / 97
    with pytest.raises(ValueError):
        slack_bounds("L", 6)
    with pytest.raises(ValueError):
        slack_bounds("X", 9)


def test_family_rho_bound_chain():
    for n in range(7, 51):
        rho = spectral_radius(family_L(n)).rho
        assert n - 3 < rho < n - 3 + 1 / (n - 3)
    for n in range(8, 51):
        rho = spectral_radius(family_B(n)).rho
        assert n - 4 < rho < n - 4 + 2 / (n - 4)


def test_subgraph_monotonicity_sample():
    rng = np.random.default_rng(99)
    done = 0
    while done < 200:
        g = random_connected(rng, int(rng.integers(4, 11)))
        edges = list(g.edges())
        u, v = edges[int(rng.integers(len(edges)))]
        h = g.remove_edge(u, v)
        if not h.is_connected():
            continue
        a, b = spectral_radius(g), spectral_radius(h)
        assert b.rho < a.rho
        assert a.rho - b.rho > 2 * max(a.residual, b.residual)
        done += 1

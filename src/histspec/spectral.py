"""Adjacency spectral radius and the closed-form bounds around it.

The eigensolver is shifted power iteration on A + I starting from the
all-ones vector: the shift keeps the iteration convergent on bipartite
graphs (whose unshifted iterates oscillate between +rho and -rho) and the
start vector has positive overlap with the Perron vector, so there is no
randomness anywhere in the numeric core.  The reported value is the
Rayleigh quotient, which is quadratically accurate in the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import Graph, make_family

#: Threshold comparisons use "rho >= theta - GUARD": deliberately
#: over-inclusive so verification can only over-check, never under-check.
GUARD = 1e-9

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the residual tolerance."""

    def __init__(self, message, rho=None, vector=None, iterations=None):
        super().__init__(message)
        self.rho = rho
        self.vector = vector
        self.iterations = iterations


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed relation failed; indicates a bug."""


@dataclass(frozen=True)
class SpectralResult:
    """Dominant adjacency eigenpair of a connected graph."""

    rho: float
    perron: np.ndarray  # positive, unit max-norm
    residual: float     # max-norm of A x - rho x
    iterations: int


def spectral_radius(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Spectral radius and Perron vector by shifted power iteration.

    Raises ValueError unless tol is finite and positive and max_iter >= 0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not g.is_connected():
        raise ValueError("spectral_radius requires a connected graph")
    a = adjacency_matrix(g)
    n = g.n
    x = np.ones(n)
    for it in range(max_iter + 1):
        ax = a @ x
        rho = float(x @ ax) / float(x @ x)
        residual = float(np.abs(ax - rho * x).max())
        if residual <= tol:
            x = x / x.max()
            return SpectralResult(rho=rho, perron=x, residual=residual, iterations=it)
        x = ax + x  # one application of A + I
        x = x / x.max()
    raise ConvergenceError(
        f"no convergence to residual {tol} within {max_iter} iterations",
        rho=rho, vector=x, iterations=max_iter,
    )


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        row = g.rows[u]
        for v in range(g.n):
            if row >> v & 1:
                a[u, v] = 1.0
    return a


# -- closed-form bounds -------------------------------------------------------


def delta_bound(g: Graph) -> float:
    """Maximum degree, an upper bound on the spectral radius."""
    return float(g.max_degree())


def hong_value(d, n, m):
    """Hong-type upper bound on rho of a connected graph with n vertices,
    m edges and minimum degree d: (d - 1 + sqrt((d + 1)^2 + 4(2m - d n))) / 2.

    Takes scalars or numpy arrays; at d = 1 it equals sqrt(2m - n + 1).
    The square root is `math.sqrt` on a scalar, which skips numpy's
    per-call cost on the corpus path's one call per graph, and `np.sqrt`
    on an array.  Both are correctly rounded, so a scalar and an array
    entry with the same operands give the same value bit for bit.
    """
    s = (d + 1) ** 2 + 4 * (2 * m - d * n)
    return (d - 1 + (np.sqrt(s) if isinstance(s, np.ndarray) else math.sqrt(s))) / 2


def hong_bound(g: Graph) -> float:
    """hong_value of a connected graph of order n >= 2.

    The minimum degree and the edge count are read from one degree list,
    not from two walks of the rows; the corpus path calls this once per
    connected graph at or above its degree floor that `scan.over_threshold`
    leaves under: the bound is at least rho, so it cannot drop an over
    graph, and there it only counts the prescreen survivors.  The list is
    read before the connectivity check, which runs only when 2δ < n - 1: a
    disconnected graph has a component of at most n/2 vertices, so its
    minimum degree is at most n/2 - 1.
    """
    if g.n < 2:
        raise ValueError("hong_bound needs n >= 2")
    degs = g.degrees()
    dmin = min(degs)
    if 2 * dmin < g.n - 1 and not g.is_connected():
        raise ValueError("hong_bound requires a connected graph")
    return hong_value(dmin, g.n, sum(degs) // 2)


# -- family characteristic quartics ------------------------------------------
#
# On both families the Perron vector is constant on each of four vertex
# classes, so the eigenvalue equation collapses to a monic quartic whose
# largest root is the spectral radius.


@dataclass(frozen=True)
class QuarticPoly:
    """Monic quartic c4 x^4 + ... + c0 with c4 = 1."""

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float

    def __post_init__(self):
        if self.c4 != 1.0:
            raise ValueError("quartic must be monic")

    def __call__(self, x: float) -> float:
        return (((self.c4 * x + self.c3) * x + self.c2) * x + self.c1) * x + self.c0

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.c4, self.c3, self.c2, self.c1, self.c0)


def charpoly_L(n: int) -> QuarticPoly:
    """Quartic whose largest root is rho of the pendant-path family."""
    if n < 7:
        raise ValueError("quartic is used for n >= 7")
    return QuarticPoly(1.0, float(-(n - 4)), float(-(n - 1)),
                       float(2 * n - 8), float(n - 3))


def charpoly_B(n: int) -> QuarticPoly:
    """Quartic whose largest root is rho of the attached-3-path family."""
    if n < 8:
        raise ValueError("quartic is used for n >= 8")
    return QuarticPoly(1.0, float(-(n - 5)), float(-(n - 1)),
                       float(3 * n - 16), float(2 * n - 8))


# -- the two theorems ----------------------------------------------------------


@dataclass(frozen=True)
class TheoremSpec:
    """Everything that follows from one of the paper's two thresholds.

    degree_gap serves two things only: the largest root of the family
    quartic lies in bracket(n) = [n - degree_gap - 1, n - degree_gap],
    and proof replay's cases cover maximum degree n - degree_gap and up.
    The scan's maximum-degree floor comes from the threshold itself
    (`scan.degree_floor`), which equals n - degree_gap at the theorem's
    threshold.
    """

    name: str          # "thm1" | "thm2"
    replay: str        # theorem name of proof_guided_hist
    family: str        # extremal family letter, as in make_family
    connectivity: str  # "connected" | "2-connected"
    order_floor: int   # smallest order the threshold is defined for
    degree_gap: int
    min_degree: int    # of every graph with the stated connectivity
    quartic: Callable[[int], QuarticPoly]

    @property
    def two_connected(self) -> bool:
        return self.connectivity == "2-connected"

    def admits(self, g: Graph) -> bool:
        """Whether g has the connectivity the theorem assumes (n >= 3)."""
        return g.is_2_connected() if self.two_connected else g.is_connected()

    def bracket(self, n: int) -> tuple[int, int]:
        return n - self.degree_gap - 1, n - self.degree_gap


THM1 = TheoremSpec("thm1", "one_connected", "L", "connected", 7, 2, 1, charpoly_L)
THM2 = TheoremSpec("thm2", "two_connected", "B", "2-connected", 8, 3, 2, charpoly_B)
THEOREMS = (THM1, THM2)


def theorem_spec(name: str) -> TheoremSpec:
    """The spec named "thm1" or "thm2"."""
    for spec in THEOREMS:
        if spec.name == name:
            return spec
    raise ValueError(f"unknown theorem {name!r}; expected 'thm1' or 'thm2'")


def largest_root(p: QuarticPoly, lo: float, hi: float) -> float:
    """Bisection root inside a sign-change bracket, to absolute width 1e-12.

    The caller brackets so that only the largest root lies inside, e.g.
    TheoremSpec.bracket(n) for the family quartics.
    """
    flo, fhi = p(lo), p(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        fmid = p(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (fhi > 0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2


# -- slack above the clique bound ---------------------------------------------


@dataclass(frozen=True)
class SlackBound:
    """How far a family's rho sits above its clique lower bound.

    base is n-3 (family L) or n-4 (family B); slack is rho - base; upper is
    the closed-form cap 1/(n-3) resp. 2/(n-4) that the order-based
    corollaries rely on.
    """

    family: str
    n: int
    base: float
    slack: float
    upper: float


def slack_bounds(family: str, n: int) -> SlackBound:
    """Measured slack of a family's rho over its clique bound, with cap check.

    Raises InvariantViolation if the measured slack reaches the cap, which
    would mean an eigensolver or coefficient transcription bug.
    """
    spec = next((s for s in THEOREMS if s.family == family), None)
    if spec is None:
        raise ValueError("family must be 'L' or 'B'")
    if n < spec.order_floor:
        raise ValueError(f"family {family} slack needs n >= {spec.order_floor}")
    base = float(spec.bracket(n)[0])
    rho = spectral_radius(make_family(family, n)).rho
    if family == "L":
        upper = 1.0 / (n - 3)
        tight = (n - 3) / (n**3 - 8 * n**2 + 19 * n - 14)
    else:
        upper = 2.0 / (n - 4)
        tight = (2 * n - 8) / (n**3 - 11 * n**2 + 37 * n - 40)
    slack = rho - base
    if not 0.0 < slack < tight:
        raise InvariantViolation(
            f"slack {slack} of family {family} (n={n}) outside (0, {tight})"
        )
    if slack >= upper:
        raise InvariantViolation(
            f"slack {slack} of family {family} (n={n}) reached cap {upper}"
        )
    return SlackBound(family=family, n=n, base=base, slack=slack, upper=upper)

"""Exhaustive verification drivers and their reports.

Each driver fixes a spectral threshold (cross-checked between the power
iteration eigensolver and the quartic bisection root), scans every graph
of the requested order from the labeled-exhaustive generator or from a
graph6 corpus, and confirms that each over-threshold graph either matches
the extremal family or carries a HIST.  Counterexamples are reported as
[graph6, copies] pairs, a graph6 string that can be re-checked
independently and the number of scanned labeled graphs it stands for.

The exhaustive scans cover the stated orders only and the reports say so;
no claim is made beyond the verified range.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import scan as _scan
from .graph6 import encode_graph6, read_graph6_file
from .graphs import Graph, family_B, family_L, is_family_B, is_family_L, make_family
from .hist import find_hist, no_hist_certificate, oracle_hist
from .spectral import (
    GUARD,
    THM1,
    THM2,
    InvariantViolation,
    hong_bound,
    largest_root,
    slack_bounds,
    spectral_radius,
    theorem_spec,
)

LABELED_EXHAUSTIVE = "labeled_exhaustive"
GRAPH6_CORPUS = "graph6_corpus"

CORPUS_BATCH = 1 << 12  # corpus records per chunk of the batched scan; bounds memory
THRESHOLD_AGREEMENT = 1e-8


class _Report:
    """What every driver report shares: its fields as sorted JSON."""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class VerificationReport(_Report):
    theorem: str
    n: int
    source: str
    threshold: float
    scanned: int
    prescreen_survivors: int
    over_threshold: int
    extremal_matches: int
    hists_found: int
    counterexamples: list[list]  # [graph6, copies] pairs
    elapsed: float
    scope: str

    def __post_init__(self):
        total = self.extremal_matches + self.hists_found + self.counterexample_copies
        if self.over_threshold != total or any(k < 1 for _, k in self.counterexamples):
            raise InvariantViolation(
                f"report arithmetic broken: over={self.over_threshold}, "
                f"parts sum to {total}, each counterexample needs 1 or more copies"
            )

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def counterexample_copies(self) -> int:
        return sum(copies for _, copies in self.counterexamples)

    def text(self) -> str:
        lines = [
            f"{self.theorem} verification, n={self.n} ({self.source})",
            f"  threshold            {self.threshold:.12f}",
            f"  scanned              {self.scanned}",
            f"  prescreen survivors  {self.prescreen_survivors}",
            f"  over threshold       {self.over_threshold}",
            f"  extremal matches     {self.extremal_matches}",
            f"  hists found          {self.hists_found}",
            f"  counterexamples      {self.counterexample_copies}",
        ]
        for text, copies in self.counterexamples:
            lines.append(f"    counterexample {text} copies {copies}")
        lines.append(f"  scope: {self.scope}")
        lines.append(f"  elapsed {self.elapsed:.3f}s")
        return "\n".join(lines)


# -- labeled enumeration -------------------------------------------------------


def enumerate_labeled(n: int, connected: bool = False):
    """Yield all labeled graphs of order n as Graph values, mask order,
    only the connected ones if `connected` is set.

    Edge bitmasks run over the C(n, 2) pairs in colex order; the scan
    engine's half tables give the adjacency bit rows of each window, the
    masks that share a high half, as the low half's rows OR the window's
    high-half row, and the connected filter runs on them.  Windows go in
    ascending order, so the graphs come in mask order.  Bounded to n <= 8
    (beyond that use a graph6 corpus).
    """
    if n > 8:
        raise ValueError("labeled enumeration is bounded to n <= 8; use a corpus")
    if n < 1:
        raise ValueError("order must be >= 1")
    c = _scan._codec(n)
    for hi_row in c.hi_rows:
        rows = c.lo_rows | hi_row
        if connected:
            rows = rows[_scan._connected_filter(rows, False)]
        data = rows.tobytes()
        for k in range(0, len(data), n):
            yield Graph._from_rows_unchecked(n, tuple(data[k:k + n]))


# -- thresholds ----------------------------------------------------------------


def threshold_connected(n: int) -> float:
    """rho of the pendant-path family, eigensolver vs quartic cross-check."""
    return _threshold(THM1, n)


def threshold_two_connected(n: int) -> float:
    """rho of the attached-3-path family, eigensolver vs quartic cross-check."""
    return _threshold(THM2, n)


def _threshold(spec, n: int) -> float:
    if n < spec.order_floor:
        raise ValueError(
            f"the {spec.connectivity} threshold is defined for n >= {spec.order_floor}")
    rho = spectral_radius(make_family(spec.family, n)).rho
    root = largest_root(spec.quartic(n), *spec.bracket(n))
    if abs(rho - root) > THRESHOLD_AGREEMENT:
        raise InvariantViolation(
            f"threshold mismatch at n={n}: eigensolver {rho}, quartic root {root}"
        )
    return rho


# -- main drivers --------------------------------------------------------------


def verify_theorem1(
    n: int,
    source: str = LABELED_EXHAUSTIVE,
    corpus_path: str | None = None,
) -> VerificationReport:
    """Every connected order-n graph at or above rho of the pendant-path
    family either is that family or has a HIST."""
    return _verify(THM1, threshold_connected, n, source, corpus_path)


def verify_theorem2(
    n: int,
    source: str = LABELED_EXHAUSTIVE,
    corpus_path: str | None = None,
) -> VerificationReport:
    """Every 2-connected order-n graph at or above rho of the
    attached-3-path family either is that family or has a HIST."""
    return _verify(THM2, threshold_two_connected, n, source, corpus_path)


def _verify(spec, threshold, n, source, corpus_path) -> VerificationReport:
    """Body of verify_theorem1/2.  `threshold` is the public threshold
    function as the caller looked it up, so a rebinding of that module
    attribute takes effect."""
    theta = threshold(n)
    t0 = time.monotonic()
    if source == LABELED_EXHAUSTIVE:
        if corpus_path is not None:
            raise ValueError("corpus path applies to the corpus source only")
        cfg = _scan.ScanConfig(n=n, theta=theta, mode=spec.name)
        res = _scan.scan_range(cfg, 0, 1 << (n * (n - 1) // 2))
        scope = (f"exhaustive over all labeled {spec.connectivity} graphs of order "
                 f"{n}; no claim beyond this order")
    elif source == GRAPH6_CORPUS:
        if not corpus_path:
            raise ValueError("corpus source needs a corpus path")
        res = _scan_corpus(spec, n, theta, corpus_path)
        scope = f"all {spec.connectivity} graphs of order {n} in {corpus_path}"
    else:
        raise ValueError(f"unknown source {source!r}")
    return VerificationReport(
        theorem=spec.name, n=n, source=source, threshold=theta,
        scanned=res.scanned, prescreen_survivors=res.survivors,
        over_threshold=res.over, extremal_matches=res.extremal,
        hists_found=res.hists, counterexamples=res.counterexamples,
        elapsed=time.monotonic() - t0, scope=scope,
    )


def _scan_corpus(spec, n, theta, corpus_path) -> _scan.ShardOut:
    """Scan the corpus CORPUS_BATCH records at a time, in corpus order.

    CORPUS_BATCH is 2^12, the slice width of `scan.over_threshold`, so
    each batched stage below runs once per 4,096 records and numpy's
    per-call overhead stays small next to the work on the rows; a chunk
    of int64 rows is 4,096 * n * 8 bytes (288 KiB at n = 9).

    Records are decoded one at a time.  Each chunk is order-checked (a
    record of another order stops the scan with its line number) and
    packed once as little-endian int64 bit rows (graph6's short form caps
    n at 62), one `np.fromiter` over the records' rows, and then decided
    on those rows: the maximum-degree floor
    `scan.degree_floor` on the degree maxima (`np.bitwise_count`, then a
    running maximum over the vertex columns), the theorem's connectivity
    by the bitset BFS that the scan engine and `enumerate_labeled` use
    (`scan._connected_filter`), and `scan.over_threshold`, whose bounds
    need every degree >= 1, as connected graphs have.  `hong_bound` runs
    only on the connected graphs it leaves under: Hong's bound is at least
    rho, so every over graph passes it, and the survivors are the over
    graphs plus the under graphs that pass Hong.  The over-threshold
    graphs are classified in the engine's order (`scan._classify`).
    First the spanning stars, for the whole chunk at once: a graph of
    maximum degree n - 1, read from the degree maxima the floor already
    took, counts as a HIST with no tree built (n >= 7, so the centre has
    degree >= 3).  Then `scan._hub_double_star`, once for the chunk's
    over-threshold graphs that are not stars, finds those with a spanning
    double star, free of degree 2, centred at the hub (the lowest vertex
    of maximum degree) and another vertex: the trees that proof replay
    builds from the hub's star plus one more centre.  Then, in corpus
    order, each graph that is not a star goes to the extremal match; one
    that is not extremal counts as a HIST if it has a hub double star, with
    no tree built, and otherwise goes to proof replay and the tree-growth
    search and counts in `fallback_searches`.  Sound because a star or
    double star free of degree 2 is a HIST, the extremal graph has none
    (so no extremal graph is settled by either test), and the search is
    complete.
    """
    from .hist import proof_guided_hist  # looked up per call, so a rebinding takes effect

    out = _scan.ShardOut()
    is_extremal = is_family_L if spec.family == "L" else is_family_B
    floor = _scan.degree_floor(theta)
    records = read_graph6_file(corpus_path)
    while chunk := list(itertools.islice(records, CORPUS_BATCH)):
        for lineno, g in chunk:
            if g.n != n:
                raise ValueError(f"corpus graph of order {g.n}, expected {n} (line {lineno})")
        graphs = [g for _, g in chunk]
        out.scanned += len(graphs)
        rows = np.fromiter(itertools.chain.from_iterable(g.rows for g in graphs), "<i8",
                           count=n * len(graphs)).reshape(-1, n)
        dmax = _scan._row_max(np.bitwise_count(rows))
        keep = dmax >= floor
        keep[keep] = _scan._connected_filter(rows[keep], spec.two_connected)
        over = keep.copy()
        over[keep] = _scan.over_threshold(theta, rows[keep])
        rest = keep & ~over
        rest[rest] = [hong_bound(g) >= theta - GUARD for g in itertools.compress(graphs, rest)]
        n_over = int(over.sum())
        out.survivors += n_over + int(rest.sum())
        out.over += n_over
        star = over & (dmax == n - 1)
        out.hists += int(star.sum())
        left = over & ~star
        for g, dstar in zip(itertools.compress(graphs, left),
                            _scan._hub_double_star(rows[left]).tolist()):
            if is_extremal(g):
                out.extremal += 1
                continue
            if dstar:
                out.hists += 1
                continue
            out.fallback_searches += 1
            if proof_guided_hist(g, spec.replay).found_tree or find_hist(g).found:
                out.hists += 1
            else:
                out.counterexamples.append([encode_graph6(g), 1])
    return out


# -- corollaries and certificates ----------------------------------------------


@dataclass
class CorollaryRow:
    n: int
    rho_L: float | None
    cap_L: float | None
    ok_L: bool | None
    rho_B: float | None
    cap_B: float | None
    ok_B: bool | None
    stated_B_cap_holds: bool | None  # informational only, not asserted


@dataclass
class CorollaryReport(_Report):
    lo: int
    hi: int
    rows: list[CorollaryRow]
    violations: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def text(self) -> str:
        lines = [f"order-threshold corollaries, n = {self.lo}..{self.hi}"]
        for r in self.rows:
            bits = [f"  n={r.n}"]
            if r.rho_L is not None:
                bits.append(f"rho_L={r.rho_L:.9f} < {r.cap_L:.9f}: {'ok' if r.ok_L else 'VIOLATION'}")
            if r.rho_B is not None:
                bits.append(f"rho_B={r.rho_B:.9f} < {r.cap_B:.9f}: {'ok' if r.ok_B else 'VIOLATION'}")
                bits.append(f"(tighter stated cap holds: {r.stated_B_cap_holds})")
            lines.append(" ".join(bits))
        lines.append(f"violations: {self.violations}; elapsed {self.elapsed:.3f}s")
        return "\n".join(lines)


def verify_corollaries(lo: int, hi: int) -> CorollaryReport:
    """Check rho(L_n) < n-3 + 1/(n-3) and rho(B_n) < n-4 + 2/(n-4).

    These caps turn the spectral thresholds into order-only sufficient
    conditions.  For the B family the cap actually proven is 2/(n-4); the
    tighter 1/(n-4) that the statement mentions is recorded per order as
    an observation, never asserted.
    """
    if lo < 7:
        raise ValueError("corollary range starts at 7")
    if hi < lo:
        raise ValueError("empty range")
    t0 = time.monotonic()
    rows = []
    violations = 0
    for n in range(lo, hi + 1):
        row = CorollaryRow(n, None, None, None, None, None, None, None)
        sl = slack_bounds("L", n)
        row.rho_L = sl.base + sl.slack
        row.cap_L = sl.base + sl.upper
        row.ok_L = row.rho_L < row.cap_L
        if not row.ok_L:
            violations += 1
        if n >= 8:
            sb = slack_bounds("B", n)
            row.rho_B = sb.base + sb.slack
            row.cap_B = sb.base + sb.upper
            row.ok_B = row.rho_B < row.cap_B
            row.stated_B_cap_holds = sb.slack < 1.0 / (n - 4)
            if not row.ok_B:
                violations += 1
        rows.append(row)
    return CorollaryReport(lo=lo, hi=hi, rows=rows, violations=violations,
                           elapsed=time.monotonic() - t0)


@dataclass
class CertificateReport(_Report):
    n_max: int
    graphs_checked: int
    certificates_fired: int
    soundness_violations: int
    family_rows: list[dict]
    elapsed: float

    @property
    def ok(self) -> bool:
        if self.soundness_violations:
            return False
        return all(r["certificate"] is not None for r in self.family_rows)

    def text(self) -> str:
        lines = [
            f"certificate soundness sweep, connected graphs up to n={self.n_max}",
            f"  graphs checked        {self.graphs_checked}",
            f"  certificates fired    {self.certificates_fired}",
            f"  soundness violations  {self.soundness_violations}",
        ]
        for r in self.family_rows:
            lines.append(f"  {r['family']} n={r['n']}: certificate = {r['certificate']}")
        lines.append(f"  elapsed {self.elapsed:.3f}s")
        return "\n".join(lines)


def verify_certificates(n_max: int = 6) -> CertificateReport:
    """Whenever a no-HIST certificate fires, the spanning-tree oracle must
    agree; and both extremal families must carry certificates up to n=10.
    The sweep enumerates every labeled graph of orders 3..n_max, so
    n_max is checked against the enumeration's bound of 8 before any of
    it runs."""
    if not 3 <= n_max <= 8:
        raise ValueError(f"certificate sweep needs 3 <= n_max <= 8, got {n_max}")
    t0 = time.monotonic()
    checked = 0
    fired = 0
    bad = 0
    for n in range(3, n_max + 1):
        for g in enumerate_labeled(n, connected=True):
            checked += 1
            cert = no_hist_certificate(g)
            if cert is None:
                continue
            fired += 1
            if oracle_hist(g).found:
                bad += 1
    family_rows = []
    for n in range(4, 11):
        cert = no_hist_certificate(family_L(n))
        family_rows.append({"family": "L", "n": n,
                            "certificate": None if cert is None else cert.kind})
    for n in range(6, 11):
        cert = no_hist_certificate(family_B(n))
        family_rows.append({"family": "B", "n": n,
                            "certificate": None if cert is None else cert.kind})
    return CertificateReport(
        n_max=n_max, graphs_checked=checked, certificates_fired=fired,
        soundness_violations=bad, family_rows=family_rows,
        elapsed=time.monotonic() - t0,
    )


# -- prescreen safety audit ------------------------------------------------------


@dataclass
class AuditReport(_Report):
    theorem: str
    n: int
    windows: int
    masks_considered: int
    over_with_prescreens: int
    over_without_prescreens: int
    discrepancies: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.discrepancies == 0

    def text(self) -> str:
        return (f"prescreen audit n={self.n}: over with={self.over_with_prescreens} "
                f"without={self.over_without_prescreens} "
                f"discrepancies={self.discrepancies}")


def audit_prescreens(n: int, theorem: str = "thm2") -> AuditReport:
    """Prescreens must not change the over-threshold set.

    Scans the first window of every window class of the order
    (`scan._window_classes`) twice, with and without the mask-level
    prescreens and eigensolver shortcuts, each time by the scan's blocks
    (`scan._blocks`), and compares the two sets of over-threshold orbit
    representatives exactly.  The counts are weighted: each
    representative counts once per mask of its orbit, so they are counts
    of masks.  Equal weighted sets of representatives mean equal sets of
    masks: both runs examine the same representatives, each standing for
    its whole orbit, and the prescreens and every verdict are isomorphism
    invariants, so a representative is over exactly when every mask of
    its orbit is.  For the same reason equal sets on a class's first
    window mean equal sets on every window of the class.  Both runs group
    their rows by class key alike, so this audit does not check the
    grouping; the tests that compare the scan with an ungrouped
    reference, every labeled graph its own key, do.
    """
    t0 = time.monotonic()
    spec = theorem_spec(theorem)
    cfg = _scan.ScanConfig(n=n, theta=_threshold(spec, n), mode=spec.name)
    c = _scan._codec(n)
    reps = [(y, 1) for y, _ in _scan._window_classes(c, range(len(c.hi_rows)))]
    sides = []
    for p in (True, False):
        over = [(m[code != _scan.UNDER], w[code != _scan.UNDER]) for m, w, code in
                _scan._blocks(replace(cfg, prescreens=p), c, reps)]
        sides.append([np.concatenate(part) for part in zip(*over)])
    (pre, pre_w), (bare, bare_w) = sides
    # Each side lists a representative at most once.
    lone = np.concatenate([pre_w[~np.isin(pre, bare, assume_unique=True)],
                           bare_w[~np.isin(bare, pre, assume_unique=True)]])
    return AuditReport(
        theorem=theorem, n=n, windows=len(reps),
        masks_considered=len(reps) << c.low_bits,
        over_with_prescreens=int(pre_w.sum(dtype=np.int64)),
        over_without_prescreens=int(bare_w.sum(dtype=np.int64)),
        discrepancies=int(lone.sum(dtype=np.int64)),
        elapsed=time.monotonic() - t0,
    )


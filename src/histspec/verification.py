"""Exhaustive verification drivers and their reports.

Each driver fixes a spectral threshold (cross-checked between the power
iteration eigensolver and the quartic bisection root), scans every graph
of the requested order from the labeled-exhaustive generator or from a
graph6 corpus, and confirms that each over-threshold graph either matches
the extremal family or carries a HIST.  Counterexamples are reported as
graph6 strings so they can be re-checked independently.

The exhaustive scans cover the stated orders only and the reports say so;
no claim is made beyond the verified range.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from . import scan as _scan
from .graph6 import read_graph6_file
from .graphs import family_B, family_L, is_family_B, is_family_L
from .hist import find_hist, no_hist_certificate, oracle_hist
from .spectral import (
    GUARD,
    InvariantViolation,
    charpoly_B,
    charpoly_L,
    hong_bound,
    largest_root,
    slack_bounds,
    spectral_radius,
)

LABELED_EXHAUSTIVE = "labeled_exhaustive"
GRAPH6_CORPUS = "graph6_corpus"

SHARD_BITS = 19  # fixed shard size keeps reports independent of worker count
THRESHOLD_AGREEMENT = 1e-8


@dataclass(frozen=True)
class Prescreen:
    """Declarative rejection rules applied before the eigensolver.

    Every rejection is justified by an upper bound on rho (maximum degree,
    Hong-type bound) or by the connectivity requirement of the theorem
    being checked, so a graph that could reach the spectral threshold is
    never dropped.
    """

    min_edges: int = 0
    min_max_degree: int = 0
    connectivity: str | None = None  # None | "connected" | "two_connected"


@dataclass
class VerificationReport:
    theorem: str
    n: int
    source: str
    threshold: float
    scanned: int
    prescreen_survivors: int
    over_threshold: int
    extremal_matches: int
    hists_found: int
    counterexamples: list[str]
    elapsed: float
    scope: str

    def __post_init__(self):
        total = self.extremal_matches + self.hists_found + len(self.counterexamples)
        if self.over_threshold != total:
            raise InvariantViolation(
                f"report arithmetic broken: over={self.over_threshold}, "
                f"parts sum to {total}"
            )

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def text(self) -> str:
        lines = [
            f"{self.theorem} verification, n={self.n} ({self.source})",
            f"  threshold            {self.threshold:.12f}",
            f"  scanned              {self.scanned}",
            f"  prescreen survivors  {self.prescreen_survivors}",
            f"  over threshold       {self.over_threshold}",
            f"  extremal matches     {self.extremal_matches}",
            f"  hists found          {self.hists_found}",
            f"  counterexamples      {len(self.counterexamples)}",
        ]
        for c in self.counterexamples:
            lines.append(f"    counterexample {c}")
        lines.append(f"  scope: {self.scope}")
        lines.append(f"  elapsed {self.elapsed:.2f}s")
        return "\n".join(lines)


# -- labeled enumeration (scalar path) -----------------------------------------


def enumerate_labeled(n: int, prescreen: Prescreen | None = None):
    """Yield all labeled graphs of order n as Graph values, mask order.

    Edge bitmasks run over the C(n, 2) pairs in colex order; graphs failing
    the prescreen are skipped.  Bounded to n <= 8 (beyond that use a
    graph6 corpus).
    """
    if n > 8:
        raise ValueError("labeled enumeration is bounded to n <= 8; use a corpus")
    if n < 1:
        raise ValueError("order must be >= 1")
    prescreen = prescreen or Prescreen()
    nbits = n * (n - 1) // 2
    for mask in range(1 << nbits):
        if mask.bit_count() < prescreen.min_edges:
            continue
        g = _scan.graph_from_mask(n, mask)
        if prescreen.min_max_degree and g.max_degree() < prescreen.min_max_degree:
            continue
        if prescreen.connectivity == "connected" and not g.is_connected():
            continue
        if prescreen.connectivity == "two_connected":
            if n < 3 or not g.is_2_connected():
                continue
        yield g


# -- thresholds ----------------------------------------------------------------


def threshold_connected(n: int) -> float:
    """rho of the pendant-path family, eigensolver vs quartic cross-check."""
    rho = spectral_radius(family_L(n)).rho
    root = largest_root(charpoly_L(n), n - 3, n - 2)
    if abs(rho - root) > THRESHOLD_AGREEMENT:
        raise InvariantViolation(
            f"threshold mismatch at n={n}: eigensolver {rho}, quartic root {root}"
        )
    return rho


def threshold_two_connected(n: int) -> float:
    """rho of the attached-3-path family, eigensolver vs quartic cross-check."""
    rho = spectral_radius(family_B(n)).rho
    root = largest_root(charpoly_B(n), n - 4, n - 3)
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
    threads: int = 1,
    subsample: int | None = None,
) -> VerificationReport:
    """Every connected order-n graph at or above rho of the pendant-path
    family either is that family or has a HIST."""
    if n < 7:
        raise ValueError("the connected threshold is defined for n >= 7")
    theta = threshold_connected(n)
    return _verify(
        theorem="thm1", n=n, theta=theta, mode="thm1", extremal="L",
        source=source, corpus_path=corpus_path, threads=threads,
        subsample=subsample,
    )


def verify_theorem2(
    n: int,
    source: str = LABELED_EXHAUSTIVE,
    corpus_path: str | None = None,
    threads: int = 1,
    subsample: int | None = None,
) -> VerificationReport:
    """Every 2-connected order-n graph at or above rho of the
    attached-3-path family either is that family or has a HIST."""
    if n < 8:
        raise ValueError("the 2-connected threshold is defined for n >= 8")
    theta = threshold_two_connected(n)
    return _verify(
        theorem="thm2", n=n, theta=theta, mode="thm2", extremal="B",
        source=source, corpus_path=corpus_path, threads=threads,
        subsample=subsample,
    )


def _verify(theorem, n, theta, mode, extremal, source, corpus_path, threads,
            subsample) -> VerificationReport:
    t0 = time.monotonic()
    if source == LABELED_EXHAUSTIVE:
        cfg = _scan.ScanConfig(
            n=n, theta=theta, mode=mode, extremal=extremal, subsample=subsample,
        )
        res = _run_sharded(cfg, threads)
    elif source == GRAPH6_CORPUS:
        if not corpus_path:
            raise ValueError("corpus source needs a corpus path")
        res = _scan_corpus(n, theta, mode, extremal, corpus_path)
    else:
        raise ValueError(f"unknown source {source!r}")
    connectivity = "connected" if mode == "thm1" else "2-connected"
    scope = (
        f"exhaustive over all labeled {connectivity} graphs of order {n}; "
        f"no claim beyond this order"
        if source == LABELED_EXHAUSTIVE
        else f"all {connectivity} graphs of order {n} in {corpus_path}"
    )
    if subsample:
        scope += f" (deterministic 1-in-{subsample} subsample)"
    return VerificationReport(
        theorem=theorem, n=n, source=source, threshold=theta,
        scanned=res.scanned, prescreen_survivors=res.survivors,
        over_threshold=res.over, extremal_matches=res.extremal,
        hists_found=res.hists, counterexamples=res.counterexamples,
        elapsed=time.monotonic() - t0, scope=scope,
    )


def _shards(total: int):
    size = 1 << SHARD_BITS
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _run_sharded(cfg: _scan.ScanConfig, threads: int) -> _scan.ShardOut:
    total = 1 << (cfg.n * (cfg.n - 1) // 2)
    shards = _shards(total)
    merged = _scan.ShardOut()
    if threads <= 1 or len(shards) == 1:
        for lo, hi in shards:
            merged.merge(_scan.scan_range(cfg, lo, hi))
        return merged
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(processes=threads) as pool:
        parts = pool.starmap(_scan.scan_range, [(cfg, lo, hi) for lo, hi in shards])
    for part in parts:  # shard order, so merges are deterministic
        merged.merge(part)
    return merged


def _scan_corpus(n, theta, mode, extremal, corpus_path) -> _scan.ShardOut:
    from .graph6 import encode_graph6
    from .hist import proof_guided_hist

    out = _scan.ShardOut()
    is_extremal = is_family_L if extremal == "L" else is_family_B
    theorem = "one_connected" if mode == "thm1" else "two_connected"
    min_dmax = n - 2 if mode == "thm1" else n - 3
    for _, g in read_graph6_file(corpus_path):
        if g.n != n:
            raise ValueError(f"corpus graph of order {g.n}, expected {n}")
        out.scanned += 1
        if mode == "thm1" and not g.is_connected():
            continue
        if mode == "thm2" and (g.n < 3 or not g.is_2_connected()):
            continue
        if g.max_degree() < min_dmax:
            continue
        if hong_bound(g) < theta - GUARD:
            continue
        out.survivors += 1
        if spectral_radius(g).rho < theta - GUARD:
            continue
        out.over += 1
        if is_extremal(g):
            out.extremal += 1
            continue
        trace = proof_guided_hist(g, theorem)
        if trace.found_tree:
            out.hists += 1
        elif trace.recognized_family is not None:
            out.extremal += 1
        elif find_hist(g).found:
            out.hists += 1
        else:
            out.counterexamples.append(encode_graph6(g))
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
class CorollaryReport:
    lo: int
    hi: int
    rows: list[CorollaryRow]
    violations: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_json(self) -> str:
        return json.dumps(
            {"lo": self.lo, "hi": self.hi, "violations": self.violations,
             "elapsed": self.elapsed, "rows": [asdict(r) for r in self.rows]},
            sort_keys=True)

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
        lines.append(f"violations: {self.violations}; elapsed {self.elapsed:.2f}s")
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
        row.cap_L = (n - 3) + 1.0 / (n - 3)
        row.ok_L = row.rho_L < row.cap_L
        if not row.ok_L:
            violations += 1
        if n >= 8:
            sb = slack_bounds("B", n)
            row.rho_B = sb.base + sb.slack
            row.cap_B = (n - 4) + 2.0 / (n - 4)
            row.ok_B = row.rho_B < row.cap_B
            row.stated_B_cap_holds = sb.slack < 1.0 / (n - 4)
            if not row.ok_B:
                violations += 1
        rows.append(row)
    return CorollaryReport(lo=lo, hi=hi, rows=rows, violations=violations,
                           elapsed=time.monotonic() - t0)


@dataclass
class CertificateReport:
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def text(self) -> str:
        lines = [
            f"certificate soundness sweep, connected graphs up to n={self.n_max}",
            f"  graphs checked        {self.graphs_checked}",
            f"  certificates fired    {self.certificates_fired}",
            f"  soundness violations  {self.soundness_violations}",
        ]
        for r in self.family_rows:
            lines.append(f"  {r['family']} n={r['n']}: certificate = {r['certificate']}")
        lines.append(f"  elapsed {self.elapsed:.2f}s")
        return "\n".join(lines)


def verify_certificates(n_max: int = 6) -> CertificateReport:
    """Whenever a no-HIST certificate fires, the spanning-tree oracle must
    agree; and both extremal families must carry certificates up to n=10."""
    if n_max < 3:
        raise ValueError("certificate sweep needs n_max >= 3")
    t0 = time.monotonic()
    checked = 0
    fired = 0
    bad = 0
    for n in range(3, n_max + 1):
        for g in enumerate_labeled(n, Prescreen(connectivity="connected")):
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
class AuditReport:
    theorem: str
    n: int
    subsample: int
    masks_considered: int
    over_with_prescreens: int
    over_without_prescreens: int
    discrepancies: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.discrepancies == 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def audit_prescreens(n: int, theorem: str = "thm2", subsample: int = 256,
                     threads: int = 1) -> AuditReport:
    """Prescreens must not change the over-threshold set.

    Runs the scan twice on a deterministic 1-in-`subsample` hash subsample
    of the labeled space, with and without the mask-level prescreens and
    eigensolver shortcuts, and compares the resulting over-threshold mask
    sets exactly.
    """
    t0 = time.monotonic()
    if theorem == "thm1":
        theta, mode, extremal = threshold_connected(n), "thm1", "L"
    else:
        theta, mode, extremal = threshold_two_connected(n), "thm2", "B"
    common = dict(n=n, theta=theta, mode=mode, extremal=extremal,
                  subsample=subsample, collect_over=True)
    with_pre = _run_sharded(_scan.ScanConfig(prescreens=True, **common), threads)
    without_pre = _run_sharded(_scan.ScanConfig(prescreens=False, **common), threads)
    a = with_pre.over_masks
    b = without_pre.over_masks
    discrepancies = len(set(a).symmetric_difference(b))
    return AuditReport(
        theorem=theorem, n=n, subsample=subsample,
        masks_considered=without_pre.survivors,
        over_with_prescreens=len(a), over_without_prescreens=len(b),
        discrepancies=discrepancies, elapsed=time.monotonic() - t0,
    )

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

import itertools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import scan as _scan
from .graph6 import encode_graph6, read_graph6_file
from .graphs import family_B, family_L, is_family_B, is_family_L, make_family
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

SHARD_BITS = 19  # fixed shard size keeps reports independent of worker count
CORPUS_BATCH = 512  # corpus graphs per batched spectral decision; bounds memory
THRESHOLD_AGREEMENT = 1e-8


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


def enumerate_labeled(n: int, connected: bool = False):
    """Yield all labeled graphs of order n as Graph values, mask order,
    only the connected ones if `connected` is set.

    Edge bitmasks run over the C(n, 2) pairs in colex order.  Bounded to
    n <= 8 (beyond that use a graph6 corpus).
    """
    if n > 8:
        raise ValueError("labeled enumeration is bounded to n <= 8; use a corpus")
    if n < 1:
        raise ValueError("order must be >= 1")
    for mask in range(1 << (n * (n - 1) // 2)):
        g = _scan.graph_from_mask(n, mask)
        if not connected or g.is_connected():
            yield g


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
    threads: int = 1,
    subsample: int | None = None,
) -> VerificationReport:
    """Every connected order-n graph at or above rho of the pendant-path
    family either is that family or has a HIST."""
    return _verify(THM1, threshold_connected, n, source, corpus_path, threads, subsample)


def verify_theorem2(
    n: int,
    source: str = LABELED_EXHAUSTIVE,
    corpus_path: str | None = None,
    threads: int = 1,
    subsample: int | None = None,
) -> VerificationReport:
    """Every 2-connected order-n graph at or above rho of the
    attached-3-path family either is that family or has a HIST."""
    return _verify(THM2, threshold_two_connected, n, source, corpus_path, threads,
                   subsample)


def _verify(spec, threshold, n, source, corpus_path, threads,
            subsample) -> VerificationReport:
    """Body of verify_theorem1/2.  `threshold` is the public threshold
    function as the caller looked it up, so a rebinding of that module
    attribute takes effect."""
    theta = threshold(n)
    t0 = time.monotonic()
    if source == LABELED_EXHAUSTIVE:
        cfg = _scan.ScanConfig(n=n, theta=theta, mode=spec.name, subsample=subsample)
        res = _run_sharded(cfg, threads)
        scope = (f"exhaustive over all labeled {spec.connectivity} graphs of order "
                 f"{n}; no claim beyond this order")
        if subsample:
            scope += f" (deterministic 1-in-{subsample} subsample)"
    elif source == GRAPH6_CORPUS:
        if not corpus_path:
            raise ValueError("corpus source needs a corpus path")
        if subsample is not None:
            raise ValueError("subsample applies to the labeled source only")
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


def _scan_corpus(spec, n, theta, corpus_path) -> _scan.ShardOut:
    """Decide the spectral test of the filtered corpus graphs in batches
    of CORPUS_BATCH and classify the over-threshold graphs in corpus
    order."""
    from .hist import proof_guided_hist  # looked up per call, so a rebinding takes effect

    out = _scan.ShardOut()
    is_extremal = is_family_L if spec.family == "L" else is_family_B
    survivors = _corpus_survivors(spec, n, theta, corpus_path, out)
    while batch := list(itertools.islice(survivors, CORPUS_BATCH)):
        for g in _over_threshold(batch, theta):
            out.over += 1
            if is_extremal(g):
                out.extremal += 1
                continue
            out.fallback_searches += 1
            trace = proof_guided_hist(g, spec.replay)
            if trace.found_tree:
                out.hists += 1
            elif trace.recognized_family is not None:
                out.extremal += 1
            elif find_hist(g).found:
                out.hists += 1
            else:
                out.counterexamples.append(encode_graph6(g))
    return out


def _corpus_survivors(spec, n, theta, corpus_path, out):
    """The corpus graphs with the theorem's connectivity, maximum degree
    and Hong bound, in corpus order; counts them and the scanned graphs
    in `out`."""
    for _, g in read_graph6_file(corpus_path):
        if g.n != n:
            raise ValueError(f"corpus graph of order {g.n}, expected {n}")
        out.scanned += 1
        if not spec.admits(g) or g.max_degree() < n - spec.degree_gap:
            continue
        if hong_bound(g) < theta - GUARD:
            continue
        out.survivors += 1
        yield g


def _over_threshold(graphs, theta) -> list:
    """The graphs, all connected and of one order, whose spectral radius
    reaches theta - GUARD, in their given order.

    The scan engine's side bounds (`scan._sandwich`) settle most graphs;
    only the rest go to power iteration.  No verdict differs from
    `spectral_radius(g).rho >= theta - GUARD`: connected graphs have every
    degree >= 1, as the bounds require; a graph is under only when an
    upper bound on rho is below theta - GUARD - 1e-12, and the power
    Rayleigh quotient never exceeds rho; a graph is over only when a lower
    bound reaches theta, and the power iteration stops at a residual of at
    most 1e-10, so its Rayleigh quotient lies within sqrt(n) 1e-10 of rho,
    less than GUARD for every order graph6 allows (n <= 62).
    """
    n = graphs[0].n
    rows = np.array([g.rows for g in graphs], dtype=np.int64)
    adj = (rows[:, :, None] >> np.arange(n) & 1).astype(np.float64)
    over, rest, _ = _scan._sandwich(theta, np.arange(len(graphs)), adj, adj.sum(axis=2))
    over = over.tolist() + [i for i in rest.tolist()
                            if spectral_radius(graphs[i]).rho >= theta - GUARD]
    return [graphs[i] for i in sorted(over)]


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
    spec = theorem_spec(theorem)
    common = dict(n=n, theta=_threshold(spec, n), mode=spec.name,
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

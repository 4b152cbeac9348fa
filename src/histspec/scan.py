"""Vectorized exhaustive scan over all labeled graphs of a small order.

Graphs of order n are edge bitmasks over the C(n, 2) vertex pairs in
colexicographic order ((i, j), i < j, ordered by j then i), matching the
graph6 triangle order.  The scan pipeline per mask block is:

  1. mask-level prescreens (edge count, degrees, Hong-type bound), each
     justified by an upper bound on rho that is valid for every connected
     graph, so no graph that could reach the threshold is ever dropped;
  2. certain classifications that skip the eigensolver: Rayleigh
     quotients of the all-ones and degree vectors are lower bounds on rho
     (certain over), the maximum two-walk count bounds rho^2 from above
     (certain under), and a few Collatz-Wielandt steps from the positive
     vector (A+I)d then bracket rho between the Rayleigh quotient x'Ax/x'x
     and max_v (Ax)_v/x_v (positive because the prescreens enforce
     minimum degree >= 1); a bound settles a graph only with the GUARD
     margin below, so no verdict differs from the eigensolver's;
  3. batched dense eigensolves for the few graphs left, which include
     every labeled copy of the extremal family (rho exactly theta);
  4. vectorized connectivity (or 2-connectivity) by bitset BFS over all
     graphs at once;
  5. classification of the over-threshold graphs: extremal family match,
     star or spanning-double-star HIST constructions (vectorized), then a
     per-graph proof-guided constructor with full backtracking as the
     final fallback.

Everything is deterministic; threshold tests use rho >= theta - GUARD so
the scan can only over-check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .graph6 import encode_graph6
from .graphs import Graph, is_family_B, is_family_L, make_family
from .hist import find_hist, proof_guided_hist
from .spectral import GUARD, hong_value, theorem_spec

BLOCK_BITS = 20
EIG_BATCH = 1 << 15
CW_ITERS = 5  # Collatz-Wielandt steps before the eigensolve
HASH_MULT = 2654435761  # Knuth multiplicative hash, for unbiased subsampling


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


def graph_from_mask(n: int, mask: int) -> Graph:
    rows = [0] * n
    for b, (i, j) in enumerate(edge_slots(n)):
        if mask >> b & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._from_rows_unchecked(n, tuple(rows))


def mask_of_graph(g: Graph) -> int:
    mask = 0
    for b, (i, j) in enumerate(edge_slots(g.n)):
        if g.has_edge(i, j):
            mask |= 1 << b
    return mask


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one exhaustive labeled scan."""

    n: int
    theta: float
    mode: str                      # theorem name, "thm1" or "thm2"
    extremal: InitVar[str | None] = None  # implied by mode; checked if given
    prescreens: bool = True
    subsample: int | None = None   # keep ~1 in this many masks when set
    collect_over: bool = False     # also return the over-threshold masks

    def __post_init__(self, extremal):
        spec = theorem_spec(self.mode)
        if extremal not in (None, spec.family):
            raise ValueError(f"{self.mode} has extremal family {spec.family}, not {extremal!r}")
        if self.n > 8:
            raise ValueError(
                f"the scan engine is limited to n <= 8 (got n={self.n}): "
                "adjacency rows are uint8 and edge masks uint32")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"subsample must be >= 1, got {self.subsample}")


@dataclass
class ShardOut:
    """Counts and witnesses from one contiguous mask range."""

    scanned: int = 0
    survivors: int = 0
    over: int = 0
    extremal: int = 0
    hists: int = 0
    counterexamples: list = field(default_factory=list)
    fallback_searches: int = 0
    over_masks: list = field(default_factory=list)

    def merge(self, other: "ShardOut"):
        self.scanned += other.scanned
        self.survivors += other.survivors
        self.over += other.over
        self.extremal += other.extremal
        self.hists += other.hists
        self.counterexamples.extend(other.counterexamples)
        self.fallback_searches += other.fallback_searches
        self.over_masks.extend(other.over_masks)


class _Tables:
    """Per-order constant tables shared by all blocks of a scan."""

    def __init__(self, cfg: ScanConfig):
        n = cfg.n
        slots = edge_slots(n)
        self.n = n
        self.nbits = len(slots)
        self.I = np.array([p[0] for p in slots], dtype=np.int64)
        self.J = np.array([p[1] for p in slots], dtype=np.int64)
        inc = np.zeros(n, dtype=np.uint32)
        for b, (i, j) in enumerate(slots):
            inc[i] |= np.uint32(1 << b)
            inc[j] |= np.uint32(1 << b)
        self.inc = inc
        spec = self.spec = theorem_spec(cfg.mode)
        self.min_dmax = n - spec.degree_gap
        # Smallest edge count whose Hong-type bound can reach the threshold
        # (the bound is non-increasing in the minimum degree, so the floor
        # value is the permissive case; a graph of minimum degree d has at
        # least d n / 2 edges).
        d = spec.min_degree
        self.min_m = next((m for m in range((d * n + 1) // 2, self.nbits + 1)
                           if hong_value(d, n, m) >= cfg.theta - GUARD), 0)
        fam = make_family(spec.family, n)
        self.extremal_degmultiset = np.array(sorted(fam.degrees()), dtype=np.uint8)
        # Looked up per scan, not stored in the spec, so that rebinding
        # the module attribute takes effect.
        self.is_extremal = is_family_L if spec.family == "L" else is_family_B
        self.full_row = np.uint8((1 << n) - 1)


def scan_range(cfg: ScanConfig, lo: int, hi: int) -> ShardOut:
    """Scan masks lo..hi-1; deterministic in inputs only."""
    t = _Tables(cfg)
    out = ShardOut()
    block = 1 << BLOCK_BITS
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        masks = np.arange(start, stop, dtype=np.uint32)
        if cfg.subsample and cfg.subsample > 1:
            hashed = (masks * np.uint32(HASH_MULT))  # wraps mod 2^32
            masks = masks[hashed < np.uint32(2**32 // cfg.subsample)]
        out.scanned += stop - start
        if len(masks):
            _scan_block(cfg, t, masks, out)
    return out


def _scan_block(cfg: ScanConfig, t: _Tables, masks: np.ndarray, out: ShardOut):
    n = t.n
    m = np.bitwise_count(masks).astype(np.int64)
    deg = np.empty((len(masks), n), dtype=np.uint8)
    for v in range(n):
        deg[:, v] = np.bitwise_count(masks & t.inc[v])
    dmax = deg.max(axis=1)
    dmin = deg.min(axis=1)

    if cfg.prescreens:
        keep = (m >= t.min_m) & (dmax >= t.min_dmax) & (dmin >= t.spec.min_degree)
        keep &= hong_value(dmin.astype(np.float64), n, m) >= cfg.theta - GUARD
        masks, m, deg, dmax = masks[keep], m[keep], deg[keep], dmax[keep]
        out.survivors += len(masks)
        if not len(masks):
            return
        # Rayleigh quotient of the all-ones vector: a certain lower bound.
        certain_over = (2.0 * m / n) >= cfg.theta
        rest = ~certain_over
        over_parts = [masks[certain_over]]
        if rest.any():
            rmasks, rdeg = masks[rest], deg[rest]
            rover = _eig_over(cfg, t, rmasks, rdeg, refine=True)
            over_parts.append(rover)
        over_masks = np.concatenate(over_parts)
        over_masks.sort()
    else:
        out.survivors += len(masks)
        over_masks = _eig_over(cfg, t, masks, deg, refine=False)

    if not len(over_masks):
        return
    _classify_over(cfg, t, over_masks, out)


def _rows_of_masks(t: _Tables, masks: np.ndarray) -> np.ndarray:
    rows = np.zeros((len(masks), t.n), dtype=np.uint8)
    for b in range(t.nbits):
        bit = ((masks >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
        rows[:, t.I[b]] |= bit << np.uint8(t.J[b])
        rows[:, t.J[b]] |= bit << np.uint8(t.I[b])
    return rows


def _adj_of_rows(rows: np.ndarray, n: int) -> np.ndarray:
    bits = np.unpackbits(rows, axis=1, bitorder="little").reshape(len(rows), n, 8)
    return bits[:, :, :n]


def _eig_over(cfg, t, masks, deg, refine):
    """Masks whose spectral radius reaches theta - GUARD, batched.

    With refine=False every mask goes to the dense eigensolver; the
    prescreen audit uses that path as the reference.  With refine=True
    (only called on masks that passed the prescreens, so every vertex has
    degree >= 1) exact side bounds settle most masks first:

      * the degree vector d: its Rayleigh quotient d'Ad/d'd is a lower
        bound on rho, and the maximum two-walk count max_v (Ad)_v is an
        upper bound on rho^2;
      * then, for the rows still undecided, up to CW_ITERS steps of the
        Collatz-Wielandt sandwich from x = (A+I)d: with y = Ax,
        x'y/x'x <= rho <= max_v y_v/x_v, valid for any nonnegative
        symmetric A and positive x (Horn & Johnson, Matrix Analysis,
        8.1), followed by x <- (y + x)/max(y + x).  Here x starts >= d >= 1
        and A + I keeps it positive; the +I shift keeps the iteration
        converging on bipartite rows, whose -rho eigenvalue would
        otherwise make it oscillate.

    A row is over when a lower bound reaches theta and under when an upper
    bound stays below theta - GUARD - 1e-12, so float error in the bounds
    cannot change a verdict relative to the plain eigensolve.  Rows that
    the bounds cannot settle, such as every labeled copy of the extremal
    family (rho exactly theta), go to eigvalsh.
    """
    n = t.n
    over = []
    for s in range(0, len(masks), EIG_BATCH):
        mk = masks[s:s + EIG_BATCH]
        adj = _adj_of_rows(_rows_of_masks(t, mk), n).astype(np.float64)
        if refine:
            sure, mk, adj = _sandwich(cfg.theta, mk, adj, deg[s:s + EIG_BATCH])
            over.append(sure)
            if not len(mk):
                continue
        lam = np.linalg.eigvalsh(adj)[:, -1]
        over.append(mk[lam >= cfg.theta - GUARD])
    if not over:
        return np.empty(0, dtype=np.uint32)
    res = np.concatenate(over)
    res.sort()
    return res


def _sandwich(theta, keys, adj, deg):
    """Settle rows by the side bounds of _eig_over.  `keys` names the
    rows of `adj` (masks in the scan, batch positions on the corpus path)
    and `deg` holds their degree vectors, all >= 1.  Returns the keys
    certainly over, then the undecided keys and their adjacency
    matrices."""
    over = []
    under = theta - GUARD - 1e-12
    d = deg.astype(np.float64)
    walk = np.matmul(adj, d[:, :, None])[:, :, 0]
    sure_over = (walk * d).sum(axis=1) >= theta * (d * d).sum(axis=1)
    sure_under = walk.max(axis=1) < under * under
    x = walk + d
    for _ in range(CW_ITERS):
        over.append(keys[sure_over])
        keep = ~(sure_over | sure_under)
        keys, adj, x = keys[keep], adj[keep], x[keep]
        if not len(keys):
            return np.concatenate(over), keys, adj
        x /= x.max(axis=1, keepdims=True)
        y = np.matmul(adj, x[:, :, None])[:, :, 0]
        sure_over = (x * y).sum(axis=1) >= theta * (x * x).sum(axis=1)
        sure_under = (y / x).max(axis=1) < under
        x += y
    over.append(keys[sure_over])
    keep = ~(sure_over | sure_under)
    return np.concatenate(over), keys[keep], adj[keep]


def _connected_filter(t: _Tables, rows: np.ndarray, two_connected: bool) -> np.ndarray:
    """Boolean mask of graphs that are connected (or 2-connected).

    2-connectivity for n >= 3 is equivalent to "G - v is connected for
    every v": a disconnected G always has some v whose removal leaves two
    nonempty parts or an isolated vertex behind.
    """
    n = t.n
    if two_connected:
        ok = np.ones(len(rows), dtype=bool)
        for v in range(n):
            alive = np.uint8(((1 << n) - 1) ^ (1 << v))
            start = np.uint8(2 if v == 0 else 1)
            ok &= _reach_vec(rows, alive, start, n) == alive
        return ok
    alive = t.full_row
    return _reach_vec(rows, alive, np.uint8(1), n) == alive


def _reach_vec(rows, alive, start, steps):
    reach = np.full(len(rows), start & alive, dtype=np.uint8)
    for _ in range(steps):
        acc = np.zeros_like(reach)
        for w in range(rows.shape[1]):
            sel = ((reach >> np.uint8(w)) & np.uint8(1)).astype(bool)
            acc |= np.where(sel, rows[:, w], np.uint8(0))
        reach |= acc & alive
    return reach


def _double_star_feasible(t: _Tables, masks, rows) -> np.ndarray:
    """Graphs with an edge (a, b) whose endpoints dominate all vertices and
    admit a leaf split avoiding degree 2 at both centers."""
    n = t.n
    k = len(masks)
    feasible = np.zeros(k, dtype=bool)
    for b in range(t.nbits):
        i, j = int(t.I[b]), int(t.J[b])
        has = ((masks >> np.uint32(b)) & 1).astype(bool)
        if not has.any():
            continue
        ri, rj = rows[:, i], rows[:, j]
        pair = np.uint8((1 << i) | (1 << j))
        covers = (ri | rj | pair) == t.full_row
        excl = np.uint8(0xFF ^ (1 << i) ^ (1 << j))
        a_only = np.bitwise_count(ri & ~rj & excl).astype(np.int16)
        b_only = np.bitwise_count(rj & ~ri & excl).astype(np.int16)
        both = np.bitwise_count(ri & rj & excl).astype(np.int16)
        split = np.zeros(k, dtype=bool)
        for x in range(n - 1):
            split |= (x <= both) & (a_only + x != 1) & (b_only + both - x != 1)
        feasible |= has & covers & split
    return feasible


def _classify_over(cfg, t, over_masks, out):
    n = t.n
    rows = _rows_of_masks(t, over_masks)
    keep = _connected_filter(t, rows, t.spec.two_connected)
    over_masks, rows = over_masks[keep], rows[keep]
    if not len(over_masks):
        return
    out.over += len(over_masks)
    if cfg.collect_over:
        out.over_masks.extend(int(x) for x in over_masks)

    deg = np.empty((len(over_masks), n), dtype=np.uint8)
    for v in range(n):
        deg[:, v] = np.bitwise_count(over_masks & t.inc[v])

    # extremal family candidates, confirmed per graph
    ext = np.zeros(len(over_masks), dtype=bool)
    cand = (np.sort(deg, axis=1) == t.extremal_degmultiset).all(axis=1)
    for idx in np.nonzero(cand)[0]:
        g = _graph_of_row(n, rows[idx])
        if t.is_extremal(g):
            ext[idx] = True
    out.extremal += int(ext.sum())

    rest = ~ext
    star = rest & (deg.max(axis=1) == n - 1)
    rest &= ~star
    dstar = np.zeros(len(over_masks), dtype=bool)
    if rest.any():
        dstar[rest] = _double_star_feasible(t, over_masks[rest], rows[rest])
    rest &= ~dstar
    out.hists += int(star.sum()) + int(dstar.sum())

    for idx in np.nonzero(rest)[0]:
        out.fallback_searches += 1
        g = _graph_of_row(n, rows[idx])
        trace = proof_guided_hist(g, t.spec.replay)
        if trace.found_tree:
            out.hists += 1
        elif trace.recognized_family is not None:
            out.extremal += 1
        elif find_hist(g).found:
            out.hists += 1
        else:
            out.counterexamples.append(encode_graph6(g))


def _graph_of_row(n, row) -> Graph:
    return Graph._from_rows_unchecked(n, tuple(int(x) for x in row))

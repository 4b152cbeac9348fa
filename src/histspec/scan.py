"""Vectorized exhaustive scan over all labeled graphs of a small order.

Graphs of order n are edge bitmasks over the C(n, 2) vertex pairs in
the colex slot order of `graphs.edge_slots`, which graph6 shares.  The
order-only arrays of that code (`_codec(n)`) turn mask blocks into
adjacency bit rows, whose connectivity is then tested on the rows alone,
without any theorem; the scan pipeline per mask block is:

  1. mask-level prescreens (degrees, Hong-type bound), each justified by
     an upper bound on rho that is valid for every connected graph, so no
     graph that could reach the threshold is ever dropped; the Hong test
     is a lookup in a table over (minimum degree, edge count) whose
     entries equal the per-mask test bit for bit;
  2. the spectral decision `over_threshold`, which the graph6 corpus
     path shares: certain classifications that skip the eigensolver
     (Rayleigh quotients of the all-ones and degree vectors are lower
     bounds on rho, the maximum two-walk count bounds rho^2 from above,
     and a few Collatz-Wielandt steps from the positive vector (A+I)d
     then bracket rho between the Rayleigh quotient x'Ax/x'x and
     max_v (Ax)_v/x_v, positive because the prescreens enforce minimum
     degree >= 1; a bound settles a graph only with the GUARD margin
     below, so no verdict differs from the eigensolver's), all computed
     on the adjacency bit rows, then batched dense eigensolves for the
     few graphs left, which include every labeled copy of the extremal
     family (rho exactly theta) and are the only rows unpacked into a
     float adjacency;
  3. vectorized connectivity (or 2-connectivity) by bitset BFS over all
     graphs at once, stopped as soon as a step reaches no new vertex or
     every graph has reached every vertex, which the graph6 corpus
     filter shares on int64 rows;
  4. classification of the over-threshold graphs: extremal family match,
     star or spanning-double-star HIST constructions (vectorized), then a
     per-graph proof-guided constructor with full backtracking as the
     final fallback.

Everything is deterministic; threshold tests use rho >= theta - GUARD so
the scan can only over-check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from functools import cache

import numpy as np

from .graph6 import encode_graph6
from .graphs import Graph, edge_slots, is_family_B, is_family_L, make_family
from .hist import find_hist, proof_guided_hist
from .spectral import GUARD, TheoremSpec, hong_value, theorem_spec

BLOCK_BITS = 20
EIG_BATCH = 1 << 12  # rows per slice of over_threshold
CW_ITERS = 5  # Collatz-Wielandt steps before the eigensolve
HASH_MULT = 2654435761  # Knuth multiplicative hash, for unbiased subsampling
# _SUBSETS[i, s] is bit i of s: x[:, 4g:4g+4] @ _SUBSETS sums x over each subset s
_SUBSETS = ((np.arange(16) >> np.arange(4)[:, None]) & 1).astype(np.float64)


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
        spec = self.spec
        if extremal not in (None, spec.family):
            raise ValueError(f"{self.mode} has extremal family {spec.family}, not {extremal!r}")
        if self.n > 8:
            raise ValueError(
                f"the scan engine is limited to n <= 8 (got n={self.n}): "
                "adjacency rows are uint8 and edge masks uint32")
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"subsample must be >= 1, got {self.subsample}")

    @property
    def spec(self) -> TheoremSpec:
        return theorem_spec(self.mode)


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
        for f in fields(self):
            total = getattr(self, f.name)
            total += getattr(other, f.name)  # lists extend in place, in shard order
            setattr(self, f.name, total)


class _Codec:
    """The colex slot code of order n as arrays: the endpoints I[b], J[b]
    of slot b, the incidence mask inc[v] of the slots at vertex v, and the
    row of all n vertices.  Independent of any theorem."""

    def __init__(self, n: int):
        slots = edge_slots(n)
        self.n = n
        self.nbits = len(slots)
        self.I = np.array([i for i, _ in slots], dtype=np.int64)
        self.J = np.array([j for _, j in slots], dtype=np.int64)
        self.inc = np.zeros(n, dtype=np.uint32)
        for b, (i, j) in enumerate(slots):
            self.inc[i] |= np.uint32(1 << b)
            self.inc[j] |= np.uint32(1 << b)
        self.full_row = np.uint8((1 << n) - 1)


_codec = cache(_Codec)


def scan_range(cfg: ScanConfig, lo: int, hi: int) -> ShardOut:
    """Scan masks lo..hi-1; deterministic in inputs only."""
    c = _codec(cfg.n)
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
            _scan_block(cfg, c, masks, out)
    return out


def _scan_block(cfg: ScanConfig, c: _Codec, masks: np.ndarray, out: ShardOut):
    if cfg.prescreens:
        masks = masks[_prescreen(cfg, c, masks)]
    out.survivors += len(masks)
    if not len(masks):
        return
    rows = _rows_of_masks(c, masks)
    over = over_threshold(cfg.theta, rows, cfg.prescreens)
    if over.any():
        _classify_over(cfg, c, masks[over], rows[over], out)


def _prescreen(cfg: ScanConfig, c: _Codec, masks: np.ndarray) -> np.ndarray:
    """Which masks pass the degree and Hong-type prescreens."""
    n = c.n
    m = np.bitwise_count(masks)
    dmax = np.zeros(len(masks), dtype=np.uint8)
    dmin = np.full(len(masks), n, dtype=np.uint8)
    for v in range(n):
        deg = np.bitwise_count(masks & c.inc[v])
        np.maximum(dmax, deg, out=dmax)
        np.minimum(dmin, deg, out=dmin)
    ok = _hong_table(cfg, n)
    # ok[dmin, m] as one flat take; the offsets fit uint16 (at most 9 * 29 - 1)
    return (dmax >= n - cfg.spec.degree_gap) & ok.ravel().take(dmin * np.uint16(ok.shape[1]) + m)


def _hong_table(cfg: ScanConfig, n: int) -> np.ndarray:
    """ok[d, m]: whether a graph of minimum degree d and m edges passes
    the minimum-degree and Hong prescreens.  The Hong entries come from
    hong_value on float64 d and int64 m, the operand types of a per-mask
    test, so each equals that test bit for bit.  Entries with 2m < d n
    belong to no graph, and are left False rather than taking the square
    root of a negative number."""
    d = np.arange(n + 1, dtype=np.float64)[:, None]
    m = np.arange(n * (n - 1) // 2 + 1, dtype=np.int64)
    d, m = np.broadcast_arrays(d, m)
    ok = (d >= cfg.spec.min_degree) & (2 * m >= d * n)
    ok[ok] = hong_value(d[ok], n, m[ok]) >= cfg.theta - GUARD
    return ok


def _rows_of_masks(c: _Codec, masks: np.ndarray) -> np.ndarray:
    rows = np.zeros((len(masks), c.n), dtype=np.uint8)
    for b in range(c.nbits):
        bit = ((masks >> np.uint32(b)) & np.uint32(1)).astype(np.uint8)
        rows[:, c.I[b]] |= bit << np.uint8(c.J[b])
        rows[:, c.J[b]] |= bit << np.uint8(c.I[b])
    return rows


def over_threshold(theta: float, rows: np.ndarray, refine: bool = True) -> np.ndarray:
    """Which graphs reach rho >= theta - GUARD, batched.

    `rows` holds one graph per row as adjacency bit rows of one order n
    (bit w of rows[k, v] is the edge vw): uint8 from the scan engine,
    little-endian int64 from a graph6 corpus (whose short form caps n at
    62), so that byte w // 8 of a row holds bit w.  With
    refine=False every graph goes to the dense eigensolver; the prescreen
    audit uses that path as the reference.  With refine=True every vertex
    must have degree >= 1 (the engine's prescreens and the corpus's
    connectivity filter both ensure it), and exact side bounds settle most
    graphs first:

      * the all-ones vector: its Rayleigh quotient 2m/n is a lower bound
        on rho;
      * the degree vector d: its Rayleigh quotient d'Ad/d'd is a lower
        bound on rho, and the maximum two-walk count max_v (Ad)_v is an
        upper bound on rho^2;
      * then, for the graphs still undecided, up to CW_ITERS steps of the
        Collatz-Wielandt sandwich from x = (A+I)d: with y = Ax,
        x'y/x'x <= rho <= max_v y_v/x_v, valid for any nonnegative
        symmetric A and positive x (Horn & Johnson, Matrix Analysis,
        8.1), followed by x <- (y + x)/max(y + x).  Here x starts >= d >= 1
        and A + I keeps it positive; the +I shift keeps the iteration
        converging on bipartite graphs, whose -rho eigenvalue would
        otherwise make it oscillate.

    A graph is over when a lower bound reaches theta and under when an
    upper bound stays below theta - GUARD - 1e-12, so float error in the
    bounds cannot change a verdict relative to the plain eigensolve.  The
    graphs the bounds cannot settle, such as every labeled copy of the
    extremal family (rho exactly theta), go to eigvalsh.  LAPACK's
    symmetric eigensolver is backward stable, so its largest eigenvalue is
    within about n eps rho <= 62 * 2.2e-16 * 61, roughly 1e-12, of rho,
    far inside GUARD = 1e-9.

    The bounds never build a float adjacency: A x comes from the bit rows
    (`_adj_times`) as sums of x over subsets of each group of four
    vertices, and the row sums of products and the row maxima are taken
    column by column.  Only the summation order differs from a dense
    A @ x; the degree and two-walk bounds sum small integers and are
    exact either way, and in the Collatz-Wielandt steps reordering moves
    a sum of at most 62 positive terms by a few ulps, a relative 1e-14,
    which the 1e-12 and GUARD margins above absorb.  The adjacency is
    unpacked to float64 only for the rows handed to eigvalsh.

    The rows go through in slices of EIG_BATCH, which bounds the float64
    copies each slice makes.
    """
    over = np.zeros(len(rows), dtype=bool)
    for s in range(0, len(rows), EIG_BATCH):
        over[s:s + EIG_BATCH] = _over_slice(theta, rows[s:s + EIG_BATCH], refine)
    return over


def _over_slice(theta, rows, refine):
    n = rows.shape[1]
    over = np.zeros(len(rows), dtype=bool)
    open_ = np.arange(len(rows))
    if refine:
        deg = np.bitwise_count(rows).astype(np.float64)
        over = deg @ np.ones(n) / n >= theta  # all-ones quotient 2m/n, exact sums
        open_ = np.flatnonzero(~over)
        sure, rest = _sandwich(theta, rows[open_], deg[open_])
        over[open_[sure]] = True
        open_ = open_[rest]
    if len(open_):
        adj = np.unpackbits(rows[open_].view(np.uint8), axis=1, bitorder="little").reshape(
            len(open_), n, 8 * rows.itemsize)[:, :, :n].astype(np.float64)
        over[open_] = np.linalg.eigvalsh(adj)[:, -1] >= theta - GUARD
    return over


def _sandwich(theta, rows, d):
    """The degree, two-walk and Collatz-Wielandt bounds of
    over_threshold on adjacency bit rows `rows` with degree vectors `d`,
    all >= 1.  Returns the indices of the rows certainly over and of the
    rows still undecided."""
    over = []
    under = theta - GUARD - 1e-12
    keys = np.arange(len(rows))
    nibbles = _nibbles(rows)
    walk = _adj_times(nibbles, d)
    sure_over = _dot(walk, d) >= theta * _dot(d, d)
    sure_under = _row_max(walk) < under * under
    x = walk + d
    for _ in range(CW_ITERS):
        over.append(keys[sure_over])
        keep = np.flatnonzero(~(sure_over | sure_under))
        keys, x = keys[keep], x.take(keep, axis=0)
        nibbles = [nib.take(keep, axis=0) for nib in nibbles]
        if not len(keys):
            return np.concatenate(over), keys
        x /= _row_max(x)[:, None]
        y = _adj_times(nibbles, x)
        sure_over = _dot(x, y) >= theta * _dot(x, x)
        sure_under = _row_max(y / x) < under
        x += y
    over.append(keys[sure_over])
    return np.concatenate(over), keys[~(sure_over | sure_under)]


def _nibbles(rows):
    """The 4-bit groups of adjacency bit rows: entry [k, v] of array g
    holds the edges from v to vertices 4g..4g+3 of graph k."""
    return [((rows >> 4 * g) & 15).astype(np.uint8) for g in range(-(-rows.shape[1] // 4))]


def _adj_times(nibbles, x):
    """A x per row from the 4-bit groups of A's bit rows: for each group,
    the sums of x over every subset of its four vertices (one small
    GEMM), gathered at each vertex's nibble."""
    y = 0
    base = np.arange(0, 16 * len(x), 16)[:, None]
    for g, nib in enumerate(nibbles):
        part = x[:, 4 * g:4 * g + 4]
        y = y + np.take(part @ _SUBSETS[:part.shape[1]], nib + base)
    return y


def _dot(a, b):
    """Row-wise dot products of two (k, n) arrays."""
    return np.einsum("kv,kv->k", a, b)


def _row_max(a):
    """Row-wise maxima of a (k, n) array, by a running maximum over its
    columns."""
    top = a[:, 0].copy()
    for v in range(1, a.shape[1]):
        np.maximum(top, a[:, v], out=top)
    return top


def _connected_filter(rows: np.ndarray, two_connected: bool) -> np.ndarray:
    """Boolean mask of graphs that are connected (or 2-connected).

    `rows` holds one graph per row as adjacency bit rows of one order n,
    which it takes from the row length, in any integer word wide enough
    for n bits: uint8 from the scan engine and `enumerate_labeled`,
    little-endian int64 from the graph6 corpus filter
    (`verification._corpus_survivors`), whose short form caps n at 62.

    2-connectivity for n >= 3 is equivalent to "G - v is connected for
    every v": a disconnected G always has some v whose removal leaves two
    nonempty parts or an isolated vertex behind.
    """
    n, word = rows.shape[1], rows.dtype.type
    full = (1 << n) - 1
    if two_connected:
        ok = np.ones(len(rows), dtype=bool)
        for v in range(n):
            alive = word(full ^ (1 << v))
            ok &= _reach_vec(rows, alive, word(2 if v == 0 else 1), n) == alive
        return ok
    return _reach_vec(rows, word(full), word(1), n) == full


def _reach_vec(rows, alive, start, steps):
    """Vertices of `alive` reachable from `start` inside `alive`, per row,
    after at most `steps` BFS steps.  The loop stops at a fixed point (a
    step that adds no vertex to any row) or once every row has reached
    all of `alive`, since a full row cannot grow."""
    reach = np.full(len(rows), start & alive, dtype=rows.dtype)
    for _ in range(steps):
        acc = np.zeros_like(reach)
        for w in range(rows.shape[1]):
            acc |= -((reach >> w) & 1) & rows[:, w]  # all ones where w is reached
        grown = reach | (acc & alive)
        if np.array_equal(grown, reach):
            break
        reach = grown
        if (reach == alive).all():
            break
    return reach


def _double_star_feasible(c: _Codec, masks, rows) -> np.ndarray:
    """Graphs with an edge (a, b) whose endpoints dominate all vertices and
    admit a leaf split avoiding degree 2 at both centers."""
    feasible = np.zeros(len(masks), dtype=bool)
    for b in range(c.nbits):
        i, j = int(c.I[b]), int(c.J[b])
        has = ((masks >> np.uint32(b)) & 1).astype(bool)
        if not has.any():
            continue
        ri, rj = rows[:, i], rows[:, j]
        pair = (1 << i) | (1 << j)
        covers = (ri | rj | pair) == c.full_row
        excl = c.full_row ^ pair
        a_only = np.bitwise_count(ri & ~rj & excl)
        b_only = np.bitwise_count(rj & ~ri & excl)
        both = np.bitwise_count(ri & rj & excl)
        # a takes x of the common neighbours, b the rest: some x in 0..both
        # gives neither centre degree 2 (a_only + x != 1, b_only + both - x
        # != 1) iff two or more are shared, or x = 0 works, or x = 1 does.
        split = ((both >= 2) | ((a_only != 1) & (b_only + both != 1))
                 | ((both == 1) & (a_only != 0) & (b_only != 1)))
        feasible |= has & covers & split
    return feasible


def _classify_over(cfg, c, over_masks, rows, out):
    n, spec = c.n, cfg.spec
    keep = _connected_filter(rows, spec.two_connected)
    over_masks, rows = over_masks[keep], rows[keep]
    if not len(over_masks):
        return
    out.over += len(over_masks)
    if cfg.collect_over:
        out.over_masks.extend(int(x) for x in over_masks)

    deg = np.bitwise_count(rows)

    # extremal family candidates, confirmed per graph
    ext = np.zeros(len(over_masks), dtype=bool)
    # Looked up per call, not stored in the spec, so that rebinding the
    # module attribute takes effect.
    is_extremal = is_family_L if spec.family == "L" else is_family_B
    fam = make_family(spec.family, n)
    # the edge count first, then the sorted degrees of the rows that match
    cand = np.flatnonzero(np.bitwise_count(over_masks) == fam.m)
    fam_degs = np.array(sorted(fam.degrees()), dtype=np.uint8)
    cand = cand[(np.sort(deg[cand], axis=1) == fam_degs).all(axis=1)]
    for idx in cand:
        g = _graph_of_row(n, rows[idx])
        if is_extremal(g):
            ext[idx] = True
    out.extremal += int(ext.sum())

    rest = ~ext
    star = rest & (_row_max(deg) == n - 1)
    rest &= ~star
    dstar = np.zeros(len(over_masks), dtype=bool)
    if rest.any():
        dstar[rest] = _double_star_feasible(c, over_masks[rest], rows[rest])
    rest &= ~dstar
    out.hists += int(star.sum()) + int(dstar.sum())

    for idx in np.nonzero(rest)[0]:
        out.fallback_searches += 1
        g = _graph_of_row(n, rows[idx])
        trace = proof_guided_hist(g, spec.replay)
        if trace.found_tree:
            out.hists += 1
        elif find_hist(g).found:
            out.hists += 1
        else:
            out.counterexamples.append(encode_graph6(g))


def _graph_of_row(n, row) -> Graph:
    return Graph._from_rows_unchecked(n, tuple(row.tolist()))

"""Vectorized exhaustive scan over all labeled graphs of a small order.

Graphs of order n are edge bitmasks over the C(n, 2) vertex pairs in
the colex slot order of `graphs.edge_slots`, which graph6 shares.  The
order-only half tables of that code (`_codec(n)`: rows, degrees and
edge counts of the slots of the edges among vertices 0..5, the low half,
and of the rest) turn mask blocks into adjacency bit rows, whose
connectivity is then tested on the rows alone, without any theorem.  The
masks that share a high half form a window (2^15 masks from n = 6 up),
and windows whose high halves differ by a permutation of vertices 0..5
form a window class (`_Codec.window_class`): they hold the same graphs
up to relabeling, one for one.  The window is the scan's unit:
`scan_range` takes whole windows only, scans the first window of each
class in its range and counts it once per window of the class (168
classes of the 8,192 windows at n = 8, 7 of 64 at n = 7).  Inside a
scanned window, the permutations of vertices 0..5 that keep each
vertex's row into the higher vertices (its type) map the window onto
itself, so its low masks fall into orbits of isomorphic graphs: the scan
examines only the least mask of each orbit (`_orbit_table`, cached per
partition of vertices 0..5 into types) and counts it once per mask of
its orbit, the isomorph rejection of McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998), one level below the window
classes.  A whole order then examines one mask per orbit of S_6 on its
edge masks: 156 at n = 6, 5,096 at n = 7, 483,040 at n = 8.  No scan
examines any other mask: a counterexample is listed once per
representative, with the number of labeled graphs it stands for as its
copies.  The labeled drivers scan a whole order in one call, so that
each class is scanned once and every key decided once.  The scanned
windows go in blocks of BLOCK_WINDOWS (`_blocks`, which the prescreen
audit reads too), and the scan pipeline per block is:

  1. mask-level prescreens (degrees, Hong-type bound), each justified by
     an upper bound on rho that is valid for every connected graph, so no
     graph that could reach the threshold is ever dropped: the maximum
     degree floor `degree_floor(theta)`, which the graph6 corpus path
     shares, and the Hong test, a lookup in a table over (minimum degree,
     edge count) whose entries equal the per-mask test bit for bit; both
     are isomorphism invariants, as window classes and orbits need.
     `_survivors` runs them one window at a time: the masks of a window
     share their high half, so each degree is the low half's table (the
     orbit table carries it gathered at its representatives) plus a
     constant, and no mask array is built until the survivors are listed,
     each with its weight (orbit size times class size);
  2. grouping by class key: `_key_words` builds the survivors' adjacency
     bit rows, one gather per half table, and keys them in groups of
     GROUP_ROWS, so nothing after it sees a mask: `_class_keys` relabels
     each graph by a stable sort of its vertices on (degree, sum of
     neighbour degrees); equal keys are one graph under two labelings,
     hence isomorphic, and rho, connectivity, 2-connectivity, being the
     extremal graph and having a HIST are isomorphism invariants, so
     steps 3-5 run once per distinct key per `scan_range` call, on the
     key rows, in one batch per block: one argsort gives the block's
     distinct key words, those the call's verdict table (`_Verdicts`)
     lacks are decided together and added to it, and each row takes its
     word's verdict code, in row order.  One bincount of the codes,
     weighted by the rows' weights, makes the counts, and the
     counterexamples are the rows of their code, each with its weight;
  3. the spectral decision `over_threshold`, which the graph6 corpus
     path shares: certain classifications that skip the eigensolver
     (Rayleigh quotients of the all-ones and degree vectors are lower
     bounds on rho, the maximum two-walk count bounds rho^2 from above,
     and a few Collatz-Wielandt steps from the positive vector (A+I)d
     then bracket rho between the Rayleigh quotient x'Ax/x'x and
     max_v (Ax)_v/x_v, positive because the prescreens enforce minimum
     degree >= 1; a bound settles a graph only with the GUARD margin
     below, so no verdict differs from the eigensolver's on any
     labeling), all computed on the adjacency bit rows, then batched
     dense eigensolves for the few graphs left, which include every
     extremal key (rho exactly theta) and are the only rows unpacked
     into a float adjacency;
  4. vectorized connectivity (or 2-connectivity) by bitset BFS over all
     graphs at once, stopped as soon as a step reaches no new vertex or
     every graph has reached every vertex, which the graph6 corpus
     filter shares on int64 rows; for 2-connectivity, the n searches in
     G - v, one per vertex v, run as one BFS over all graphs;
  5. classification of the over-threshold keys on their bit rows alone
     (`_classify`), in the order the graph6 corpus path shares: the
     vectorized spanning-double-star HIST test first, which settles the
     spanning stars too, then, per key it leaves, extremal family match,
     the proof-guided constructor (at orders from the theorem's floor
     up) and full backtracking.  The extremal graph has no HIST, so the
     first test settles none of its keys.

Everything is deterministic; threshold tests use rho >= theta - GUARD so
the scan can only over-check.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cache

import numpy as np

from .graph6 import encode_graph6
from .graphs import Graph, edge_slots, is_family_B, is_family_L
from .hist import find_hist, proof_guided_hist
from .spectral import GUARD, TheoremSpec, hong_value, theorem_spec

BLOCK_WINDOWS = 32  # scanned windows per block: 2^20 masks from n = 7 up
LOW_VERTICES = 6  # the low half of the edge code holds the edges among vertices 0..5
EIG_BATCH = 1 << 12  # rows per slice of over_threshold
GROUP_ROWS = 1 << 16  # rows per class-key group of _key_words
CW_ITERS = 5  # Collatz-Wielandt steps before the eigensolve
# Verdict codes of a class key: under the threshold or without the
# theorem's connectivity, a HIST by the vectorized tests, a HIST by replay
# or the search, the extremal graph, a counterexample.
UNDER, HIST, SEARCHED, EXTREMAL, BAD = range(5)
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

    def __post_init__(self, extremal):
        spec = self.spec
        if extremal not in (None, spec.family):
            raise ValueError(f"{self.mode} has extremal family {spec.family}, not {extremal!r}")
        if not 1 <= self.n <= 8:
            raise ValueError(
                f"the scan engine takes 1 <= n <= 8 (got n={self.n}): "
                "adjacency rows are uint8 and edge masks uint32")

    @property
    def spec(self) -> TheoremSpec:
        return theorem_spec(self.mode)


@dataclass
class ShardOut:
    """Counts and witnesses from one scan of whole windows: each count
    is of labeled graphs, and each counterexample a representative with
    the number of labeled graphs it stands for."""

    scanned: int = 0
    survivors: int = 0
    over: int = 0
    extremal: int = 0
    hists: int = 0
    counterexamples: list = field(default_factory=list)  # [graph6, copies] pairs
    fallback_searches: int = 0


class _Codec:
    """The colex slot code of order n as two half tables, split at the
    vertex boundary L = min(n, LOW_VERTICES): the low half is the
    low_bits = C(L, 2) slots of the edges among vertices 0..L-1, and the
    high half the rest, the edges with an end in L..n-1.  A mask x is
    y * 2^low_bits + z, with z its low slots and y its high ones, and the
    masks that share y form the window y.  lo_rows[z] and hi_rows[y] are
    the adjacency bit rows of each half, so x has the rows
    lo_rows[z] | hi_rows[y]; lo_deg[v, z] and hi_deg[y, v] are vertex v's
    degree in each half (lo_deg transposed, so that each vertex's degrees
    over a window are one contiguous row), and lo_m and hi_m the edge
    counts.

    window_class[y] numbers the windows up to a permutation s of the low
    vertices: two windows get one number when the sorted rows of vertices
    0..L-1 among vertices L..n-1 match and so do the rows of vertices
    L..n-1 among themselves.  Then some s maps the one high half onto the
    other, and z -> s(z) maps the masks of one window one for one onto
    relabelings of the masks of the other.  Independent of any theorem."""

    def __init__(self, n: int):
        slots = edge_slots(n)
        low = min(n, LOW_VERTICES)
        self.n = n
        self.low = low
        self.nbits = len(slots)
        self.low_bits = low * (low - 1) // 2
        self.lo_rows = _half_rows(n, slots[:self.low_bits])
        self.hi_rows = _half_rows(n, slots[self.low_bits:])
        self.lo_deg = np.ascontiguousarray(np.bitwise_count(self.lo_rows).T)
        self.hi_deg = np.bitwise_count(self.hi_rows)
        self.lo_m = np.bitwise_count(np.arange(len(self.lo_rows), dtype=np.uint32))
        self.hi_m = np.bitwise_count(np.arange(len(self.hi_rows), dtype=np.uint32))
        high = np.zeros((len(self.hi_rows), 8), dtype=np.uint8)
        high[:, :n] = self.hi_rows >> low  # each vertex's row among vertices L..n-1
        high[:, :low].sort(axis=1)
        self.window_class = np.unique(high.view(np.uint64).ravel(), return_inverse=True)[1]

    def blocks(self, y: int) -> tuple:
        """The block partition of the low vertices in window y, by their
        rows into vertices L..n-1 (their type): vertex v's entry is the
        least low vertex of its type.  A permutation of the low vertices
        inside the blocks keeps the high half y, so z -> s(z) maps the
        window onto itself, each mask onto a relabeling."""
        types = self.hi_rows[y, :self.low].tolist()
        return tuple(types.index(t) for t in types)


def _half_rows(n: int, slots) -> np.ndarray:
    """The adjacency bit rows of every mask over `slots`, by doubling:
    the masks with the slot's bit set are those without it, plus the edge."""
    rows = np.zeros((1, n), dtype=np.uint8)
    for i, j in slots:
        edge = np.zeros(n, dtype=np.uint8)
        edge[i], edge[j] = 1 << j, 1 << i
        rows = np.concatenate([rows, rows | edge])
    return rows


_codec = cache(_Codec)


@cache
def _orbit_table(blocks: tuple) -> tuple[np.ndarray, ...]:
    """The low masks least in their orbit under the permutations of the
    low vertices inside the blocks of `blocks` (`_Codec.blocks`), in
    ascending order, the size of each orbit, both uint32, and the low
    degree and edge-count tables of `_codec(len(blocks))` gathered at
    them.  The low half is the first C(L, 2) slots of every order from L
    up, with the same degrees of vertices 0..L-1, so the table depends on
    the partition alone, never on n or theta.

    Built by min-propagation from the generators, the swap of each low
    vertex with the next one of its block: best[z] = min(best[z],
    best[g(z)]) until nothing changes, when best is constant on each
    orbit and so its least mask."""
    low = len(blocks)
    slots = edge_slots(low)
    slot_of = {edge: b for b, edge in enumerate(slots)}
    z = np.arange(1 << len(slots), dtype=np.uint16)
    gens = []
    for a in range(low):
        b = next((w for w in range(a + 1, low) if blocks[w] == blocks[a]), None)
        if b is None:
            continue
        swap = {a: b, b: a}
        g = np.zeros_like(z)
        for s, (i, j) in enumerate(slots):
            i, j = swap.get(i, i), swap.get(j, j)
            g |= ((z >> s) & 1) << slot_of[min(i, j), max(i, j)]
        gens.append(g)
    best = z.copy()
    while True:
        before = best.copy()
        for g in gens:
            np.minimum(best, best[g], out=best)
        if np.array_equal(best, before):
            break
    reps = np.flatnonzero(best == z).astype(np.uint32)
    c = _codec(low)
    return (reps, np.bincount(best)[reps].astype(np.uint32),
            c.lo_deg.take(reps, axis=1), c.lo_m.take(reps))


def scan_range(cfg: ScanConfig, lo: int, hi: int) -> ShardOut:
    """Scan masks lo..hi-1, whole windows only: lo and hi must be
    multiples of the window size 2^low_bits (the whole order at n <= 6,
    which is one window).  Deterministic in inputs only.  The labeled
    drivers pass the whole order, 0..2^C(n, 2).

    The windows of the range go by class (`_Codec.window_class`): the
    first window of each class is scanned and stands for every window of
    its class, since the windows of a class hold one graph per graph of
    the other, relabeled.  Inside it, only the low masks least in their
    orbit under the window's stabilizer are scanned (`_orbit_table`), each
    standing for its orbit.  The degree floor, the Hong prescreen and
    every verdict code are isomorphism invariants, so each count of a
    scanned mask, times its orbit size and the class size, is the count
    of the graphs it stands for, and each counterexample is listed once,
    with that product as its number of copies.  One `_scan` call."""
    c = _codec(cfg.n)
    width = 1 << c.low_bits
    if not 0 <= lo <= hi <= 1 << c.nbits or lo % width or hi % width:
        raise ValueError(f"mask range [{lo}, {hi}) is not whole windows of 2^{c.low_bits} "
                         f"masks inside 0..2^{c.nbits} for n={cfg.n}")
    return _scan(cfg, c, _window_classes(c, range(lo >> c.low_bits, hi >> c.low_bits)))


def _window_classes(c: _Codec, windows) -> list[tuple[int, int]]:
    """The windows to scan of the ascending window indices `windows`,
    each as (y, weight), its weight the number of windows of `windows` it
    stands for: the first window of each window class, in the order of
    the class numbers."""
    ys = np.asarray(windows, dtype=np.int64)
    _, first, size = np.unique(c.window_class[ys], return_index=True, return_counts=True)
    return list(zip(ys[first].tolist(), size.tolist()))


def _scan(cfg: ScanConfig, c: _Codec, windows) -> ShardOut:
    """Scan the windows (y, weight) of `windows`, each standing for
    `weight` windows, and tally the blocks of `_blocks`: one bincount of
    each block's verdict codes, weighted by the rows' weights, makes the
    counts.  Each counterexample row is listed once, in row order, as
    [graph6, copies], its copies its weight."""
    out = ShardOut(scanned=sum(weight for _, weight in windows) << c.low_bits)
    for masks, weights, code in _blocks(cfg, c, windows):
        # float64 sums, exact below 2^53; a whole order sums to at most 2^28
        tally = np.bincount(code, weights=weights, minlength=BAD + 1).astype(np.int64)
        out.survivors += int(weights.sum(dtype=np.int64))
        out.over += int(tally[HIST:].sum())
        out.hists += int(tally[HIST] + tally[SEARCHED])
        out.extremal += int(tally[EXTREMAL])
        out.fallback_searches += int(tally[SEARCHED] + tally[BAD])
        if tally[BAD]:
            bad = code == BAD
            out.counterexamples.extend(
                [encode_graph6(_graph_of_row(c.n, row)), copies]
                for row, copies in zip(_rows_of_masks(c, masks[bad]), weights[bad].tolist()))
    return out


def _blocks(cfg: ScanConfig, c: _Codec, windows):
    """Yield, per block of BLOCK_WINDOWS of the windows (y, weight) of
    `windows`, its survivors (`_survivors`: masks and weights, uint32)
    and the verdict code of each.  The survivors are keyed
    (`_key_words`) and each row takes its key's code from one verdict
    table (`_Verdicts`) that lives for the whole call, so each key is
    decided once per call and its verdict goes to every copy."""
    verdicts = _Verdicts()
    for s in range(0, len(windows), BLOCK_WINDOWS):
        masks, weights = _survivors(cfg, c, windows[s:s + BLOCK_WINDOWS])
        yield masks, weights, verdicts.codes_of(cfg, _key_words(c, masks))


def _survivors(cfg: ScanConfig, c: _Codec, windows) -> tuple[np.ndarray, np.ndarray]:
    """The orbit representatives (`_orbit_table`) of the windows (y,
    weight) of `windows` that, under cfg.prescreens, pass the degree and
    Hong prescreens, window by window in the order given, as uint32
    masks, and the weight of each, uint32: its orbit size times its
    window's weight.

    The masks of window y share their high half: a vertex's degree is
    lo_deg[v] plus the constant hi_deg[y, v], and the edge count
    lo_m + hi_m[y]."""
    width = 1 << c.low_bits
    floor = degree_floor(cfg.theta)
    ok = _hong_table(cfg, c.n)
    flat, cols = ok.ravel(), np.uint16(ok.shape[1])
    masks, weights = [], []
    for y, weight in windows:
        reps, size, lo_deg, lo_m = _orbit_table(c.blocks(y))
        keep = slice(None)
        if cfg.prescreens:
            hi_deg = c.hi_deg[y]
            # vertices L..n-1 have no low edges, so constant degrees
            dmax = np.full(len(lo_m), hi_deg[c.low:].max(initial=0))
            dmin = np.full(len(lo_m), hi_deg[c.low:].min(initial=c.n))
            for v in range(c.low):
                deg = lo_deg[v] + hi_deg[v]
                np.maximum(dmax, deg, out=dmax)
                np.minimum(dmin, deg, out=dmin)
            m = lo_m + c.hi_m[y]
            # ok[dmin, m] as one flat take; the offsets fit uint16 (at most 9 * 29 - 1)
            keep = np.flatnonzero((dmax >= floor) & flat.take(dmin * cols + m))
        masks.append(reps[keep] + np.uint32(y * width))
        weights.append(size[keep] * np.uint32(weight))
    return np.concatenate(masks), np.concatenate(weights)


class _Verdicts:
    """The class keys one `scan_range` call has decided, as sorted uint64
    words (`_key_words`), and the verdict code of each.  A verdict depends
    on the call's config as well as the key, so the table lives for one
    call: `_blocks` makes it and drops it."""

    def __init__(self):
        self.words = np.zeros(0, dtype=np.uint64)
        self.codes = np.zeros(0, dtype=np.uint8)

    def codes_of(self, cfg: ScanConfig, words: np.ndarray) -> np.ndarray:
        """The code of each of `words`, in row order.  One argsort gives
        the distinct words; those the table lacks are decided in one
        `_decide` call on their key rows and inserted with their codes."""
        distinct, row = np.unique(words, return_inverse=True)
        new = distinct[~np.isin(distinct, self.words, assume_unique=True)]
        if len(new):
            keys = np.ascontiguousarray(new.view(np.uint8).reshape(-1, 8)[:, :cfg.n])
            at = np.searchsorted(self.words, new)
            self.codes = np.insert(self.codes, at, _decide(cfg, keys))
            self.words = np.insert(self.words, at, new)
        return self.codes[np.searchsorted(self.words, distinct)][row]


def _key_words(c: _Codec, masks: np.ndarray) -> np.ndarray:
    """The class keys of the graphs of edge masks `masks` as uint64
    words, each key row padded to 8 bytes: one word per graph.  The rows
    are built and keyed in groups of GROUP_ROWS, so a block's rows are
    never held at once."""
    padded = np.zeros((len(masks), 8), dtype=np.uint8)
    for s in range(0, len(masks), GROUP_ROWS):
        padded[s:s + GROUP_ROWS, :c.n] = _class_keys(_rows_of_masks(c, masks[s:s + GROUP_ROWS]))
    return padded.view(np.uint64).ravel()


def _decide(cfg: ScanConfig, keys: np.ndarray) -> np.ndarray:
    """Steps 3-5 on distinct key rows: the verdict code of each."""
    code = np.full(len(keys), UNDER, dtype=np.uint8)
    over = over_threshold(cfg.theta, keys, cfg.prescreens)
    over[over] = _connected_filter(keys[over], cfg.spec.two_connected)
    if over.any():
        code[over] = _classify(cfg.spec, keys[over])
    return code


def degree_floor(theta: float) -> int:
    """The least maximum degree of a graph with rho >= theta - GUARD.

    rho <= Δ for every graph, so such a graph has Δ >= ceil(theta - GUARD).
    At either theorem's threshold this is the bottom of the range proof
    replay covers (n - 2 for thm1, n - 3 for thm2); at any other theta it
    is still sound.
    """
    return math.ceil(theta - GUARD)


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
    """Adjacency bit rows of edge masks: the OR of the rows of each mask's
    low and high half, one gather per half table."""
    masks = np.asarray(masks, dtype=np.uint32)
    low = masks & np.uint32((1 << c.low_bits) - 1)
    return c.lo_rows.take(low, axis=0) | c.hi_rows.take(masks >> np.uint32(c.low_bits), axis=0)


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
    little-endian int64 from the graph6 corpus scan
    (`verification._scan_corpus`), whose short form caps n at 62.  The
    searches read them transposed, vertex by vertex over all graphs.

    2-connectivity for n >= 3 is equivalent to "G - v is connected for
    every v": a disconnected G always has some v whose removal leaves two
    nonempty parts or an isolated vertex behind.  The n searches, one per
    deleted vertex v, each from the lowest vertex of G - v, run as one
    `_reach_vec` call on every graph.
    """
    n, word = rows.shape[1], rows.dtype.type
    full = word((1 << n) - 1)
    cols = np.ascontiguousarray(rows.T)
    if not two_connected:
        return _reach_vec(cols, full, word(1)) == full
    alive = full ^ (word(1) << np.arange(n, dtype=rows.dtype)[:, None])
    return (_reach_vec(cols, alive, alive & -alive) == alive).all(axis=0)


def _reach_vec(cols, alive, start):
    """Vertices of `alive` reachable from `start` inside `alive`, per
    search and graph, by bitset BFS.  `cols[w]` holds vertex w's adjacency
    bit row in every graph; `alive` and `start` are words, one for all
    graphs or a column of one word per search, each search run on every
    graph, so the result has one row per search.  The loop stops at a
    fixed point (a step that adds no vertex to any graph) or once every
    search has reached all of its `alive`, since a full search cannot
    grow, and after at most n steps."""
    reach = (start & alive) | np.zeros_like(cols[0])
    for _ in range(len(cols)):
        acc = np.zeros_like(reach)
        for w, col in enumerate(cols):
            acc |= -((reach >> w) & 1) & col  # all ones where w is reached
        grown = reach | (acc & alive)
        if np.array_equal(grown, reach):
            break
        reach = grown
        if (reach == alive).all():
            break
    return reach


def _double_star_feasible(rows) -> np.ndarray:
    """Graphs with two centres a < b that dominate all vertices and admit
    a leaf split avoiding degree 2 at both centres.  `rows` are adjacency
    bit rows of one order n in any integer word wide enough for n bits,
    read transposed, one contiguous array per vertex.

    One step per first centre a tests every b > a at once.  Rows have no
    loops, so N(a) | N(b) = V puts b in N(a): the centres are adjacent."""
    n, word = rows.shape[1], rows.dtype.type
    full = word((1 << n) - 1)
    cols = np.ascontiguousarray(rows.T)
    bit = (word(1) << np.arange(n, dtype=rows.dtype))[:, None]
    feasible = np.zeros(len(rows), dtype=bool)
    for a in range(n - 1):
        ra, rb = cols[a], cols[a + 1:]
        split = _leaf_split(ra, rb, full ^ bit[a] ^ bit[a + 1:])
        feasible |= (((ra | rb) == full) & split).any(axis=0)
    return feasible


def _hub_double_star(rows) -> np.ndarray:
    """Graphs with a spanning double star, free of degree 2, that has the
    hub as one centre: the hub is the lowest vertex of maximum degree,
    and every vertex b is tried as the other centre in one broadcast step
    over the whole (graphs, b) array.  `rows` are adjacency bit rows of
    one order n in any integer word wide enough for n bits.

    These are the trees that proof replay builds from the hub's star plus
    one more centre.  The hub's own column never dominates (rows have no
    loops), so b = hub drops out."""
    n, word = rows.shape[1], rows.dtype.type
    full = word((1 << n) - 1)
    bit = word(1) << np.arange(n, dtype=rows.dtype)
    hub = np.bitwise_count(rows).argmax(axis=1)[:, None]
    ra = np.take_along_axis(rows, hub, axis=1)
    split = _leaf_split(ra, rows, full ^ bit[hub] ^ bit)
    return (((ra | rows) == full) & split).any(axis=1)


def _leaf_split(ra, rb, excl):
    """Whether centres a and b can share their neighbours in `excl` (all
    vertices but the two centres) as leaves so that neither centre has
    tree degree 2; `ra` and `rb` are their bit rows, broadcast together.

    a takes x of the common neighbours, b the rest: some x in 0..both
    gives neither centre degree 2 (a_only + x != 1, b_only + both - x
    != 1) iff two or more are shared, or x = 0 works, or x = 1 does."""
    a_only = np.bitwise_count(ra & ~rb & excl)
    b_only = np.bitwise_count(rb & ~ra & excl)
    both = np.bitwise_count(ra & rb & excl)
    return ((both >= 2) | ((a_only != 1) & (b_only + both != 1))
            | ((both == 1) & (a_only != 0) & (b_only != 1)))


def _class_keys(rows: np.ndarray) -> np.ndarray:
    """Each graph relabeled by a stable descending sort of its vertices on
    (degree, sum of neighbour degrees), as adjacency bit rows of the
    input's order n and integer word.

    Each key row is its graph under some permutation, so two graphs with
    equal keys are isomorphic; isomorphic graphs may still get different
    keys when the sort meets a tie, which costs a repeated verdict, never
    a wrong one.  `_blocks` calls it (through `_key_words`) on every row
    it scans, ahead of the spectral decision.

    The work runs on the transposed rows, one array per vertex, with no
    sort; the loops write in place into arrays of the input's length, so
    no loop step makes a temporary array.  A vertex's neighbour-degree
    sum counts the walks v-w-u, so it is the sum over u of
    |N(v) & N(u)|, at most (n - 1)^2, and is kept in the narrowest
    integer that holds that; the score deg * n^2 + sum, below n^3,
    orders vertices as (degree, sum) does, and of two vertices v < w with
    equal scores v comes first.  A vertex's rank is the number of
    vertices ahead of it, and the key row at rank_v is q_v, the OR over w
    in N(v) of 1 << rank_w."""
    n, word = rows.shape[1], rows.dtype.type
    cols = np.ascontiguousarray(rows.T)
    scratch = np.empty(len(rows), dtype=rows.dtype)
    common = np.empty(len(rows), dtype=np.uint8)
    deg = np.bitwise_count(cols)
    nsum = deg.astype(np.min_scalar_type((n - 1) ** 2))  # u = v adds |N(v)| = deg_v
    for v, w in edge_slots(n):
        np.bitwise_count(np.bitwise_and(cols[v], cols[w], out=scratch), out=common)
        np.add(nsum[v], common, out=nsum[v])
        np.add(nsum[w], common, out=nsum[w])
    score = deg.astype(np.min_scalar_type(n ** 3))
    np.multiply(score, n * n, out=score)
    np.add(score, nsum, out=score)
    # Start as if every w > v were ahead of v; each pair v < w then moves
    # one count from v to w when v is ahead after all.
    rank = np.repeat(np.arange(n - 1, -1, -1, dtype=np.uint8), len(rows)).reshape(cols.shape)
    ahead = np.empty(len(rows), dtype=bool)
    for v, w in edge_slots(n):
        np.greater_equal(score[v], score[w], out=ahead)
        np.subtract(rank[v], ahead.view(np.uint8), out=rank[v])
        np.add(rank[w], ahead.view(np.uint8), out=rank[w])
    bit = word(1) << rank.astype(rows.dtype)
    q = np.zeros_like(cols)
    edge = np.empty_like(scratch)
    for v, w in edge_slots(n):
        np.bitwise_and(np.right_shift(cols[v], w, out=edge), 1, out=edge)
        np.bitwise_or(q[v], np.multiply(edge, bit[w], out=scratch), out=q[v])
        np.bitwise_or(q[w], np.multiply(edge, bit[v], out=scratch), out=q[w])
    keys = np.empty_like(rows)
    key = edge  # column i of the keys, built contiguous, then put in place
    for i in range(n):
        key[:] = 0
        for v in range(n):
            np.equal(rank[v], i, out=ahead)
            np.bitwise_or(key, np.multiply(q[v], ahead.view(np.uint8), out=scratch), out=key)
        keys[:, i] = key
    return keys


def _classify(spec: TheoremSpec, rows: np.ndarray) -> np.ndarray:
    """The verdict codes (HIST, SEARCHED, EXTREMAL or BAD) of
    over-threshold graphs of the theorem's connectivity, given as
    adjacency bit rows of one order n in any integer word.

    `_double_star_feasible` runs first, on every row, and settles each
    graph with a spanning double star free of degree 2, a HIST.  A
    spanning star is such a double star whose second centre takes no
    leaf, so it needs no test of its own; K_1, with no second centre,
    goes on to the search.  The extremal graph has no HIST, so none of
    its rows is settled there.  Each row left is decided in the order
    extremal match, proof replay, complete search: the recognizer decides
    isomorphism to the extremal graph, replay returns only trees that
    pass `is_valid_hist` and the search is complete, so each verdict
    holds for every copy.  Replay covers only the theorem's orders; below
    its order floor the search alone decides, which is sound since it is
    complete."""
    n = rows.shape[1]
    code = np.full(len(rows), HIST, dtype=np.uint8)
    left = np.flatnonzero(~_double_star_feasible(rows))
    # Looked up per call, not stored in the spec, so that rebinding the
    # module attribute takes effect.
    is_extremal = is_family_L if spec.family == "L" else is_family_B
    replay = n >= spec.order_floor
    for idx in left:
        g = _graph_of_row(n, rows[idx])
        if is_extremal(g):
            code[idx] = EXTREMAL
        elif (replay and proof_guided_hist(g, spec.replay).found_tree) or find_hist(g).found:
            code[idx] = SEARCHED
        else:
            code[idx] = BAD
    return code


def _graph_of_row(n, row) -> Graph:
    return Graph._from_rows_unchecked(n, tuple(row.tolist()))

"""Simple undirected graphs as adjacency bitset rows, plus the named
extremal families and structural predicates used throughout the project.

Vertices are dense 0-indexed integers.  Each adjacency row is a Python int
whose bit w is set when the vertex is adjacent to w, so neighborhood
algebra (unions, intersections, BFS frontiers) is plain integer bit
twiddling.  Graph values are immutable after construction and safe to
share across worker processes.
"""

from __future__ import annotations

import operator
import struct
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator


class Graph:
    """Immutable simple undirected graph on n >= 1 vertices."""

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"graph order must be >= 1, got {n}")
        rows = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._hash = None

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "Graph":
        """Build from precomputed bitset rows, validating symmetry."""
        rows = tuple(map(operator.index, rows))
        if n < 1 or len(rows) != n:
            raise ValueError(f"need {n} rows, got {len(rows)}")
        g = cls.__new__(cls)
        g.n = n
        g.rows = rows
        g._hash = None
        mask = (1 << n) - 1
        for v, r in enumerate(rows):
            if r & ~mask:
                raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
            if r >> v & 1:
                raise ValueError(f"loop at vertex {v} not allowed")
        for u in range(n):
            for v in _bits(rows[u]):
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return g

    @classmethod
    def _from_rows_unchecked(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        # Fast path for the scanner; caller guarantees symmetry.
        g = cls.__new__(cls)
        g.n = n
        g.rows = rows
        g._hash = None
        return g

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return list(map(int.bit_count, self.rows))

    def max_degree(self) -> int:
        return max(self.degrees())

    def min_degree(self) -> int:
        return min(self.degrees())

    @property
    def m(self) -> int:
        """Number of edges."""
        total = sum(r.bit_count() for r in self.rows)
        return total // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(r):
                yield (u, v)

    def add_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge (u, v) added."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u},{v})")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_rows_unchecked(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge (u, v) removed."""
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u},{v})")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._from_rows_unchecked(self.n, tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """New graph with vertex v renamed to perm[v]."""
        perm = list(map(operator.index, perm))
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        rows = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                rows[perm[u]] |= 1 << perm[v]
        return Graph._from_rows_unchecked(self.n, tuple(rows))

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return _reach(self.rows, 1, full) == full

    def cut_vertices(self) -> frozenset[int]:
        """Articulation vertices: the v for which G - v is disconnected.

        Input must be connected, which one `_reach` from vertex 0 checks.
        Then v is a cut vertex iff `_reach` inside G - v, started at its
        lowest vertex, misses part of G - v (`_separates`): the rule that
        `scan._connected_filter` applies to many graphs at once.
        """
        rows, full = self.rows, (1 << self.n) - 1
        if _reach(rows, 1, full) != full:
            raise ValueError("cut_vertices requires a connected graph")
        return frozenset(v for v in range(self.n) if _separates(rows, v, full))

    def is_2_connected(self) -> bool:
        """Connected with no cut vertex.  Defined only for n >= 3."""
        if self.n < 3:
            raise ValueError("2-connectivity is defined for n >= 3")
        try:
            return not self.cut_vertices()
        except ValueError:  # cut_vertices rejects a disconnected graph
            return False

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced by the given vertex set, relabelled 0..k-1."""
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("induced_subgraph needs a nonempty vertex set")
        if vs[0] < 0 or vs[-1] >= self.n:
            raise ValueError("vertex set not contained in the graph")
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for v in vs:
            for w in _bits(self.rows[v]):
                if w in index:
                    rows[index[v]] |= 1 << index[w]
        return Graph._from_rows_unchecked(len(vs), tuple(rows))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _bits(x: int) -> Iterator[int]:
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _low(x: int) -> int:
    """Index of the lowest set bit of x."""
    return (x & -x).bit_length() - 1


def _reach(rows, start_mask: int, alive: int) -> int:
    """Vertices reachable from start_mask inside alive, as a bitmask."""
    visited = start_mask & alive
    frontier = visited
    while frontier:
        nxt = 0
        while frontier:  # _bits inlined: spanning_trees runs this at every branch
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~visited
        visited |= frontier
    return visited


def _separates(rows, v: int, full: int) -> bool:
    """Whether removing v disconnects the rest of the vertex set `full`:
    the reach from the lowest other vertex misses part of full - v."""
    alive = full ^ (1 << v)
    return _reach(rows, 2 if v == 0 else 1, alive) != alive


# -- the colex edge-slot code -------------------------------------------------


@cache
def edge_slots(n: int) -> tuple[tuple[int, int], ...]:
    """The C(n, 2) vertex pairs (i, j), i < j, in colex order (by j, then i).

    Slot b is bit b of an edge mask and data bit b of a graph6 record, so
    this is the one definition of the order that graph6, the scan engine
    and labeled enumeration share.
    """
    return tuple((i, j) for j in range(n) for i in range(j))


# Byte k of a graph6 record carries data bits 6k..6k+5 from its high bit down,
# so a 6-bit group read in reverse is that byte's share of the edge mask.
_REVERSED6 = tuple(int(f"{c:06b}"[::-1], 2) for c in range(64))


@cache
def _row_tables(n: int):
    """The row tables of graph6 decode and `graph_from_mask` for order n,
    built on first use.

    All n adjacency rows are packed into one int, row v at bit v * 8w with
    w = 1, 2, 4 or 8 bytes per row, the least that holds n bits.  Table k
    is indexed by the raw value c = 0..255 of data byte k of a graph6
    record, which carries slots 6k..6k+5 from its high bit down: entry c
    is the packed rows of the edges whose bits c - 63 sets, or None when c
    is outside 63..126 or, in the last table, sets a padding bit.  So a
    record's rows are the OR of one entry per data byte, and the entries
    are disjoint.  Returns the tables, the packed length in bytes and the
    `struct.Struct` that unpacks those bytes into the row tuple.  The
    tables take about 27 KB at n = 9 and 8.2 MB at n = 62, built in
    0.1-0.5 ms and 11-40 ms on a shared 2-vCPU Xeon VM; being built on
    first use, they cost nothing at import.
    """
    w = next(w for w in (1, 2, 4, 8) if n <= 8 * w)
    slots = edge_slots(n)
    tables = []
    for k in range(0, len(slots), 6):
        group = slots[k:k + 6]
        # the low 6 - len(group) bits of the last byte are padding
        table = [0] + [None] * ((1 << 6 - len(group)) - 1)
        for i, j in reversed(group):
            edge = 1 << (8 * w * i + j) | 1 << (8 * w * j + i)
            table += [None if packed is None else packed | edge for packed in table]
        tables.append((None,) * 63 + tuple(table) + (None,) * 129)
    return tuple(tables), n * w, struct.Struct(f"<{n}{'BHIQ'[w.bit_length() - 1]}")


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph whose edges are the slots of the set bits of `mask`.

    Takes 1 <= n <= 64 and 0 <= mask < 2^C(n, 2), and raises ValueError
    otherwise.  One lookup per 6-bit group of the mask in the order's
    `_row_tables`, at the graph6 byte that carries the group, then one
    unpack of the packed rows.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"graph_from_mask takes orders 1..64, got {n}")
    if not 0 <= mask < 1 << n * (n - 1) // 2:
        raise ValueError(f"mask {mask} is outside 0..2^{n * (n - 1) // 2} for n={n}")
    tables, nbytes, unpack = _row_tables(n)
    packed = 0
    for table in tables:
        packed |= table[_REVERSED6[mask & 63] + 63]
        mask >>= 6
    return Graph._from_rows_unchecked(n, unpack.unpack(packed.to_bytes(nbytes, "little")))


def mask_of_graph(g: Graph) -> int:
    """The edge mask of g: bit b is set when slot b is an edge.  Column j
    holds the slots (i, j), i < j, from bit j(j-1)/2 on, so it is the low
    j bits of row j."""
    mask = 0
    for j, row in enumerate(g.rows):
        mask |= (row & ((1 << j) - 1)) << j * (j - 1) // 2
    return mask


# -- named families ---------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph._from_rows_unchecked(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete bipartite needs p, q >= 1")
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def star(n: int) -> Graph:
    """Star on n vertices (one center joined to n - 1 leaves)."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return complete_bipartite(1, n - 1)


def family_L(n: int) -> Graph:
    """Clique on n - 2 vertices with a two-vertex pendant path.

    Canonical labelling: vertices 0, 1 form the pendant path (0 is the
    pendant end), vertex 2 is the clique attachment point, and vertices
    2..n-1 induce the clique.
    """
    if n < 4:
        raise ValueError("this family needs n >= 4")
    edges = [(0, 1), (1, 2)]
    edges += combinations(range(2, n), 2)
    return Graph(n, edges)


def family_B(n: int) -> Graph:
    """Clique on n - 3 vertices plus a 3-vertex path attached at both ends.

    Canonical labelling: vertices 0, 1, 2 form the path (1 in the middle),
    its ends 0 and 2 join clique vertices 3 and 4 respectively, and
    vertices 3..n-1 induce the clique.
    """
    if n < 6:
        raise ValueError("this family needs n >= 6")
    edges = [(0, 1), (1, 2), (0, 3), (2, 4)]
    edges += combinations(range(3, n), 2)
    return Graph(n, edges)


_FAMILIES = {
    "complete": (complete, 1),
    "K": (complete, 1),
    "path": (path_graph, 1),
    "P": (path_graph, 1),
    "cycle": (cycle, 1),
    "C": (cycle, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "Kpq": (complete_bipartite, 2),
    "star": (star, 1),
    "L": (family_L, 1),
    "B": (family_B, 1),
}


def make_family(name: str, *params: int) -> Graph:
    """Construct a named family member, e.g. make_family("L", 7)."""
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    ctor, arity = _FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} takes {arity} parameter(s), got {len(params)}")
    return ctor(*params)


# -- rigid-family recognition ------------------------------------------------
#
# Both families are uniquely determined by the adjacency pattern around
# their low-degree vertices plus completeness of the remaining clique, so
# recognition never needs a general isomorphism engine.


def is_family_L(g: Graph) -> bool:
    """Whether g is isomorphic to the pendant-path family of its order:
    some degree-1 vertex p has a degree-2 neighbour q, and V - {p, q} is
    a clique."""
    if g.n < 4:
        return False
    full = (1 << g.n) - 1
    for p, row in enumerate(g.rows):
        if (row.bit_count() == 1 and g.rows[row.bit_length() - 1].bit_count() == 2
                and _is_clique(g, full ^ row ^ (1 << p))):
            return True
    return False


def is_family_B(g: Graph) -> bool:
    """Whether g is isomorphic to the attached-3-path family of its order:
    n >= 6 and removing the inner vertices s1, s2, s3 of some ear (see
    `_ears`) leaves a clique."""
    if g.n < 6:
        return False
    full = (1 << g.n) - 1
    for _, s1, s2, s3, _ in _ears(g, g.degrees()):
        if _is_clique(g, full ^ (1 << s1) ^ (1 << s2) ^ (1 << s3)):
            return True
    return False


def _ears(g: Graph, degs) -> Iterator[tuple[int, int, int, int, int]]:
    """The degree-2 ears s0-s1-s2-s3-s4 of g, given its degree list.

    For each degree-2 vertex s2 in increasing order, s1 and s3 are its
    lower and higher neighbours.  When both also have degree 2, s0 and s4
    are their other neighbours, and the ear is yielded if the five
    vertices are distinct.  The B_n recognizer and the P5 no-HIST
    certificate (`hist.no_hist_certificate`) share this walk.
    """
    rows = g.rows
    for s2, d in enumerate(degs):
        if d != 2:
            continue
        s1, s3 = _low(rows[s2]), rows[s2].bit_length() - 1
        if degs[s1] != 2 or degs[s3] != 2:
            continue
        s0 = (rows[s1] ^ (1 << s2)).bit_length() - 1
        s4 = (rows[s3] ^ (1 << s2)).bit_length() - 1
        if len({s0, s1, s2, s3, s4}) == 5:
            yield s0, s1, s2, s3, s4


def _is_clique(g: Graph, member_mask: int) -> bool:
    for v in _bits(member_mask):
        if g.rows[v] & member_mask != member_mask ^ (1 << v):
            return False
    return True

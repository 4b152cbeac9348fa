"""Exact HIST decision and extraction.

A HIST (homeomorphically irreducible spanning tree) is a spanning tree
with no vertex of degree exactly 2.  This module provides:

  * fast no-HIST certificates (a degree-2 cut vertex, or a 5-vertex path
    whose three interior vertices have degree 2 and whose ends have
    degree >= 3; the path is a `graphs._ears` ear, the walk the B_n
    recognizer shares);
  * a complete search that grows spanning trees from a root, each vertex
    choosing all its children at once so that none has tree degree 2,
    and that cuts a branch once some unplaced vertex can no longer get a
    parent that takes two or more children (find_hist), after the
    degree-2 leaf rule below; a queued vertex left with at most one
    unplaced neighbour is forced to stay a leaf and is settled without
    that cut's check, and one placement list with a parent array holds
    the tree grown so far;
  * an independent brute-force oracle enumerating all spanning trees by
    deletion/contraction (oracle_hist): an edge is taken when one `_reach`
    over the taken edges' bit rows misses its far end, and skipped when
    one `_reach` over the edges not yet skipped still spans the graph;
  * a deterministic constructor that replays the case analysis of the
    degree-driven existence proofs (proof_guided_hist).  Every tree it
    builds has one shape: the star of a maximum-degree vertex minus some
    leaves plus a few edges.  Each case tries such candidates in a fixed
    order and keeps the first HIST.

Convention for tiny graphs: trees on at most 2 vertices have no degree-2
vertex, so orders 1 and 2 trivially have HISTs; connected graphs of order
3 never do (every spanning tree is a 3-vertex path).

Degree-2 leaf rule: for n >= 3 let D be the vertices of degree 2.  A
vertex of D has tree degree 1 or 2 in any spanning tree, so it is a leaf
of every HIST; its tree neighbour is not a leaf too, or the two would form
a component of their own.  Deleting leaves from a tree leaves a tree, so
a HIST minus D is a spanning tree of G - D.  Hence no HIST exists when
G - D is empty or disconnected, or when some vertex of D has no neighbour
outside D.  Inside the growth search the rule needs no code of its own: a
placed vertex of D has at most one unplaced neighbour, and a non-root
vertex may not take exactly one child, so it always stays a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .graphs import (Graph, _bits, _ears, _is_clique, _low, _reach, _separates, is_family_B,
                     is_family_L)
from .spectral import THEOREMS, InvariantViolation

DEFAULT_SEARCH_BUDGET = 5_000_000
DEFAULT_TREE_CAP = 10_000_000

CUT_VERTEX_DEG2 = "cut_vertex_deg2"
P5_PATTERN = "p5_pattern"
EXHAUSTED_SEARCH = "exhausted_search"


class SearchBudgetError(RuntimeError):
    """Search aborted by the configured node budget; not a verdict."""


@dataclass(frozen=True)
class Certificate:
    """Structural witness that a graph has no HIST."""

    kind: str  # cut_vertex_deg2 | p5_pattern | exhausted_search
    vertices: tuple[int, ...] = ()

    def __str__(self):
        if self.kind == CUT_VERTEX_DEG2:
            return f"cut vertex {self.vertices[0]} of degree 2"
        if self.kind == P5_PATTERN:
            return "degree-2 chain " + "-".join(map(str, self.vertices))
        return "exhausted search space"


@dataclass(frozen=True)
class HistOutcome:
    """Either a witness tree or a no-HIST certificate."""

    found: bool
    tree_edges: tuple[tuple[int, int], ...] | None = None
    certificate: Certificate | None = None

    def __post_init__(self):
        has_tree, has_cert = self.tree_edges is not None, self.certificate is not None
        if (has_tree, has_cert) != (self.found, not self.found):
            raise InvariantViolation(
                f"HistOutcome(found={self.found}) needs "
                + ("a tree and no certificate" if self.found else "a certificate and no tree"))


def is_valid_hist(g: Graph, edges) -> bool:
    """Independent validation: spanning, acyclic, connected, no degree 2.

    Every edge must join two vertices 0..n-1 of g, adjacent by g's row
    bit.  It runs a union-find of its own, inline, rather than the
    `_reach` that `spanning_trees` and `find_hist` share, so a fault in
    that routine cannot pass a tree the search or proof replay returns:
    n - 1 edges that never close a cycle form a spanning tree.
    """
    edges = list(edges)
    n = g.n
    if len(edges) != n - 1:
        return False
    rows = g.rows
    deg = [0] * n
    parent = list(range(n))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
            return False
        ru, rv = u, v
        while parent[ru] != ru:  # path halving
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            return False
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    return 2 not in deg


# -- certificates -------------------------------------------------------------


def no_hist_certificate(g: Graph) -> Optional[Certificate]:
    """Cheap structural proof that no HIST exists, if one applies.

    Absence of a certificate does NOT imply a HIST exists.
    """
    if g.n < 3:
        raise ValueError("certificates are defined for n >= 3")
    if not g.is_connected():
        raise ValueError("certificates require a connected graph")
    degs = g.degrees()
    full = (1 << g.n) - 1
    for v in range(g.n):
        if degs[v] == 2 and _separates(g.rows, v, full):
            return Certificate(CUT_VERTEX_DEG2, (v,))
    for ear in _ears(g, degs):
        if degs[ear[0]] >= 3 and degs[ear[4]] >= 3:
            return Certificate(P5_PATTERN, ear)
    return None


# -- complete tree-growth search ----------------------------------------------


def find_hist(g: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> HistOutcome:
    """Exact HIST decision: certificate first, then a complete tree-growth search.

    The search first rejects graphs whose non-degree-2 core G - D is empty
    or disconnected or misses some degree-2 vertex (module docstring).
    Otherwise it grows a tree from the root, the lowest vertex of maximum
    degree in the core, taking placed vertices first in, first out.  Each
    vertex chooses its whole set of children at once among its unplaced
    neighbours, larger sets first; a set that would give it tree degree 2
    (one child, or for the root zero or two) is skipped.  Call a core
    vertex an adopter when it is queued or unplaced and has two or more
    unplaced neighbours.  A branch is pruned unless every unplaced vertex
    is adjacent to an adopter that a path of adopters joins to a queued
    adopter.

    Complete: a vertex is placed only by its tree parent, so when a vertex
    chooses, all of its tree children are still unplaced.  Every spanning
    tree rooted at the root is therefore the outcome of exactly one branch.
    The prune cuts only branches with no HIST below them.  In a completion,
    the parent of an unplaced vertex chooses later (if queued) or is
    itself unplaced; either way all its children are unplaced now, it
    takes at least two of them, as no non-root vertex takes exactly one,
    and it is not of degree 2, as those stay leaves.  So it is an adopter,
    and so is every ancestor up to the first queued one.  The prune keeps
    the depth-first order, so the first HIST found is the one the search
    without it would find, and the search's "no" is EXHAUSTED_SEARCH.

    A queued non-root vertex with at most one unplaced neighbour is
    forced: its one legal child set is the empty one.  It is no adopter,
    so dropping it from the queue leaves the prune's answer as it was when
    its state was admitted.  Forced vertices are settled in a loop, with
    no prune check and no recursion.  The vertices are kept in one list in
    placement order, whose tail from an index on is the queue; it is cut
    back on backtrack, and a parent array holds the tree edges.

    The budget counts the child sets examined, a forced vertex's empty set
    included; exceeding it raises SearchBudgetError.  Runs are
    deterministic.  A disconnected graph raises ValueError; from n = 3 on,
    no_hist_certificate makes that check.
    """
    if g.n <= 2:
        if not g.is_connected():
            raise ValueError("find_hist requires a connected graph")
        return HistOutcome(found=True, tree_edges=tuple(g.edges()))
    cert = no_hist_certificate(g)
    if cert is not None:
        return HistOutcome(found=False, certificate=cert)
    tree = _backtrack_hist(g, budget)
    if tree is None:
        return HistOutcome(found=False, certificate=Certificate(EXHAUSTED_SEARCH))
    if not is_valid_hist(g, tree):
        raise InvariantViolation(f"search returned a non-HIST tree {tree}")
    return HistOutcome(found=True, tree_edges=tuple(tree))


def _backtrack_hist(g: Graph, budget: int):
    n = g.n
    full = (1 << n) - 1
    rows = g.rows
    degs = g.degrees()
    leaves = sum(1 << v for v in range(n) if degs[v] == 2)
    core = full & ~leaves
    if (not core or _reach(rows, core & -core, core) != core
            or any(not rows[v] & core for v in _bits(leaves))):
        return None
    root = max(_bits(core), key=lambda v: (degs[v], -v))
    order = [root]  # placement order; order[head:] is the queue
    parent = [root] * n
    nodes = 0

    def grow(head, waiting, placed):
        # waiting: the queued vertices order[head:] as a bitmask.
        nonlocal nodes
        if placed == full:
            return True
        v = order[head]
        free = rows[v] & ~placed
        while v != root and free.bit_count() < 2:  # forced: no children
            nodes += 1
            if nodes > budget:
                raise SearchBudgetError(
                    f"HIST search exceeded budget of {budget} nodes"
                )
            waiting ^= 1 << v
            head += 1
            if head == len(order):  # the queue ran dry with vertices unplaced
                return False
            v = order[head]
            free = rows[v] & ~placed
        waiting ^= 1 << v
        banned = (0, 2) if v == root else (1,)  # child counts giving tree degree 2
        size = len(order)
        kids = free
        while True:
            if kids.bit_count() not in banned:
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetError(
                        f"HIST search exceeded budget of {budget} nodes"
                    )
                now, after = placed | kids, waiting | kids
                if _covered(rows, core, now, after) == full:
                    for w in _bits(kids):
                        order.append(w)
                        parent[w] = v
                    if grow(head + 1, after, now):
                        return True
                    del order[size:]
            if not kids:
                return False
            kids = (kids - 1) & free

    if not grow(0, 1 << root, 1 << root):
        return None
    return sorted((min(v, parent[v]), max(v, parent[v])) for v in order[1:])


def _covered(rows, core, placed, queued) -> int:
    """The placed vertices plus those that can still get a tree parent.

    An adopter is a queued or unplaced core vertex with at least two
    unplaced neighbours.  Every parent of an unplaced vertex is one
    (find_hist's docstring), so every unplaced vertex of a completion is
    adjacent to an adopter that a chain of adopters joins to a queued one.
    The search walks those chains from the queued core vertices.
    """
    free = ~placed
    covered = placed
    seen = frontier = queued & core
    while frontier:
        nxt = 0
        while frontier:  # _bits inlined, as in graphs._reach: once per child set tried
            low = frontier & -frontier
            kids = rows[low.bit_length() - 1] & free
            if kids & (kids - 1):  # an adopter: two or more unplaced neighbours
                nxt |= kids
            frontier ^= low
        covered |= nxt
        frontier = nxt & core & ~seen
        seen |= frontier
    return covered


# -- spanning tree enumeration (independent oracle) ----------------------------


def spanning_trees(g: Graph) -> Iterator[tuple[tuple[int, int], ...]]:
    """Lazily enumerate all spanning trees by edge deletion/contraction.

    Edges are decided in the order of g.edges().  Two lists of bit rows
    follow the current branch: `taken`, the edges taken, and `usable`,
    every edge of g not skipped.  The next edge ab that joins two parts of
    `taken` (one `_reach` from a misses b) is first taken, then skipped
    if `usable` without ab still reaches every vertex.  An edge passed
    over because it closes a cycle in `taken` stays in `usable`; it lies
    inside one part of `taken`, so it changes no reachability answer.
    Every branch thus ends in a tree.  Deterministic order; each yielded
    tree is a tuple of edges of g, and a disconnected graph yields none.
    """
    if not g.is_connected():
        return
    n = g.n
    full = (1 << n) - 1
    edge_list = list(g.edges())
    m = len(edge_list)
    taken = [0] * n
    usable = list(g.rows)
    chosen = []

    def rec(j):
        if len(chosen) == n - 1:
            yield tuple(chosen)
            return
        while j < m:
            a, b = edge_list[j]
            if not _reach(taken, 1 << a, full) >> b & 1:
                break
            j += 1
        else:
            return
        bit_a, bit_b = 1 << a, 1 << b
        taken[a] |= bit_b
        taken[b] |= bit_a
        chosen.append((a, b))
        yield from rec(j + 1)
        chosen.pop()
        taken[a] ^= bit_b
        taken[b] ^= bit_a
        usable[a] ^= bit_b
        usable[b] ^= bit_a
        if _reach(usable, 1, full) == full:
            yield from rec(j + 1)
        usable[a] |= bit_b
        usable[b] |= bit_a

    yield from rec(0)


def oracle_hist(g: Graph, tree_cap: int = DEFAULT_TREE_CAP) -> HistOutcome:
    """Brute-force HIST verdict by scanning all spanning trees.

    Stops at the first tree with no degree-2 vertex; exhausting the
    enumeration without a hit is an exact NoHist verdict.  The cap bounds
    the number of trees examined and raises rather than guessing.
    """
    if not g.is_connected():
        raise ValueError("oracle_hist requires a connected graph")
    n = g.n
    seen = 0
    for tree in spanning_trees(g):
        seen += 1
        if seen > tree_cap:
            raise SearchBudgetError(f"spanning tree cap {tree_cap} exceeded")
        deg = [0] * n
        for u, v in tree:
            deg[u] += 1
            deg[v] += 1
        if 2 not in deg:
            return HistOutcome(found=True, tree_edges=tree)
    return HistOutcome(found=False, certificate=Certificate(EXHAUSTED_SEARCH))


# -- proof-guided construction --------------------------------------------------


@dataclass(frozen=True)
class ProofTrace:
    """Replay record of one case of the degree-driven existence argument.

    Exactly one of outcome / recognized_family is set when the case is
    resolved; both stay None for configurations outside the constructive
    cases (those the argument eliminates by edge counting under the
    spectral hypothesis, which this operation does not assume).
    """

    case_label: str
    vertex_roles: dict[str, int] = field(default_factory=dict)
    outcome: HistOutcome | None = None
    recognized_family: str | None = None

    def __post_init__(self):
        vals = self.vertex_roles.values()
        if len(vals) != len(set(vals)):
            raise InvariantViolation(f"duplicate vertices in roles {self.vertex_roles}")

    @property
    def found_tree(self) -> bool:
        return self.outcome is not None and self.outcome.found

    @property
    def outside(self) -> bool:
        return self.outcome is None and self.recognized_family is None


_REPLAY_SPECS = {spec.replay: spec for spec in THEOREMS}


def proof_guided_hist(g: Graph, theorem: str) -> ProofTrace:
    """Deterministically replay the applicable existence-proof case.

    theorem is the replay name of a TheoremSpec: "one_connected" (THM1)
    or "two_connected" (THM2).  The graph needs the spec's connectivity
    and order >= its order floor.  Returns a trace that either carries an
    explicit HIST, recognizes the extremal family, or reports the
    configuration as outside the constructive cases.  The cases cover
    max degree n - degree_gap and up; a graph below that, which only a
    threshold under the theorem's lets through, gets the outside trace
    "<theorem>/max-degree<n-<gap>/outside:below-range".

    The hub is the lowest vertex of maximum degree Δ, and the outsiders
    are the n - 1 - Δ vertices it misses.  Every tree a case builds is the
    hub's star minus some leaves plus a few edges.  Each case yields such
    candidates in a fixed order, and _first_hist keeps the first one that
    is a HIST.
    """
    n = g.n
    spec = _REPLAY_SPECS.get(theorem)
    if spec is None:
        raise ValueError("theorem must be 'one_connected' or 'two_connected'")
    if n < spec.order_floor:
        raise ValueError(f"{theorem} replay needs n >= {spec.order_floor}")
    if not spec.admits(g):
        raise ValueError(f"{theorem} replay needs a {spec.connectivity} graph")
    degs = g.degrees()
    delta = max(degs)
    if delta < n - spec.degree_gap:
        return ProofTrace(f"{theorem}/max-degree<n-{spec.degree_gap}/outside:below-range")
    hub = degs.index(delta)
    missed = ((1 << n) - 1) ^ g.rows[hub] ^ (1 << hub)  # the outsiders
    if missed.bit_count() != n - 1 - delta:  # the hub's row holds its own bit, a loop
        raise ValueError(f"{theorem} replay needs a simple graph: vertex {hub} has "
                         f"degree {delta} but misses {missed.bit_count()} vertices")

    if delta == n - 1:
        return _emit(g, hub, f"{theorem}/max-degree=n-1/star", {"hub": hub}, [])
    last = missed.bit_length() - 1
    if theorem == "one_connected":
        return _guided_one_connected(g, hub, last)
    if delta == n - 2:
        return _guided_two_missing_one(g, hub, last)
    return _guided_two_missing_two(g, hub, _low(missed), last)


def _first_hist(g, hub, candidates) -> ProofTrace | None:
    """Trace of the first candidate whose tree is a HIST, else None.

    A candidate is (label, roles, removed, extra).  Its tree is the hub's
    star minus the leaves in the bitmask `removed`, plus the edge list
    `extra`.
    """
    for label, roles, removed, extra in candidates:
        tree = extra + [(hub, w) for w in _bits(g.rows[hub] & ~removed)]
        if is_valid_hist(g, tree):
            tree.sort()
            return ProofTrace(label, roles, HistOutcome(True, tuple(tree)))
    return None


def _emit(g, hub, label, roles, extra) -> ProofTrace:
    """The whole star plus `extra`, which the proof guarantees is a HIST."""
    trace = _first_hist(g, hub, [(label, roles, 0, extra)])
    if trace is None:
        tree = [(hub, w) for w in _bits(g.rows[hub])] + extra
        raise InvariantViolation(f"case {label} emitted a non-HIST tree {tree}")
    return trace


def _roles(**kv) -> dict[str, int]:
    """Role map keeping the first name for any repeated vertex."""
    out = {}
    for k, v in kv.items():
        if v not in out.values():
            out[k] = v
    return out


def _guided_one_connected(g: Graph, x: int, y: int) -> ProofTrace:
    """Connected case with max degree n-2: detour tree or family recognition."""
    hit = _first_hist(g, x, _detours(g, x, y))
    if hit:
        return hit
    attach = g.rows[y]  # neighbors of y, all inside N(x)
    if attach.bit_count() != 1:
        return ProofTrace("one_connected/max-degree=n-2/outside:multiple-attachments",
                          _roles(hub=x, outsider=y))
    x1 = attach.bit_length() - 1
    roles = _roles(hub=x, outsider=y, bridge=x1)
    if not _is_clique(g, ((1 << g.n) - 1) ^ (1 << y) ^ (1 << x1)):
        return ProofTrace("one_connected/max-degree=n-2/outside:incomplete-clique", roles)
    if not is_family_L(g):
        raise InvariantViolation("pendant chain found but family check failed")
    return ProofTrace("one_connected/max-degree=n-2/pendant-chain", roles,
                      recognized_family="L")


def _detours(g: Graph, x, y):
    """Candidates of the connected case with max degree n-2."""
    attach = g.rows[y]  # neighbors of y, all inside N(x)
    for x_i in _bits(attach):
        for x_j in _bits(g.rows[x_i] & g.rows[x]):
            yield ("one_connected/max-degree=n-2/detour",
                   _roles(hub=x, outsider=y, pivot=x_i, detour=x_j), 1 << x_j,
                   [(x_i, y), (x_i, x_j)])


def _guided_two_missing_one(g: Graph, u: int, v: int) -> ProofTrace:
    """2-connected case with max degree n-2."""
    hit = _first_hist(g, u, _missing_one(g, u, v))
    if hit:
        return hit
    nu, nv = g.rows[u], g.rows[v]  # N(v) is inside N(u)
    # A candidate, when one exists, is a HIST.  Without one N(v) is
    # independent and, as u is no cut vertex, equal to N(u): the graph is
    # K_{2,n-2}, which the proof eliminates by counting.
    if nv != nu:
        raise InvariantViolation("no neighbor-pair or cross-edge HIST, yet N(v) != N(u)")
    return ProofTrace("two_connected/max-degree=n-2/outside:complete-bipartite",
                      _roles(hub=u, outsider=v))


def _missing_one(g: Graph, u, v):
    """Candidates of the 2-connected case with max degree n-2."""
    nu, nv = g.rows[u], g.rows[v]  # N(v) is inside N(u)
    for u_r in _bits(nv):
        for u_s in _bits(g.rows[u_r] & nv):
            yield ("two_connected/max-degree=n-2/neighbor-pair",
                   _roles(hub=u, outsider=v, pivot=u_r, mate=u_s), 1 << u_s,
                   [(u_r, v), (u_r, u_s)])
    for u_i in _bits(nv):
        for u_j in _bits(g.rows[u_i] & (nu ^ nv)):
            yield ("two_connected/max-degree=n-2/cross-edge",
                   _roles(hub=u, outsider=v, pivot=u_i, detour=u_j), 1 << u_j,
                   [(v, u_i), (u_i, u_j)])


def _guided_two_missing_two(g: Graph, u: int, v1: int, v2: int) -> ProofTrace:
    """2-connected case with max degree n-3 (two vertices outside N[u])."""
    common = g.rows[v1] & g.rows[v2]
    if common:
        u1 = _low(common)
        return _emit(g, u, "two_connected/max-degree=n-3/common-neighbor",
                     _roles(hub=u, first=v1, second=v2, anchor=u1), [(u1, v1), (u1, v2)])
    base = _roles(hub=u, first=v1, second=v2)
    if not g.has_edge(v1, v2):
        return _first_hist(g, u, _nonadjacent_pair(g, u, v1, v2, base)) or ProofTrace(
            "two_connected/max-degree=n-3/nonadjacent-pair/outside:unresolved", base)
    hit = _first_hist(g, u, _adjacent_pair(g, u, v1, v2, base))
    if hit:
        return hit
    if is_family_B(g):
        return ProofTrace("two_connected/max-degree=n-3/adjacent-pair/pendant-chain", base,
                          recognized_family="B")
    return ProofTrace("two_connected/max-degree=n-3/adjacent-pair/outside:unresolved", base)


def _adjacent_pair(g: Graph, u, v1, v2, base):
    """Candidates when the two outsiders are adjacent."""
    side1 = g.rows[v1] ^ (1 << v2)
    side2 = g.rows[v2] ^ (1 << v1)
    outer = g.rows[u] ^ side1 ^ side2

    # Cross edge between the two private neighborhoods, with a spare vertex
    # on one side to re-anchor the outsiders.
    for w1 in _bits(side1):
        for w2 in _bits(g.rows[w1] & side2):
            if side1.bit_count() >= 2:
                alpha = _low(side1 ^ (1 << w1))
                yield ("two_connected/max-degree=n-3/adjacent-pair/cross-edge",
                       {**base, **_roles(near=w1, far=w2, spare=alpha)}, (1 << alpha) | (1 << w2),
                       [(alpha, v1), (w1, v1), (w1, w2), (v1, v2)])
            if side2.bit_count() >= 2:
                beta = _low(side2 ^ (1 << w2))
                yield ("two_connected/max-degree=n-3/adjacent-pair/cross-edge",
                       {**base, **_roles(near=w1, far=w2, spare=beta)}, (1 << w1) | (1 << beta),
                       [(w1, w2), (w2, v2), (v1, v2), (v2, beta)])

    # Edge from one side into the shared remainder, again with a spare.
    for side, v_s, v_t in ((side1, v1, v2), (side2, v2, v1)):
        if side.bit_count() < 2:
            continue
        for w in _bits(side):
            gamma = _low(side ^ (1 << w))
            for z in _bits(g.rows[w] & outer):
                yield ("two_connected/max-degree=n-3/adjacent-pair/outer-edge",
                       {**base, **_roles(carrier=w, outer=z, spare=gamma)}, (1 << gamma) | (1 << z),
                       [(w, z), (gamma, v_s), (w, v_s), (v_s, v_t)])

    # A side vertex with an extra neighbor (degree above 2) gives a detour.
    for side, other, v_s, v_t in ((side1, side2, v1, v2), (side2, side1, v2, v1)):
        for alpha in _bits(side):
            for u_p in _bits(g.rows[alpha] & ~(1 << u) & ~(1 << v_s)):
                if (other | outer) >> u_p & 1:
                    if side.bit_count() >= 2:
                        u_c = _low(side ^ (1 << alpha))
                        yield ("two_connected/max-degree=n-3/adjacent-pair/branch-vertex",
                               {**base, **_roles(branch=alpha, target=u_p, spare=u_c)},
                               (1 << u_c) | (1 << u_p),
                               [(alpha, u_p), (alpha, v_s), (v_s, v_t), (v_s, u_c)])
                    continue
                # target inside the same side: pair with an outer edge from
                # the opposite side.
                for w in _bits(other):
                    for z in _bits(g.rows[w] & outer):
                        yield ("two_connected/max-degree=n-3/adjacent-pair/branch-vertex",
                               {**base, **_roles(branch=alpha, target=u_p, carrier=w, outer=z)},
                               (1 << u_p) | (1 << z), [(alpha, u_p), (alpha, v_s), (w, v_t), (w, z)])


def _nonadjacent_pair(g: Graph, u, v1, v2, base):
    """Candidates when the two outsiders are not adjacent."""
    p_side, q_side = g.rows[v1], g.rows[v2]
    outer = g.rows[u] ^ p_side ^ q_side
    cross = [(a, b) for a in _bits(p_side) for b in _bits(g.rows[a] & q_side)]

    if not cross:
        for alpha in _bits(p_side):
            for j in _bits(g.rows[alpha] & outer):
                for beta in _bits(q_side):
                    for k in _bits(g.rows[beta] & outer & ~(1 << j)):
                        yield ("two_connected/max-degree=n-3/nonadjacent-pair/two-outer",
                               {**base, **_roles(left=alpha, left_out=j, right=beta, right_out=k)},
                               (1 << j) | (1 << k), [(alpha, v1), (alpha, j), (beta, v2), (beta, k)])
        return

    if len(cross) >= 2:
        (i, k), (j, l) = cross[0], cross[1]
        if i != j and k != l:
            removed, extra = (1 << i) | (1 << l), [(j, v1), (j, l), (i, k), (k, v2)]
        elif i == j:
            removed, extra = (1 << j) | (1 << l), [(j, v1), (j, l), (j, k), (k, v2)]
        else:
            removed, extra = (1 << j) | (1 << l), [(i, v1), (i, l), (j, l), (l, v2)]
        yield ("two_connected/max-degree=n-3/nonadjacent-pair/double-cross",
               {**base, **_roles(a1=i, b1=k, a2=j, b2=l)}, removed, extra)

    a_p, b_q = cross[0]
    # an inner edge on either side
    for side, v_a, v_b, link_a, link_b in ((p_side, v1, v2, a_p, b_q), (q_side, v2, v1, b_q, a_p)):
        for s in _bits(side):
            for t in _bits(g.rows[s] & side):
                yield ("two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-inner",
                       {**base, **_roles(inner_a=s, inner_b=t, link_a=link_a, link_b=link_b)},
                       (1 << s) | (1 << link_a), [(t, v_a), (s, t), (link_a, link_b), (link_b, v_b)])
    # an outer-vertex detour on either side
    for a_side, b_side, v_a, v_b in ((p_side, q_side, v1, v2), (q_side, p_side, v2, v1)):
        for alpha in _bits(a_side):
            for z in _bits(g.rows[alpha] & outer):
                for aa in _bits(a_side):
                    for bb in _bits(g.rows[aa] & b_side):
                        yield ("two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-outer",
                               {**base, **_roles(branch=alpha, outer=z, link_a=aa, link_b=bb)},
                               (1 << aa) | (1 << z), [(alpha, v_a), (alpha, z), (aa, bb), (bb, v_b)])

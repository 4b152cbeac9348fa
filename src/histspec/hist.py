"""Exact HIST decision and extraction.

A HIST (homeomorphically irreducible spanning tree) is a spanning tree
with no vertex of degree exactly 2.  This module provides:

  * fast no-HIST certificates (a degree-2 cut vertex, or a 5-vertex path
    whose three interior vertices have degree 2 and whose ends have
    degree >= 3);
  * a complete backtracking search over spanning trees with degree
    constraints (find_hist);
  * an independent brute-force oracle enumerating all spanning trees by
    deletion/contraction (oracle_hist);
  * a deterministic constructor that replays the case analysis of the
    degree-driven existence proofs (proof_guided_hist).

Convention for tiny graphs: trees on at most 2 vertices have no degree-2
vertex, so orders 1 and 2 trivially have HISTs; connected graphs of order
3 never do (every spanning tree is a 3-vertex path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .graphs import Graph, _bits, is_family_B, is_family_L
from .spectral import InvariantViolation

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
        if self.found:
            assert self.tree_edges is not None and self.certificate is None
        else:
            assert self.tree_edges is None and self.certificate is not None


def is_valid_hist(g: Graph, edges) -> bool:
    """Independent validation: spanning, acyclic, connected, no degree 2."""
    edges = list(edges)
    n = g.n
    if len(edges) != n - 1:
        return False
    deg = [0] * n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if not g.has_edge(u, v):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        deg[u] += 1
        deg[v] += 1
    return all(d != 2 for d in deg)


# -- certificates -------------------------------------------------------------


def no_hist_certificate(g: Graph) -> Optional[Certificate]:
    """Cheap structural proof that no HIST exists, if one applies.

    Absence of a certificate does NOT imply a HIST exists.
    """
    if g.n < 3:
        raise ValueError("certificates are defined for n >= 3")
    if not g.is_connected():
        raise ValueError("certificates require a connected graph")
    for v in sorted(g.cut_vertices()):
        if g.degree(v) == 2:
            return Certificate(CUT_VERTEX_DEG2, (v,))
    degs = g.degrees()
    for s2 in range(g.n):
        if degs[s2] != 2:
            continue
        row = g.rows[s2]
        s1 = (row & -row).bit_length() - 1
        s3 = (row ^ (row & -row)).bit_length() - 1
        if degs[s1] != 2 or degs[s3] != 2:
            continue
        s0 = (g.rows[s1] ^ (1 << s2)).bit_length() - 1
        s4 = (g.rows[s3] ^ (1 << s2)).bit_length() - 1
        if len({s0, s1, s2, s3, s4}) != 5:
            continue
        if degs[s0] >= 3 and degs[s4] >= 3:
            return Certificate(P5_PATTERN, (s0, s1, s2, s3, s4))
    return None


# -- complete backtracking search ---------------------------------------------


def find_hist(g: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> HistOutcome:
    """Exact HIST decision: certificate first, then complete backtracking.

    The search grows a spanning forest edge by edge.  A branch is pruned
    when some vertex is frozen at tree degree exactly 2 with no undecided
    incident edge left, or when the excluded edges disconnect what remains.
    Branching always picks the highest-degree vertex with an undecided
    edge (ties to the lowest id), so runs are deterministic.
    """
    if not g.is_connected():
        raise ValueError("find_hist requires a connected graph")
    n = g.n
    if n <= 2:
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
    edge_list = list(g.edges())
    m = len(edge_list)
    incident = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edge_list):
        incident[u].append(idx)
        incident[v].append(idx)

    UND, IN, OUT = 0, 1, 2
    status = [UND] * m
    tdeg = [0] * n
    avail = [len(incident[v]) for v in range(n)]
    cur_rows = list(g.rows)
    parent = list(range(n))
    size = [1] * n
    state = {"included": 0, "nodes": 0}
    full = (1 << n) - 1
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    trail = []

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def exclude(idx):
        u, v = edge_list[idx]
        status[idx] = OUT
        avail[u] -= 1
        avail[v] -= 1
        cur_rows[u] &= ~(1 << v)
        cur_rows[v] &= ~(1 << u)
        trail.append((OUT, idx, 0))

    def include(idx):
        u, v = edge_list[idx]
        ru, rv = find(u), find(v)
        small, big = (ru, rv) if size[ru] < size[rv] else (rv, ru)
        parent[small] = big
        size[big] += size[small]
        status[idx] = IN
        avail[u] -= 1
        avail[v] -= 1
        tdeg[u] += 1
        tdeg[v] += 1
        state["included"] += 1
        trail.append((IN, idx, small))

    def undo_to(mark):
        while len(trail) > mark:
            op, idx, small = trail.pop()
            u, v = edge_list[idx]
            status[idx] = UND
            avail[u] += 1
            avail[v] += 1
            if op == OUT:
                cur_rows[u] |= 1 << v
                cur_rows[v] |= 1 << u
            else:
                big = parent[small]
                parent[small] = small
                size[big] -= size[small]
                tdeg[u] -= 1
                tdeg[v] -= 1
                state["included"] -= 1

    def feasible():
        for v in range(n):
            if tdeg[v] == 2 and avail[v] == 0:
                return False
        visited = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= cur_rows[b.bit_length() - 1]
            frontier = nxt & ~visited
            visited |= frontier
        return visited == full

    def pick():
        for v in by_degree:
            if avail[v]:
                best = None
                for idx in incident[v]:
                    if status[idx] == UND:
                        u2, v2 = edge_list[idx]
                        other = v2 if u2 == v else u2
                        if best is None or other < best[0]:
                            best = (other, idx)
                return best[1]
        return None

    def rec():
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise SearchBudgetError(
                f"HIST search exceeded budget of {budget} nodes"
            )
        if state["included"] == n - 1:
            if all(t != 2 for t in tdeg):
                return [edge_list[i] for i in range(m) if status[i] == IN]
            return None
        idx = pick()
        if idx is None:
            return None
        u, v = edge_list[idx]
        mark = len(trail)
        if find(u) != find(v):
            include(idx)
            # Edges now joining a single component can never enter the tree.
            for j in range(m):
                if status[j] == UND:
                    a, b = edge_list[j]
                    if find(a) == find(b):
                        exclude(j)
            if feasible():
                res = rec()
                if res is not None:
                    return res
            undo_to(mark)
        exclude(idx)
        if feasible():
            res = rec()
            if res is not None:
                return res
        undo_to(mark)
        return None

    return rec()


# -- spanning tree enumeration (independent oracle) ----------------------------


def spanning_trees(g: Graph) -> Iterator[tuple[tuple[int, int], ...]]:
    """Lazily enumerate all spanning trees by edge deletion/contraction.

    Deterministic order.  Each yielded tree is a tuple of edges of g.
    """
    if not g.is_connected():
        return
    n = g.n
    edge_list = list(g.edges())
    m = len(edge_list)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    chosen = []

    def connected_without(start_idx) -> bool:
        # Would the remaining edges still connect all current components?
        probe = {v: find(v) for v in range(n)}
        groups = {}
        for v, r in probe.items():
            groups.setdefault(r, []).append(v)
        label = {}
        for i, vs in enumerate(groups.values()):
            for v in vs:
                label[v] = i
        k = len(groups)
        dsu = list(range(k))

        def f2(a):
            while dsu[a] != a:
                a = dsu[a]
            return a

        comps = k
        for j in range(start_idx, m):
            a, b = edge_list[j]
            ra, rb = f2(label[a]), f2(label[b])
            if ra != rb:
                dsu[ra] = rb
                comps -= 1
                if comps == 1:
                    return True
        return comps == 1

    def rec(idx):
        if len(chosen) == n - 1:
            yield tuple(chosen)
            return
        j = idx
        while j < m:
            a, b = edge_list[j]
            ra, rb = find(a), find(b)
            if ra != rb:
                break
            j += 1
        else:
            return
        # include edge j
        parent[ra] = rb
        chosen.append(edge_list[j])
        yield from rec(j + 1)
        chosen.pop()
        parent[ra] = ra
        # skip edge j, but only if the rest still connects everything
        if connected_without(j + 1):
            yield from rec(j + 1)

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
        vals = list(self.vertex_roles.values())
        if len(vals) != len(set(vals)):
            raise InvariantViolation(f"duplicate vertices in roles {self.vertex_roles}")

    @property
    def found_tree(self) -> bool:
        return self.outcome is not None and self.outcome.found

    @property
    def outside(self) -> bool:
        return self.outcome is None and self.recognized_family is None


def proof_guided_hist(g: Graph, theorem: str) -> ProofTrace:
    """Deterministically replay the applicable existence-proof case.

    theorem="one_connected" needs a connected graph of order >= 7 with
    max degree >= n-2; theorem="two_connected" needs a 2-connected graph
    of order >= 8 with max degree >= n-3.  Returns a trace that either
    carries an explicit HIST, recognizes the extremal family, or reports
    the configuration as outside the constructive cases.
    """
    n = g.n
    if theorem == "one_connected":
        if n < 7:
            raise ValueError("one_connected replay needs n >= 7")
        if not g.is_connected():
            raise ValueError("one_connected replay needs a connected graph")
        floor_degree = n - 2
    elif theorem == "two_connected":
        if n < 8:
            raise ValueError("two_connected replay needs n >= 8")
        if not g.is_2_connected():
            raise ValueError("two_connected replay needs a 2-connected graph")
        floor_degree = n - 3
    else:
        raise ValueError("theorem must be 'one_connected' or 'two_connected'")

    delta = g.max_degree()
    if delta < floor_degree:
        raise ValueError(f"max degree {delta} below the reachable range {floor_degree}")
    degs = g.degrees()
    hub = min(v for v in range(n) if degs[v] == delta)

    if delta == n - 1:
        tree = [(hub, w) for w in g.neighbors(hub)]
        return _emit(g, f"{theorem}/max-degree=n-1/star", {"hub": hub}, tree)
    if theorem == "one_connected":
        return _guided_one_connected(g, hub)
    if delta == n - 2:
        return _guided_two_missing_one(g, hub)
    return _guided_two_missing_two(g, hub)


def _emit(g, label, roles, tree_edges) -> ProofTrace:
    if not is_valid_hist(g, tree_edges):
        raise InvariantViolation(f"case {label} emitted a non-HIST tree {tree_edges}")
    outcome = HistOutcome(found=True, tree_edges=tuple(sorted(tree_edges)))
    return ProofTrace(case_label=label, vertex_roles=roles, outcome=outcome)


def _try_emit(g, label, roles, tree_edges) -> ProofTrace | None:
    """Emit only if the candidate really is a HIST; else keep searching."""
    if is_valid_hist(g, tree_edges):
        outcome = HistOutcome(found=True, tree_edges=tuple(sorted(tree_edges)))
        return ProofTrace(case_label=label, vertex_roles=roles, outcome=outcome)
    return None


def _roles(**kv) -> dict[str, int]:
    """Role map keeping the first name for any repeated vertex."""
    out = {}
    for k, v in kv.items():
        if v not in out.values():
            out[k] = v
    return out


def _star_minus(g, hub, removed) -> list[tuple[int, int]]:
    return [(hub, w) for w in g.neighbors(hub) if not removed >> w & 1]


def _guided_one_connected(g: Graph, x: int) -> ProofTrace:
    """Connected case with max degree n-2: detour tree or family recognition."""
    n = g.n
    full = (1 << n) - 1
    nx_mask = g.rows[x]
    y = (full ^ nx_mask ^ (1 << x)).bit_length() - 1
    attach = g.rows[y]  # neighbors of y, all inside N(x)
    for x_i in _bits(attach):
        inner = g.rows[x_i] & nx_mask
        for x_j in _bits(inner):
            tree = _star_minus(g, x, 1 << x_j) + [(x_i, y), (x_i, x_j)]
            hit = _try_emit(
                g, "one_connected/max-degree=n-2/detour",
                _roles(hub=x, outsider=y, pivot=x_i, detour=x_j), tree,
            )
            if hit:
                return hit
    if attach.bit_count() == 1:
        x1 = attach.bit_length() - 1
        clique_mask = full ^ (1 << y) ^ (1 << x1)
        from .graphs import _is_clique

        if _is_clique(g, clique_mask):
            if not is_family_L(g):
                raise InvariantViolation("pendant chain found but family check failed")
            return ProofTrace(
                case_label="one_connected/max-degree=n-2/pendant-chain",
                vertex_roles=_roles(hub=x, outsider=y, bridge=x1),
                recognized_family="L",
            )
        return ProofTrace(
            case_label="one_connected/max-degree=n-2/outside:incomplete-clique",
            vertex_roles=_roles(hub=x, outsider=y, bridge=x1),
        )
    return ProofTrace(
        case_label="one_connected/max-degree=n-2/outside:multiple-attachments",
        vertex_roles=_roles(hub=x, outsider=y),
    )


def _guided_two_missing_one(g: Graph, u: int) -> ProofTrace:
    """2-connected case with max degree n-2."""
    n = g.n
    full = (1 << n) - 1
    nu = g.rows[u]
    v = (full ^ nu ^ (1 << u)).bit_length() - 1
    nv = g.rows[v]  # subset of N(u)
    for u_r in _bits(nv):
        inner = g.rows[u_r] & nv
        for u_s in _bits(inner):
            tree = _star_minus(g, u, 1 << u_s) + [(u_r, v), (u_r, u_s)]
            hit = _try_emit(
                g, "two_connected/max-degree=n-2/neighbor-pair",
                _roles(hub=u, outsider=v, pivot=u_r, mate=u_s), tree,
            )
            if hit:
                return hit
    if nv == nu:
        # N(v) = N(u) independent: complete bipartite, eliminated by counting.
        return ProofTrace(
            case_label="two_connected/max-degree=n-2/outside:complete-bipartite",
            vertex_roles=_roles(hub=u, outsider=v),
        )
    rest = nu ^ nv
    for u_i in _bits(nv):
        cross = g.rows[u_i] & rest
        for u_j in _bits(cross):
            tree = _star_minus(g, u, 1 << u_j) + [(v, u_i), (u_i, u_j)]
            hit = _try_emit(
                g, "two_connected/max-degree=n-2/cross-edge",
                _roles(hub=u, outsider=v, pivot=u_i, detour=u_j), tree,
            )
            if hit:
                return hit
    return ProofTrace(
        case_label="two_connected/max-degree=n-2/outside:no-usable-edge",
        vertex_roles=_roles(hub=u, outsider=v),
    )


def _guided_two_missing_two(g: Graph, u: int) -> ProofTrace:
    """2-connected case with max degree n-3 (two vertices outside N[u])."""
    n = g.n
    full = (1 << n) - 1
    nu = g.rows[u]
    missing = full ^ nu ^ (1 << u)
    v1 = (missing & -missing).bit_length() - 1
    v2 = (missing ^ (missing & -missing)).bit_length() - 1

    common = g.rows[v1] & g.rows[v2]
    if common:
        u1 = (common & -common).bit_length() - 1
        tree = _star_minus(g, u, 0) + [(u1, v1), (u1, v2)]
        return _emit(
            g, "two_connected/max-degree=n-3/common-neighbor",
            _roles(hub=u, first=v1, second=v2, anchor=u1), tree,
        )
    if g.has_edge(v1, v2):
        return _guided_adjacent_pair(g, u, v1, v2)
    return _guided_nonadjacent_pair(g, u, v1, v2)


def _guided_adjacent_pair(g: Graph, u, v1, v2) -> ProofTrace:
    n = g.n
    nu = g.rows[u]
    side1 = g.rows[v1] ^ (1 << v2)
    side2 = g.rows[v2] ^ (1 << v1)
    outer = nu ^ side1 ^ side2
    base = _roles(hub=u, first=v1, second=v2)

    # Cross edge between the two private neighborhoods, with a spare vertex
    # on one side to re-anchor the outsiders.
    for w1 in _bits(side1):
        for w2 in _bits(g.rows[w1] & side2):
            if side1.bit_count() >= 2:
                alpha = ((side1 ^ (1 << w1)) & -(side1 ^ (1 << w1))).bit_length() - 1
                tree = _star_minus(g, u, (1 << alpha) | (1 << w2)) + [
                    (alpha, v1), (w1, v1), (w1, w2), (v1, v2)]
                hit = _try_emit(
                    g, "two_connected/max-degree=n-3/adjacent-pair/cross-edge",
                    {**base, **_roles(near=w1, far=w2, spare=alpha)}, tree)
                if hit:
                    return hit
            if side2.bit_count() >= 2:
                beta = ((side2 ^ (1 << w2)) & -(side2 ^ (1 << w2))).bit_length() - 1
                tree = _star_minus(g, u, (1 << w1) | (1 << beta)) + [
                    (w1, w2), (w2, v2), (v1, v2), (v2, beta)]
                hit = _try_emit(
                    g, "two_connected/max-degree=n-3/adjacent-pair/cross-edge",
                    {**base, **_roles(near=w1, far=w2, spare=beta)}, tree)
                if hit:
                    return hit

    # Edge from one side into the shared remainder, again with a spare.
    for side, v_s, v_t in ((side1, v1, v2), (side2, v2, v1)):
        if side.bit_count() < 2:
            continue
        for w in _bits(side):
            for z in _bits(g.rows[w] & outer):
                gamma = ((side ^ (1 << w)) & -(side ^ (1 << w))).bit_length() - 1
                tree = _star_minus(g, u, (1 << gamma) | (1 << z)) + [
                    (w, z), (gamma, v_s), (w, v_s), (v_s, v_t)]
                hit = _try_emit(
                    g, "two_connected/max-degree=n-3/adjacent-pair/outer-edge",
                    {**base, **_roles(carrier=w, outer=z, spare=gamma)}, tree)
                if hit:
                    return hit

    # A side vertex with an extra neighbor (degree above 2) gives a detour.
    for side, other, v_s, v_t in ((side1, side2, v1, v2), (side2, side1, v2, v1)):
        for alpha in _bits(side):
            extra = g.rows[alpha] & ~(1 << u) & ~(1 << v_s)
            for u_p in _bits(extra):
                if (other | outer) >> u_p & 1:
                    if side.bit_count() >= 2:
                        u_c = ((side ^ (1 << alpha)) & -(side ^ (1 << alpha))).bit_length() - 1
                        tree = _star_minus(g, u, (1 << u_c) | (1 << u_p)) + [
                            (alpha, u_p), (alpha, v_s), (v_s, v_t), (v_s, u_c)]
                        hit = _try_emit(
                            g, "two_connected/max-degree=n-3/adjacent-pair/branch-vertex",
                            {**base, **_roles(branch=alpha, target=u_p, spare=u_c)}, tree)
                        if hit:
                            return hit
                else:
                    # target inside the same side: pair with an outer edge
                    # from the opposite side.
                    for w in _bits(other):
                        for z in _bits(g.rows[w] & outer):
                            tree = _star_minus(g, u, (1 << u_p) | (1 << z)) + [
                                (alpha, u_p), (alpha, v_s), (w, v_t), (w, z)]
                            hit = _try_emit(
                                g, "two_connected/max-degree=n-3/adjacent-pair/branch-vertex",
                                {**base, **_roles(branch=alpha, target=u_p, carrier=w, outer=z)},
                                tree)
                            if hit:
                                return hit

    if is_family_B(g):
        return ProofTrace(
            case_label="two_connected/max-degree=n-3/adjacent-pair/pendant-chain",
            vertex_roles=base,
            recognized_family="B",
        )
    return ProofTrace(
        case_label="two_connected/max-degree=n-3/adjacent-pair/outside:unresolved",
        vertex_roles=base,
    )


def _guided_nonadjacent_pair(g: Graph, u, v1, v2) -> ProofTrace:
    nu = g.rows[u]
    p_side = g.rows[v1]
    q_side = g.rows[v2]
    outer = nu ^ p_side ^ q_side
    base = _roles(hub=u, first=v1, second=v2)

    cross = [(a, b) for a in _bits(p_side) for b in _bits(g.rows[a] & q_side)]
    if len(cross) >= 2:
        (i, k), (j, l) = cross[0], cross[1]
        if i != j and k != l:
            tree = _star_minus(g, u, (1 << i) | (1 << l)) + [
                (j, v1), (j, l), (i, k), (k, v2)]
        elif i == j:
            tree = _star_minus(g, u, (1 << j) | (1 << l)) + [
                (j, v1), (j, l), (j, k), (k, v2)]
        else:
            tree = _star_minus(g, u, (1 << j) | (1 << l)) + [
                (i, v1), (i, l), (j, l), (l, v2)]
        hit = _try_emit(
            g, "two_connected/max-degree=n-3/nonadjacent-pair/double-cross",
            {**base, **_roles(a1=i, b1=k, a2=j, b2=l)}, tree)
        if hit:
            return hit

    if cross:
        a_p, b_q = cross[0]
        # inner edge on the first side
        for s in _bits(p_side):
            for t in _bits(g.rows[s] & p_side):
                tree = _star_minus(g, u, (1 << s) | (1 << a_p)) + [
                    (t, v1), (s, t), (a_p, b_q), (b_q, v2)]
                hit = _try_emit(
                    g, "two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-inner",
                    {**base, **_roles(inner_a=s, inner_b=t, link_a=a_p, link_b=b_q)}, tree)
                if hit:
                    return hit
        # inner edge on the second side (mirror)
        for s in _bits(q_side):
            for t in _bits(g.rows[s] & q_side):
                tree = _star_minus(g, u, (1 << s) | (1 << b_q)) + [
                    (t, v2), (s, t), (b_q, a_p), (a_p, v1)]
                hit = _try_emit(
                    g, "two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-inner",
                    {**base, **_roles(inner_a=s, inner_b=t, link_a=b_q, link_b=a_p)}, tree)
                if hit:
                    return hit
        # outer-vertex detour on either side
        for a_side, b_side, v_a, v_b in ((p_side, q_side, v1, v2), (q_side, p_side, v2, v1)):
            for alpha in _bits(a_side):
                for z in _bits(g.rows[alpha] & outer):
                    for aa in _bits(a_side):
                        for bb in _bits(g.rows[aa] & b_side):
                            tree = _star_minus(g, u, (1 << aa) | (1 << z)) + [
                                (alpha, v_a), (alpha, z), (aa, bb), (bb, v_b)]
                            hit = _try_emit(
                                g,
                                "two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-outer",
                                {**base, **_roles(branch=alpha, outer=z, link_a=aa, link_b=bb)},
                                tree)
                            if hit:
                                return hit
    else:
        for alpha in _bits(p_side):
            for j in _bits(g.rows[alpha] & outer):
                for beta in _bits(q_side):
                    for k in _bits(g.rows[beta] & outer):
                        if j == k:
                            continue
                        tree = _star_minus(g, u, (1 << j) | (1 << k)) + [
                            (alpha, v1), (alpha, j), (beta, v2), (beta, k)]
                        hit = _try_emit(
                            g, "two_connected/max-degree=n-3/nonadjacent-pair/two-outer",
                            {**base, **_roles(left=alpha, left_out=j, right=beta, right_out=k)},
                            tree)
                        if hit:
                            return hit
    return ProofTrace(
        case_label="two_connected/max-degree=n-3/nonadjacent-pair/outside:unresolved",
        vertex_roles=base,
    )

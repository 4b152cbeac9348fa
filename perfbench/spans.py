"""Span tracer installed by the benchmark around public histspec functions.

Each wrapper replaces a function at the name its caller looks up (a module
attribute, or a method on `Graph`), so the program's source stays
untouched.  Each such name is a call site of one layer.  Spans live in
memory as parallel arrays (parent id, call site, start, end, outermost
flag) and are written out once, at the end.

Per-layer figures follow two rules:
  * `<layer>_s` is the inclusive time of the outermost spans of that layer
    (a connectivity check nested inside another connectivity check counts
    once);
  * self time is a span's duration minus the durations of its direct
    children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from histspec import graph6, hist, scan, verification
from histspec.graphs import Graph
from histspec.hist import SearchBudgetError

# Proof-replay case labels as ProofTrace.case_label spells them.  Metric
# names shorten them to fit 64 characters: "one_connected" -> "c1",
# "two_connected" -> "c2", "max-degree=" is dropped, and "/", "=" and ":"
# become ".".  Labels outside this list are counted as "other".
REPLAY_CASES = (
    "one_connected/max-degree=n-1/star",
    "one_connected/max-degree=n-2/detour",
    "one_connected/max-degree=n-2/pendant-chain",
    "one_connected/max-degree=n-2/outside:incomplete-clique",
    "one_connected/max-degree=n-2/outside:multiple-attachments",
    "two_connected/max-degree=n-1/star",
    "two_connected/max-degree=n-2/neighbor-pair",
    "two_connected/max-degree=n-2/cross-edge",
    "two_connected/max-degree=n-2/outside:complete-bipartite",
    "two_connected/max-degree=n-2/outside:no-usable-edge",
    "two_connected/max-degree=n-3/common-neighbor",
    "two_connected/max-degree=n-3/adjacent-pair/cross-edge",
    "two_connected/max-degree=n-3/adjacent-pair/outer-edge",
    "two_connected/max-degree=n-3/adjacent-pair/branch-vertex",
    "two_connected/max-degree=n-3/adjacent-pair/pendant-chain",
    "two_connected/max-degree=n-3/adjacent-pair/outside:unresolved",
    "two_connected/max-degree=n-3/nonadjacent-pair/double-cross",
    "two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-inner",
    "two_connected/max-degree=n-3/nonadjacent-pair/cross-plus-outer",
    "two_connected/max-degree=n-3/nonadjacent-pair/two-outer",
    "two_connected/max-degree=n-3/nonadjacent-pair/outside:unresolved",
)


def case_metric(label: str) -> str:
    short = (label.replace("one_connected", "c1").replace("two_connected", "c2")
             .replace("max-degree=", ""))
    for ch in "/=:":
        short = short.replace(ch, ".")
    return "hist.replay_case." + short


CASE_METRICS = {label: case_metric(label) for label in REPLAY_CASES}
OTHER_CASE = "hist.replay_case.other"

SCAN, EIG, REPLAY, SEARCH, CERT = ("scan", "scan.eigsolve", "hist.replay",
                                   "hist.search", "hist.certificate")
POWER, HONG, DECODE = "spectral.power", "spectral.hong", "graph6.decode"
RECOGNIZE, CONNECTIVITY = "graphs.recognize", "graphs.connectivity"
THRESHOLD, DRIVER = "verification.threshold", "verification.driver"
LAYERS = (SCAN, EIG, REPLAY, SEARCH, CERT, POWER, HONG, DECODE, RECOGNIZE,
          CONNECTIVITY, THRESHOLD, DRIVER)


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.sites = []  # (qualified name, layer id) per installed wrapper
        self.parent = array("q")
        self.site = array("h")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counts = Counter()
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)
        self._undo = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function at the name its caller resolves.

        Must run before scan_range builds its tables, which bind the
        extremal recognizer once per call.
        """
        w = self._wrap
        w(scan, "scan_range", SCAN, self._on_shard)
        w(np.linalg, "eigvalsh", EIG, self._on_eigvalsh)
        for mod in (scan, verification, hist):
            w(mod, "find_hist", SEARCH, self._on_search, self._on_search_error)
        for mod in (scan, hist):
            w(mod, "proof_guided_hist", REPLAY, self._on_replay)
        w(hist, "no_hist_certificate", CERT, self._on_certificate)
        for mod in (scan, verification):
            for fn in ("is_family_L", "is_family_B"):
                w(mod, fn, RECOGNIZE, self._on_count("graphs.recognize_calls"))
        w(verification, "spectral_radius", POWER, self._on_power)
        w(verification, "hong_bound", HONG)
        w(graph6, "decode_graph6", DECODE, self._on_count("graph6.records"))
        for meth in ("is_connected", "is_2_connected", "cut_vertices"):
            w(Graph, meth, CONNECTIVITY)
        for fn in ("threshold_connected", "threshold_two_connected"):
            w(verification, fn, THRESHOLD)
        for fn in ("verify_theorem1", "verify_theorem2"):
            w(verification, fn, DRIVER)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, owner, attr, layer, on_result=None, on_error=None):
        orig = getattr(owner, attr)
        lid = self.layer_id[layer]
        site = self._site(f"{getattr(owner, '__name__', owner)}.{attr}", lid)
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        parent, sites, start, end, outer = (self.parent, self.site, self.start,
                                            self.end, self.outer)

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            sites.append(site)
            outer.append(depth[lid] == 0)
            end.append(0.0)
            stack.append(sid)
            depth[lid] += 1
            start.append(clock())
            try:
                res = orig(*args, **kwargs)
            except BaseException as err:
                end[sid] = clock()
                if on_error is not None:
                    on_error(err)
                raise
            else:
                end[sid] = clock()
                if on_result is not None:
                    on_result(args, res)
                return res
            finally:
                depth[lid] -= 1
                stack.pop()

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def _site(self, name, lid):
        """Index of a call site; reinstalling reuses the same index."""
        for i, (known, _) in enumerate(self.sites):
            if known == name:
                return i
        self.sites.append((name, lid))
        return len(self.sites) - 1

    # -- count hooks ----------------------------------------------------------

    def _on_count(self, key):
        def hook(args, res):
            self.counts[key] += 1
        return hook

    def _on_shard(self, args, out):
        c = self.counts
        c["scan.shards"] += 1
        c["scan.masks"] += out.scanned
        c["scan.survivors"] += out.survivors
        c["scan.over"] += out.over
        c["scan.fallbacks"] += out.fallback_searches

    def _on_eigvalsh(self, args, res):
        if self._depth[self.layer_id[SCAN]]:
            self.counts["scan.eigsolve_rows"] += res.shape[0] if res.ndim > 1 else 1

    def _on_search(self, args, res):
        self.counts["hist.search_calls"] += 1
        self.counts["hist.search_found"] += bool(res.found)

    def _on_search_error(self, err):
        self.counts["hist.search_calls"] += 1
        if isinstance(err, SearchBudgetError):
            self.counts["hist.search_budget_errors"] += 1

    def _on_replay(self, args, trace):
        c = self.counts
        c["hist.replay_calls"] += 1
        c["hist.replay_hits"] += trace.found_tree or trace.recognized_family is not None
        c[CASE_METRICS.get(trace.case_label, OTHER_CASE)] += 1

    def _on_certificate(self, args, cert):
        self.counts["hist.certificate_calls"] += 1
        self.counts["hist.certificate_hits"] += cert is not None

    def _on_power(self, args, res):
        self.counts["spectral.power_calls"] += 1
        self.counts["spectral.power_iters"] += res.iterations

    # -- summaries ----------------------------------------------------------

    def _arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64)
        site_layer = np.array([lid for _, lid in self.sites], dtype=np.int64)
        layer = site_layer[np.frombuffer(self.site, dtype=np.int16)]
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        return parent, layer, dur, outer

    def layer_seconds(self) -> dict[str, float]:
        """Inclusive seconds of the outermost spans of each layer."""
        _, layer, dur, outer = self._arrays()
        tot = np.bincount(layer[outer], weights=dur[outer], minlength=len(LAYERS))
        return {name: float(tot[i]) for i, name in enumerate(LAYERS)}

    def self_seconds(self) -> dict[str, float]:
        """Per layer, span durations minus those of their direct children."""
        parent, layer, dur, _ = self._arrays()
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        tot = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        return {name: float(tot[i]) for i, name in enumerate(LAYERS)}

    def span_count(self) -> int:
        return len(self.start)

    def site_calls(self) -> dict[str, int]:
        """Calls recorded at each installed call site, zero included."""
        calls = np.bincount(np.frombuffer(self.site, dtype=np.int16), minlength=len(self.sites))
        return {name: int(calls[i]) for i, (name, _) in enumerate(self.sites)}

    def save(self, path):
        """Write every span, with the call-site and layer tables, as one .npz file."""
        parent, layer, _, outer = self._arrays()
        np.savez(path, layers=np.array(LAYERS), sites=np.array([n for n, _ in self.sites]),
                 site=np.frombuffer(self.site, dtype=np.int16), parent=parent, layer=layer,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64), outer=outer)


def per_layer_metrics(tracer: Tracer, passes: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-pass counts and seconds for every per-layer metric."""
    c = tracer.counts
    incl = tracer.layer_seconds()
    own = tracer.self_seconds()

    def per(x):
        return x / passes

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    m = {
        "scan.shards": (per(c["scan.shards"]), "count"),
        "scan.masks": (per(c["scan.masks"]), "count"),
        "scan.survivors": (per(c["scan.survivors"]), "count"),
        "scan.survivor_ratio": (ratio("scan.survivors", "scan.masks"), "ratio"),
        "scan.over": (per(c["scan.over"]), "count"),
        "scan.fallbacks": (per(c["scan.fallbacks"]), "count"),
        "scan.self_s": (per(own[SCAN]), "s"),
        "scan.eigsolve_rows": (per(c["scan.eigsolve_rows"]), "count"),
        "scan.eigsolve_s": (per(incl[EIG]), "s"),
        "scan.eigsolve_share": (ratio("scan.eigsolve_rows", "scan.survivors"), "ratio"),
        "hist.replay_calls": (per(c["hist.replay_calls"]), "count"),
        "hist.replay_s": (per(incl[REPLAY]), "s"),
        "hist.replay_hit_ratio": (ratio("hist.replay_hits", "hist.replay_calls"), "ratio"),
        "hist.search_calls": (per(c["hist.search_calls"]), "count"),
        "hist.search_s": (per(incl[SEARCH]), "s"),
        "hist.search_found_ratio": (ratio("hist.search_found", "hist.search_calls"), "ratio"),
        "hist.search_budget_errors": (per(c["hist.search_budget_errors"]), "count"),
        "hist.certificate_calls": (per(c["hist.certificate_calls"]), "count"),
        "hist.certificate_s": (per(incl[CERT]), "s"),
        "hist.certificate_hit_ratio": (ratio("hist.certificate_hits", "hist.certificate_calls"), "ratio"),
        "spectral.power_calls": (per(c["spectral.power_calls"]), "count"),
        "spectral.power_s": (per(incl[POWER]), "s"),
        "spectral.power_iters": (per(c["spectral.power_iters"]), "count"),
        "spectral.hong_s": (per(incl[HONG]), "s"),
        "graph6.records": (per(c["graph6.records"]), "count"),
        "graph6.decode_s": (per(incl[DECODE]), "s"),
        "graphs.recognize_calls": (per(c["graphs.recognize_calls"]), "count"),
        "graphs.recognize_s": (per(incl[RECOGNIZE]), "s"),
        "graphs.connectivity_s": (per(incl[CONNECTIVITY]), "s"),
        "verification.threshold_s": (per(incl[THRESHOLD]), "s"),
        "verification.self_s": (per(own[DRIVER]), "s"),
    }
    for name in list(CASE_METRICS.values()) + [OTHER_CASE]:
        m[name] = (per(c[name]), "count")
    m["trace.spans"] = (per(tracer.span_count()), "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m

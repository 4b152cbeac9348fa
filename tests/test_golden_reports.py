"""Verification outputs pinned byte for byte, `elapsed` removed.

`golden_reports.json` holds the JSON of a few reports, one scan shard
with a digest of its over-threshold masks (listed by the identity route
of `helpers.py`), digests of proof-replay traces and of `find_hist`
outcomes, and the stdout of four `histspec verify` commands.  Any change to a count, a threshold float or a counterexample string fails
here, so a refactor or a shortcut that is meant to leave outputs alone is
checked to do so.  Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import asdict

from histspec import cli
from histspec import (Graph, InvariantViolation, complete_bipartite, decode_graph6,
                      encode_graph6, make_family, verify_theorem1, verify_theorem2)
from histspec.hist import find_hist, proof_guided_hist
from histspec.scan import ScanConfig, scan_range
from histspec.verification import GRAPH6_CORPUS, threshold_two_connected

from helpers import identity_scan

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")
SHARD, SHARD_BITS = 301, 19  # an n=8 thm2 shard with extremal matches and proof-replay fallbacks
# Graphs that reach replay cases the seeded inputs below rarely or never hit:
# adjacent-pair/branch-vertex, nonadjacent-pair/cross-plus-outer,
# nonadjacent-pair/double-cross, nonadjacent-pair/outside:unresolved and
# nonadjacent-pair/two-outer.
REPLAY_WITNESSES = ("G{eORC", "K{aCcQeu`E?a", "H}eVP_K", "Gsa`qG", "IsyDCXOH?")
CLI_VERIFY = (
    ("thm1", "--n", "7"),
    ("corollaries", "--from", "7", "--to", "12"),
    ("certificates", "--nmax", "4"),
    ("audit", "--n", "7", "--theorem", "thm1"),
)
ELAPSED = re.compile(r'(elapsed"?:? )[-+.e0-9]+')  # text "elapsed 1.23s", JSON "elapsed": 1.2e-05


def write_corpus(path):
    """2,000 seeded order-9 graphs, each with its own edge probability in
    [0.55, 0.85], then HvsGLqz (2-connected, Δ = n - 3)."""
    rng = random.Random(9)
    pairs = [(i, j) for j in range(9) for i in range(j)]
    lines = []
    for _ in range(2000):
        p = rng.uniform(0.55, 0.85)
        lines.append(encode_graph6(Graph(9, [e for e in pairs if rng.random() < p])))
    lines.append("HvsGLqz")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(line + "\n" for line in lines)


def replay_inputs():
    """Seeded inputs for `proof_guided_hist`, then REPLAY_WITNESSES.

    Random graphs of order 7..12 whose vertex 0 misses 0-3 others (so the
    maximum degree lands near n - 1, n - 2 or n - 3), randomly relabeled;
    then random relabelings of L_n, B_n, K_{2,q} and K_{3,q}, each with 0-3
    random edge flips.  Under both replay names these reach 22 of the 23
    case labels, the two below-range outside labels included.  two_connected/max-degree=n-2/outside:no-usable-edge was
    not reached in 400,000 tries aimed at it, and no input here covers it:
    an edge inside N(v), or from N(v) to the rest of N(u), gives a
    candidate that is always a HIST, and without one every path from v to
    the rest of N(u) passes through u, so the graph is not 2-connected.
    """
    rng = random.Random(6)

    def relabeled(g):
        perm = list(range(g.n))
        rng.shuffle(perm)
        return g.relabel(perm)

    for _ in range(8000):
        n = rng.randint(7, 12)
        missed = set(rng.sample(range(1, n), rng.randint(0, 3)))
        p = rng.uniform(0.2, 0.9)
        edges = [(0, v) for v in range(1, n) if v not in missed]
        edges += [(i, j) for j in range(2, n) for i in range(1, j) if rng.random() < p]
        yield relabeled(Graph(n, edges))
    bases = ([make_family("L", n) for n in range(7, 13)]
             + [make_family("B", n) for n in range(7, 13)]
             + [make_family("Kpq", 2, q) for q in range(5, 11)]
             + [make_family("Kpq", 3, q) for q in range(4, 10)])
    for base in bases:
        for _ in range(30):
            g = base
            for _ in range(rng.randint(0, 3)):
                u, v = rng.sample(range(g.n), 2)
                g = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
            yield relabeled(g)
    for text in REPLAY_WITNESSES:
        yield decode_graph6(text)


def replay_digest() -> dict:
    """Per-label counts and one SHA-256 over every replay trace (label,
    roles in order, tree, family) or error (type, message)."""
    counts = {}
    h = hashlib.sha256()
    for g in replay_inputs():
        for theorem in ("one_connected", "two_connected"):
            try:
                t = proof_guided_hist(g, theorem)
            except (ValueError, InvariantViolation) as err:
                key, item = "error:" + type(err).__name__, (type(err).__name__, str(err))
            else:
                tree = t.outcome.tree_edges if t.outcome else None
                key = t.case_label
                item = (t.case_label, tuple(t.vertex_roles.items()), tree, t.recognized_family)
            counts[key] = counts.get(key, 0) + 1
            h.update(repr(item).encode() + b"\n")
    return {"counts": counts, "sha256": h.hexdigest()}


def search_inputs():
    """Seeded connected inputs for `find_hist`: 400 graphs of order 10..16
    drawn as the hist_search benchmark draws its own (edge probability
    2.6/n + U(0, 0.1)) but from another seed, then 300 graphs of order
    6..14 with edge probability U(0.15, 0.8), then K_{2,q} for q = 2..12."""
    rng = random.Random(37)

    def connected(n, p):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        while True:
            g = Graph(n, [e for e in pairs if rng.random() < p])
            if g.is_connected():
                return g

    for _ in range(400):
        n = rng.randint(10, 16)
        yield connected(n, 2.6 / n + rng.uniform(0, 0.1))
    for _ in range(300):
        yield connected(rng.randint(6, 14), rng.uniform(0.15, 0.8))
    for q in range(2, 13):
        yield complete_bipartite(2, q)


def search_digest() -> dict:
    """Verdict counts and one SHA-256 over every `find_hist` outcome
    (found, tree edges, certificate kind and vertices)."""
    counts = {}
    h = hashlib.sha256()
    for g in search_inputs():
        out = find_hist(g)
        cert = out.certificate
        key = "found" if out.found else cert.kind
        counts[key] = counts.get(key, 0) + 1
        item = (out.found, out.tree_edges, cert and cert.kind, cert and cert.vertices)
        h.update(repr(item).encode() + b"\n")
    return {"counts": counts, "sha256": h.hexdigest()}


def _report(rep, corpus_path=None):
    d = asdict(rep)
    del d["elapsed"]
    if corpus_path:  # the scope names the file, which lives in a fresh directory
        d["scope"] = d["scope"].replace(corpus_path, "<corpus>")
    return d


def cli_verify() -> dict:
    """Exit code and stdout of each CLI_VERIFY command, in text and in
    structured format, with the elapsed seconds set to 0."""
    out = {}
    for args in CLI_VERIFY:
        for fmt in ("text", "structured"):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["--format", fmt, "verify", *args])
            out[f"{fmt}: {' '.join(args)}"] = {
                "exit": code, "stdout": ELAPSED.sub(r"\g<1>0", buf.getvalue())}
    return out


def current_reports(tmp_dir) -> dict:
    corpus_path = os.path.join(tmp_dir, "corpus9.g6")
    write_corpus(corpus_path)
    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2")
    shard = asdict(scan_range(cfg, SHARD << SHARD_BITS, (SHARD + 1) << SHARD_BITS))
    masks = []
    per_shard = 1 << SHARD_BITS - 15  # windows of 2^15 masks
    identity_scan(cfg, range(SHARD * per_shard, (SHARD + 1) * per_shard), masks)
    shard["over_masks_count"] = len(masks)
    shard["over_masks_sha256"] = hashlib.sha256(
        ",".join(map(str, masks)).encode()).hexdigest()
    return {
        "verify_theorem1_n7": _report(verify_theorem1(7)),
        "corpus_thm1_n9": _report(verify_theorem1(9, source=GRAPH6_CORPUS,
                                                  corpus_path=corpus_path), corpus_path),
        "corpus_thm2_n9": _report(verify_theorem2(9, source=GRAPH6_CORPUS,
                                                  corpus_path=corpus_path), corpus_path),
        f"scan_range_thm2_n8_shard{SHARD}": shard,
        "proof_replay": replay_digest(),
        "find_hist": search_digest(),
        "cli_verify": cli_verify(),
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def test_reports_match_golden(tmp_path):
    got = current_reports(str(tmp_path))
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    for key in want:
        assert _dump(got[key]) == _dump(want[key]), key


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with tempfile.TemporaryDirectory() as tmp:
        reports = current_reports(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(_dump(reports) + "\n")

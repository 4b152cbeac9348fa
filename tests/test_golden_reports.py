"""Verification outputs pinned byte for byte, `elapsed` removed.

`golden_reports.json` holds the JSON of a few reports and one scan shard.
Any change to a count, a threshold float or a counterexample string fails
here, so a refactor or a shortcut that is meant to leave outputs alone is
checked to do so.  Re-record only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from dataclasses import asdict

from histspec import Graph, encode_graph6, verify_theorem1, verify_theorem2
from histspec.scan import ScanConfig, scan_range
from histspec.verification import GRAPH6_CORPUS, SHARD_BITS, threshold_two_connected

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_reports.json")
SHARD = 301  # an n=8 thm2 shard with extremal matches and proof-replay fallbacks


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


def _report(rep, corpus_path=None):
    d = asdict(rep)
    del d["elapsed"]
    if corpus_path:  # the scope names the file, which lives in a fresh directory
        d["scope"] = d["scope"].replace(corpus_path, "<corpus>")
    return d


def current_reports(tmp_dir) -> dict:
    corpus_path = os.path.join(tmp_dir, "corpus9.g6")
    write_corpus(corpus_path)
    cfg = ScanConfig(n=8, theta=threshold_two_connected(8), mode="thm2", collect_over=True)
    shard = asdict(scan_range(cfg, SHARD << SHARD_BITS, (SHARD + 1) << SHARD_BITS))
    masks = shard.pop("over_masks")
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

"""Command-line front end.

Exit codes: 0 success/verified, 1 counterexample or invariant violation,
2 usage error, 3 graph6 format error, 4 numeric non-convergence,
5 search budget exhausted (no verdict).

Wherever a graph6 string is expected, the shorthand family:NAME:params
(e.g. family:L:7, family:Kpq:2:8) builds the named construction instead.

Each `verify` target has its own parser that declares only the options
its driver reads (thm1/thm2: --n, --corpus; corollaries: --from, --to;
certificates: --nmax; audit: --n, --theorem), so argparse rejects any
other with exit 2.
Every driver returns a report with `ok`, `to_json()` and `text()`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graph6 import Graph6FormatError, decode_graph6, encode_graph6, read_graph6_file
from .graphs import Graph, make_family
from .hist import SearchBudgetError, find_hist
from .spectral import (
    ConvergenceError,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    THEOREMS,
    InvariantViolation,
    largest_root,
    spectral_radius,
)
from . import verification

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_BUDGET = 5


def parse_graph_arg(text: str) -> Graph:
    if text.startswith("family:"):
        parts = text.split(":")
        if len(parts) < 3:
            raise ValueError("family shorthand is family:NAME:param[:param]")
        name = parts[1]
        params = [int(p) for p in parts[2:]]
        return make_family(name, *params)
    return decode_graph6(text)


def _emit(args, payload: dict, text: str):
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_rho(args) -> int:
    g = parse_graph_arg(args.graph)
    res = spectral_radius(g, tol=args.tol, max_iter=args.max_iter)
    _emit(args, {"rho": res.rho, "residual": res.residual,
                 "iterations": res.iterations, "n": g.n, "m": g.m},
          f"rho={res.rho:.12f} residual={res.residual:.3e} iterations={res.iterations}")
    return EXIT_OK


def cmd_hist(args) -> int:
    g = parse_graph_arg(args.graph)
    outcome = find_hist(g)
    if outcome.found:
        edges = " ".join(f"{u}-{v}" for u, v in outcome.tree_edges)
        _emit(args, {"verdict": "found", "tree_edges": list(outcome.tree_edges)},
              f"HIST found: {edges}")
    else:
        cert = outcome.certificate
        _emit(args, {"verdict": "no_hist", "certificate": cert.kind,
                     "vertices": list(cert.vertices)},
              f"no HIST: {cert}")
    return EXIT_OK


def cmd_charpoly(args) -> int:
    spec = next(s for s in THEOREMS if s.family == args.family)
    poly = spec.quartic(args.n)
    root = largest_root(poly, *spec.bracket(args.n))
    coeffs = poly.coefficients()
    _emit(args, {"family": args.family, "n": args.n,
                 "coefficients": list(coeffs), "largest_root": root},
          f"coefficients (x^4..x^0): {coeffs}\nlargest root: {root:.12f}")
    return EXIT_OK


def cmd_family(args) -> int:
    g = make_family(args.name, *args.params)
    _emit(args, {"family": args.name, "params": args.params,
                 "graph6": encode_graph6(g), "n": g.n, "m": g.m},
          encode_graph6(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = args.driver(args)
    _emit(args, json.loads(report.to_json()), report.text())
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def cmd_convert(args) -> int:
    count = 0
    for lineno, g in read_graph6_file(args.file):
        again = encode_graph6(g)
        if decode_graph6(again) != g:
            print(f"round-trip failure at line {lineno}", file=sys.stderr)
            return EXIT_COUNTEREXAMPLE
        count += 1
        if args.echo:
            print(again)
    _emit(args, {"records": count, "ok": True},
          f"{count} records round-tripped")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="histspec",
        description="Spectral-threshold HIST verification toolkit",
    )
    ap.add_argument("--format", choices=("text", "structured"), default="text",
                    help="structured prints one JSON object per record")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="spectral radius of a graph")
    p.add_argument("graph", help="graph6 string or family:NAME:params")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.set_defaults(fn=cmd_rho)

    p = sub.add_parser("hist", help="HIST verdict for a graph")
    p.add_argument("graph", help="graph6 string or family:NAME:params")
    p.set_defaults(fn=cmd_hist)

    p = sub.add_parser("charpoly", help="family quartic and largest root")
    p.add_argument("family", choices=[s.family for s in THEOREMS])
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("family", help="graph6 of a named construction")
    p.add_argument("name", choices=("L", "B", "K", "P", "C", "Kpq", "star"))
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(fn=cmd_family)

    # Drivers are looked up in `verification` when they run, so a rebinding
    # of the module attribute takes effect.
    p = sub.add_parser("verify", help="run a verification driver")
    p.set_defaults(fn=cmd_verify)
    targets = p.add_subparsers(dest="target", required=True)
    for spec in THEOREMS:
        p = targets.add_parser(spec.name, allow_abbrev=False,
                               help=f"exhaustive {spec.connectivity}-threshold check")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--corpus", help="graph6 corpus file")
        p.set_defaults(driver=lambda a, name=spec.name.replace("thm", "verify_theorem"):
                       getattr(verification, name)(
                           a.n, source=(verification.LABELED_EXHAUSTIVE if a.corpus is None
                                        else verification.GRAPH6_CORPUS),
                           corpus_path=a.corpus))

    p = targets.add_parser("corollaries", allow_abbrev=False, help="order-only caps")
    p.add_argument("--from", dest="range_from", type=int, default=7)
    p.add_argument("--to", dest="range_to", type=int, default=20)
    p.set_defaults(driver=lambda a: verification.verify_corollaries(a.range_from, a.range_to))

    p = targets.add_parser("certificates", allow_abbrev=False, help="certificate soundness")
    p.add_argument("--nmax", type=int, default=6)
    p.set_defaults(driver=lambda a: verification.verify_certificates(a.nmax))

    p = targets.add_parser("audit", allow_abbrev=False, help="prescreen safety audit")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--theorem", choices=[s.name for s in THEOREMS], default="thm2",
                   help="whose prescreens to audit")
    p.set_defaults(driver=lambda a: verification.audit_prescreens(a.n, theorem=a.theorem))

    p = sub.add_parser("convert", help="round-trip validate a graph6 file")
    p.add_argument("file")
    p.add_argument("--echo", action="store_true", help="print re-encoded records")
    p.set_defaults(fn=cmd_convert)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except Graph6FormatError as err:
        print(f"graph6 format error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except ConvergenceError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except SearchBudgetError as err:
        print(f"search budget exhausted, no verdict: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: decompositions, tables, verification sweeps.

Exit codes: 0 all requested checks pass, 1 verification failure, 2 usage
error (a bad command line or input value; a JSON `{"error": ...}` record
goes to stderr), 3 internal error (any other exception; a JSON record with
its type and detail goes to stderr, nothing to stdout), 141 stdout was
closed before the output was written (128 + SIGPIPE, as a shell reports a
process killed by that signal; nothing is printed).  All output is
deterministic for a fixed seed.

`verify relations|centralizer` checks each window residual exactly, over
Q(q).  `--backend eval` reports, at each of three seeded rational points,
whether that same exact residual vanishes there: it is implied by the
symbolic check, and it is neither probabilistic nor cheaper.

`verify` runs in this one process, one context after another, through one
loop for all four suites (`_SUITES`, `_sweep`); it starts no worker
process, since each chain window class is computed once per process and a
later context only looks it up.  `--jobs N` is still parsed and must be at
least 1, but has no effect.

At module level this file imports only the standard library.  Each command
imports the layers it runs inside its handler, so a chain sweep never loads
the label layer (`fusion`, `partitions`, `xcat`, `bimod`), `dump-rep` never
loads `chainrep`, and the label commands (`decompose`, `bimodule`, `table`,
`verify identities|dims`) never load `qarith`, `sparse`, `uqmod` or
`chainrep`.  A label is printed as its `str`, which `parse_label` reads back.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

_LABEL_RE = re.compile(r"^([ZR])\[(-?1),(-?1);(\d+),(-?\d+)\]$")


def parse_label(text: str):
    from .labels import R, Z

    mobj = _LABEL_RE.match(text.strip())
    if not mobj:
        raise ValueError(f"cannot parse module label {text!r}; "
                         "expected e.g. Z[1,-1;3,2] or R[1,1;2,0]")
    kind, alpha, beta, s, r = mobj.groups()
    fn = Z if kind == "Z" else R
    return fn(int(alpha), int(beta), int(s), int(r))


def _decompose_payload(m: int, n: int):
    from .fusion import chain_decompose, sorted_labels
    from .labels import dim_label

    v = chain_decompose(m, n)
    return {
        "m": m,
        "n": n,
        "summands": [
            {"label": str(x), "mult": mult, "dim": dim_label(x)}
            for x, mult in sorted_labels(v)
        ],
        "total_dim": v.total_dim(),
    }


def _bimodule_payload(m: int, n: int):
    from .bimod import atypical_part, dimension_audits, semisimple_part, verify_identities
    from .labels import plain_to_bar
    from .partitions import bip_str

    graph = atypical_part(m, n)
    # the identities need m >= 1: at m = 0 both are reported as null
    tensor, proj = verify_identities(m, n) if m >= 1 else (None, None)
    semisimple = [(lam, plain_to_bar(z)) for lam, z in semisimple_part(m, n)]
    return {
        "m": m,
        "n": n,
        "semisimple": [
            {"bipartition": bip_str(lam), "barlabel": str(b), "t": b.t, "r": b.r}
            for lam, b in semisimple
        ],
        "atypical": {
            "vertices": [
                {"x": bip_str(v.x), "z": str(plain_to_bar(v.z)), "layer": v.layer, "col": v.col}
                for v in graph.vertices
            ],
            "edges": [
                {"from": a, "to": b, "kind": {"uq": "quantum-group", "cent": "centralizer"}[k]}
                for a, b, k in graph.edges
            ],
        },
        "audits": {
            "dim": dimension_audits(m, n)[0],
            "identity1": tensor,
            "identity2": proj,
        },
    }


def _rep_payload(label):
    from .uqmod import build_rep

    rep = build_rep(label)
    return {
        "label": str(label),
        "dim": rep.dim,
        "basis": ["/".join(str(t) for t in tag) for tag in rep.basis],
        "generators": {
            g: [[r, c, str(v)] for r, c, v in sorted(mat.entries())]
            for g, mat in sorted(rep.mats.items())
        },
    }


def _chain_checks(kind: str, m: int, n: int, backend: str, seed: int):
    """Every check of one (m,n) context with m+n >= 2, so it has at least
    one operator: exact, or at each eval point the exact residuals
    evaluated there."""
    from .chainrep import ChainContext, check_centralizer, check_qwb_relations
    from .qarith import eval_points

    ctx = ChainContext(m, n)
    points = [None] if backend == "symbolic" else eval_points(seed)
    checker = check_qwb_relations if kind == "relations" else check_centralizer
    return [(r.relation, r.backend, r.ok) for point in points for r in checker(ctx, point=point)]


def _identity_checks(m: int, n: int, backend: str, seed: int):
    from .bimod import verify_identities

    tensor, proj = verify_identities(m, n)
    return [("induction-tensor", "labels", tensor), ("induction-proj", "labels", proj)]


def _dims_checks(m: int, n: int, backend: str, seed: int):
    from .bimod import bimodule_audit

    return [("bimodule-audit", "labels", bimodule_audit(m, n))]


# suite -> (default --max-mn, first m+n, first m, the checks of one (m,n) context)
_SUITES = {
    "relations": (5, 2, 0, partial(_chain_checks, "relations")),
    "centralizer": (5, 2, 0, partial(_chain_checks, "centralizer")),
    "identities": (12, 1, 1, _identity_checks),
    "dims": (12, 1, 0, _dims_checks),
}


def _sweep(suite: str, max_mn: int, backend: str = "symbolic", seed: int = 20177):
    """One report row per check of `suite`, over its contexts with
    m+n <= max_mn in order of m+n, then m.

    The contexts are computed column by column, m in the outer loop and n in
    the inner one, so the next reader of a context's label record
    (`labelctx.context`, which keeps 2) is the very next context; the rows
    are then sorted into the reported order, each context's checks kept in
    theirs."""
    _, first_total, first_m, checks = _SUITES[suite]
    rows = [{"relation": relation, "m": m, "n": n, "backend": label, "ok": ok}
            for m in range(first_m, max_mn + 1)
            for n in range(max(first_total - m, 0), max_mn - m + 1)
            for relation, label, ok in checks(m, n, backend, seed)]
    return sorted(rows, key=lambda row: (row["m"] + row["n"], row["m"]))


def _run_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    report = []
    for suite in suites:
        max_mn = _SUITES[suite][0] if args.max_mn is None else args.max_mn
        rows = _sweep(suite, max_mn, args.backend, args.seed)
        if not rows:
            # a bound that admits no context would otherwise pass with zero checks
            raise ValueError(f"--max-mn {max_mn} admits no context for the {suite} suite")
        report += rows
    failures = [r for r in report if not r["ok"]]
    if args.json:
        print(json.dumps(report, indent=None, sort_keys=True))
    else:
        by_ctx = {}
        for r in report:
            by_ctx.setdefault((r["m"], r["n"], r["backend"]), []).append(r)
        for (m, n, backend), rs in sorted(by_ctx.items(), key=str):
            bad = [r["relation"] for r in rs if not r["ok"]]
            status = "ok" if not bad else f"FAIL {bad}"
            print(f"(m,n)=({m},{n}) [{backend}] {len(rs)} checks: {status}")
    if failures:
        print(json.dumps({"error": "verification failed",
                          "failures": failures[:50]}), file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error for `main`, not by exiting,
    and a closed stream while printing help, which argparse would drop."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixedchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="indecomposable content of the chain")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("bimodule", help="full bimodule decomposition with audits")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("table", help="(t,r) table of the semisimple part")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")

    p = sub.add_parser("dump-rep", help="generator matrices of a module")
    p.add_argument("label")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("relations", "centralizer", "identities", "dims", "all"))
    p.add_argument("--json", action="store_true", help="JSON report")
    p.add_argument("--backend", choices=("symbolic", "eval"), default="symbolic")
    p.add_argument("--seed", type=int, default=20177)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted (N >= 1) but ignored: sweeps run in one process")
    p.add_argument("--max-mn", type=int, default=None)
    return parser


def _run(argv) -> int:
    """Parses the command line, runs the command and returns its exit code."""
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return exc.code or 0
    if args.command in ("decompose", "bimodule", "table") and (
            args.m < 0 or args.n < 0 or args.m + args.n < 1):
        raise ValueError("need m, n >= 0 with m + n >= 1")
    if args.command == "decompose":
        print(json.dumps(_decompose_payload(args.m, args.n), sort_keys=True))
        return 0
    if args.command == "bimodule":
        print(json.dumps(_bimodule_payload(args.m, args.n), sort_keys=True))
        return 0
    if args.command == "table":
        from .bimod import table_csv, table_grid
        from .partitions import bip_str

        if args.json:
            cells, ts, rs = table_grid(args.m, args.n)
            print(json.dumps({"m": args.m, "n": args.n, "t": ts, "r": rs,
                              "cells": {f"{t},{r}": bip_str(lam)
                                        for (t, r), lam in sorted(cells.items())}},
                             sort_keys=True))
        else:
            sys.stdout.write(table_csv(args.m, args.n))
        return 0
    if args.command == "dump-rep":
        print(json.dumps(_rep_payload(parse_label(args.label)), sort_keys=True))
        return 0
    if args.command == "verify":
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        return _run_verify(args)
    return 2


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # the reader is gone, so there is no one to report to; point stdout at
        # the null device so that the final flush of what is buffered succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        print(json.dumps({"error": "internal error", "type": type(exc).__name__,
                          "detail": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

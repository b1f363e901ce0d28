"""Command-line interface.

Subcommands: build (graph JSON), matrix (matrix text file), snf, coker,
report, conjecture, verify, oracle.  Exit codes: 0 success, 1 verdict
failure in verify, 2 usage or domain error, 3 internal arithmetic fault
(an `ArithmeticError` such as `ExactDivisionError` from the library).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from kasteleyn.families import _VARIANTS, FamilySpec, build_family_graph
from kasteleyn.graphs import dump_graph, enumerate_matchings
from kasteleyn.harness import (
    RINGS,
    ReportRecord,
    conjecture_suite,
    family_matrix_for_ring,
    run_report,
    verify_theorems,
)
from kasteleyn.matrices import cokernel_of, ring_adapter, smith_report, write_matrix
from kasteleyn.rings import DomainError


def _integer(text):
    """An integer option, read as `_IntRing.parse` reads integer text."""
    try:
        return ring_adapter("z").parse(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _partition(text):
    """Comma-separated `_integer` parts, each stripped; empty ones are skipped."""
    return tuple(_integer(p.strip()) for p in text.split(",") if p.strip())


def _spec_from_args(args):
    return FamilySpec(
        variant=args.family,
        a=args.a, b=args.b, c=args.c, d=args.d, e=args.e, n=args.n,
        group=args.group,
        q_mode=args.q_mode,
        wrong_parity=args.wrong_parity,
        lam=args.lam,
        mu=args.mu,
    )


def _add_family_args(p):
    p.add_argument("--family", default="ppbox", choices=_VARIANTS)
    p.add_argument("--a", type=_integer, default=0)
    p.add_argument("--b", type=_integer, default=0)
    p.add_argument("--c", type=_integer, default=0)
    p.add_argument("--d", type=_integer, default=0)
    p.add_argument("--e", type=_integer, default=0)
    p.add_argument("--n", type=_integer, default=0)
    p.add_argument("--group", default="1")
    p.add_argument("--q-mode", dest="q_mode", default="none",
                   choices=["none", "cube", "orbit"])
    p.add_argument("--wrong-parity", dest="wrong_parity", action="store_true")
    p.add_argument("--lam", type=_partition, default=())
    p.add_argument("--mu", type=_partition, default=())


def _add_common(p):
    p.add_argument("--out", default=None)


def _add_format(p, with_csv=False):
    choices = ["json", "csv", "text"] if with_csv else ["json", "text"]
    p.add_argument("--format", default="json", choices=choices)


def _add_ring(p):
    p.add_argument("--ring", default="z", choices=RINGS)
    p.add_argument("--q0", type=_integer, default=-1)


def _add_seed(p):
    p.add_argument("--seed", type=_integer, default=0)


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kasteleyn",
        description="Exact Kasteleyn/Kasteleyn-Percus/Gessel-Viennot matrices, "
                    "Smith normal forms and cokernels for planar matching families.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a family graph as JSON")
    _add_family_args(p)
    _add_common(p)

    p = sub.add_parser("matrix", help="emit the family matrix in text form")
    _add_family_args(p)
    _add_common(p)
    _add_seed(p)
    _add_ring(p)

    p = sub.add_parser("snf", help="Smith normal form report")
    _add_family_args(p)
    _add_common(p)
    _add_seed(p)
    _add_ring(p)
    p.add_argument("--transforms", action="store_true")

    p = sub.add_parser("coker", help="cokernel of the integer family matrix")
    _add_family_args(p)
    _add_common(p)
    _add_seed(p)
    p.add_argument("--q0", type=_integer, default=-1)
    p.add_argument("--ring", default="z", choices=["z", "z@q0"])

    p = sub.add_parser("report", help="full report record for one instance")
    _add_family_args(p)
    _add_common(p)
    _add_format(p, with_csv=True)
    _add_ring(p)

    p = sub.add_parser("conjecture", help="run a conjecture probe suite")
    _add_common(p)
    _add_format(p, with_csv=True)
    p.add_argument("--id", required=True, choices=["round", "sqfree", "q-minus-one"])
    p.add_argument("--ceiling", type=_integer, default=None)

    p = sub.add_parser("verify", help="verify a theorem suite")
    _add_common(p)
    _add_format(p)
    p.add_argument("--which", required=True, choices=["jt", "aztec"])
    p.add_argument("--ceiling", "--max-n", dest="ceiling", type=_integer, default=None)

    p = sub.add_parser("oracle", help="matching count (frontier dynamic program)")
    _add_family_args(p)
    _add_common(p)
    _add_format(p)
    return ap


def _csv_text(columns, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([columns, *rows])
    return buf.getvalue()


def run(args):
    if args.command == "build":
        G = build_family_graph(_spec_from_args(args))
        _emit(args, dump_graph(G))
        return 0
    if args.command in ("matrix", "snf", "coker"):
        M, kind, _ = family_matrix_for_ring(_spec_from_args(args), args.ring, args.q0, args.seed)
    if args.command == "matrix":
        _emit(args, write_matrix(M))
        return 0
    if args.command == "snf":
        rep = smith_report(M, include_transforms=args.transforms)
        rep["matrix_kind"] = kind
        _emit(args, json.dumps(rep, indent=1, sort_keys=True))
        return 0
    if args.command == "coker":
        c = cokernel_of(M)
        _emit(args, json.dumps({
            "schema_version": 1,
            "matrix_kind": kind,
            "free_rank": c.free_rank,
            "torsion": c.torsion_strings(),
            "group": c.group_str(),
        }, indent=1, sort_keys=True))
        return 0
    if args.command == "report":
        spec = _spec_from_args(args)
        rec = run_report(spec, args.ring, args.q0)
        if args.format == "csv":
            _emit(args, _csv_text(ReportRecord.CSV_COLUMNS, [rec.to_csv_row()]))
        elif args.format == "text":
            # a string prints as it is, any other value as sorted-key JSON
            data = rec.to_json()
            del data["duration"]
            _emit(args, "\n".join(
                f"{k}: {v if isinstance(v, str) else json.dumps(v, sort_keys=True)}"
                for k, v in sorted(data.items())))
        else:
            _emit(args, json.dumps(rec.to_json(), indent=1, sort_keys=True))
        return 0
    if args.command == "conjecture":
        verdicts = conjecture_suite(args.id, args.ceiling)
        if args.format == "csv":
            rows = [
                [v.conjecture, json.dumps(v.instance, sort_keys=True), v.verdict,
                 json.dumps(v.witness, sort_keys=True)]
                for v in verdicts
            ]
            _emit(args, _csv_text(["conjecture", "instance", "verdict", "witness"], rows))
        elif args.format == "text":
            lines = [
                f"{v.verdict:12s} {v.instance.get('label', v.instance)}"
                for v in verdicts
            ]
            counts = {}
            for v in verdicts:
                counts[v.verdict] = counts.get(v.verdict, 0) + 1
            lines.append(f"summary: {json.dumps(counts, sort_keys=True)}")
            _emit(args, "\n".join(lines))
        else:
            _emit(args, json.dumps([v.to_json() for v in verdicts], indent=1,
                                   sort_keys=True))
        return 0
    if args.command == "verify":
        summary, failures = verify_theorems(args.which, args.ceiling)
        payload = {"summary": summary, "failures": failures}
        if args.format == "text":
            _emit(args, f"{summary['which']}: checked {summary['checked']}, "
                        f"failed {summary['failed']}")
        else:
            _emit(args, json.dumps(payload, indent=1, sort_keys=True))
        return 0 if summary["failed"] == 0 else 1
    if args.command == "oracle":
        G = build_family_graph(_spec_from_args(args))
        ms = enumerate_matchings(G, count_guard=G.n_vertices)
        payload = {"count": ms.count, "total_weight": str(ms.total_weight)}
        if args.format == "text":
            _emit(args, f"count {ms.count}")
        else:
            _emit(args, json.dumps(payload, indent=1, sort_keys=True))
        return 0
    raise DomainError(f"unknown command {args.command!r}")


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a fault of the library, not a failed verdict (exit 1)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

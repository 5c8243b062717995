"""Command-line front end.

Subcommands: ``gamma`` (lattice paths), ``trees`` (tree tables, d <= 12),
``compute`` (one superpotential value), ``validate`` (pipeline agreement over a
range of degrees), ``scan`` (monotonicity profile), ``integrality`` (integer
check at the boundary fractions).  Output formats: json (default), csv, text.

``compute``, ``scan`` and ``integrality`` use the recursion, the production
engine; ``compute --method tree|linf`` selects an oracle instead.  ``validate``
and the per-interval check in ``scan`` run the oracles beside it within their
bounds (the tree sum for d <= 12, linf up to ``--linf-bound``) and demand
exact agreement; a ``validate`` row where the recursion ran alone reports
``agree`` as null (``unchecked`` in text and csv).

Exit codes: 0 success, 1 usage error, 2 cross-validation failure.

Conventions: a fraction given to ``--a`` always means "plus delta" (the
infinitesimal perturbation); ``inf`` is the infinite ratio.  Rationals are
rendered as ``p/q`` strings (``p`` when the denominator is 1) so that every
value re-parses exactly.  Timings (the ``ms`` fields) are the only
run-dependent output; pass ``--no-timing`` for byte-identical reruns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .lattice import AspectRatio, gamma_path
from .pipelines import (
    DEFAULT_LINF_BOUND,
    METHODS,
    TREE_MAX_DEGREE,
    MethodDisagreement,
    cross_validate,
    integrality_scan,
    scan_monotonicity,
    superpotential,
)
from .trees import enumerate_trees, vertex_data

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2 for
    # cross-validation failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _aspect(text: str) -> AspectRatio:
    try:
        return AspectRatio.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ellsuper", description="Exact superpotential counts for the projective plane.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gamma", parents=[common], help="lattice path of an aspect ratio")
    p.add_argument("--a", type=_aspect, required=True, help="aspect ratio: 'inf' or 'p/q' (means p/q+delta)")
    p.add_argument("--k", type=_nonnegative_int, required=True, help="largest path index")

    p = sub.add_parser("trees", parents=[common], help="trees with d unordered leaves")
    p.add_argument("--d", type=_positive_int, required=True)

    p = sub.add_parser("compute", parents=[common], help="one superpotential value")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--a", type=_aspect, required=True)
    p.add_argument("--method", choices=METHODS, default="recursion")
    p.add_argument("--linf-bound", type=_nonnegative_int, default=DEFAULT_LINF_BOUND,
                   help="largest d accepted by the linf oracle")
    p.add_argument("--no-timing", action="store_true", help="omit the ms field")

    p = sub.add_parser("validate", parents=[common], help="check that all pipelines agree")
    p.add_argument("--d-max", type=_positive_int, required=True)
    p.add_argument("--a", type=_aspect, default=AspectRatio.infinite())
    p.add_argument("--linf-bound", type=_nonnegative_int, default=DEFAULT_LINF_BOUND)
    p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("scan", parents=[common], help="monotonicity profile over aspect intervals")
    p.add_argument("--d", type=_positive_int, required=True)

    p = sub.add_parser("integrality", parents=[common], help="integrality at the p+q=3d fractions")
    p.add_argument("--d", type=_positive_int, required=True)

    return parser


def _cmd_gamma(args) -> dict:
    points = gamma_path(args.a, args.k)
    return {
        "a": str(args.a),
        "k_max": args.k,
        "points": [list(pt) for pt in points],
    }


def _cmd_trees(args) -> dict:
    if args.d > TREE_MAX_DEGREE:
        raise ValueError(
            f"trees lists every tree and is intended for d <= {TREE_MAX_DEGREE} "
            f"(about 3^d trees); use 'compute' for the value at d={args.d}"
        )
    rows = []
    for tree in enumerate_trees(args.d):
        rows.append({
            "key": tree.to_string(),
            "aut": tree.aut_order,
            "vertices": [
                {
                    "leaf_number": v.leaf_number,
                    "valency": v.valency,
                    "movable": v.movable,
                    "child_leaf_numbers": list(v.child_leaf_numbers),
                }
                for v in vertex_data(tree)
            ],
        })
    return {"d": args.d, "count": len(rows), "trees": rows}


def _cmd_compute(args) -> dict:
    start = time.perf_counter()
    res = superpotential(args.d, args.a, args.method, linf_bound=args.linf_bound)
    elapsed = round((time.perf_counter() - start) * 1e3, 3)
    out = {
        "d": res.d,
        "a": str(res.a),
        "wtT": str(res.wtT),
        "mult": res.multiplier,
        "T": str(res.T),
        "method": res.method,
    }
    if not args.a.is_infinite and args.a.p < args.a.q:
        out["warning"] = "aspect ratio below 1: outside the intended range a > 1"
    if not args.no_timing:
        out["ms"] = elapsed
    return out


def _cmd_validate(args) -> dict:
    results = []
    for d in range(1, args.d_max + 1):
        report = cross_validate(d, args.a, linf_bound=args.linf_bound)
        if args.no_timing:
            report.pop("ms", None)
        results.append(report)
    # only the rows where two or more pipelines ran were compared
    checked = any(report["agree"] for report in results)
    return {"a": str(args.a), "d_max": args.d_max, "agree": True if checked else None,
            "results": results}


def _agree_cell(agree) -> str:
    return "unchecked" if agree is None else str(agree)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _render_csv(command: str, payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "gamma":
        writer.writerow(["k", "i", "j"])
        for k, (i, j) in enumerate(payload["points"]):
            writer.writerow([k, i, j])
    elif command == "trees":
        writer.writerow(["key", "aut", "vertices"])
        for row in payload["trees"]:
            cells = ";".join(
                f"l={v['leaf_number']} val={v['valency']} mov={int(v['movable'])}"
                for v in row["vertices"]
            )
            writer.writerow([row["key"], row["aut"], cells])
    elif command == "compute":
        header = [k for k in payload if k != "warning"]
        writer.writerow(header)
        writer.writerow([payload[k] for k in header])
    elif command == "validate":
        writer.writerow(["d", "a", "wtT", "mult", "T", "agree"])
        for row in payload["results"]:
            writer.writerow([row["d"], row["a"], row["wtT"], row["mult"], row["T"], _agree_cell(row["agree"])])
    elif command == "scan":
        writer.writerow(["interval_start", "a", "T", "midpoint", "midpoint_T"])
        for row in payload["profile"]:
            writer.writerow([row["interval_start"], row["a"], row["T"], row["midpoint"], row["midpoint_T"]])
    elif command == "integrality":
        writer.writerow(["p", "q", "T", "integer", "nonnegative", "vanishes", "adjunction_bound"])
        for row in payload["rows"]:
            writer.writerow([row["p"], row["q"], row["T"], row["integer"],
                             row["nonnegative"], row["vanishes"], row["adjunction_bound"]])
    else:
        raise ValueError(f"no csv rendering for {command}")
    return buf.getvalue().rstrip("\n")


def _render_text(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "gamma":
        lines.append(f"path for a = {payload['a']}:")
        lines.append("  " + " ".join(f"({i},{j})" for i, j in payload["points"]))
    elif command == "trees":
        lines.append(f"{payload['count']} trees with {payload['d']} leaves:")
        width = max(len(r["key"]) for r in payload["trees"])
        for row in payload["trees"]:
            cells = "; ".join(
                f"l={v['leaf_number']} |v|={v['valency']}" + (" movable" if v["movable"] else "")
                for v in row["vertices"]
            ) or "no internal vertices"
            lines.append(f"  {row['key']:<{width}}  Aut={row['aut']:<6} {cells}")
    elif command == "compute":
        lines.append(
            f"T_{payload['d']}^{payload['a']} = {payload['T']}  "
            f"(wtT = {payload['wtT']}, mult = {payload['mult']}, method = {payload['method']})"
        )
        if "warning" in payload:
            lines.append(f"warning: {payload['warning']}")
    elif command == "validate":
        for row in payload["results"]:
            lines.append(f"d={row['d']} a={row['a']}: wtT = {row['wtT']}, T = {row['T']}, agree = {_agree_cell(row['agree'])}")
    elif command == "scan":
        lines.append(f"T profile for d = {payload['d']} (interval start -> value):")
        for row in payload["profile"]:
            lines.append(f"  a > {row['interval_start']}: T = {row['T']}")
        lines.append(f"  a = inf: T = {payload['infinity_T']}")
        lines.append(f"nondecreasing: {payload['nondecreasing']}  consistent: {payload['consistent']}")
    elif command == "integrality":
        lines.append(f"boundary fractions for d = {payload['d']} (p + q = {3 * payload['d']}):")
        for row in payload["rows"]:
            flags = [name for name in ("integer", "nonnegative", "vanishes", "adjunction_bound") if row[name]]
            lines.append(f"  a = {row['p']}/{row['q']}: T = {row['T']}  [{' '.join(flags)}]")
        lines.append(f"all integral: {payload['all_integral']}")
    else:
        raise ValueError(f"no text rendering for {command}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "gamma":
            payload = _cmd_gamma(args)
        elif args.command == "trees":
            payload = _cmd_trees(args)
        elif args.command == "compute":
            payload = _cmd_compute(args)
        elif args.command == "validate":
            payload = _cmd_validate(args)
        elif args.command == "scan":
            payload = scan_monotonicity(args.d)
        else:
            payload = integrality_scan(args.d)
    except MethodDisagreement as exc:
        print(f"ellsuper: cross-validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"ellsuper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        print(_render_json(payload))
    elif args.format == "csv":
        print(_render_csv(args.command, payload))
    else:
        print(_render_text(args.command, payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

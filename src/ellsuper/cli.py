"""Command-line front end.

Subcommands: ``gamma`` (lattice paths), ``trees`` (tree tables, d <= 12),
``compute`` (one superpotential value), ``validate`` (pipeline agreement over a
range of degrees), ``scan`` (monotonicity profile), ``integrality`` (integer
check at the boundary fractions).  Output formats: json (default), csv, text.

``compute``, ``scan`` and ``integrality`` use the recursion, the production
engine; ``compute --method tree|linf`` selects another pipeline instead.
``validate`` and the per-interval check in ``scan`` run the tree sum beside
it at every d (``validate`` also linf, up to ``--linf-bound``) and demand
exact agreement.

A job compiles only the code its subcommand runs: ``validate``, ``scan`` and
``integrality`` import :mod:`.sweeps` in their handlers, ``trees`` imports
:mod:`.trees`, and ``--format csv|text`` imports :mod:`.render`.

Exit codes: 0 success, 1 usage error, 2 cross-validation failure.

Conventions: a fraction given to ``--a`` always means "plus delta" (the
infinitesimal perturbation); ``inf`` is the infinite ratio.  Rationals are
rendered as ``p/q`` strings (``p`` when the denominator is 1) so that every
value re-parses exactly.  Timings (the ``ms`` fields) are the only
run-dependent output; pass ``--no-timing`` for byte-identical reruns.
"""

import argparse
import json
import sys
import time

from .lattice import AspectRatio, gamma_path
from .pipelines import DEFAULT_LINF_BOUND, METHODS, MethodDisagreement, _engine, superpotential

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
    p.set_defaults(run=_cmd_gamma)

    p = sub.add_parser("trees", parents=[common], help="trees with d unordered leaves")
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(run=_cmd_trees)

    p = sub.add_parser("compute", parents=[common], help="one superpotential value")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--a", type=_aspect, required=True)
    p.add_argument("--method", choices=METHODS, default="recursion")
    p.add_argument("--linf-bound", type=_nonnegative_int, default=DEFAULT_LINF_BOUND,
                   help="largest d accepted by the linf oracle")
    p.add_argument("--no-timing", action="store_true", help="omit the ms field")
    p.set_defaults(run=_cmd_compute)

    p = sub.add_parser("validate", parents=[common], help="check that all pipelines agree")
    p.add_argument("--d-max", type=_positive_int, required=True)
    p.add_argument("--a", type=_aspect, default=AspectRatio.infinite(),
                   help="aspect ratio: 'inf' (default) or 'p/q' (means p/q+delta)")
    p.add_argument("--linf-bound", type=_nonnegative_int, default=DEFAULT_LINF_BOUND,
                   help="largest d accepted by the linf oracle")
    p.add_argument("--no-timing", action="store_true", help="omit the ms fields")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("scan", parents=[common], help="monotonicity profile over aspect intervals")
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("integrality", parents=[common], help="integrality at the p+q=3d fractions")
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(run=_cmd_integrality)

    return parser


def _cmd_gamma(args) -> dict:
    points = gamma_path(args.a, args.k)
    return {
        "a": str(args.a),
        "k_max": args.k,
        "points": [list(pt) for pt in points],
    }


TREE_MAX_DEGREE = 12  # bounds `trees --d`, which lists every tree (21965 at d = 12)


def _cmd_trees(args) -> dict:
    if args.d > TREE_MAX_DEGREE:
        raise ValueError(
            f"trees lists every tree and is intended for d <= {TREE_MAX_DEGREE} "
            f"(about 3^d trees); use 'compute' for the value at d={args.d}"
        )
    from .trees import enumerate_trees, vertex_data

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
    _engine(args.method)  # loads the engine's module before the clock starts
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
    from .sweeps import _validation_sweep

    results = _validation_sweep(args.d_max, args.a, args.linf_bound)
    if args.no_timing:
        for report in results:
            del report["ms"]
    return {"a": str(args.a), "d_max": args.d_max, "agree": True, "results": results}


def _cmd_scan(args) -> dict:
    from .sweeps import scan_monotonicity

    return scan_monotonicity(args.d)


def _cmd_integrality(args) -> dict:
    from .sweeps import integrality_scan

    return integrality_scan(args.d)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        payload = args.run(args)
    except MethodDisagreement as exc:
        print(f"ellsuper: cross-validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"ellsuper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        from .render import render_csv, render_text

        print((render_csv if args.format == "csv" else render_text)(args.command, payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``gamma`` (lattice paths), ``trees`` (tree tables, d <= 12),
``compute`` (one superpotential value), ``validate`` (pipeline agreement over a
range of degrees), ``scan`` (monotonicity profile), ``integrality`` (integer
check at the boundary fractions).  Output formats: json (default), csv, text.

``compute``, ``scan`` and ``integrality`` use the recursion, the production
engine; ``compute --method tree|linf`` selects another pipeline instead.
``validate`` and the per-interval check in ``scan`` run the tree sum beside
it at every d (``validate`` also linf, up to ``--linf-bound``) and demand
exact agreement.  ``integrality`` runs the recursion alone: its boundary
fractions are interval starts of ``scan`` at the same degree, so ``scan
--d N`` cross-checks every value ``integrality --d N`` reads.

A job compiles only the code its subcommand runs; the README's "Start-up"
table lists the modules each subcommand loads.  This module imports
:mod:`.lattice` and the recursion's :mod:`.engine`, and the rest only in
the code that needs it: :mod:`.validation` in the ``validate`` handler,
:mod:`.sweeps` in the ``scan`` and ``integrality`` handlers, :mod:`.trees`
in the ``trees`` handler, :mod:`.render` for ``--format csv|text``, and
:mod:`.usage`, with ``argparse``, for help and usage errors.  The default
json output comes from :func:`_json`, which writes ``json.dumps(payload,
indent=2)`` byte for byte and loads ``json`` only for a string that needs
escaping or a value of a type no payload holds.  Every pipeline has one
calling convention, ``engine._engine(method)``, a callable ``(d, a)``
yielding wtT_1 .. wtT_d.  ``compute`` resolves it before its clock starts,
so an oracle's module loads outside the timed region; ``validate``'s ``ms``
clocks include each pass's read points and factorial table, which are built
in its first step.

Each subcommand is described once, in the table :data:`_SUBCOMMANDS` (name,
help, handler and options).  :func:`_parse_plain` reads it to parse a plain
command line (exact option names, each given once, valid values) without
argparse, and ``usage.build_parser`` makes the argparse parser from the same
table.  :func:`main` tries the plain parser first and hands anything else to
argparse, loading :mod:`.usage` only then, so help, abbreviations, ``--x=y``
forms and every usage error read as before, and a plain job neither imports
argparse nor compiles the parser's builder.

Exit codes: 0 success, 1 usage error, 2 cross-validation failure, and 141
(128 + SIGPIPE) when the reader of standard output closes the pipe early, as
``| head -n 1`` does, with nothing on stderr.  :func:`main` returns the first
three, and writes each payload with its newline in one write, so such a
reader of a payload that fits in the pipe does not break it, even when
output is unbuffered.  This module is not a process entry: ``python -m
ellsuper`` and the installed script run :func:`ellsuper.__main__.run`,
which flushes both standard streams, reports a closed pipe as 141, and
ends the process with the code without interpreter teardown unless a
tracer or profiler is attached.  A ratio below 1 is still computed;
``compute`` and ``validate`` note it in one ``ellsuper: warning:`` line on
stderr.

Conventions: a fraction given to ``--a`` always means "plus delta" (the
infinitesimal perturbation); ``inf`` is the infinite ratio.  Rationals are
rendered as ``p/q`` strings (``p`` when the denominator is 1) so that every
value re-parses exactly.  Timings (the ``ms`` fields) are the only
run-dependent output; pass ``--no-timing`` for byte-identical reruns.
"""

import math
import sys
import time
from types import SimpleNamespace

from .lattice import AspectRatio, gamma_path
from .engine import DEFAULT_LINF_BOUND, METHODS, MethodDisagreement, _below_one, _engine, _text, _value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


def _type_error(message: str) -> Exception:
    # argparse reports this class's message as is; it is loaded only on a bad value
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _type_error(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _type_error(f"must be a nonnegative integer, got {text}")
    return value


def _aspect(text: str) -> AspectRatio:
    try:
        return AspectRatio.parse(text)
    except ValueError as exc:
        raise _type_error(str(exc)) from None


GAMMA_MAX_INDEX = 100_000  # bounds `gamma --k`, which lists every point (about 400 bytes each)
TREE_MAX_DEGREE = 12  # bounds `trees --d`, which lists every tree (21965 at d = 12)


def _cmd_gamma(args) -> dict:
    if args.k > GAMMA_MAX_INDEX:
        raise ValueError(
            f"gamma lists every path point and is intended for k <= {GAMMA_MAX_INDEX}; "
            f"a degree-d value reads only the points up to k = 3d - 1"
        )
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
    from .trees import enumerate_trees, vertex_data

    rows = []
    for tree in enumerate_trees(args.d):
        rows.append({
            "key": tree.to_string(),
            "aut": tree.aut_order,
            "vertices": [v._asdict() for v in vertex_data(tree)],
        })
    return {"d": args.d, "count": len(rows), "trees": rows}


def _notice_below_one(a: AspectRatio) -> None:
    """Print one notice line to stderr if ``a`` is below 1."""
    if _below_one(a):
        print(f"ellsuper: warning: aspect ratio {a} is below 1: outside the intended range a > 1",
              file=sys.stderr)


def _cmd_compute(args) -> dict:
    _engine(args.method)  # loads the engine's module before the clock starts
    _notice_below_one(args.a)
    start = time.perf_counter()
    wt, multiplier, t = _value(args.d, args.a, args.method, args.linf_bound)
    elapsed = round((time.perf_counter() - start) * 1e3, 3)
    out = {
        "d": args.d,
        "a": str(args.a),
        "wtT": _text(wt),
        "mult": multiplier,
        "T": _text(t),
        "method": args.method,
    }
    if _below_one(args.a):
        out["warning"] = "aspect ratio below 1: outside the intended range a > 1"
    if not args.no_timing:
        out["ms"] = elapsed
    return out


def _cmd_validate(args) -> dict:
    from .validation import _validation_sweep

    _notice_below_one(args.a)
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


_FORMAT = ("--format", {"choices": ("json", "csv", "text"), "default": "json",
                        "help": "output format (default json)"})
_DEGREE = ("--d", {"type": _positive_int, "required": True})
_LINF_BOUND = ("--linf-bound", {"type": _nonnegative_int, "default": DEFAULT_LINF_BOUND,
                                "help": "largest d accepted by the linf oracle"})

# Every subcommand, once: name -> (help, handler, options), each option a flag
# and its add_argument keywords.  Every subcommand takes _FORMAT first.
_SUBCOMMANDS = {
    "gamma": ("lattice path of an aspect ratio", _cmd_gamma, (
        ("--a", {"type": _aspect, "required": True,
                 "help": "aspect ratio: 'inf' or 'p/q' (means p/q+delta)"}),
        ("--k", {"type": _nonnegative_int, "required": True, "help": "largest path index"}),
    )),
    "trees": ("trees with d unordered leaves", _cmd_trees, (_DEGREE,)),
    "compute": ("one superpotential value", _cmd_compute, (
        _DEGREE,
        ("--a", {"type": _aspect, "required": True}),
        ("--method", {"choices": METHODS, "default": "recursion"}),
        _LINF_BOUND,
        ("--no-timing", {"action": "store_true", "help": "omit the ms field"}),
    )),
    "validate": ("check that all pipelines agree", _cmd_validate, (
        ("--d-max", {"type": _positive_int, "required": True}),
        ("--a", {"type": _aspect, "default": AspectRatio.infinite(),
                 "help": "aspect ratio: 'inf' (default) or 'p/q' (means p/q+delta)"}),
        _LINF_BOUND,
        ("--no-timing", {"action": "store_true", "help": "omit the ms fields"}),
    )),
    "scan": ("monotonicity profile over aspect intervals", _cmd_scan, (_DEGREE,)),
    "integrality": ("integrality at the p+q=3d fractions, by the recursion alone; "
                    "scan --d N cross-checks every value it reads", _cmd_integrality, (_DEGREE,)),
}


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without loading ``json`` for plain payloads.

    Dicts with ``str`` keys, lists, tuples, ints, finite floats, bools,
    ``None`` and strings of printable ASCII without ``"`` or ``\\`` are
    written here; any other string or value, escaping included, is left to
    ``json.dumps``.  ``pad`` is a newline and the indent of ``value``'s line.
    """
    kind = type(value)
    if kind is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int or kind is float and math.isfinite(value):
        return repr(value)
    elif kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    elif kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + ",".join([inner + _json(item, inner) for item in value]) + pad + "]"
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{inner}{_json(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + ",".join(items) + pad + "}"
    import json

    # its own lines sit one level deeper; a JSON string holds no raw newline
    return json.dumps(value, indent=2).replace("\n", pad)


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """What ``usage.build_parser().parse_args(argv)`` returns, for a plain command line; else None.

    Plain: a subcommand, then only its exact option names, none repeated,
    each value option followed by a value that does not start with ``-`` and
    that the option's type and choices accept, and every required option
    present.  Any other command line (help, abbreviations, ``--x=y``, errors)
    is left to argparse, which parses or reports it.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, run, options = _SUBCOMMANDS[argv[0]]
    options = dict((_FORMAT, *options))
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # a ValueError or ArgumentTypeError, which argparse reports
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], run=run)
    for flag, kwargs in options.items():
        if kwargs.get("required") and flag not in given:
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        from .usage import build_parser

        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 0 after help and 2 on usage errors; the contract
            # here reserves 2 for cross-validation failures, so remap.
            return EXIT_USAGE if exc.code else EXIT_OK

    try:
        payload = args.run(args)
    except MethodDisagreement as exc:
        print(f"ellsuper: cross-validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"ellsuper: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        text = _json(payload)
    else:
        from .render import render_csv, render_text

        text = (render_csv if args.format == "csv" else render_text)(args.command, payload)
    # one write with its newline: `print` writes the newline apart, and with
    # unbuffered output a reader gone after the first line breaks the second
    sys.stdout.write(text + "\n")
    return EXIT_OK

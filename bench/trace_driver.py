"""Run one ``ellsuper`` CLI job with its layer-boundary functions traced.

Usage::

    python bench/trace_driver.py <fd> <job-id> <cli argument>...

The driver imports ``ellsuper.cli``, wraps the public functions listed in
:data:`LAYERS` (and the two :data:`METHODS` of ``LinfMorphism``), then calls
``ellsuper.cli.main(argv)`` exactly as ``python -m ellsuper`` would.  The CLI
output goes to standard output unchanged.  When the job ends, one JSON
summary of its spans and counters is written to file descriptor ``fd`` and
the process exits with the CLI's exit code.

Wrapping is by object identity: the function is taken from ``ellsuper``'s
public names, and every reference to that object in every loaded
``ellsuper.*`` module is replaced.  Calls made inside a module go through its
globals, so they are traced too, and a module rename does not change what is
traced.  A name that no longer exists is reported as absent.

Kinds of wrapper:

``span``  records name, start, end and parent span; the job id is written
          with the summary.  Spans stay in memory until the job ends.
``count`` counts calls only (hot, tiny functions).
``gen``   counts the items a generator function yields.

Self time is a span's duration minus the time covered by its direct child
spans.  Work done by private helpers and by ``count`` functions lands in the
enclosing span: in particular ``linf.entry`` self time includes the inverse's
private tree-plan evaluation and ``LinfMorphism.apply``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

SPAN, COUNT, GEN = "span", "count", "gen"

# (metric prefix, public name in ``ellsuper``, kind).  The prefix is the
# layer's module name at the time the benchmark was defined; it is fixed here
# so that metric names survive a module rename.
LAYERS = (
    ("superpotential", "tree_wtT", SPAN),
    ("superpotential", "recursion_wtT", SPAN),
    ("superpotential", "cross_validate", SPAN),
    ("superpotential", "scan_monotonicity", SPAN),
    ("trees", "enumerate_trees", SPAN),
    ("trees", "vertex_data", SPAN),
    ("trees", "enumerate_ordered_trees", SPAN),
    ("lattice", "gamma_path", SPAN),
    ("lattice", "gamma_point", COUNT),
    ("lattice", "pair_factorial", SPAN),
    ("lattice", "point_add", SPAN),
    ("numerics", "factorial", COUNT),
    ("numerics", "compositions", GEN),
    ("numerics", "partitions", GEN),
    ("linf", "linf_superpotential", SPAN),
    ("linf", "invert", SPAN),
)

# (metric prefix, class public name, method name, kind).
METHODS = (
    ("linf", "LinfMorphism", "entry", SPAN),
    ("linf", "LinfMorphism", "apply", COUNT),
)

ROOT_SPAN = "cli.main"

_names: list[str] = []
_span_name: list[int] = []
_span_parent: list[int] = []
_span_start: list[float] = []
_span_end: list[float] = []
_stack = [-1]
_counts: dict[str, int] = {}


def _span(fn, name: str):
    nid = len(_names)
    _names.append(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(_span_name)
        _span_name.append(nid)
        _span_parent.append(_stack[-1])
        _span_end.append(0.0)
        _stack.append(idx)
        _span_start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            _span_end[idx] = perf_counter()
            _stack.pop()

    return wrapper


def _count(fn, name: str):
    _counts[name] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _gen(fn, name: str):
    _counts[name] = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            _counts[name] += 1
            yield item

    return wrapper


def _wrap(fn, name: str, kind: str):
    if kind == SPAN:
        return _span(fn, name)
    if kind == COUNT:
        return _count(fn, name)
    return _gen(fn, name)


def install(layers=LAYERS) -> tuple[dict, list[str]]:
    """Wrap every listed layer function; return (originals by name, absent names)."""
    import ellsuper
    import ellsuper.cli

    modules = [m for key, m in sys.modules.items()
               if (key == "ellsuper" or key.startswith("ellsuper.")) and m is not None]
    originals: dict = {}
    absent: list[str] = []
    for prefix, public, kind in layers:
        name = f"{prefix}.{public}"
        fn = getattr(ellsuper, public, None)
        if not callable(fn) or (kind == GEN and not inspect.isgeneratorfunction(fn)):
            absent.append(name)
            continue
        wrapped = _wrap(fn, name, kind)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
        originals[name] = fn
    for prefix, cls_name, method, kind in METHODS:
        name = f"{prefix}.{method}"
        cls = getattr(ellsuper, cls_name, None)
        fn = vars(cls).get(method) if isinstance(cls, type) else None
        if not callable(fn):
            absent.append(name)
            continue
        setattr(cls, method, _wrap(fn, name, kind))
        originals[name] = fn
    main = getattr(ellsuper.cli, "main", None)
    if not callable(main):
        absent.append(ROOT_SPAN)
    else:
        ellsuper.cli.main = _span(main, ROOT_SPAN)
        originals[ROOT_SPAN] = main
    return originals, absent


def summarize(originals: dict, absent: list[str], job_id: int) -> dict:
    """Per-name self time (ms), span counts and counters for the finished job."""
    n = len(_span_name)
    covered = [0.0] * n
    for i in range(n):
        parent = _span_parent[i]
        if parent >= 0:
            covered[parent] += _span_end[i] - _span_start[i]
    self_ms = {name: 0.0 for name in _names}
    calls = {name: 0 for name in _names}
    for i in range(n):
        name = _names[_span_name[i]]
        self_ms[name] += (_span_end[i] - _span_start[i] - covered[i]) * 1e3
        calls[name] += 1
    calls.update(_counts)
    cache = {}
    for name, fn in originals.items():
        info = getattr(fn, "cache_info", None)
        if info is not None:
            stats = info()
            cache[name] = {"hits": stats.hits, "misses": stats.misses}
    return {"job": job_id, "spans": n, "self_ms": self_ms, "calls": calls,
            "cache": cache, "absent": absent}


def main(argv: list[str]) -> int:
    fd, job_id, cli_argv = int(argv[0]), int(argv[1]), argv[2:]
    originals, absent = install()
    if ROOT_SPAN in absent:
        print("trace_driver: ellsuper.cli.main is absent", file=sys.stderr)
        return 1
    import ellsuper.cli

    code = ellsuper.cli.main(cli_argv)
    sys.stdout.flush()
    with os.fdopen(fd, "w") as out:
        json.dump(summarize(originals, absent, job_id), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

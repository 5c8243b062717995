"""Sweeps that drive the recursion and the tree sum over degrees and ratios.

:func:`_validation_sweep` runs every applicable pipeline at one ``a`` and
every degree up to d, and demands exact agreement; ``scan_monotonicity``
profiles T(d, .) over the intervals between the breakpoints of
:func:`_breakpoint_pairs`; ``integrality_scan`` evaluates T at the boundary
fractions ``p + q = 3d``.  ``_validation_sweep`` and ``integrality_scan``
read every pipeline through ``engine._engine``, one callable ``(d, a)``
yielding wtT_1 .. wtT_d per method, which loads :mod:`.treesum` and
:mod:`.linf` on first use.  ``scan_monotonicity`` alone calls the passes
directly, as ``(points, fact, rows)``, since it resumes their rows across
ratios; it imports the tree pass from :mod:`.treesum` when called.  Both
drivers that cross-check demand agreement through one rule, ``_agreed``,
whose failure dump reads ``lattice.path_signature`` and is the only use of
``json`` here, imported on failure.  The README's "Start-up" table lists
what each subcommand loads.

Every value stays a canonical integer pair ``(num, den)`` (see
``engine._pair``) up to the report, which renders it as ``str(Fraction)``
would, and pairs compare by cross-multiplication.  The library functions
that return this module's reports or values as ``Fraction``s, with the
warning below 1, are in :mod:`.pipelines`: ``cross_validate`` is row d of
``_validation_sweep`` and ``scan_breakpoints`` lists ``_breakpoint_pairs``.

The scan sweeps all its ratios in ascending order through one list of
per-degree rows per engine.  The degree-n row of either engine reads only
the points ``G_2, G_5, .., G_{3n-1}``, so the scan runs both passes, and
checks them against each other, whenever a ratio's points differ from the
last ones checked, and reuses that checked value otherwise.  Each pass
keeps the rows up to the first point that differs from the ratio it was
last run at, so it recomputes only the degrees past their common prefix.
"""

import math
import time

from .lattice import AspectRatio, gamma_point, mult, path_signature
from .engine import (
    MethodDisagreement,
    _engine,
    _factorials,
    _over,
    _read_points,
    _recursion_pass,
    _text,
    _value,
)


def _agreed(d: int, a: AspectRatio, values: dict) -> tuple[int, int]:
    """The one canonical pair that every pipeline in ``values`` gave at (d, a).

    ``values`` maps each pipeline to its canonical pair.  If any two differ,
    raises :class:`MethodDisagreement`, dumping the values and the whole
    prefix G_0..G_{3d-1}.
    """
    agreed = set(values.values())
    if len(agreed) == 1:
        return agreed.pop()
    import json

    dump = {
        "d": d,
        "a": str(a),
        "path_prefix": [list(pt) for pt in path_signature(a, d)],
        "values": {name: _text(v) for name, v in values.items()},
    }
    raise MethodDisagreement(f"superpotential pipelines disagree: {json.dumps(dump)}")


def _validation_sweep(d_max: int, a: AspectRatio, linf_bound: int) -> list[dict]:
    """The agreement reports at d = 1 .. d_max, from one run of each pipeline.

    Each pipeline is one ``engine._engine(method)(top, a)`` iterator, stepped
    one degree at a time: the recursion and the tree sum to d_max, linf to
    ``min(d_max, linf_bound)`` (``linf_bound=0`` skips it), and each report's
    ``methods`` lists the pipelines that ran at its degree.  Raises
    :class:`MethodDisagreement` with a full operand dump if any two differ at
    any degree, so every returned report has ``agree`` ``True``.  Each ``ms``
    entry is its pipeline's time from the start of the sweep to that degree,
    which is what a run at that degree alone costs; a pass's read points and
    factorial table are built in its first step, inside that clock, and the
    linf module is loaded before any clock starts.  Its callers say so below
    1: ``pipelines.cross_validate`` warns, naming its caller's line, and
    ``validate`` prints a notice.
    """
    tops = {"recursion": d_max, "tree": d_max, "linf": min(d_max, linf_bound)}
    runs = {method: _engine(method)(top, a) for method, top in tops.items() if top >= 1}
    clocks = dict.fromkeys(runs, 0.0)
    reports = []
    for d in range(1, d_max + 1):
        values: dict[str, tuple[int, int]] = {}
        for method, run in runs.items():
            if d <= tops[method]:
                start = time.perf_counter()
                values[method] = next(run)
                clocks[method] += time.perf_counter() - start
        wt = _agreed(d, a, values)
        multiplier = mult(a, gamma_point(a, 3 * d - 1))
        reports.append({
            "d": d,
            "a": str(a),
            "wtT": _text(wt),
            "mult": multiplier,
            "T": _text(_over(wt, multiplier)),
            "methods": sorted(values),
            "agree": True,
            "ms": {method: round(clocks[method] * 1e3, 3) for method in values},
        })
    return reports


def _breakpoint_pairs(d: int):
    """Yield the reduced p/q > 1 with p + q <= 3d as pairs (p, q), ascending.

    These are the only ratios at which the path prefix G_0..G_{3d-1} can
    change: the argmin at level k flips where adjacent candidates tie, i.e.
    at a = (k-j)/(j+1) or a = (k-j-1)/j with k <= 3d-1, and both kinds have
    numerator plus denominator at most 3d.  (The bound 3d is sharp: the
    prefix point at index 3d-1 flips from (3d-2, 1) to (3d-1, 0) at
    a = 3d-1, a fraction with p + q = 3d.)

    p/q rises with p/(p + q), and gcd(p, p + q) = gcd(p, q), so the reduced
    p/q > 1 with p + q <= n = 3d are the Farey fractions h/k of order n
    strictly between 1/2 and 1, with p = h and q = k - h.  They come in
    order from the successor rule: after the neighbors a/b < h/k in the
    Farey sequence of order n comes (m h - a)/(m k - b), m = (n + b) // k.
    The first after 1/2 is (k + 1)/2 over the largest odd k <= n.
    """
    n = 3 * d
    a, b = 1, 2
    k = n if n % 2 else n - 1
    h = (k + 1) // 2
    while h < k:
        yield h, k - h
        m = (n + b) // k
        a, b, h, k = h, k, m * h - a, m * k - b


def _below(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x < y for canonical pairs, by cross-multiplication."""
    return x[0] * y[1] < y[0] * x[1]


def scan_monotonicity(d: int) -> dict:
    """Profile of T(d, a) over the intervals between breakpoints, a in (1, inf).

    Each interval is represented by its left endpoint plus delta (for the
    first interval, 1 + delta).  Every representative value is
    cross-validated between the recursion and the tree sum, raising
    :class:`MethodDisagreement` as :func:`_validation_sweep` does.  A second point
    inside the same interval (the mediant with the next breakpoint), with its
    own path points and its own multiplicity, guards the breakpoint
    analysis.  Both verdicts are read off the values, in sweep order:
    ``nondecreasing`` if no value drops from one interval start to the next
    and from the last start to ``inf``, and ``consistent`` if every midpoint
    equals its start and the last start equals ``inf``, since the last
    interval extends to the infinite ratio.  A non-monotone profile is
    reported, never raised; it is exploratory output.

    The ratios are evaluated in one ascending sweep (each start, its
    midpoint, the next start, ..., then ``inf``) by one rule: a ratio whose
    d read points differ from the last ones checked runs both passes and
    demands they agree; any other ratio reuses the last checked wtT.
    Either way the value is divided by the ratio's own multiplicity.  So
    every prefix the scan reads is cross-checked, starts, midpoints and
    ``inf`` alike, and each pass runs once per change of prefix: 27 times
    each over the 141 ratios at d = 7, 192 times each over 1103 at d = 20.
    Each pass resumes from its previous run's rows, which is exact too:
    rows up to the longest common prefix of two ratios' points are the
    same, and only the degrees past it are recomputed.
    """
    if d < 1:
        raise ValueError(f"scan_monotonicity requires d >= 1, got {d}")
    from .treesum import _tree_pass

    reps = [(1, 1), *_breakpoint_pairs(d)]
    fact = _factorials(d)
    recursion_rows: list = []
    tree_rows: list = []
    checked = wt = None  # the last cross-checked read points and their wtT

    def value(a: AspectRatio) -> tuple[int, int]:
        """T at ``a``, cross-checking the passes if its read points are not the last checked ones."""
        nonlocal checked, wt
        points = _read_points(a, d)
        if points != checked:
            wt = _agreed(d, a, {"recursion": _recursion_pass(points, fact, recursion_rows),
                                "tree": _tree_pass(points, fact, tree_rows)})
            checked = points
        return _over(wt, mult(a, points[-1]))

    # each start, then its midpoint: the mediant with the next start, or for the
    # last interval, which runs to inf, the start plus 1; inf last
    ratios = []
    for (p, q), (p2, q2) in zip(reps, [*reps[1:], (reps[-1][1], 0)]):
        ratios += AspectRatio.plus_delta(p, q), AspectRatio.plus_delta(p + p2, q + q2)
    ratios.append(AspectRatio.infinite())
    ts = [value(a) for a in ratios]
    starts = ts[::2]  # the interval starts, then inf
    nondecreasing = not any(_below(t, prev) for prev, t in zip(starts, starts[1:]))
    consistent = ts[1::2] == ts[:-1:2] and ts[-3] == ts[-1]
    rows = [{
        "interval_start": _text(rep),
        "a": str(a),
        "T": _text(t),
        "midpoint": _text((mid.p, mid.q)),
        "midpoint_T": _text(mid_t),
    } for rep, a, t, mid, mid_t in zip(reps, ratios[::2], starts, ratios[1::2], ts[1::2])]
    return {
        "d": d,
        "profile": rows,
        "infinity_T": _text(ts[-1]),
        "nondecreasing": nondecreasing,
        "consistent": consistent,
    }


def integrality_scan(d: int) -> dict:
    """T(d, p/q + delta) for every reduced p/q > 1 with p + q = 3d.

    Reports, per fraction, the exact value, whether it is a nonnegative
    integer, whether it vanishes, and whether the pair clears the adjunction
    bound (p-1)(q-1) <= (d-1)(d-2).  The bound column is informational: the
    scan asserts nothing about where the count may vanish.
    """
    if d < 1:
        raise ValueError(f"integrality_scan requires d >= 1, got {d}")
    rows = []
    for q in range(1, 3 * d):
        p = 3 * d - q
        if p <= q or math.gcd(p, q) != 1:
            continue
        a = AspectRatio.plus_delta(p, q)
        t = _value(d, a)[2]
        rows.append({
            "p": p,
            "q": q,
            "a": str(a),
            "T": _text(t),
            "integer": t[1] == 1,
            "nonnegative": t[0] >= 0,
            "vanishes": t[0] == 0,
            "adjunction_bound": (p - 1) * (q - 1) <= (d - 1) * (d - 2),
        })
    return {
        "d": d,
        "rows": rows,
        "all_integral": all(r["integer"] for r in rows),
        "all_nonnegative": all(r["nonnegative"] for r in rows),
    }

"""The validation sweep: every applicable pipeline at one ratio and every degree up to d.

:func:`_validation_sweep` is what ``validate`` prints, and row d of it is
what ``pipelines.cross_validate`` returns.  It reads every pipeline through
``engine._engine``, one callable ``(d, a)`` yielding wtT_1 .. wtT_d per
method, and demands exact agreement at each degree through
``treesum._agreed``, the rule ``scan`` checks its passes by too.  Only
``validate`` and ``cross_validate`` load this module; the scan and
integrality drivers live in :mod:`.sweeps`, so a ``validate`` job compiles
neither.  It imports :mod:`.lattice`, :mod:`.engine` and :mod:`.treesum`,
and ``_engine`` loads :mod:`.linf` on first use; the README's "Start-up"
table lists what each subcommand loads.

Every value stays a canonical integer pair ``(num, den)`` (see
``engine._pair``) up to the report, which renders it as ``str(Fraction)``
would.
"""

import time

from .lattice import AspectRatio, gamma_point, mult
from .engine import _engine, _over, _text
from .treesum import _agreed


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

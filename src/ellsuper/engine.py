"""The production engine: wtT by the split recursion, and method dispatch.

``wtT(d, a)`` is the normalized count: the plain count ``T(d, a)`` times the
multiplicity of the path point at index 3d-1.  The recursion computes it
exactly:

      wtT_d = (G_{3d-1})! * ( (d!)^-3
              - sum over multisets {d_1,..,d_k} with d_1+..+d_k = d, k >= 2, of
                wtT_{d_1} .. wtT_{d_k} / (m_1! m_2! .. * (G_{3d_1-1}+..+G_{3d_k-1})!) )

where ``G_k`` is the lattice path point of ``a``, ``(.)!`` the pair
factorial and ``m_j`` the multiplicity of each distinct part.  The inner
sum is the degree-d coefficient of ``exp(sum_s wtT_s x^s y^{G_{3s-1}})``
with every monomial ``y^P`` replaced by ``1/P!`` once collected by lattice
point P.  It is evaluated online, degree by degree, from the power-series
recurrence ``n f_n = sum_k k g_k f_{n-k}``: wtT_n enters ``f_n`` only
through the one-part term ``g_n``, so one pass yields wtT_1 .. wtT_d in
polynomial time.  The pass runs on integers: each ``f_n`` is a dict of
integer numerators over one denominator per degree, each wtT_s a reduced
integer pair, and every sum of a degree is brought to a single common
denominator first, so nothing is normalized per term.  The pass returns
wtT_d as that reduced pair, and a ``Fraction`` is built only by the
public functions that return one.  The same pass with a ``Fraction`` per
coefficient, the multiset sum over partitions of d and the sum over
ordered splits with a 1/k! factor give the same values; all three are kept
in ``tests/oracles.py`` as cross-checks.

This is what ``compute`` (by default), ``integrality`` and ``scan`` run,
and the only engine a default ``compute`` job loads.  The oracles that
validate it live in their own modules: the tree sum in :mod:`.treesum`,
linf inversion in :mod:`.linf`; :func:`_engine` loads either on first use.
It gives every pipeline one calling convention, a callable ``(d, a)`` that
yields wtT_1 .. wtT_d, and every caller but ``scan`` reads the pipelines
through it.  The library functions that return ``Fraction``s live in
:mod:`.pipelines`, which no command-line job loads.

All dependence on ``a`` enters through the points ``G_2, G_5, ..,
G_{3d-1}`` that :func:`_read_points` lists: the degree-n row of the pass
reads only the first n of them.  The pass therefore extends a caller-owned
list of per-degree rows, each tagged with the point it read last, and
keeps the rows up to the first point that differs from the ratio it was
last run at (:func:`_resume`).
"""

import math
import warnings

from .lattice import AspectRatio, gamma_point, mult

METHODS = ("recursion", "tree", "linf")
DEFAULT_LINF_BOUND = 8  # the inversion route is an oracle; its cost grows with the multiset partitions


class MethodDisagreement(RuntimeError):
    """Two pipelines produced different exact values; the message carries a full dump."""


def _read_points(a: AspectRatio, d: int) -> list[tuple[int, int]]:
    """The points G_2, G_5, .., G_{3d-1}, all that the engines read of ``a`` up to degree d."""
    return [gamma_point(a, 3 * n - 1) for n in range(1, d + 1)]


def _factorials(d: int) -> list[int]:
    """The factorials 0! .. (3d-1)!, one table per call of an engine or a scan.

    Every lattice point either engine meets at degree d has coordinates below
    3d: G_k's are at most k, and a split of n <= d sums points G_{3k-1} to at
    most 3n - 2 in total.
    """
    out = [1]
    for m in range(1, 3 * d):
        out.append(out[-1] * m)
    return out


def _resume(rows: list, points) -> None:
    """Cut ``rows`` back to the longest prefix still valid for ``points``.

    Row n - 1 of an engine holds its degree-n state, a function of
    ``points[:n]`` alone, and carries ``points[n - 1]`` as its first entry;
    the rows up to the first point that differs are kept, the rest dropped.
    """
    keep = 0
    for row, point in zip(rows, points):
        if row[0] != point:
            break
        keep += 1
    del rows[keep:]


def _recursion_pass(points, fact: list[int], rows: list) -> tuple[int, int]:
    """wtT_d, d = len(points), extending ``rows`` from their longest valid prefix.

    ``points[n - 1]`` is G_{3n-1} and ``fact`` comes from :func:`_factorials`.
    Row n - 1 is ``(G_{3n-1}, num, den, series, denom)``: wtT_n = num / den,
    reduced, and f_n = series / denom, series mapping lattice point -> integer.
    Returns wtT_d as the canonical pair ``(num, den)`` of :func:`_value`.
    """
    _resume(rows, points)
    for n in range(len(rows) + 1, len(points) + 1):
        # f_n - g_n = (1/n) sum_{k<n} k g_k f_{n-k}: the splits of n into >= 2 parts,
        # collected as acc / (n * common) with every product scaled to one denominator
        common = math.lcm(*(rows[k - 1][2] * rows[n - k - 1][4] for k in range(1, n)))
        acc: dict = {}
        for k in range(1, n):
            (gi, gj), num_k, den_k = rows[k - 1][:3]
            _, _, _, series, denom = rows[n - k - 1]
            weight = k * num_k * (common // (den_k * denom))
            for (i, j), coeff in series.items():
                key = (i + gi, j + gj)
                acc[key] = acc.get(key, 0) + weight * coeff
        scale = n * common
        # the inner sum, sum_P acc[P] / (scale * P!), over scale * i_max! * j_max!
        top_i = fact[max((i for i, _ in acc), default=0)]
        top_j = fact[max((j for _, j in acc), default=0)]
        inner_num = sum(c * (top_i // fact[i]) * (top_j // fact[j]) for (i, j), c in acc.items())
        inner_den = scale * top_i * top_j
        point = points[n - 1]
        cube = fact[n] ** 3
        num = fact[point[0]] * fact[point[1]] * (inner_den - cube * inner_num)
        den = cube * inner_den
        g = math.gcd(num, den)
        num, den = num // g, den // g
        # fold in the one-part term g_n over lcm(scale, den), then reduce once
        denom = math.lcm(scale, den)
        f_n = {key: c * (denom // scale) for key, c in acc.items()}
        f_n[point] = f_n.get(point, 0) + num * (denom // den)
        g = math.gcd(denom, *f_n.values())
        rows.append((point, num, den, {key: c // g for key, c in f_n.items()}, denom // g))
    return rows[-1][1], rows[-1][2]


def _below_one(a: AspectRatio) -> bool:
    # All headline evaluations assume a > 1; a = p/q + delta stays above 1
    # exactly when p >= q.
    return not a.is_infinite and a.p < a.q


def _warn_outside_range(a: AspectRatio) -> None:
    """Warn if ``a`` is below 1, naming the line that called the public function calling this."""
    if _below_one(a):
        warnings.warn(f"aspect ratio {a} is below 1: outside the intended range a > 1", stacklevel=3)


def _engine(method: str):
    """What computes wtT by ``method``: a callable ``(d, a)`` yielding wtT_1 .. wtT_d.

    Every method has this one calling convention, and each value is a
    canonical pair (see :func:`_value`).  For ``recursion`` and ``tree`` the
    callable wraps a pass, ``(points, fact, rows)``: it builds the read
    points, the factorial table and one list of rows on its first step,
    then runs the pass on ``points[:n]`` for n = 1 .. d, each run extending
    the rows by one degree.  For ``linf`` it is ``linf._linf_pass`` itself.
    The tree and linf oracles load on first use, here and not on the first
    step; the tree pass comes from :mod:`.treesum`, which reads only this
    module.
    """
    if method == "recursion":
        run = _recursion_pass
    elif method == "tree":
        from .treesum import _tree_pass as run
    elif method == "linf":
        from .linf import _linf_pass

        return _linf_pass
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")

    def values(d: int, a: AspectRatio):
        points, fact, rows = _read_points(a, d), _factorials(d), []
        for n in range(1, d + 1):
            yield run(points[:n], fact, rows)

    return values


def _text(pair: tuple[int, int]) -> str:
    """A canonical pair as ``str(Fraction)`` renders it: ``num``, or ``num/den``."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def _over(pair: tuple[int, int], m: int) -> tuple[int, int]:
    """The canonical pair of ``pair / m``, for an integer m > 0."""
    num, den = pair
    g = math.gcd(num, m)
    return num // g, den * (m // g)


def _value(d: int, a: AspectRatio, method: str = "recursion", linf_bound: int = DEFAULT_LINF_BOUND):
    """``(wtT, mult, T)`` at (d, a) by ``method``, with wtT and T canonical pairs.

    A canonical pair is ``(num, den)`` with gcd 1 and den > 0; zero is
    ``(0, 1)``.  The caller checks d >= 1 and warns below 1.  wtT is the
    last value that ``_engine(method)(d, a)`` yields.
    """
    if method == "linf" and d > linf_bound:
        raise ValueError(
            f"method 'linf' is an oracle intended for d <= {linf_bound}; "
            f"use 'recursion' for d={d}, or pass a larger linf_bound (--linf-bound)"
        )
    *_, wt = _engine(method)(d, a)
    multiplier = mult(a, gamma_point(a, 3 * d - 1))
    return wt, multiplier, _over(wt, multiplier)

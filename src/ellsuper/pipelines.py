"""Superpotential values by three mutually validating pipelines.

``wtT(d, a)`` is the normalized count: the plain count ``T(d, a)`` times the
multiplicity of the path point at index 3d-1.  Three pipelines compute it
exactly:

* ``recursion_wtT``, the production engine: the recursion

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
  public functions that return one.  The same pass with a
  ``Fraction`` per coefficient, the multiset sum over partitions of d and
  the sum over ordered splits with a 1/k! factor give the same values; all
  three are kept in ``tests/oracles.py`` as cross-checks.

* ``tree_wtT``: the closed sum over rooted trees with d unordered leaves,

      wtT_d = (G_2!)^d * sum over trees T of
              (-1)^(#unmovable internal) / |Aut(T)|
              * prod over internal v of G_{3l(v)-1}! / (sum over children v'
                of G_{3l(v')-1})!
              * prod over movable v of ( (l(v)!)^-2 (l(v)*G_2)! / (G_2!)^l(v) - 1 )

  with ``l(v)`` the leaf number; leaf children contribute ``G_2`` to the sums
  and ``l(v)*G_2`` is a scalar multiple of the lattice point.  No tree is
  built: an unmovable root's factor ``-G_{3l-1}! / P!`` reads its children
  only through the point P their points sum to, so the sum ``S_l`` over
  trees with l leaves is ``-G_{3l-1}!`` times the degree-l part of
  ``exp(sum_s S_s x^s y^{G_{3s-1}})``, ``y^P -> 1/P!``, over >= 2 factors,
  with the all-leaves root (the one movable type) swapping its -1 for the
  movable factor.  It is the recursion's online series exponential, on
  integers too, written separately, and it is the recursion rescaled.

  Lemma: with ``c = G_2!``, row l of the tree pass is row l of the
  recursion over ``c^l``: ``wtT_l = c^l S_l`` and ``f_l = c^l forest_l``.
  By induction on l.  At l = 1, ``wtT_1 = c``, ``S_1 = 1``,
  ``f_1 = c y^{G_2}`` and ``forest_1 = y^{G_2}``.  If the identity holds
  below l, each term ``k wtT_k f_{l-k}`` of the degree-l splits carries
  ``c^k c^(l-k) = c^l`` times the tree pass's term ``k S_k forest_{l-k}``,
  so the splits part ``acc_l`` of f_l is ``c^l kids_l``, the multisets of
  >= 2 trees.  With ``L(y^P) = 1/P!``, ``wtT_l = G_{3l-1}! ((l!)^-3 -
  L(acc_l))`` and ``S_l = G_{3l-1}! ((l!)^-3 c^-l - L(kids_l))``, so
  ``wtT_l = c^l S_l``; adding the one-part terms ``wtT_l y^{G_{3l-1}}``
  and ``S_l y^{G_{3l-1}}`` gives ``f_l = c^l forest_l``.

  The two share one derivation, so their agreement catches coding slips,
  not an error in that derivation.  The witnesses independent in
  derivation are linf (up to ``linf_bound``; checked to d = 17), the
  per-tree sum (d <= 12) and the multiset recursion in
  ``tests/oracles.py``.

* ``linf_superpotential`` (in :mod:`.linf`): inversion of the ellipsoid
  morphism, summed against the split constants.

The recursion and the tree sum run in polynomial time at every d; linf is a
bounded oracle, refused by ``superpotential`` beyond ``linf_bound``.  The
other test oracles, among them the tree sum over partitions of l and over
every tree one at a time, live in ``tests/oracles.py``.

All dependence on ``a`` enters through the path prefix ``G_0..G_{3d-1}``, so
ratios sharing a prefix share values.  Finer: the degree-n state of either
engine (wtT_n and f_n in the recursion, S_n and its series part in the tree
sum) reads only the points ``G_2, G_5, .., G_{3n-1}``, and each engine
receives those read points ``G_{3n-1}`` and nothing else of ``a``; the full
prefix is built only for a :class:`MethodDisagreement` dump.  Each engine is
therefore a private pass that extends a caller-owned list of per-degree
rows, each row tagged with the point it read last, and keeps the rows up
to the first point that differs from the ratio it was last run at.
``recursion_wtT`` and ``tree_wtT`` run it once on an empty list; the
drivers that run the engines over many degrees or ratios (cross-validation
and the scans) live in :mod:`.sweeps`.
"""

import math
import warnings
from collections import namedtuple

from .lattice import AspectRatio, gamma_path, gamma_point, mult

METHODS = ("recursion", "tree", "linf")
DEFAULT_LINF_BOUND = 8  # the inversion route is an oracle; its cost grows with the multiset partitions


class MethodDisagreement(RuntimeError):
    """Two pipelines produced different exact values; the message carries a full dump."""


class SuperpotentialResult(namedtuple("SuperpotentialResult", "d a wtT multiplier T method")):
    """One value: wtT(d, a) by ``method``, its multiplier, and T = wtT / multiplier."""

    __slots__ = ()


def path_signature(a: AspectRatio, d: int) -> tuple[tuple[int, int], ...]:
    """The path prefix G_0..G_{3d-1} that wtT(d, .) depends on."""
    return tuple(gamma_path(a, 3 * d - 1))


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


def recursion_wtT(d: int, a: AspectRatio) -> "Fraction":
    """wtT by the split recursion, as one online pass of the series exponential."""
    if d < 1:
        raise ValueError(f"recursion_wtT requires d >= 1, got {d}")
    from fractions import Fraction

    return Fraction(*_recursion_pass(_read_points(a, d), _factorials(d), []))


def _tree_pass(points, fact: list[int], rows: list) -> tuple[int, int]:
    """The tree sum at d = len(points), extending ``rows`` from their longest valid prefix.

    ``points`` and ``fact`` are as for :func:`_recursion_pass`.  Row l - 1 is
    ``(G_{3l-1}, num, den, forest, denom)``: S_l = num / den, reduced, and
    forest / denom, the multisets of trees with l leaves in all collected
    by the lattice point their roots' points sum to (lattice point -> integer).
    Returns ``(G_2!)^d S_d``, which is wtT_d, as a canonical pair.
    """
    _resume(rows, points)
    gi, gj = points[0]
    g2f = fact[gi] * fact[gj]
    if not rows:
        rows.append((points[0], 1, 1, {points[0]: 1}, 1))
    for ell in range(len(rows) + 1, len(points) + 1):
        # a root's children, the multisets of >= 2 trees with ell leaves in all:
        # (1/ell) sum_s s S_s y^{G_{3s-1}} forest_{ell-s}, over one denominator
        share = math.lcm(*(rows[s - 1][2] * rows[ell - s - 1][4] for s in range(1, ell)))
        kids: dict = {}
        for s in range(1, ell):
            (si, sj), s_num, s_den, _, _ = rows[s - 1]
            forest, denom = rows[ell - s - 1][3:]
            weight = s * s_num * (share // (s_den * denom))
            for (i, j), coeff in forest.items():
                key = (i + si, j + sj)
                kids[key] = kids.get(key, 0) + weight * coeff
        kids_den = ell * share
        # each unmovable root over children at P has factor -G_{3l-1}! / P!;
        # i + j <= 3l - 2 and i! j! divides (i + j)!, so (3l - 2)! clears each P!
        clear = fact[3 * ell - 2]
        unmov_num = -sum(c * (clear // (fact[i] * fact[j])) for (i, j), c in kids.items())
        unmov_den = kids_den * clear
        # the all-leaves root, counted there with weight 1 / (l! (l G_2)!), is
        # movable: swapping its -1 for (l G_2)! / (l!^2 (G_2!)^l) - 1 adds
        # 1 / (l!^3 (G_2!)^l), and G_{3l-1}! then multiplies the whole sum
        swap_den = fact[ell] ** 3 * g2f ** ell
        ti, tj = points[ell - 1]
        num = fact[ti] * fact[tj] * (unmov_num * swap_den + unmov_den)
        den = unmov_den * swap_den
        g = math.gcd(num, den)
        num, den = num // g, den // g
        # forest_ell: the multisets of >= 2 trees, and a single tree at G_{3l-1}
        denom = math.lcm(kids_den, den)
        forest = {key: c * (denom // kids_den) for key, c in kids.items()}
        forest[points[ell - 1]] = forest.get(points[ell - 1], 0) + num * (denom // den)
        g = math.gcd(denom, *forest.values())
        rows.append((points[ell - 1], num, den, {key: c // g for key, c in forest.items()}, denom // g))
    num, den = g2f ** len(points) * rows[-1][1], rows[-1][2]
    g = math.gcd(num, den)
    return num // g, den // g


def tree_wtT(d: int, a: AspectRatio) -> "Fraction":
    """wtT by the closed sum over rooted trees with d unordered leaves.

    Evaluated by leaf count: ``S_l`` is the sum over trees with l leaves
    of their vertex factors' product over |Aut(T)|, and ``S_1 = 1``.  The
    multisets of trees below a root are the terms of a power-series
    exponential in the ``S_s``, collected by the lattice point their points
    sum to, which is all an unmovable root's factor reads.
    """
    if d < 1:
        raise ValueError(f"tree_wtT requires d >= 1, got {d}")
    from fractions import Fraction

    return Fraction(*_tree_pass(_read_points(a, d), _factorials(d), []))


def _below_one(a: AspectRatio) -> bool:
    # All headline evaluations assume a > 1; a = p/q + delta stays above 1
    # exactly when p >= q.
    return not a.is_infinite and a.p < a.q


def _warn_outside_range(a: AspectRatio, stacklevel: int = 3) -> None:
    """Warn if ``a`` is below 1.

    The default names the line that called the public function calling
    this; a CLI handler passes 2, which names its own line.
    """
    if _below_one(a):
        warnings.warn(f"aspect ratio {a} is below 1: outside the intended range a > 1",
                      stacklevel=stacklevel)


def _engine(method: str):
    """The function computing wtT(d, a) by ``method``; the linf oracle loads on first use."""
    if method == "recursion":
        return recursion_wtT
    if method == "tree":
        return tree_wtT
    if method == "linf":
        from .linf import linf_superpotential

        return linf_superpotential
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def _text(pair: tuple[int, int]) -> str:
    """A canonical pair as ``str(Fraction)`` renders it: ``num``, or ``num/den``."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def _over(pair: tuple[int, int], m: int) -> tuple[int, int]:
    """The canonical pair of ``pair / m``, for an integer m > 0."""
    num, den = pair
    g = math.gcd(num, m)
    return num // g, den * (m // g)


_PASSES = {"recursion": _recursion_pass, "tree": _tree_pass}


def _value(d: int, a: AspectRatio, method: str = "recursion", linf_bound: int = DEFAULT_LINF_BOUND):
    """``(wtT, mult, T)`` at (d, a) by ``method``, with wtT and T canonical pairs.

    A canonical pair is ``(num, den)`` with gcd 1 and den > 0; zero is
    ``(0, 1)``.  The caller checks d >= 1 and warns below 1.  Only linf's
    result is a ``Fraction``, read off by its numerator and denominator.
    """
    if method == "linf" and d > linf_bound:
        raise ValueError(
            f"method 'linf' is an oracle intended for d <= {linf_bound}; "
            f"use 'recursion' for d={d}, or pass a larger linf_bound"
        )
    run = _PASSES.get(method)
    if run is not None:
        wt = run(_read_points(a, d), _factorials(d), [])
    else:
        value = _engine(method)(d, a)
        wt = (value.numerator, value.denominator)
    multiplier = mult(a, gamma_point(a, 3 * d - 1))
    return wt, multiplier, _over(wt, multiplier)


def superpotential(d: int, a: AspectRatio, method: str = "recursion",
                   linf_bound: int = DEFAULT_LINF_BOUND) -> SuperpotentialResult:
    """Full record: wtT by the chosen method, the multiplier, and T = wtT / mult."""
    if d < 1:
        raise ValueError(f"superpotential requires d >= 1, got {d}")
    _warn_outside_range(a)
    wt, multiplier, t = _value(d, a, method, linf_bound)
    from fractions import Fraction

    return SuperpotentialResult(d=d, a=a, wtT=Fraction(*wt), multiplier=multiplier,
                                T=Fraction(*t), method=method)

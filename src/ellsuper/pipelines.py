"""Superpotential values by three mutually validating pipelines.

``wtT(d, a)`` is the normalized count: the plain count ``T(d, a)`` times the
multiplicity of the path point at index 3d-1.  Three pipelines compute it
exactly:

* the split recursion, the production engine, in :mod:`.engine` (its
  derivation is stated there).  ``recursion_wtT`` runs it and returns a
  ``Fraction``.

* ``tree_wtT``: the closed sum over rooted trees with d unordered leaves,

      wtT_d = (G_2!)^d * sum over trees T of
              (-1)^(#unmovable internal) / |Aut(T)|
              * prod over internal v of G_{3l(v)-1}! / (sum over children v'
                of G_{3l(v')-1})!
              * prod over movable v of ( (l(v)!)^-2 (l(v)*G_2)! / (G_2!)^l(v) - 1 )

  with ``G_k`` the lattice path point of ``a``, ``(.)!`` the pair
  factorial and ``l(v)`` the leaf number; leaf children contribute ``G_2``
  to the sums and ``l(v)*G_2`` is a scalar multiple of the lattice point.
  No tree is built: an unmovable root's factor ``-G_{3l-1}! / P!`` reads
  its children only through the point P their points sum to, so the sum
  ``S_l`` over trees with l leaves is ``-G_{3l-1}!`` times the degree-l
  part of ``exp(sum_s S_s x^s y^{G_{3s-1}})``, ``y^P -> 1/P!``, over >= 2
  factors, with the all-leaves root (the one movable type) swapping its -1
  for the movable factor.  It is the recursion's online series
  exponential, on integers too, written separately, and it is the
  recursion rescaled.

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

This module holds the tree oracle and the library functions that return
``Fraction``s.  A default ``compute`` job runs neither, so it does not load
this module; ``compute --method tree``, ``validate``, ``scan`` and
``integrality`` do.  It reads the engine's pass, its row bookkeeping and
its dispatch from :mod:`.engine`, and keeps them importable from here.

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
from collections import namedtuple

# the engine's names, once all defined here, stay importable from this module
from .engine import (DEFAULT_LINF_BOUND, METHODS, MethodDisagreement, _below_one, _engine, _factorials,
                     _over, _read_points, _recursion_pass, _resume, _text, _value, _warn_outside_range)
from .lattice import AspectRatio, gamma_path


class SuperpotentialResult(namedtuple("SuperpotentialResult", "d a wtT multiplier T method")):
    """One value: wtT(d, a) by ``method``, its multiplier, and T = wtT / multiplier."""

    __slots__ = ()


def path_signature(a: AspectRatio, d: int) -> tuple[tuple[int, int], ...]:
    """The path prefix G_0..G_{3d-1} that wtT(d, .) depends on."""
    return tuple(gamma_path(a, 3 * d - 1))


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

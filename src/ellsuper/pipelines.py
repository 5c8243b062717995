"""Superpotential values by three mutually validating pipelines, as ``Fraction``s.

``wtT(d, a)`` is the normalized count: the plain count ``T(d, a)`` times the
multiplicity of the path point at index 3d-1.  Three pipelines compute it
exactly:

* the split recursion, the production engine, in :mod:`.engine` (its
  derivation is stated there).  ``recursion_wtT`` runs it and returns a
  ``Fraction``.

* the closed sum over rooted trees with d unordered leaves, grouped at the
  root, in :mod:`.treesum` (its derivation, and the lemma that it is the
  recursion rescaled, are stated there).  ``tree_wtT`` runs it and returns
  a ``Fraction``.

* ``linf_superpotential`` (in :mod:`.linf`): inversion of the ellipsoid
  morphism, summed against the split constants.

The recursion and the tree sum run in polynomial time at every d; linf is a
bounded oracle, refused by ``superpotential`` beyond ``linf_bound``.  The
other test oracles, among them the tree sum over partitions of l and over
every tree one at a time, live in ``tests/oracles.py``.

This module holds only the library functions that return ``Fraction``s.
It imports ``fractions``, :mod:`.engine` and :mod:`.lattice`, and loads an
oracle's module only through ``engine._value``, on that oracle's first
use; the README's "Start-up" table lists what each subcommand loads.

All dependence on ``a`` enters through the path prefix ``G_0..G_{3d-1}``, so
ratios sharing a prefix share values.  Finer: the degree-n state of either
engine (wtT_n and f_n in the recursion, S_n and its series part in the tree
sum) reads only the points ``G_2, G_5, .., G_{3n-1}``, and each engine
receives those read points ``G_{3n-1}`` and nothing else of ``a``; the full
prefix is built only for a :class:`MethodDisagreement` dump.  Each engine is
therefore a private pass that extends a caller-owned list of per-degree
rows, each row tagged with the point it read last, and keeps the rows up
to the first point that differs from the ratio it was last run at.
``recursion_wtT`` and ``tree_wtT`` run it through ``engine._value`` as
``compute`` does, one degree at a time on one fresh list; the drivers that
run the engines over many degrees or ratios (cross-validation and the
scans) live in :mod:`.sweeps`.
"""

from collections import namedtuple
from fractions import Fraction

from .engine import DEFAULT_LINF_BOUND, _value, _warn_outside_range
from .lattice import AspectRatio


class SuperpotentialResult(namedtuple("SuperpotentialResult", "d a wtT multiplier T method")):
    """One value: wtT(d, a) by ``method``, its multiplier, and T = wtT / multiplier."""

    __slots__ = ()


def recursion_wtT(d: int, a: AspectRatio) -> Fraction:
    """wtT by the split recursion, as one online pass of the series exponential."""
    if d < 1:
        raise ValueError(f"recursion_wtT requires d >= 1, got {d}")
    return Fraction(*_value(d, a)[0])


def tree_wtT(d: int, a: AspectRatio) -> Fraction:
    """wtT by the closed sum over rooted trees with d unordered leaves.

    Evaluated by leaf count: ``S_l`` is the sum over trees with l leaves
    of their vertex factors' product over |Aut(T)|, and ``S_1 = 1``.  The
    multisets of trees below a root are the terms of a power-series
    exponential in the ``S_s``, collected by the lattice point their points
    sum to, which is all an unmovable root's factor reads.
    """
    if d < 1:
        raise ValueError(f"tree_wtT requires d >= 1, got {d}")
    return Fraction(*_value(d, a, "tree")[0])


def superpotential(d: int, a: AspectRatio, method: str = "recursion",
                   linf_bound: int = DEFAULT_LINF_BOUND) -> SuperpotentialResult:
    """Full record: wtT by the chosen method, the multiplier, and T = wtT / mult."""
    if d < 1:
        raise ValueError(f"superpotential requires d >= 1, got {d}")
    _warn_outside_range(a)
    wt, multiplier, t = _value(d, a, method, linf_bound)
    return SuperpotentialResult(d=d, a=a, wtT=Fraction(*wt), multiplier=multiplier,
                                T=Fraction(*t), method=method)

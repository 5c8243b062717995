"""The library surface: superpotential values as ``Fraction``s, and their cross-check.

``wtT(d, a)`` is the normalized count: the plain count ``T(d, a)`` times the
multiplicity of the path point at index 3d-1.  Three pipelines compute it
exactly:

* the split recursion, the production engine, in :mod:`.engine` (its
  derivation is stated there).  ``recursion_wtT`` runs it.

* the closed sum over rooted trees with d unordered leaves, grouped at the
  root, in :mod:`.treesum` (its derivation, and the lemma that it is the
  recursion rescaled, are stated there).  ``tree_wtT`` runs it.

* inversion of the ellipsoid morphism, summed against the split constants,
  in :mod:`.linf`.  ``linf_superpotential`` runs it.

The recursion and the tree sum run in polynomial time at every d; linf is a
bounded oracle, refused by ``superpotential`` beyond ``linf_bound``.  The
other test oracles, among them the tree sum over partitions of l and over
every tree one at a time, live in ``tests/oracles.py``.

This module is where a library caller gets a value, and the one place that
decides how: a ``Fraction`` result, a ``UserWarning`` naming the caller's
line for a ratio below 1 (from ``superpotential`` and ``cross_validate``),
and a ``ValueError`` for d < 1.  Every function here is one call into the
modules the command line runs, which work only in canonical integer pairs
(see ``engine._pair``): the three values go through ``engine._value``, as
``compute`` does, ``cross_validate`` reads row d of the sweep ``validate``
prints, and ``scan_breakpoints`` lists the ratios ``scan`` starts its
intervals at.  No command-line job loads this module.  It imports
``fractions``, ``warnings``, :mod:`.engine` and :mod:`.lattice`, and loads
:mod:`.sweeps` and an oracle's module only on their first use; the README's
"Start-up" table lists what each subcommand loads.
"""

import warnings
from collections import namedtuple
from fractions import Fraction

from .engine import DEFAULT_LINF_BOUND, _below_one, _value
from .lattice import AspectRatio


class SuperpotentialResult(namedtuple("SuperpotentialResult", "d a wtT multiplier T method")):
    """One value: wtT(d, a) by ``method``, its multiplier, and T = wtT / multiplier."""

    __slots__ = ()


def _warn_outside_range(a: AspectRatio) -> None:
    """Warn if ``a`` is below 1, naming the line that called the public function calling this."""
    if _below_one(a):
        warnings.warn(f"aspect ratio {a} is below 1: outside the intended range a > 1", stacklevel=3)


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


def linf_superpotential(d: int, a: AspectRatio) -> Fraction:
    """wtT via morphism inversion; exact, intended as an oracle, and run at any d.

    The last value of ``linf._linf_pass`` at ``d_max = d``: the inverse of the
    ellipsoid morphism on the input multisets of the degree splits of d,
    paired against the degree-split constants.
    """
    if d < 1:
        raise ValueError(f"linf_superpotential requires d >= 1, got {d}")
    return Fraction(*_value(d, a, "linf", d)[0])


def superpotential(d: int, a: AspectRatio, method: str = "recursion",
                   linf_bound: int = DEFAULT_LINF_BOUND) -> SuperpotentialResult:
    """Full record: wtT by the chosen method, the multiplier, and T = wtT / mult."""
    if d < 1:
        raise ValueError(f"superpotential requires d >= 1, got {d}")
    _warn_outside_range(a)
    wt, multiplier, t = _value(d, a, method, linf_bound)
    return SuperpotentialResult(d=d, a=a, wtT=Fraction(*wt), multiplier=multiplier,
                                T=Fraction(*t), method=method)


def cross_validate(d: int, a: AspectRatio, linf_bound: int = DEFAULT_LINF_BOUND) -> dict:
    """Run every applicable pipeline, demand exact agreement, report values and timings.

    The recursion and the tree sum always run, linf for d <= ``linf_bound``
    (``linf_bound=0`` skips it), and ``methods`` lists the pipelines that
    ran.  Raises :class:`MethodDisagreement` with a full operand dump if any
    two pipelines differ, at d or at any lower degree, so a returned report
    has ``agree`` ``True``.  The report is row d of ``sweeps._validation_sweep``.
    """
    if d < 1:
        raise ValueError(f"cross_validate requires d >= 1, got {d}")
    _warn_outside_range(a)
    from .sweeps import _validation_sweep

    return _validation_sweep(d, a, linf_bound)[-1]


def scan_breakpoints(d: int) -> list[Fraction]:
    """Reduced fractions p/q > 1 with p + q <= 3d, sorted ascending.

    These are the only ratios at which the path prefix G_0..G_{3d-1} can
    change (see ``sweeps._breakpoint_pairs``, which lists them as pairs).
    """
    if d < 1:
        raise ValueError(f"scan_breakpoints requires d >= 1, got {d}")
    from .sweeps import _breakpoint_pairs

    return [Fraction(p, q) for p, q in _breakpoint_pairs(d)]

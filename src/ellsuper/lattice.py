"""Staircase lattice paths attached to an ellipsoid aspect ratio.

For an aspect ratio ``a > 0`` the path point ``Gamma_k`` is the pair
``(i, j)`` with ``i + j = k`` minimizing ``max(i, a*j)``.  The minimizer is
unique when ``a`` is irrational; rational inputs are therefore always
understood as ``p/q + delta`` for an infinitesimal ``delta > 0``.

Along ``i + j = k`` the entry ``k - j`` falls and ``a*j`` rises with ``j``,
so ``j`` is the least ``j >= 0`` with ``a*(j + 1) >= k - j``: the next step
onto the second coordinate would not lower the max.  At ``a = p/q + delta``
that is ``p*(j + 1) >= q*(k - j)``, i.e. ``j*(p + q) >= k*q - p``: delta
settles an exact tie toward the smaller ``j``, so ties go to ``i``.  Hence
``j = ((k + 1)*q - 1) // (p + q)``, the ceiling of ``(k*q - p)/(p + q)``
or 0 if that is negative.

The infinite ratio sends all mass to the first coordinate: ``Gamma_k = (k, 0)``.

Every command-line job loads this module, so it holds only the aspect
ratio, its path points and their multiplicity.  The sum of points and the
pair factorial that only the generic morphism tables read are in
:mod:`.morphisms`; the pipelines read factorials from
``engine._factorials``.  ``AspectRatio.parse`` loads ``fractions`` only to
read an ``--a`` text other than plain ASCII ``p`` or ``p/q``.
"""

import math


class AspectRatio:
    """Ellipsoid aspect ratio: either infinite or the perturbed ``p/q + delta``.

    An immutable value: ``p/q`` is kept in lowest terms, and ``p`` is None
    for the infinite ratio.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int | None, q: int = 1) -> None:
        if p is None:
            if q != 1:
                raise ValueError("infinite aspect ratio carries no q")
        else:
            if p < 1 or q < 1:
                raise ValueError(f"aspect ratio requires positive p, q; got {p}/{q}")
            g = math.gcd(p, q)
            p, q = p // g, q // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.q) == (other.p, other.q)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"AspectRatio(p={self.p!r}, q={self.q!r})"

    def __reduce__(self):
        return AspectRatio, (self.p, self.q)

    @staticmethod
    def infinite() -> "AspectRatio":
        return AspectRatio(None)

    @staticmethod
    def plus_delta(p: int, q: int = 1) -> "AspectRatio":
        return AspectRatio(p, q)

    @staticmethod
    def parse(text: str) -> "AspectRatio":
        """Parse ``"inf"``, ``"p/q"``, ``"p"``, a decimal, or the rendered ``"p/q+delta"``.

        Positive ``p`` and ``p/q`` in plain ASCII digits are read with
        ``int()``; every other text goes to ``Fraction``, which then decides
        alone whether it is accepted and with what message.  Exponent forms
        are refused: ``Fraction("1e9999999")`` is a ten-million-digit
        integer, built before any bound could apply.
        """
        s = text.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return AspectRatio.infinite()
        if s.endswith("+delta"):
            s = s[: -len("+delta")]
        num, slash, den = s.partition("/")
        if s.isascii() and num.isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den or 1)
            except ValueError:  # past the int() digit limit, which Fraction reports
                p = q = 0
            if p > 0 and q > 0:
                return AspectRatio(p, q)
        if "e" in s:
            raise ValueError(f"cannot parse aspect ratio {text!r}")
        from fractions import Fraction

        try:
            frac = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse aspect ratio {text!r}") from exc
        if frac <= 0:
            raise ValueError(f"aspect ratio must be positive, got {text!r}")
        return AspectRatio(frac.numerator, frac.denominator)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        if self.p is None:
            return "inf"
        return f"{self.p}+delta" if self.q == 1 else f"{self.p}/{self.q}+delta"


def gamma_point(a: AspectRatio, k: int) -> tuple[int, int]:
    """The path point Gamma_k: the (i, j) with i+j = k minimizing max(i, a*j).

    ``j`` is the least ``j >= 0`` with ``j*(p + q) >= k*q - p``; see the
    module docstring.  The test suite checks it against a brute-force argmin.
    """
    if k < 0:
        raise ValueError(f"gamma_point requires k >= 0, got {k}")
    if a.is_infinite:
        return (k, 0)
    j = ((k + 1) * a.q - 1) // (a.p + a.q)
    return (k - j, j)


def gamma_path(a: AspectRatio, k_max: int) -> list[tuple[int, int]]:
    """The points Gamma_0 .. Gamma_k_max."""
    if k_max < 0:
        raise ValueError(f"gamma_path requires k_max >= 0, got {k_max}")
    return [gamma_point(a, k) for k in range(k_max + 1)]


def path_signature(a: AspectRatio, d: int) -> tuple[tuple[int, int], ...]:
    """The path prefix G_0..G_{3d-1} that wtT(d, .) depends on.

    Ratios with equal signatures at d have equal wtT at every degree up to
    d.  A cross-check failure dumps it (see ``sweeps``).
    """
    return tuple(gamma_path(a, 3 * d - 1))


def mult(a: AspectRatio, point: tuple[int, int]) -> int:
    """Multiplicity of a path point: i if i > a*j, else j."""
    if len(point) != 2:
        raise ValueError(f"mult is defined for pairs, got {point}")
    i, j = point
    if i == 0 and j == 0:
        raise ValueError("mult is undefined at (0, 0)")
    if a.is_infinite:
        return i if j == 0 else j
    # i > (p/q + delta)*j holds for small delta exactly when i*q > p*j.
    return i if i * a.q > a.p * j else j

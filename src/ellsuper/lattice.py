"""Staircase lattice paths attached to an ellipsoid aspect ratio.

For an aspect ratio ``a > 0`` the path point ``Gamma_k`` is the pair
``(i, j)`` with ``i + j = k`` minimizing ``max(i, a*j)``.  The minimizer is
unique when ``a`` is irrational; rational inputs are therefore always
understood as ``p/q + delta`` for an infinitesimal ``delta > 0``, and every
comparison below is decided exactly from ``(p, q)`` plus the sign of the
perturbation.  Concretely, a candidate ``(i, j)`` is ranked by the pair

    (max(i*q, p*j), 0 if i*q > p*j else j)

compared lexicographically: the first entry is the limit value of
``max(i, a*j)`` scaled by ``q``, the second its derivative in ``delta``.
This is exactly the ``delta -> 0+`` limit of the real comparison.

The infinite ratio sends all mass to the first coordinate: ``Gamma_k = (k, 0)``.
"""

import math
from fractions import Fraction

LatticePoint = tuple[int, ...]


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

        Exponent forms are refused: ``Fraction("1e9999999")`` is a
        ten-million-digit integer, built before any bound could apply.
        """
        s = text.strip().lower()
        if s in ("inf", "infinity", "oo"):
            return AspectRatio.infinite()
        if s.endswith("+delta"):
            s = s[: -len("+delta")]
        if "e" in s:
            raise ValueError(f"cannot parse aspect ratio {text!r}")
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

    @property
    def value(self) -> Fraction:
        """The rational part p/q (the perturbation is carried separately)."""
        if self.p is None:
            raise ValueError("infinite aspect ratio has no rational value")
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        if self.p is None:
            return "inf"
        return f"{Fraction(self.p, self.q)}+delta"


def point_add(*points: LatticePoint) -> LatticePoint:
    """Componentwise sum of lattice points of equal dimension."""
    if not points:
        raise ValueError("point_add needs at least one point")
    n = len(points[0])
    if any(len(pt) != n for pt in points):
        raise ValueError("mismatched lattice point dimensions")
    return tuple(sum(coords) for coords in zip(*points))


def pair_factorial(point: LatticePoint) -> int:
    """(i, j)! = i!·j!, the product of the coordinate factorials."""
    out = 1
    for x in point:
        out *= math.factorial(x)
    return out


def _key(a: AspectRatio, i: int, j: int) -> tuple[int, int]:
    # Rank of max(i, a*j) among candidates with the same i+j; see module docstring.
    iq, pj = i * a.q, a.p * j
    return (iq, 0) if iq > pj else (pj, j)


def gamma_point(a: AspectRatio, k: int) -> tuple[int, int]:
    """The path point Gamma_k: the (i, j) with i+j = k minimizing max(i, a*j)."""
    if k < 0:
        raise ValueError(f"gamma_point requires k >= 0, got {k}")
    return gamma_path(a, k)[k]


def gamma_path(a: AspectRatio, k_max: int) -> list[tuple[int, int]]:
    """The points Gamma_0 .. Gamma_k_max, built by unit steps.

    Each step moves to whichever of ``(i+1, j)`` and ``(i, j+1)`` ranks lower,
    ties incrementing ``i``.  This is the one path rule of the package
    (:func:`gamma_point` reads a point off it); the test suite checks every
    point against a brute-force argmin rather than trusting the greedy
    construction.
    """
    if k_max < 0:
        raise ValueError(f"gamma_path requires k_max >= 0, got {k_max}")
    i = j = 0
    points: list[tuple[int, int]] = [(0, 0)]
    for _ in range(k_max):
        if a.is_infinite or _key(a, i + 1, j) <= _key(a, i, j + 1):
            i += 1
        else:
            j += 1
        points.append((i, j))
    return points


def mult(a: AspectRatio, point: LatticePoint) -> int:
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

# The exact arithmetic rests on Fraction keeping every value in lowest terms with
# a positive denominator; engine._text and engine._over are checked against it in
# tests/test_superpotential.py::test_pair_helpers_match_fraction.
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st


@given(
    a=st.integers(-10**9, 10**9),
    b=st.integers(1, 10**9),
    c=st.integers(-10**6, 10**6).filter(lambda c: c != 0),
)
def test_rational_normalization(a, b, c):
    # construct(a*c, b*c) == construct(a, b): common factors never survive
    assert Fraction(a * c, b * c) == Fraction(a, b)


def test_rational_is_canonical():
    x = Fraction(-4, -6)
    assert (x.numerator, x.denominator) == (2, 3)
    assert str(Fraction(10, 2)) == "5"
    assert str(Fraction(-3, 9)) == "-1/3"
    assert Fraction(str(Fraction(22, 7))) == Fraction(22, 7)

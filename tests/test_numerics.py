from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellsuper import compositions, factorial, partitions
from ellsuper.numerics import _FACTORIALS


def test_factorial_base_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(8) == 40320


def test_factorial_cache_recurrence():
    factorial(40)  # force growth
    for n in range(len(_FACTORIALS) - 1):
        assert _FACTORIALS[n + 1] == (n + 1) * _FACTORIALS[n]


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


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


def test_compositions_counts():
    assert list(compositions(1)) == [(1,)]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 9):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)
        assert sum(1 for _ in compositions(n, min_parts=2)) == 2 ** (n - 1) - 1
        assert all(sum(c) == n for c in compositions(n))


def test_partitions_counts():
    # partition numbers p(1..9)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in zip(range(1, 10), expected):
        parts = list(partitions(n))
        assert len(parts) == want
        assert all(sum(p) == n for p in parts)
        assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in parts)

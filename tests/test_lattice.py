import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import (
    AspectRatio,
    gamma_path,
    gamma_point,
    mult,
    pair_factorial,
    point_add,
)
from oracles import brute_gamma_point

PATH_3_2 = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3)]

ratios = st.tuples(st.integers(1, 300), st.integers(1, 120))


def test_parse_and_render():
    assert AspectRatio.parse("inf").is_infinite
    assert AspectRatio.parse("3/2") == AspectRatio.plus_delta(3, 2)
    assert AspectRatio.parse("6/4") == AspectRatio.plus_delta(3, 2)  # reduced
    assert AspectRatio.parse("5") == AspectRatio.plus_delta(5, 1)
    assert str(AspectRatio.plus_delta(3, 2)) == "3/2+delta"
    assert str(AspectRatio.plus_delta(5, 1)) == "5+delta"
    assert str(AspectRatio.infinite()) == "inf"
    # rendered form re-parses
    assert AspectRatio.parse("3/2+delta") == AspectRatio.plus_delta(3, 2)
    with pytest.raises(ValueError):
        AspectRatio.parse("zero")
    with pytest.raises(ValueError):
        AspectRatio.parse("-3/2")
    with pytest.raises(ValueError):
        AspectRatio.parse("0")


def test_parse_refuses_exponent_forms():
    # a subprocess with a timeout: accepted, "1e9999999" became a ten-million-digit
    # integer and ran 12.5 s before failing
    probe = (
        "from ellsuper import AspectRatio\n"
        "for text in ('1e9999999', '1E3', '3/2e1+delta'):\n"
        "    try:\n"
        "        AspectRatio.parse(text)\n"
        "    except ValueError as exc:\n"
        "        assert 'cannot parse aspect ratio' in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(text)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert AspectRatio.parse("7.5") == AspectRatio.plus_delta(15, 2)
    assert AspectRatio.parse("7.5+delta") == AspectRatio.plus_delta(15, 2)


@given(ratios, st.integers(1, 50))
def test_aspect_ratio_is_a_reduced_immutable_value(pq, k):
    a = AspectRatio(*pq)
    scaled = AspectRatio(k * pq[0], k * pq[1])
    assert scaled == a and hash(scaled) == hash(a)
    assert AspectRatio.parse(str(a)) == a
    assert repr(a) == f"AspectRatio(p={a.p}, q={a.q})"
    for field in ("p", "q"):
        with pytest.raises(AttributeError):
            setattr(a, field, 1)
        with pytest.raises(AttributeError):
            delattr(a, field)


def test_infinite_aspect_ratio_is_one_value():
    inf = AspectRatio.infinite()
    assert inf == AspectRatio(None) and hash(inf) == hash(AspectRatio(None))
    assert AspectRatio.parse(str(inf)) == inf
    assert inf != AspectRatio(1) and AspectRatio(3, 2) != (3, 2)
    assert pickle.loads(pickle.dumps(AspectRatio(6, 4))) == AspectRatio(3, 2)
    with pytest.raises(ValueError):
        AspectRatio(None, 2)


def test_point_helpers():
    assert point_add((1, 2), (3, 4)) == (4, 6)
    assert point_add((1, 2, 3), (0, 0, 1), (1, 1, 1)) == (2, 3, 5)
    assert pair_factorial((3, 2)) == 12
    assert pair_factorial((0, 0)) == 1
    assert pair_factorial((2, 1, 3)) == 12
    with pytest.raises(ValueError):
        point_add((1, 2), (1, 2, 3))


def test_gamma_path_fixture_three_halves():
    assert gamma_path(AspectRatio.plus_delta(3, 2), 7) == PATH_3_2


def test_gamma_infinite():
    assert gamma_path(AspectRatio.infinite(), 3) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for k in range(20):
        assert gamma_point(AspectRatio.infinite(), k) == (k, 0)


def test_gamma_path_five_plus_delta():
    # all mass stays on the first coordinate while a exceeds the index
    assert gamma_path(AspectRatio.plus_delta(5, 1), 5) == [(k, 0) for k in range(6)]


def test_gamma_point_zero_and_small():
    a = AspectRatio.plus_delta(7, 4)
    assert gamma_point(a, 0) == (0, 0)
    # 1 < a < 2 puts the second unit step on the second coordinate
    assert gamma_point(a, 2) == (1, 1)


def test_gamma_point_matches_brute_force_small():
    for p, q in [(3, 2), (1, 1), (2, 1), (7, 3), (5, 8)]:
        a = AspectRatio.plus_delta(p, q)
        for k in range(41):
            assert gamma_point(a, k) == brute_gamma_point(p, q, k)


@given(pq=ratios, k=st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_gamma_point_matches_brute_force_random(pq, k):
    p, q = pq
    assert gamma_point(AspectRatio.plus_delta(p, q), k) == brute_gamma_point(p, q, k)


@given(pq=ratios, k_max=st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_gamma_path_unit_steps_and_pointwise(pq, k_max):
    a = AspectRatio.plus_delta(*pq)
    path = gamma_path(a, k_max)
    assert path[0] == (0, 0)
    for k in range(k_max):
        di = path[k + 1][0] - path[k][0]
        dj = path[k + 1][1] - path[k][1]
        assert (di, dj) in ((1, 0), (0, 1))
    for k in (0, k_max // 2, k_max):
        assert path[k] == brute_gamma_point(*pq, k)


def test_mult_values():
    inf = AspectRatio.infinite()
    for d in range(1, 6):
        assert mult(inf, (3 * d - 1, 0)) == 3 * d - 1
    assert mult(AspectRatio.plus_delta(3, 2), (4, 3)) == 3  # 4*2 <= 3*3: second branch
    assert mult(AspectRatio.plus_delta(3, 2), (4, 2)) == 4  # 4*2 > 3*2: first branch
    assert mult(AspectRatio.plus_delta(9, 5), (1, 0)) == 1
    assert mult(inf, (0, 7)) == 7
    with pytest.raises(ValueError):
        mult(inf, (0, 0))
    with pytest.raises(ValueError):
        mult(AspectRatio.plus_delta(2, 1), (1, 2, 3))


def test_determinism():
    a = AspectRatio.plus_delta(17, 6)
    assert gamma_path(a, 30) == gamma_path(a, 30)
    assert [gamma_point(a, k) for k in range(31)] == gamma_path(a, 30)

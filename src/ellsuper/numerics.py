"""Exact arithmetic primitives: factorials and small combinatorics.

Every quantity this package produces is an exact rational number, and the
formulas producing them are ratios of large factorials, so the whole pipeline
runs on arbitrary-precision integers and ``fractions.Fraction``.  There is
deliberately no floating-point code path anywhere.

``Fraction`` already guarantees lowest terms and a positive denominator, and
its ``str()`` renders ``"p/q"`` (or ``"p"`` for integers), which is exactly the
serialization used in JSON and CSV output, so it serves as the canonical exact
scalar.
"""

import math
from collections.abc import Iterable, Iterator


def factorial(n: int) -> int:
    """n!, by ``math.factorial``; nothing is cached between calls."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got {n}")
    return math.factorial(n)


def compositions(total: int, min_parts: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``total``.

    Yields all 2^(total-1) compositions (fewer when ``min_parts`` > 1) in
    lexicographic order of the leading parts.  No pipeline calls it; it stays
    public because the test oracles sum over ordered compositions and the
    benchmark's trace counts the items it yields.
    """
    if total < 0:
        raise ValueError(f"compositions requires total >= 0, got {total}")

    def rec(remaining: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if len(acc) >= min_parts:
                yield acc
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, acc + (first,))

    yield from rec(total, ())


def partitions(total: int, min_parts: int = 1) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive integers summing to ``total``."""
    if total < 0:
        raise ValueError(f"partitions requires total >= 0, got {total}")

    def rec(remaining: int, cap: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if len(acc) >= min_parts:
                yield acc
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, first, acc + (first,))

    yield from rec(total, total, ())


def set_partitions(items: Iterable) -> Iterator[list[tuple]]:
    """All partitions of a sequence into unordered nonempty blocks (as tuples)."""
    seq = list(items)

    def rec(rest: list) -> Iterator[list[tuple]]:
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for part in rec(tail):
            for idx in range(len(part)):
                yield part[:idx] + [(first,) + part[idx]] + part[idx + 1 :]
            yield [(first,)] + part

    yield from rec(seq)

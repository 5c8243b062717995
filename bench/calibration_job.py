"""Fixed pure-Python work that measures the host's current speed.

It does not import ``ellsuper``.  ``run.py`` runs it in a fresh interpreter
after every timed job and reports each job's wall time as a multiple of it, so
that spells in which a shared host runs every process slower cancel out.  Its
mix (exact rationals with growing integers, tuples, dicts, a cached recursion)
is the mix the program spends its time on.  Changing it changes the unit of
the benchmark's timings.
"""

from fractions import Fraction
from functools import lru_cache


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


@lru_cache(maxsize=None)
def partitions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n into parts of at most k, largest part first."""
    if n == 0:
        return ((),)
    return tuple((i,) + p for i in range(min(n, k), 0, -1) for p in partitions(n - i, i))


def work() -> tuple[Fraction, int]:
    total = sum(bernoulli(170), Fraction(0))
    lengths: dict[tuple[int, ...], int] = {}
    for n in range(1, 23):
        for p in partitions(n, n):
            key = tuple(sorted(p))
            lengths[key] = lengths.get(key, 0) + len(p)
    return total, len(lengths)


if __name__ == "__main__":
    _, count = work()
    assert count == 4507, count  # the distinct partitions of 1 .. 22

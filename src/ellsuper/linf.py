"""L-infinity morphisms, and the inverse of the ellipsoid morphism as a witness for wtT.

A graded vector space concentrated in even degrees admits no nonzero
L-infinity brackets (parity kills them all), so an algebra here is just a
space with basis ``e_1, e_2, ..`` in the standard grading ``deg e_i = -2 - 2i``,
named by a string, and a morphism ``V -> W`` is a sequence of degree-zero
symmetric multilinear maps, one per arity ``k >= 1``.  Degree zero pins
every output: inputs ``e_{i_1}, .., e_{i_k}`` carry degree
``sum(-2 - 2i_m) = -2k - 2(i_1 + .. + i_k)``, which is ``-2 - 2j`` exactly
for ``j = i_1 + .. + i_k + k - 1``, so an entry on the multiset ``key`` may
land only on the index ``j(key) = sum(key) + len(key) - 1``, which
:func:`_index` computes.  :class:`LinfMorphism` therefore defines a
morphism by one rule, ``key -> scalar``, giving for each multiset of input
basis indices the coefficient on ``e_{j(key)}``, so an entry off that index
cannot be written down.
Coefficients are exact rationals (any exact scalar with ring operations
works, e.g. sympy expressions in the symbolic tests).  Composition,
inversion and the ellipsoid morphism are in :mod:`.morphisms`.

The ellipsoid morphism of an aspect ratio ``a`` (see
:func:`.morphisms.ellipsoid_morphism`) sends the inputs
``o_{i_1}, .., o_{i_k}`` to ``q_j / (G_{i_1}+..+G_{i_k})!`` with
``j = i_1+..+i_k+k-1``, where ``G_i`` are the lattice path points of ``a``
and ``(.)!`` the pair factorial.  Inverting it and pairing the inverse with
the constants ``(d!)^-3`` yields the superpotential, independently of the
recursion and the closed tree sum.

Every entry of the inverse ``Psi`` lands on ``j(key)``, so it is one scalar
``psi(key)`` per input multiset, and the inverse's grouping at the root
(see :func:`.morphisms.invert`) reads

    psi(key) = -(G_j)! * sum over multiset partitions P of key into >= 2 blocks of
                   count(P) * prod(psi(B) for B in P) / (sum of G_{j(B)} for B in P)!

with ``count(P)`` the set partitions whose blocks carry P.  The ellipsoid
entry reads a partition only through its lattice point, the sum of
``G_{j(B)}`` over its blocks, so the partitions are grouped by that point
as they are built: a partition is the block ``B`` holding the first input
(:func:`_first_blocks`) and a partition of the inputs left over, whose
grouped weights that entry has already filed, and its point is theirs
shifted by ``G_{j(B)}``.  The partition into one block files under
``G_j``.  A point ``G_i`` has coordinate sum ``i``, so a partition into
``b`` blocks has a point of coordinate sum ``j + 1 - b``: the one-block
partition never shares a point with another.  The ellipsoid is read once
per point.  Every ``(sum of G)!`` divides ``j!``, so the terms are summed
over ``j!`` and ``(G_j)!/j!`` is ``1/binom(j, x)`` for ``G_j = (x, y)``:
the sum is one integer while the entries are, and an entry whose value is
an integer is kept as an ``int``.  This is exact whether or not the values
are integers.

The witness keeps ``Psi`` in a :class:`LinfMorphism` whose rule is this
scalar sum: ``Psi.entry(key)`` is ``psi(key)``, memoized like any
morphism's entry.  It inverts the same morphism as the generic
:func:`.morphisms.invert`, which stays the reference the tests compare it
against.  Both of its exact divisions, an entry by ``binom(j, x)`` and a
degree's pairing by the common denominator of its terms, go through
``engine._pair``, which reduces by one ``gcd``.  An entry whose quotient is
an integer stays an ``int``, so ``fractions`` loads only for the first entry
that is not one (none has been found; the pass stays exact either way), and
that entry is the only ``Fraction`` this module builds.  The pass yields
each value as the canonical integer pair the other passes return, and
reads every factorial from ``engine._factorials``; it runs through
``engine._engine("linf")``, and ``pipelines.linf_superpotential`` returns
its last value as a ``Fraction``.

This module imports :mod:`.engine`, for ``_pair`` and ``_factorials``, and
:mod:`.lattice`, for the lattice path; the README's "Start-up" table lists
what each subcommand loads.
"""

from itertools import groupby, product
from math import comb, lcm, prod

from .engine import _factorials, _pair
from .lattice import AspectRatio, gamma_path


class LinfError(ValueError):
    """Ill-formed morphism data or an operation outside a declared truncation."""


def _index(key) -> int:
    """The one output index degree zero allows for the inputs ``key`` (see the module docstring)."""
    return sum(key) + len(key) - 1


class LinfMorphism:
    """Degree-zero morphism given by one scalar per multiset of inputs.

    Entries are keyed by the sorted tuple of input basis indices, and the
    entry on ``key`` is the coefficient of the output on ``e_{_index(key)}``,
    the only index degree zero allows, so no entry can land anywhere else.
    The ``rule`` callable, ``key -> scalar``, gives every entry; :meth:`entry`
    checks the key against the truncation, calls the rule on first read and
    memoizes the value.  ``max_index`` and ``max_arity`` declare that
    truncation: they bound the inputs of every entry read.  :meth:`apply` is
    the multilinear extension to sparse vectors ``{index: coefficient}``.

    A morphism is single-threaded: the lazy memo ``_entries`` is a plain dict
    filled on first access without a lock, so an instance must not be shared
    between threads.
    """

    def __init__(self, source: str, target: str, *, max_index: int,
                 max_arity: int, rule, name: str = ""):
        if max_index < 1 or max_arity < 1:
            raise LinfError("truncation bounds must be at least 1")
        self.source = source
        self.target = target
        self.max_index = max_index
        self.max_arity = max_arity
        self.name = name or f"{source}->{target}"
        self._rule = rule
        self._entries: dict = {}

    def entry(self, indices):
        """The coefficient on ``e_{_index(indices)}`` of the value on a multiset of source basis indices."""
        key = tuple(sorted(indices))
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        if not key:
            raise LinfError("arity-zero entries do not exist")
        if len(key) > self.max_arity:
            raise LinfError(f"{self.name}: arity {len(key)} exceeds declared bound {self.max_arity}")
        if key[0] < 1:
            raise LinfError(f"{self.name}: basis indices start at 1, got {key}")
        if key[-1] > self.max_index:
            raise LinfError(f"{self.name}: index {key[-1]} exceeds declared bound {self.max_index}")
        value = self._entries[key] = self._rule(key)
        return value

    def apply(self, vectors) -> dict:
        """Multilinear extension to a list of sparse input vectors; zero coefficients are dropped."""
        out: dict = {}
        for combo in product(*(v.items() for v in vectors)):
            coeff = prod(c for _, c in combo)
            if not combo or coeff == 0:
                continue
            key = [idx for idx, _ in combo]
            j = _index(key)
            c = self.entry(key) * coeff
            out[j] = out[j] + c if j in out else c
        return {j: c for j, c in out.items() if not c == 0}

    def dump(self) -> dict:
        """JSON-ready view of the materialized tables, rationals as strings."""
        arities: dict[str, dict] = {}
        for key in sorted(self._entries):
            bucket = arities.setdefault(str(len(key)), {})
            bucket[",".join(map(str, key))] = str(self._entries[key])
        return {
            "name": self.name,
            "source": self.source,
            "target": self.target,
            "max_index": self.max_index,
            "max_arity": self.max_arity,
            "arities": arities,
        }

    def __repr__(self) -> str:
        return f"LinfMorphism({self.name}, idx<={self.max_index}, k<={self.max_arity})"


def _first_blocks(key: tuple[int, ...]):
    """Yield each way to pick the block holding the first input of ``key``.

    Yields ``(block, left, ways)``: the sorted block, the sorted inputs left
    over, and the number of ways to pick the block's positions.  The block
    takes ``t`` of the ``c`` other copies of each value, in ``comb(c, t)``
    ways; one of them is the whole of ``key``, with nothing left over.
    """
    first, rest = key[0], key[1:]
    copies = [(v, len(tuple(grp))) for v, grp in groupby(rest)]
    for takes in product(*(range(c + 1) for _, c in copies)):
        block, left, ways = [first], [], 1
        for (v, c), t in zip(copies, takes):
            block += [v] * t
            left += [v] * (c - t)
            ways *= comb(c, t)
        yield tuple(block), tuple(left), ways


def _linf_pass(d_max: int, a: AspectRatio):
    """Yield wtT_1 .. wtT_{d_max} via one inverse of the ellipsoid morphism.

    Inverts the ellipsoid morphism on the input multisets the pairing reads,
    one scalar each (see the module docstring), then pairs the inverse
    against the degree-split constants at each d in turn: summing over
    multisets {d_1,..,d_k} with d_1+..+d_k = d, each term contributes

        psi(3d_1-1, .., 3d_k-1) / (m_1! m_2! .. * (d_1!)^3 * .. * (d_k!)^3)

    where ``m_j`` is the multiplicity of each distinct part; every such
    entry lands on ``o_{3d-1}``.  An entry of the inverse does not depend on
    the truncation it is read in, so every degree's pairing reads the same
    inverse.  Each value is a canonical pair ``(num, den)``, gcd 1 and
    den > 0, as ``engine._pair`` defines it.
    """
    path = gamma_path(a, 3 * d_max - 1)
    fact = _factorials(d_max)
    grouped: dict = {}  # input multiset -> {summed lattice point of a partition's blocks: weight}

    def rule(key: tuple[int, ...]):
        j = _index(key)
        splits: dict = {}
        for block, left, ways in _first_blocks(key):
            if not left:
                continue
            weight = ways * inverse.entry(block)
            inverse.entry(left)  # files the partitions of the inputs left over
            gx, gy = path[_index(block)]
            for (x, y), w in grouped[left].items():
                point = (x + gx, y + gy)
                splits[point] = splits.get(point, 0) + weight * w
        if len(key) == 1:
            value = fact[path[j][0]] * fact[path[j][1]]
        else:
            total = sum(w * (fact[j] // (fact[x] * fact[y])) for (x, y), w in splits.items())
            value, den = _pair(-total, comb(j, path[j][0]))
            if den != 1:
                from fractions import Fraction

                value = Fraction(value, den)
        splits[path[j]] = value  # the partition into one block
        grouped[key] = splits
        return value

    inverse = LinfMorphism("C[q]", f"C[{a}]", max_index=3 * d_max - 1, max_arity=d_max,
                           rule=rule, name=f"inv(eps[{a}])")
    parts = [[()]]  # parts[n]: the partitions of n, each a nonincreasing tuple
    for d in range(1, d_max + 1):
        parts.append([(p, *rest) for p in range(d, 0, -1) for rest in parts[d - p]
                      if not rest or rest[0] <= p])
        terms = []  # (entry, its denominator) per split of d
        for part in parts[d]:
            den = 1
            for ds, grp in groupby(part):
                m = len(tuple(grp))
                den *= fact[m] * fact[ds] ** (3 * m)
            terms.append((inverse.entry(tuple(3 * ds - 1 for ds in reversed(part))), den))
        common = lcm(*(den for _, den in terms))
        yield _pair(sum(e * (common // den) for e, den in terms), common)

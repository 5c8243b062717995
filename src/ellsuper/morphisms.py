"""Composition and inversion of L-infinity morphisms, and the ellipsoid morphism.

The morphisms are :class:`.linf.LinfMorphism` tables between evenly graded
algebras, whose entry on the multiset of inputs ``key`` may land only on
the one index ``j(key)`` that degree zero allows (:func:`.linf._index`), so
each is one scalar.  Assembled into coalgebra maps, morphisms compose by
splitting the inputs into unordered blocks:

    (Psi o Phi)^k(v_1..v_k) = sum over set partitions P of {1..k} of
                              Psi^{|P|}( Phi^{|B|}(v_B) : B in P )

and a morphism whose arity-one part is invertible has a two-sided inverse
``Psi`` given explicitly by a signed sum over rooted trees with ordered
leaves: label the i-th leaf edge by ``Psi^1(w_i)``, let every internal vertex
with j incoming edges apply ``Psi^1 o Phi^j`` to its incoming labels, and sum
the root-edge labels over all trees with sign ``(-1)^(number of internal
vertices)``.  :func:`invert` evaluates this sum grouped at the root: the
subtrees hanging from the root sum to lower-arity entries of ``Psi`` itself,
so each entry is one pass over the multiset partitions of its inputs rather
than over the trees (see :func:`invert`).  The partitions come from
:func:`_splits`.  On basis inputs both sums are sums of scalars: the term
of a partition is the outer entry on the blocks' output indices ``j(B)``
times the product of the inner entries on the blocks (:func:`_term`).

The bundled instance attaches to an ellipsoid aspect ratio ``a`` the morphism
with entries ``(o_{i_1},..,o_{i_k}) -> q_{i_1+..+i_k+k-1} / (G_{i_1}+..+G_{i_k})!``
where ``G_i`` are the lattice path points of ``a`` and ``(.)!`` the pair
factorial; the target index is the unique one allowed in degree zero.  Its
entries read the points through :func:`point_add` and :func:`pair_factorial`,
which live here, beside their one reader.  :mod:`.linf` inverts the same
morphism on one scalar per input multiset to witness the superpotential,
summing points and reading factorials on integers itself;
``invert(ellipsoid_morphism(..))`` is the reference its tests compare it
against.  No command-line job loads this module.
"""

import math
from fractions import Fraction

from .lattice import AspectRatio, gamma_path
from .linf import LinfError, LinfMorphism, _first_blocks, _index


def _splits(key: tuple[int, ...], memo: dict) -> dict:
    """The set partitions of the inputs ``key``, grouped by the sorted blocks they carry.

    Maps each multiset partition (a sorted tuple of sorted blocks) to the
    number of set partitions of the positions of ``key`` whose blocks carry
    it.  Partitions with equal groups give equal terms in every sum over set
    partitions of symmetric maps, so each is evaluated once, weighted by its
    count.  The groups are built directly: each block holding the first
    input (:func:`.linf._first_blocks`) joins every group of the inputs left over,
    read through ``memo`` (one dict per morphism, keyed like ``key``).
    """
    if not key:
        return {(): 1}
    hit = memo.get(key)
    if hit is not None:
        return hit
    out: dict = {}
    for block, left, ways in _first_blocks(key):
        for blocks, count in _splits(left, memo).items():
            group = tuple(sorted((block, *blocks)))
            out[group] = out.get(group, 0) + ways * count
    memo[key] = out
    return out


def _term(outer: LinfMorphism, inner: LinfMorphism, blocks):
    """``outer``'s entry on the output indices of ``blocks`` times ``inner``'s entries on them.

    The inner entries are multiplied first, and a zero among them gives 0
    without reading ``outer``, so an outer index past the truncation is
    read only behind a nonzero term.
    """
    prod = 1
    for block in blocks:
        c = inner.entry(block)
        if c == 0:
            return 0
        prod *= c
    return outer.entry([_index(block) for block in blocks]) * prod


def compose(psi: LinfMorphism, phi: LinfMorphism) -> LinfMorphism:
    """Composite morphism; inputs split into unordered blocks, phi inside psi."""
    if phi.target != psi.source:
        raise LinfError(
            f"space mismatch in composition: {phi.name} lands in {phi.target} "
            f"but {psi.name} starts from {psi.source}"
        )
    max_index = min(psi.max_index, phi.max_index)
    max_arity = min(psi.max_arity, phi.max_arity)
    memo: dict = {}

    def rule(key: tuple[int, ...]):
        return sum(_term(psi, phi, blocks) * count for blocks, count in _splits(key, memo).items())

    return LinfMorphism(phi.source, psi.target, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"{psi.name} o {phi.name}")


def invert(phi: LinfMorphism) -> LinfMorphism:
    """Two-sided inverse of a morphism with invertible arity-one part, in ``phi``'s truncation.

    Each arity-one entry ``Phi^1(e_i)``, i = 1..max_index, must be a nonzero
    multiple ``c_i e_i`` of its own basis vector, the only index degree zero
    allows; a zero entry raises :class:`LinfError`.  So ``Psi^1(e_i)`` is
    ``e_i / c_i``.  Higher arities are the signed tree sums described in the
    module docstring, evaluated lazily per input multiset by grouping the
    trees at their root: the root's children are trees on the blocks of a
    set partition P of the inputs into at least two blocks, and the signed
    sum over those subtrees is the inverse's own lower-arity entry, so

        Psi^k(w_1..w_k) = -Psi^1( sum over set partitions P of {1..k}, |P| >= 2,
                                  of Phi^{|P|}( Psi^{|B|}(w_B) : B in P ) )

    with the lower-arity entries read through the inverse's memo.  Set
    partitions whose blocks carry the same multisets of inputs give equal
    terms, so the sum runs over those multiset partitions, each weighted by
    its number of set partitions and built directly by :func:`_splits` (10
    terms instead of 202 for six equal inputs).  A nonzero sum whose index
    lies past ``phi``'s truncation raises :class:`LinfError`.
    """
    inv1 = {}  # index i -> the exact reciprocal of phi^1's coefficient on e_i (int, Fraction or sympy)
    for i in range(1, phi.max_index + 1):
        c = phi.entry((i,))
        if c == 0:
            raise LinfError(f"{phi.name}: arity-1 part is not a scaled basis bijection at index {i}")
        inv1[i] = Fraction(1) / c
    memo: dict = {}

    def rule(key: tuple[int, ...]):
        if len(key) == 1:
            return inv1[key[0]]
        total = sum(_term(phi, psi, blocks) * count
                    for blocks, count in _splits(key, memo).items() if len(blocks) >= 2)
        if total == 0:
            return 0
        j = _index(key)
        if j not in inv1:
            raise LinfError(
                f"{phi.name}: intermediate index {j} exceeds the truncation bound "
                f"{phi.max_index}; enlarge max_index"
            )
        return -total * inv1[j]

    psi = LinfMorphism(phi.target, phi.source, max_index=phi.max_index, max_arity=phi.max_arity,
                       rule=rule, name=f"inv({phi.name})")
    return psi


def point_add(*points: tuple[int, int]) -> tuple[int, int]:
    """Componentwise sum of lattice points in the plane; a non-pair raises ValueError."""
    i = j = 0
    for x, y in points:
        i += x
        j += y
    return (i, j)


def pair_factorial(point: tuple[int, int]) -> int:
    """(i, j)! = i!·j!; a non-pair raises ValueError."""
    i, j = point
    return math.factorial(i) * math.factorial(j)


def ellipsoid_morphism(a: AspectRatio, *, max_index: int, max_arity: int) -> LinfMorphism:
    """The arity-k entries 1/(G_{i_1}+..+G_{i_k})! landing on q_{i_1+..+i_k+k-1}.

    ``G_i`` is the lattice path point of ``a`` at index i and ``(.)!`` the pair
    factorial.  The target index is forced by degree-zero homogeneity.  In
    particular the arity-one part sends o_k to q_k / (G_k)!, a scaled basis
    bijection, so the morphism is invertible.
    """

    path = gamma_path(a, max_index)

    def rule(key: tuple[int, ...]):
        total = point_add(*(path[i] for i in key))
        return Fraction(1, pair_factorial(total))

    return LinfMorphism(f"C[{a}]", "C[q]", max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"eps[{a}]")

"""Morphism engine for evenly graded L-infinity algebras over the rationals.

A graded vector space concentrated in even degrees admits no nonzero
L-infinity brackets (parity kills them all), so an algebra here is just a
space with basis ``e_1, e_2, ..`` in the standard grading ``deg e_i = -2 - 2i``,
named by a string, and a morphism ``V -> W`` is a sequence of degree-zero
symmetric multilinear maps, one per arity ``k >= 1``.  Degree zero pins
every output: inputs ``e_{i_1}, .., e_{i_k}`` carry degree
``sum(-2 - 2i_m) = -2k - 2(i_1 + .. + i_k)``, which is ``-2 - 2j`` exactly
for ``j = i_1 + .. + i_k + k - 1``, so an entry on the multiset ``key`` may
land only on the index ``sum(key) + len(key) - 1``.  Assembled into
coalgebra maps, morphisms compose by splitting the inputs into unordered
blocks:

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
than over the trees (see :func:`invert`).

Tables are stored sparsely per multiset of input basis indices; coefficients
are exact rationals (any exact scalar with ring operations works, e.g. sympy
expressions in the symbolic tests).  Every stored entry is checked to be
degree-homogeneous of degree zero, i.e. to land on that one index.

The bundled instance attaches to an ellipsoid aspect ratio ``a`` the morphism
with entries ``(o_{i_1},..,o_{i_k}) -> q_{i_1+..+i_k+k-1} / (G_{i_1}+..+G_{i_k})!``
where ``G_i`` are the lattice path points of ``a`` and ``(.)!`` the pair
factorial; the target index is the unique one allowed in degree zero.
Inverting it and pairing with the rational constants ``(d!)^-3`` yields the
superpotential, independently of the recursion and the closed tree sum.
"""

from fractions import Fraction
from itertools import groupby, product
from math import comb, factorial

from .lattice import AspectRatio, gamma_path, pair_factorial, point_add


class LinfError(ValueError):
    """Ill-formed morphism data or an operation outside a declared truncation."""


def _recip(c):
    # Exact reciprocal; plain ints must not fall into float division.
    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


def _vec_acc(acc: dict, vec: dict, scale=1) -> None:
    for idx, c in vec.items():
        c = c * scale if scale != 1 else c
        if idx in acc:
            acc[idx] = acc[idx] + c
        else:
            acc[idx] = c


def _vec_trim(vec: dict) -> dict:
    return {idx: c for idx, c in vec.items() if not c == 0}


class LinfMorphism:
    """Degree-zero morphism stored as per-arity sparse tables.

    Entries are keyed by the sorted tuple of input basis indices and map to
    sparse output vectors ``{index: coefficient}``.  A table may be backed by
    a ``rule`` callable evaluated lazily and memoized; entries are validated
    for degree-zero homogeneity when first materialized.  ``max_index`` and
    ``max_arity`` declare the truncation inside which the morphism is used.

    A morphism is single-threaded: the lazy memo ``_entries`` is a plain dict
    filled on first access without a lock, so an instance must not be shared
    between threads.
    """

    def __init__(self, source: str, target: str, *, max_index: int,
                 max_arity: int, rule=None, entries=None, name: str = ""):
        if max_index < 1 or max_arity < 1:
            raise LinfError("truncation bounds must be at least 1")
        self.source = source
        self.target = target
        self.max_index = max_index
        self.max_arity = max_arity
        self.name = name or f"{source}->{target}"
        self._rule = rule
        self._entries: dict[tuple[int, ...], dict] = {}
        for key, vec in (entries or {}).items():
            key = tuple(sorted(key))
            self._validate_key(key)
            self._store(key, vec)

    def _validate_key(self, key: tuple[int, ...]) -> None:
        if not key:
            raise LinfError("arity-zero entries do not exist")
        if len(key) > self.max_arity:
            raise LinfError(f"{self.name}: arity {len(key)} exceeds declared bound {self.max_arity}")
        if key[0] < 1:
            raise LinfError(f"{self.name}: basis indices start at 1, got {key}")
        if key[-1] > self.max_index:
            raise LinfError(f"{self.name}: index {key[-1]} exceeds declared bound {self.max_index}")

    def _store(self, key: tuple[int, ...], vec: dict) -> dict:
        """Trim ``vec``, check that it lands on the one index of degree zero, and store it."""
        vec = _vec_trim(vec)
        expected = sum(key) + len(key) - 1  # see the module docstring
        for j in vec:
            if j != expected:
                raise LinfError(
                    f"{self.name}: entry {key} -> {j} is not degree-homogeneous "
                    f"(expected index {expected})"
                )
        self._entries[key] = vec
        return vec

    def entry(self, indices) -> dict:
        """Sparse value on a multiset of source basis indices (do not mutate)."""
        key = tuple(sorted(indices))
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        self._validate_key(key)
        return self._store(key, self._rule(key) if self._rule is not None else {})

    def apply(self, vectors) -> dict:
        """Multilinear extension to a list of sparse input vectors."""
        out: dict = {}
        for combo in product(*(v.items() for v in vectors)):
            coeff = None
            key = []
            for idx, c in combo:
                key.append(idx)
                coeff = c if coeff is None else coeff * c
            if coeff is None or coeff == 0:
                continue
            _vec_acc(out, self.entry(key), coeff)
        return _vec_trim(out)

    def dump(self) -> dict:
        """JSON-ready view of the materialized tables, rationals as strings."""
        arities: dict[str, dict] = {}
        for key in sorted(self._entries):
            vec = self._entries[key]
            bucket = arities.setdefault(str(len(key)), {})
            bucket[",".join(map(str, key))] = {str(j): str(c) for j, c in sorted(vec.items())}
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


def identity_morphism(space: str, *, max_index: int, max_arity: int) -> LinfMorphism:
    """Arity-one identity; all higher arities vanish."""

    def rule(key: tuple[int, ...]) -> dict:
        if len(key) == 1:
            return {key[0]: Fraction(1)}
        return {}

    return LinfMorphism(space, space, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"id[{space}]")


def _splits(key: tuple[int, ...], memo: dict) -> dict:
    """The set partitions of the inputs ``key``, grouped by the sorted blocks they carry.

    Maps each multiset partition (a sorted tuple of sorted blocks) to the
    number of set partitions of the positions of ``key`` whose blocks carry
    it.  Partitions with equal groups give equal terms in every sum over set
    partitions of symmetric maps, so each is evaluated once, weighted by its
    count.  The groups are built directly: the block holding the first input
    takes ``t`` of the ``c`` other copies of each value, in ``comb(c, t)``
    ways, and the inputs left over split recursively, read through ``memo``
    (one dict per morphism, keyed like ``key``).
    """
    if not key:
        return {(): 1}
    hit = memo.get(key)
    if hit is not None:
        return hit
    first, rest = key[0], key[1:]
    copies = [(v, len(tuple(grp))) for v, grp in groupby(rest)]
    out: dict = {}
    for takes in product(*(range(c + 1) for _, c in copies)):
        block, left, ways = [first], [], 1
        for (v, c), t in zip(copies, takes):
            block += [v] * t
            left += [v] * (c - t)
            ways *= comb(c, t)
        block = tuple(block)
        for blocks, count in _splits(tuple(left), memo).items():
            group = tuple(sorted((block, *blocks)))
            out[group] = out.get(group, 0) + ways * count
    memo[key] = out
    return out


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

    def rule(key: tuple[int, ...]) -> dict:
        out: dict = {}
        for blocks, count in _splits(key, memo).items():
            _vec_acc(out, psi.apply([phi.entry(block) for block in blocks]), count)
        return out

    return LinfMorphism(phi.source, psi.target, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"{psi.name} o {phi.name}")


def invert(phi: LinfMorphism) -> LinfMorphism:
    """Two-sided inverse of a morphism with invertible arity-one part, in ``phi``'s truncation.

    Each arity-one entry ``Phi^1(e_i)``, i = 1..max_index, must be a nonzero
    multiple ``c_i e_i`` of its own basis vector, the only index degree zero
    allows; an empty entry raises :class:`LinfError`.  So ``Psi^1(e_i)`` is
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
    terms instead of 202 for six equal inputs).
    """
    inv1 = {}  # index i -> the reciprocal of phi^1's coefficient on e_i
    for i in range(1, phi.max_index + 1):
        vec = phi.entry((i,))  # degree zero: empty, or a multiple of e_i
        if not vec:
            raise LinfError(f"{phi.name}: arity-1 part is not a scaled basis bijection at index {i}")
        inv1[i] = _recip(vec[i])
    memo: dict = {}

    def rule(key: tuple[int, ...]) -> dict:
        if len(key) == 1:
            return {key[0]: inv1[key[0]]}
        total: dict = {}
        for blocks, count in _splits(key, memo).items():
            if len(blocks) < 2:
                continue
            _vec_acc(total, phi.apply([psi.entry(block) for block in blocks]), count)
        out: dict = {}
        for j, c in total.items():
            if j not in inv1:
                raise LinfError(
                    f"{phi.name}: intermediate index {j} exceeds the truncation bound "
                    f"{phi.max_index}; enlarge max_index"
                )
            out[j] = -c * inv1[j]
        return out

    psi = LinfMorphism(phi.target, phi.source, max_index=phi.max_index, max_arity=phi.max_arity,
                       rule=rule, name=f"inv({phi.name})")
    return psi


def ellipsoid_morphism(a: AspectRatio, *, max_index: int, max_arity: int) -> LinfMorphism:
    """The arity-k entries 1/(G_{i_1}+..+G_{i_k})! landing on q_{i_1+..+i_k+k-1}.

    ``G_i`` is the lattice path point of ``a`` at index i and ``(.)!`` the pair
    factorial.  The target index is forced by degree-zero homogeneity.  In
    particular the arity-one part sends o_k to q_k / (G_k)!, a scaled basis
    bijection, so the morphism is invertible.
    """

    path = gamma_path(a, max_index)

    def rule(key: tuple[int, ...]) -> dict:
        total = point_add(*(path[i] for i in key))
        return {sum(key) + len(key) - 1: Fraction(1, pair_factorial(total))}

    return LinfMorphism(f"C[{a}]", "C[q]", max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"eps[{a}]")


def _linf_pass(d_max: int, a: AspectRatio):
    """Yield wtT_1 .. wtT_{d_max} via one inverse of the ellipsoid morphism.

    Inverts the ellipsoid morphism truncated at index 3 d_max - 1 and arity
    d_max once, then pairs the inverse against the degree-split constants at
    each d in turn: summing over multisets {d_1,..,d_k} with d_1+..+d_k = d,
    each term contributes

        [coefficient of o_{3d-1} in eta^k(q_{3d_1-1}, .., q_{3d_k-1})]
        / (m_1! m_2! .. * (d_1!)^3 * .. * (d_k!)^3)

    where ``m_j`` is the multiplicity of each distinct part.  An entry of
    the inverse does not depend on the truncation it is read in, so every
    degree's pairing reads the same memo.
    """
    eta = invert(ellipsoid_morphism(a, max_index=3 * d_max - 1, max_arity=d_max))
    parts = [[()]]  # parts[n]: the partitions of n, each a nonincreasing tuple
    for d in range(1, d_max + 1):
        parts.append([(p, *rest) for p in range(d, 0, -1) for rest in parts[d - p]
                      if not rest or rest[0] <= p])
        total = Fraction(0)
        for part in parts[d]:
            den = 1
            for ds, grp in groupby(part):
                m = len(tuple(grp))
                den *= factorial(m) * factorial(ds) ** (3 * m)
            coeff = eta.entry(tuple(3 * ds - 1 for ds in part)).get(3 * d - 1)
            if coeff is not None:
                total += coeff / den
        yield total


def linf_superpotential(d: int, a: AspectRatio) -> Fraction:
    """Normalized count wtT via morphism inversion; exact, intended as an oracle.

    The last value of :func:`_linf_pass` at ``d_max = d``: the inverse of the
    ellipsoid morphism truncated at index 3d-1 and arity d, paired against
    the degree-split constants.
    """
    if d < 1:
        raise ValueError(f"linf_superpotential requires d >= 1, got {d}")
    *_, wt = _linf_pass(d, a)
    return wt

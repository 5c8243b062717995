"""Morphism engine for evenly graded L-infinity algebras over the rationals.

A graded vector space concentrated in even degrees admits no nonzero
L-infinity brackets (parity kills them all), so an algebra here is just a
based graded space and a morphism ``V -> W`` is a sequence of degree-zero
symmetric multilinear maps, one per arity ``k >= 1``.  Assembled into
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
so each entry is one pass over the set partitions of its inputs rather than
over the trees (see :func:`invert`).

Tables are stored sparsely per multiset of input basis indices; coefficients
are exact rationals (any exact scalar with ring operations works, e.g. sympy
expressions in the symbolic tests).  Every stored entry is checked to be
degree-homogeneous of degree zero.

The bundled instance attaches to an ellipsoid aspect ratio ``a`` the morphism
with entries ``(o_{i_1},..,o_{i_k}) -> q_{i_1+..+i_k+k-1} / (G_{i_1}+..+G_{i_k})!``
where ``G_i`` are the lattice path points of ``a`` and ``(.)!`` the pair
factorial; the target index is the unique one allowed in degree zero.
Inverting it and pairing with the rational constants ``(d!)^-3`` yields the
superpotential, independently of the recursion and the closed tree sum.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import groupby, product

from .lattice import AspectRatio, gamma_path, pair_factorial, point_add
from .numerics import factorial, partitions
from .trees import set_partitions


class LinfError(ValueError):
    """Ill-formed morphism data or an operation outside a declared truncation."""


def standard_degree(i: int) -> int:
    """Degree -2-2i carried by the i-th generator of the bundled spaces."""
    return -2 - 2 * i


class BasedSpace:
    """Graded vector space with basis indexed by 1, 2, 3, ... in even degrees."""

    def __init__(self, name: str, degree=standard_degree):
        self.name = name
        self._degree = degree

    def degree(self, i: int) -> int:
        if i < 1:
            raise LinfError(f"basis indices start at 1, got {i}")
        d = self._degree(i)
        if d % 2:
            raise LinfError(f"{self.name} has odd degree {d} at index {i}; only even gradings are supported")
        return d

    def __eq__(self, other) -> bool:
        return isinstance(other, BasedSpace) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"BasedSpace({self.name!r})"


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

    def __init__(self, source: BasedSpace, target: BasedSpace, *, max_index: int,
                 max_arity: int, rule=None, entries=None, name: str = ""):
        if max_index < 1 or max_arity < 1:
            raise LinfError("truncation bounds must be at least 1")
        self.source = source
        self.target = target
        self.max_index = max_index
        self.max_arity = max_arity
        self.name = name or f"{source.name}->{target.name}"
        self._rule = rule
        self._entries: dict[tuple[int, ...], dict] = {}
        if entries:
            for key, vec in entries.items():
                key = tuple(sorted(key))
                self._validate_key(key)
                vec = _vec_trim(vec)
                self._check_entry(key, vec)
                self._entries[key] = vec

    def _validate_key(self, key: tuple[int, ...]) -> None:
        if not key:
            raise LinfError("arity-zero entries do not exist")
        if len(key) > self.max_arity:
            raise LinfError(f"{self.name}: arity {len(key)} exceeds declared bound {self.max_arity}")
        if key[0] < 1:
            raise LinfError(f"{self.name}: basis indices start at 1, got {key}")
        if key[-1] > self.max_index:
            raise LinfError(f"{self.name}: index {key[-1]} exceeds declared bound {self.max_index}")

    def _check_entry(self, key: tuple[int, ...], vec: dict) -> None:
        deg_in = sum(self.source.degree(i) for i in key)
        for j in vec:
            if self.target.degree(j) != deg_in:
                raise LinfError(
                    f"{self.name}: entry {key} -> {j} is not degree-homogeneous "
                    f"({deg_in} vs {self.target.degree(j)})"
                )

    def entry(self, indices) -> dict:
        """Sparse value on a multiset of source basis indices (do not mutate)."""
        key = tuple(sorted(indices))
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        self._validate_key(key)
        vec = _vec_trim(self._rule(key)) if self._rule is not None else {}
        self._check_entry(key, vec)
        self._entries[key] = vec
        return vec

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

    def materialized(self) -> dict[tuple[int, ...], dict]:
        """All entries computed so far (useful for dumps and inspection)."""
        return dict(self._entries)

    def dump(self) -> dict:
        """JSON-ready view of the materialized tables, rationals as strings."""
        arities: dict[str, dict] = {}
        for key in sorted(self._entries):
            vec = self._entries[key]
            bucket = arities.setdefault(str(len(key)), {})
            bucket[",".join(map(str, key))] = {str(j): str(c) for j, c in sorted(vec.items())}
        return {
            "name": self.name,
            "source": self.source.name,
            "target": self.target.name,
            "max_index": self.max_index,
            "max_arity": self.max_arity,
            "arities": arities,
        }

    def __repr__(self) -> str:
        return f"LinfMorphism({self.name}, idx<={self.max_index}, k<={self.max_arity})"


def identity_morphism(space: BasedSpace, *, max_index: int, max_arity: int) -> LinfMorphism:
    """Arity-one identity; all higher arities vanish."""

    def rule(key: tuple[int, ...]) -> dict:
        if len(key) == 1:
            return {key[0]: Fraction(1)}
        return {}

    return LinfMorphism(space, space, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"id[{space.name}]")


def _splits(key: tuple[int, ...]) -> Counter:
    # Set partitions of the inputs, grouped by the sorted multisets of input
    # indices their blocks carry: partitions with equal groups give equal terms
    # in every sum over set partitions of symmetric maps, so each is evaluated
    # once and weighted by its count.
    return Counter(
        tuple(sorted(tuple(key[p] for p in block) for block in blocks))
        for blocks in set_partitions(range(len(key)))
    )


def compose(psi: LinfMorphism, phi: LinfMorphism, *, name: str = "") -> LinfMorphism:
    """Composite morphism; inputs split into unordered blocks, phi inside psi."""
    if phi.target != psi.source:
        raise LinfError(
            f"space mismatch in composition: {phi.name} lands in {phi.target.name} "
            f"but {psi.name} starts from {psi.source.name}"
        )
    max_index = min(psi.max_index, phi.max_index)
    max_arity = min(psi.max_arity, phi.max_arity)

    def rule(key: tuple[int, ...]) -> dict:
        out: dict = {}
        for blocks, count in _splits(key).items():
            _vec_acc(out, psi.apply([phi.entry(block) for block in blocks]), count)
        return out

    return LinfMorphism(phi.source, psi.target, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=name or f"{psi.name} o {phi.name}")


def invert(phi: LinfMorphism, max_arity: int | None = None) -> LinfMorphism:
    """Two-sided inverse of a morphism with invertible arity-one part.

    The arity-one part must restrict to a scaled basis bijection on indices
    1..max_index; otherwise a :class:`LinfError` is raised.  Higher arities
    are the signed tree sums described in the module docstring, evaluated
    lazily per input multiset by grouping the trees at their root: the root's
    children are trees on the blocks of a set partition P of the inputs into
    at least two blocks, and the signed sum over those subtrees is the
    inverse's own lower-arity entry, so

        Psi^k(w_1..w_k) = -Psi^1( sum over set partitions P of {1..k}, |P| >= 2,
                                  of Phi^{|P|}( Psi^{|B|}(w_B) : B in P ) )

    with the lower-arity entries read through the inverse's memo.  Partitions
    whose blocks carry the same multisets of inputs are evaluated once.
    """
    arity = phi.max_arity if max_arity is None else max_arity
    inv1: dict[int, tuple[int, object]] = {}
    for i in range(1, phi.max_index + 1):
        vec = phi.entry((i,))
        if len(vec) != 1:
            raise LinfError(f"{phi.name}: arity-1 part is not a scaled basis bijection at index {i}")
        ((j, c),) = vec.items()
        if j in inv1:
            raise LinfError(f"{phi.name}: arity-1 part is not injective (index {j} hit twice)")
        inv1[j] = (i, _recip(c))
    if set(inv1) != set(range(1, phi.max_index + 1)):
        raise LinfError(f"{phi.name}: arity-1 part is not onto the truncated basis")

    def rule(key: tuple[int, ...]) -> dict:
        if len(key) == 1:
            i, r = inv1[key[0]]
            return {i: r}
        total: dict = {}
        for blocks, count in _splits(key).items():
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
            i, r = inv1[j]
            out[i] = -c * r
        return out

    psi = LinfMorphism(phi.target, phi.source, max_index=phi.max_index, max_arity=arity,
                       rule=rule, name=f"inv({phi.name})")
    return psi


def ellipsoid_space(a: AspectRatio) -> BasedSpace:
    """Source space attached to an aspect ratio, generators o_1, o_2, ..."""
    return BasedSpace(f"C[{a}]")


def descendant_space() -> BasedSpace:
    """Common target space, generators q_1, q_2, ..."""
    return BasedSpace("C[q]")


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

    return LinfMorphism(ellipsoid_space(a), descendant_space(),
                        max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"eps[{a}]")


def linf_superpotential(d: int, a: AspectRatio) -> Fraction:
    """Normalized count wtT via morphism inversion; exact, intended as an oracle.

    Inverts the ellipsoid morphism truncated at index 3d-1 and arity d, then
    pairs the inverse against the degree-split constants: summing over
    multisets {d_1,..,d_k} with d_1+..+d_k = d, each term contributes

        1/(m_1! m_2! .. * (d_1!)^3 * .. * (d_k!)^3) * [coefficient of o_{3d-1}
        in eta^k(q_{3d_1-1}, .., q_{3d_k-1})]

    where ``m_j`` is the multiplicity of each distinct part.
    """
    if d < 1:
        raise ValueError(f"linf_superpotential requires d >= 1, got {d}")
    top = 3 * d - 1
    eps = ellipsoid_morphism(a, max_index=top, max_arity=d)
    eta = invert(eps)
    total = Fraction(0)
    for part in partitions(d):
        weight = Fraction(1)
        for _, grp in groupby(part):
            weight /= factorial(len(tuple(grp)))
        for ds in part:
            weight /= factorial(ds) ** 3
        vec = eta.entry(tuple(3 * ds - 1 for ds in part))
        total += weight * vec.get(top, Fraction(0))
    return total

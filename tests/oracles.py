"""Brute-force oracles, deliberately independent of the library code paths.

The lattice oracle ranks candidates by the exact pair (limit value, slope in
the perturbation) over ``Fraction`` arithmetic, whereas the library compares
scaled integers.  The tree oracle generates canonical forms by brute
composition enumeration with set-based deduplication, whereas the library
assembles children multisets per partition without deduplication.

The superpotential oracles are second formulas for values the library
computes one way only.  ``per_tree_wtT`` evaluates the tree sum one tree at a
time with ``pair_factorial`` on lattice points, where the library builds a
ratio-independent table per degree and evaluates each vertex type once per
ratio; ``fraction_series_recursion_wtT`` runs the library's series
exponential with one ``Fraction`` per coefficient, where the library keeps
integers over one denominator per degree; ``multiset_recursion_wtT`` sums
the recursion's inner sum over the partitions of d with a 1/(m_1! m_2! ..)
factor, where the library reads it off a power-series exponential;
``ordered_recursion_wtT`` and ``ordered_linf_superpotential`` sum over
ordered compositions with a 1/k! factor; ``tree_wtT_infinity`` is the
infinite-ratio tree sum written with plain integer factorials and central
binomials instead of lattice points.

``per_partition_compose`` composes two L-infinity morphisms by applying the
outer morphism once per set partition of the inputs, where the library groups
partitions whose blocks carry equal input multisets and weights each group by
its count.

``tree_sum_invert`` inverts an L-infinity morphism by the signed sum over
every ordered tree, memoizing subtrees by their decorated canonical form,
where the library groups the same sum at the root and recurses on set
partitions of the inputs.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product

from ellsuper import (
    LinfError,
    LinfMorphism,
    compositions,
    ellipsoid_morphism,
    enumerate_ordered_trees,
    enumerate_trees,
    factorial,
    invert,
    ordered_internal_count,
    pair_factorial,
    partitions,
    path_signature,
    point_add,
    set_partitions,
    vertex_data,
)
from ellsuper.linf import _recip, _vec_acc


def brute_gamma_point(p: int, q: int, k: int) -> tuple[int, int]:
    """Argmin of max(i, (p/q + delta) * j) over i + j = k, delta -> 0+.

    The value of a candidate is the pair (limit, slope): the i-branch
    contributes (i, 0), the j-branch ((p/q) * j, j), and the max is taken
    lexicographically, exactly as for a small positive perturbation.  Asserts
    that the minimizer is unique.
    """
    ratio = Fraction(p, q)

    def value(i, j):
        return max((Fraction(i), 0), (ratio * j, j))

    ranked = [(value(k - j, j), (k - j, j)) for j in range(k + 1)]
    best = min(rank for rank, _ in ranked)
    winners = [pt for rank, pt in ranked if rank == best]
    assert len(winners) == 1, f"non-unique argmin for {p}/{q} at k={k}: {winners}"
    return winners[0]


def _compositions(total, min_parts=1):
    if total == 0:
        if min_parts <= 0:
            yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first, min_parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def brute_tree_forms(d: int) -> frozenset:
    """Canonical forms (leaf = (), internal = sorted child tuple) with d leaves.

    Enumerates every ordered composition of d into >= 2 parts, every choice of
    subtree per part, sorts, and dedupes in a set; exponentially redundant but
    obviously exhaustive.
    """
    if d == 1:
        return frozenset({()})
    forms = set()
    for comp in _compositions(d, min_parts=2):
        if len(comp) < 2:
            continue
        for pieces in product(*(brute_tree_forms(c) for c in comp)):
            forms.add(tuple(sorted(pieces)))
    return frozenset(forms)


# 25 assorted test ratios (p, q), mostly above 1 but with a couple below.
ASSORTED_FRACTIONS = [
    (1, 1), (3, 2), (2, 1), (5, 2), (7, 3), (8, 5), (13, 8), (5, 1), (100, 1),
    (7, 6), (9, 7), (22, 7), (31, 17), (4, 3), (11, 10), (12, 5), (17, 4),
    (29, 2), (3, 1), (10, 3), (16, 9), (21, 13), (34, 21), (2, 3), (5, 8),
]


def per_tree_wtT(d, a):
    """wtT by the closed tree sum, one ``Fraction`` term per tree."""
    if d < 1:
        raise ValueError(f"per_tree_wtT requires d >= 1, got {d}")
    path = path_signature(a, d)
    g2 = path[2]
    g2f = pair_factorial(g2)

    def term(tree) -> Fraction:
        value = Fraction(1, tree.aut_order)
        for v in vertex_data(tree):
            if not v.movable:
                value = -value
            num = pair_factorial(path[3 * v.leaf_number - 1])
            den = pair_factorial(point_add(*(path[3 * c - 1] for c in v.child_leaf_numbers)))
            value *= Fraction(num, den)
            if v.movable:
                ell = v.leaf_number
                movable = Fraction(pair_factorial(tuple(ell * x for x in g2)),
                                   factorial(ell) ** 2 * g2f ** ell) - 1
                value *= movable
        return value

    total = sum(map(term, enumerate_trees(d)), Fraction(0))
    return g2f ** d * total


def multiset_recursion_wtT(d, a):
    """wtT by the split recursion, with the inner sum over multisets of degrees."""
    if d < 1:
        raise ValueError(f"multiset_recursion_wtT requires d >= 1, got {d}")
    return _multiset_recursion_from_path(d, path_signature(a, d))


_MULTISET_RECURSION_CACHE = {}


def _multiset_recursion_from_path(d, path):
    key = (d, path[: 3 * d])
    hit = _MULTISET_RECURSION_CACHE.get(key)
    if hit is not None:
        return hit
    inner_sum = Fraction(0)
    for part in partitions(d, min_parts=2):
        term = Fraction(1)
        for _, grp in groupby(part):
            term /= factorial(len(tuple(grp)))
        for ds in part:
            term *= _multiset_recursion_from_path(ds, path)
        inner_sum += term / pair_factorial(point_add(*(path[3 * ds - 1] for ds in part)))
    value = pair_factorial(path[3 * d - 1]) * (Fraction(1, factorial(d) ** 3) - inner_sum)
    _MULTISET_RECURSION_CACHE[key] = value
    return value


def fraction_series_recursion_wtT(d, a):
    """wtT by the split recursion, as one online pass of the series exponential."""
    if d < 1:
        raise ValueError(f"fraction_series_recursion_wtT requires d >= 1, got {d}")
    path = path_signature(a, d)
    # coordinates of G_k are at most k, so every lattice point of f_1..f_d has
    # coordinates below 3d; one table serves every pair factorial of the pass
    fact = [factorial(m) for m in range(3 * d)]
    wts = [Fraction(0)]  # wts[s] = wtT_s; index 0 unused
    series: list = [None]  # series[n] = f_n, lattice point -> coefficient; index 0 unused
    for n in range(1, d + 1):
        # f_n - g_n = (1/n) sum_{k<n} k g_k f_{n-k}: the splits of n into >= 2 parts
        f_n: dict = {}
        for k in range(1, n):
            (gi, gj), weight = path[3 * k - 1], Fraction(k, n) * wts[k]
            for (i, j), coeff in series[n - k].items():
                key = (i + gi, j + gj)
                f_n[key] = f_n.get(key, 0) + weight * coeff
        inner_sum = sum((c / (fact[i] * fact[j]) for (i, j), c in f_n.items()), Fraction(0))
        point = path[3 * n - 1]
        wt = fact[point[0]] * fact[point[1]] * (Fraction(1, factorial(n) ** 3) - inner_sum)
        f_n[point] = f_n.get(point, 0) + wt  # the one-part term g_n
        wts.append(wt)
        series.append(f_n)
    return wts[d]


def ordered_recursion_wtT(d, a):
    """wtT by the split recursion, with the inner sum over ordered compositions."""
    if d < 1:
        raise ValueError(f"ordered_recursion_wtT requires d >= 1, got {d}")
    return _ordered_recursion_from_path(d, path_signature(a, d))


_ORDERED_RECURSION_CACHE = {}


def _ordered_recursion_from_path(d, path):
    key = (d, path[: 3 * d])
    hit = _ORDERED_RECURSION_CACHE.get(key)
    if hit is not None:
        return hit
    inner_sum = Fraction(0)
    for comp in compositions(d, min_parts=2):
        term = Fraction(1, factorial(len(comp)))
        for ds in comp:
            term *= _ordered_recursion_from_path(ds, path)
        inner_sum += term / pair_factorial(point_add(*(path[3 * ds - 1] for ds in comp)))
    value = pair_factorial(path[3 * d - 1]) * (Fraction(1, factorial(d) ** 3) - inner_sum)
    _ORDERED_RECURSION_CACHE[key] = value
    return value


def ordered_linf_superpotential(d, a):
    """wtT via morphism inversion, paired over ordered compositions with 1/k!."""
    if d < 1:
        raise ValueError(f"ordered_linf_superpotential requires d >= 1, got {d}")
    top = 3 * d - 1
    eps = ellipsoid_morphism(a, max_index=top, max_arity=d)
    eta = invert(eps)
    total = Fraction(0)
    for comp in compositions(d):
        weight = Fraction(1, factorial(len(comp)))
        for ds in comp:
            weight /= factorial(ds) ** 3
        vec = eta.entry(tuple(3 * ds - 1 for ds in comp))
        total += weight * vec.get(top, Fraction(0))
    return total


def tree_wtT_infinity(d):
    """Infinite-ratio specialization of the tree sum, as an independent formula.

    With every path point equal to (k, 0) the internal factor collapses to
    (3l(v)-1)! / (3l(v)-|v|+1)! and the movable factor to the central-binomial
    expression 2^-l * binom(2l, l) - 1, with overall prefactor 2^d.
    """
    if d < 1:
        raise ValueError(f"tree_wtT_infinity requires d >= 1, got {d}")
    total = Fraction(0)
    for tree in enumerate_trees(d):
        value = Fraction(1, tree.aut_order)
        for v in vertex_data(tree):
            if not v.movable:
                value = -value
            value *= Fraction(factorial(3 * v.leaf_number - 1),
                              factorial(3 * v.leaf_number - v.valency + 1))
            if v.movable:
                ell = v.leaf_number
                value *= Fraction(math.comb(2 * ell, ell), 2 ** ell) - 1
        total += value
    return 2 ** d * total


# Evaluation plans for the inversion tree sum.  A plan mirrors an ordered
# tree with leaf labels replaced by input positions; during evaluation each
# subtree is identified by its decorated canonical form (the unordered shape
# with the assigned input indices at the leaves), and since the vertex maps
# are symmetric, subtrees with equal decorated forms evaluate equal and are
# computed once.
def _make_plan(t):
    if isinstance(t, int):
        return ("L", t - 1)
    return ("N", tuple(_make_plan(c) for c in t))


def _decorated_form(plan, key):
    if plan[0] == "L":
        return ("L", key[plan[1]])
    return ("N", tuple(sorted(_decorated_form(c, key) for c in plan[1])))


@lru_cache(maxsize=None)
def _tree_plans(k: int):
    return tuple(
        ((-1) ** ordered_internal_count(t), _make_plan(t))
        for t in enumerate_ordered_trees(k)
    )


def tree_sum_invert(phi: LinfMorphism, max_arity: int | None = None) -> LinfMorphism:
    """Two-sided inverse of a morphism with invertible arity-one part.

    The arity-one part must restrict to a scaled basis bijection on indices
    1..max_index; otherwise a :class:`LinfError` is raised.  Higher arities
    are the signed tree sums described in the module docstring, evaluated
    lazily per input multiset.
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

    shape_memo: dict = {}

    def psi1_vec(vec: dict) -> dict:
        out: dict = {}
        for j, c in vec.items():
            i, r = inv1.get(j, (None, None))
            if i is None:
                raise LinfError(
                    f"{phi.name}: intermediate index {j} exceeds the truncation bound "
                    f"{phi.max_index}; enlarge max_index"
                )
            _vec_acc(out, {i: c * r})
        return out

    def eval_plan(plan, key):
        if plan[0] == "L":
            i, r = inv1[key[plan[1]]]
            return {i: r}
        memo_key = _decorated_form(plan, key)
        hit = shape_memo.get(memo_key)
        if hit is not None:
            return hit
        vecs = [eval_plan(c, key) for c in plan[1]]
        out = psi1_vec(phi.apply(vecs))
        shape_memo[memo_key] = out
        return out

    def rule(key: tuple[int, ...]) -> dict:
        if len(key) == 1:
            i, r = inv1[key[0]]
            return {i: r}
        total: dict = {}
        for sign, plan in _tree_plans(len(key)):
            _vec_acc(total, eval_plan(plan, key), sign)
        return total

    return LinfMorphism(phi.target, phi.source, max_index=phi.max_index, max_arity=arity,
                        rule=rule, name=f"inv({phi.name})")


def per_partition_compose(psi: LinfMorphism, phi: LinfMorphism, *, name: str = "") -> LinfMorphism:
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
        for blocks in set_partitions(range(len(key))):
            inner = [phi.entry(tuple(key[p] for p in block)) for block in blocks]
            _vec_acc(out, psi.apply(inner))
        return out

    return LinfMorphism(phi.source, psi.target, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=name or f"{psi.name} o {phi.name}")

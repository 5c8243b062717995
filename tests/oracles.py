"""Brute-force oracles, deliberately independent of the library code paths.

The lattice oracle ranks candidates by the exact pair (limit value, slope in
the perturbation) over ``Fraction`` arithmetic, whereas the library compares
scaled integers.  The tree oracle generates canonical forms by brute
composition enumeration with set-based deduplication, whereas the library
assembles children multisets per partition without deduplication.

``exact_path`` and ``exact_mult`` evaluate the path and the multiplicity
at a plain rational ratio, with no perturbation and no tie rule, where the
library works at ``p/q + delta``.

The superpotential oracles are second formulas for values the library
computes one way only.  ``per_tree_wtT`` evaluates the tree sum one tree at a
time with ``pair_factorial`` on lattice points, and ``partition_tree_wtT``
sums it over the partitions of each leaf count (a root's type) with one
``Fraction`` per term, where the library reads it off a power-series
exponential on integers; ``fraction_series_recursion_wtT`` runs the
library's series exponential with one ``Fraction`` per coefficient, where
the library keeps integers over one denominator per degree;
``multiset_recursion_wtT`` sums the recursion's inner sum over the
partitions of d with a 1/(m_1! m_2! ..) factor, where the library reads it
off a power-series exponential;
``ordered_recursion_wtT`` and ``ordered_linf_superpotential`` sum over
ordered compositions with a 1/k! factor; ``morphism_linf_pass`` pairs the
generic engine's ``invert(ellipsoid_morphism(..))`` over the partitions of
each degree, where the library inverts on one scalar per input multiset,
grouped by its blocks' output indices; ``tree_wtT_infinity`` is the
infinite-ratio tree sum written with plain integer factorials and central
binomials instead of lattice points.

``per_partition_compose`` composes two L-infinity morphisms by applying the
outer morphism once per set partition of the inputs, where the library groups
partitions whose blocks carry equal input multisets and weights each group by
its count.

``set_partition_splits`` groups the set partitions of a key's positions by
the sorted blocks they carry by enumerating every set partition, where the
library builds the multiset partitions directly and counts each one's set
partitions by binomials.

``tree_sum_invert`` inverts an L-infinity morphism by the signed sum over
every ordered tree, memoizing subtrees by their decorated canonical form,
where the library groups the same sum at the root and recurses on set
partitions of the inputs.

``identity_morphism``, ``ordered_leaves`` and ``ordered_internal_count``
are helpers only the tests read: the identity morphism for the composition
laws, and the leaf labels and internal-vertex count of an ordered tree (the
latter signs each tree of ``tree_sum_invert``).

``brute_scan_breakpoints`` collects the reduced p/q > 1 with p + q <= 3d by
testing every pair, where the library walks the Farey sequence.
``fraction_parse`` reads an aspect ratio through ``Fraction`` alone, where
the library reads plain ASCII ``p`` and ``p/q`` with ``int()``.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, product

from ellsuper import (
    AspectRatio,
    LinfError,
    LinfMorphism,
    compositions,
    ellipsoid_morphism,
    enumerate_ordered_trees,
    enumerate_trees,
    factorial,
    invert,
    pair_factorial,
    partitions,
    path_signature,
    point_add,
    set_partitions,
    vertex_data,
)
from ellsuper.engine import _factorials, _resume
from ellsuper.trees import OrderedTree


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


def exact_path(num: int, den: int, k_max: int) -> tuple[tuple[int, int], ...]:
    """G_0..G_{k_max} at the plain rational ratio num/den, with no perturbation.

    G_k is the argmin of max(i, (num/den) * j) over i + j = k, compared as
    max(i * den, num * j) on integers.  Asserts that the minimizer is unique,
    so num/den must not be a ratio where two candidates tie.
    """
    path = []
    for k in range(k_max + 1):
        ranked = [(max((k - j) * den, num * j), (k - j, j)) for j in range(k + 1)]
        best = min(rank for rank, _ in ranked)
        winners = [pt for rank, pt in ranked if rank == best]
        assert len(winners) == 1, f"non-unique argmin for {num}/{den} at k={k}: {winners}"
        path.append(winners[0])
    return tuple(path)


def exact_mult(num: int, den: int, point: tuple[int, int]) -> int:
    """Multiplicity of a path point at the plain ratio num/den: i if i > (num/den) * j, else j."""
    i, j = point
    return i if i * den > num * j else j


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


def partition_tree_wtT(d, a):
    """wtT by the closed tree sum, summed over the partitions of each leaf count."""
    if d < 1:
        raise ValueError(f"partition_tree_wtT requires d >= 1, got {d}")
    return _partition_tree_pass(path_signature(a, d)[2::3], _factorials(d), [])


def _partition_tree_pass(points, fact: list[int], rows: list) -> Fraction:
    """The tree sum at d = len(points), extending ``rows`` from their longest valid prefix.

    ``points`` and ``fact`` are as for ``ellsuper.treesum._tree_pass``.
    Row l - 1 is ``(G_{3l-1}, S_l)``, where ``S_l`` is the sum over trees with l leaves of
    their vertex factors' product over |Aut(T)|, and ``S_1 = 1``.
    """
    _resume(rows, points)
    gi, gj = points[0]
    g2f = fact[gi] * fact[gj]
    if not rows:
        rows.append((points[0], Fraction(1)))
    for ell in range(len(rows) + 1, len(points) + 1):
        ti, tj = points[ell - 1]
        total = Fraction(0)
        for kids in partitions(ell, min_parts=2):
            ci = sum(points[c - 1][0] for c in kids)
            cj = sum(points[c - 1][1] for c in kids)
            num, den = fact[ti] * fact[tj], fact[ci] * fact[cj]
            if kids[0] == 1:  # movable: every child is a leaf
                base = fact[ell] ** 2 * g2f ** ell
                num *= fact[ell * gi] * fact[ell * gj] - base
                den *= base
            else:
                num = -num
            for s, group in groupby(kids):
                m = len(tuple(group))
                sub = rows[s - 1][1]
                num *= sub.numerator ** m
                den *= sub.denominator ** m * fact[m]
            total += Fraction(num, den)
        rows.append((points[ell - 1], total))
    return g2f ** len(points) * rows[-1][1]


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
        vec = basis_value(eta, [3 * ds - 1 for ds in comp])
        total += weight * vec.get(top, Fraction(0))
    return total


def morphism_linf_pass(d_max, a):
    """Yield wtT_1 .. wtT_{d_max} from the generic engine's inverse of the ellipsoid morphism.

    Inverts once, truncated at index 3 d_max - 1 and arity d_max, and pairs
    the sparse values on ``o_{3d_1-1}, .., o_{3d_k-1}`` over the partitions
    of each d with ``1/(m_1! .. (d_1!)^3 ..)``, ``m_j`` the multiplicities.
    """
    eta = invert(ellipsoid_morphism(a, max_index=3 * d_max - 1, max_arity=d_max))
    for d in range(1, d_max + 1):
        total = Fraction(0)
        for part in partitions(d):
            den = 1
            for ds, grp in groupby(part):
                m = len(tuple(grp))
                den *= factorial(m) * factorial(ds) ** (3 * m)
            total += basis_value(eta, [3 * ds - 1 for ds in part]).get(3 * d - 1, Fraction(0)) / den
        yield total


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


# The morphism oracles do their vector arithmetic on sparse vectors {index:
# coefficient}, reading each morphism through its multilinear extension
# ``apply``, and hand their own entries back as the one scalar of a vector
# on the degree-zero index, checked to sit there.
def _vec_acc(acc: dict, vec: dict, scale=1) -> None:
    for idx, c in vec.items():
        c = c * scale if scale != 1 else c
        acc[idx] = acc[idx] + c if idx in acc else c


def basis_value(morphism: LinfMorphism, key) -> dict:
    """The sparse value of ``morphism`` on the basis inputs ``key``."""
    return morphism.apply([{i: 1} for i in key])


def _scalar(key: tuple[int, ...], vec: dict):
    """The coefficient of ``vec`` on ``o_{sum(key) + len(key) - 1}``; no other index may be nonzero."""
    j = sum(key) + len(key) - 1
    assert all(i == j or c == 0 for i, c in vec.items()), (key, vec)
    return vec.get(j, 0)


def ordered_leaves(t: OrderedTree) -> tuple[int, ...]:
    """Sorted leaf labels of an ordered tree."""
    if isinstance(t, int):
        return (t,)
    return tuple(sorted(chain.from_iterable(ordered_leaves(c) for c in t)))


def ordered_internal_count(t: OrderedTree) -> int:
    """Number of internal vertices of an ordered tree."""
    if isinstance(t, int):
        return 0
    return 1 + sum(ordered_internal_count(c) for c in t)


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
        vec = basis_value(phi, [i])
        if len(vec) != 1:
            raise LinfError(f"{phi.name}: arity-1 part is not a scaled basis bijection at index {i}")
        ((j, c),) = vec.items()
        if j in inv1:
            raise LinfError(f"{phi.name}: arity-1 part is not injective (index {j} hit twice)")
        inv1[j] = (i, Fraction(1) / c)
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

    def rule(key: tuple[int, ...]):
        if len(key) == 1:
            i, r = inv1[key[0]]
            return _scalar(key, {i: r})
        total: dict = {}
        for sign, plan in _tree_plans(len(key)):
            _vec_acc(total, eval_plan(plan, key), sign)
        return _scalar(key, total)

    return LinfMorphism(phi.target, phi.source, max_index=phi.max_index, max_arity=arity,
                        rule=rule, name=f"inv({phi.name})")


def identity_morphism(space: str, *, max_index: int, max_arity: int) -> LinfMorphism:
    """Arity-one identity; all higher arities vanish."""

    def rule(key: tuple[int, ...]):
        if len(key) == 1:
            return Fraction(1)
        return 0

    return LinfMorphism(space, space, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"id[{space}]")


def per_partition_compose(psi: LinfMorphism, phi: LinfMorphism) -> LinfMorphism:
    """Composite morphism; inputs split into unordered blocks, phi inside psi."""
    if phi.target != psi.source:
        raise LinfError(
            f"space mismatch in composition: {phi.name} lands in {phi.target} "
            f"but {psi.name} starts from {psi.source}"
        )
    max_index = min(psi.max_index, phi.max_index)
    max_arity = min(psi.max_arity, phi.max_arity)

    def rule(key: tuple[int, ...]):
        out: dict = {}
        for blocks in set_partitions(range(len(key))):
            inner = [basis_value(phi, [key[p] for p in block]) for block in blocks]
            _vec_acc(out, psi.apply(inner))
        return _scalar(key, out)

    return LinfMorphism(phi.source, psi.target, max_index=max_index, max_arity=max_arity,
                        rule=rule, name=f"{psi.name} o {phi.name}")


def set_partition_splits(key: tuple[int, ...]) -> Counter:
    """{sorted blocks: number of set partitions of the positions of ``key`` carrying them}."""
    return Counter(
        tuple(sorted(tuple(key[p] for p in block) for block in blocks))
        for blocks in set_partitions(range(len(key)))
    )


def brute_scan_breakpoints(d: int) -> list[Fraction]:
    """The reduced fractions p/q > 1 with p + q <= 3d, by testing every pair, sorted."""
    out = set()
    for total in range(3, 3 * d + 1):
        for q in range(1, total):
            p = total - q
            if p > q and math.gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def fraction_parse(text: str) -> AspectRatio:
    """``AspectRatio.parse`` with every finite ratio read by ``Fraction``, messages included."""
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return AspectRatio.infinite()
    if s.endswith("+delta"):
        s = s[: -len("+delta")]
    if "e" in s:
        raise ValueError(f"cannot parse aspect ratio {text!r}")
    try:
        frac = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse aspect ratio {text!r}") from exc
    if frac <= 0:
        raise ValueError(f"aspect ratio must be positive, got {text!r}")
    return AspectRatio(frac.numerator, frac.denominator)

"""The tree oracle: wtT as the paper's closed sum over rooted trees, grouped at the root.

The sum runs over rooted trees with d unordered leaves:

      wtT_d = (G_2!)^d * sum over trees T of
              (-1)^(#unmovable internal) / |Aut(T)|
              * prod over internal v of G_{3l(v)-1}! / (sum over children v'
                of G_{3l(v')-1})!
              * prod over movable v of ( (l(v)!)^-2 (l(v)*G_2)! / (G_2!)^l(v) - 1 )

with ``G_k`` the lattice path point of ``a``, ``(.)!`` the pair factorial
and ``l(v)`` the leaf number; leaf children contribute ``G_2`` to the sums
and ``l(v)*G_2`` is a scalar multiple of the lattice point.  No tree is
built: an unmovable root's factor ``-G_{3l-1}! / P!`` reads its children
only through the point P their points sum to, so the sum ``S_l`` over trees
with l leaves is ``-G_{3l-1}!`` times the degree-l part of
``exp(sum_s S_s x^s y^{G_{3s-1}})``, ``y^P -> 1/P!``, over >= 2 factors,
with the all-leaves root (the one movable type) swapping its -1 for the
movable factor.  It is the recursion's online series exponential (see
:mod:`.engine`), on integers too, written separately, and it is the
recursion rescaled.

Lemma: with ``c = G_2!``, row l of the tree pass is row l of the recursion
over ``c^l``: ``wtT_l = c^l S_l`` and ``f_l = c^l forest_l``.  By induction
on l.  At l = 1, ``wtT_1 = c``, ``S_1 = 1``, ``f_1 = c y^{G_2}`` and
``forest_1 = y^{G_2}``.  If the identity holds below l, each term
``k wtT_k f_{l-k}`` of the degree-l splits carries ``c^k c^(l-k) = c^l``
times the tree pass's term ``k S_k forest_{l-k}``, so the splits part
``acc_l`` of f_l is ``c^l kids_l``, the multisets of >= 2 trees.  With
``L(y^P) = 1/P!``, ``wtT_l = G_{3l-1}! ((l!)^-3 - L(acc_l))`` and
``S_l = G_{3l-1}! ((l!)^-3 c^-l - L(kids_l))``, so ``wtT_l = c^l S_l``;
adding the one-part terms ``wtT_l y^{G_{3l-1}}`` and ``S_l y^{G_{3l-1}}``
gives ``f_l = c^l forest_l``.

The two share one derivation, so their agreement catches coding slips, not
an error in that derivation.  The witnesses independent in derivation are
linf (up to ``linf_bound``; CI checks it at every degree to d = 30), the
per-tree sum (CI checks it at d = 14) and the multiset recursion in
``tests/oracles.py``.

``scan`` and ``validate`` run this pass beside the recursion, and
``compute --method tree`` runs it alone.  ``validate`` and ``compute``
load this module through ``engine._engine``, and ``scan`` imports the
pass itself to resume its rows across ratios; ``tree_wtT`` in
:mod:`.pipelines` returns its value as a ``Fraction``.
"""

import math

from .engine import _resume


def _tree_pass(points, fact: list[int], rows: list) -> tuple[int, int]:
    """The tree sum at d = len(points), extending ``rows`` from their longest valid prefix.

    ``points`` and ``fact`` are as for ``engine._recursion_pass``.  Row l - 1 is
    ``(G_{3l-1}, num, den, forest, denom)``: S_l = num / den, reduced, and
    forest / denom, the multisets of trees with l leaves in all collected
    by the lattice point their roots' points sum to (lattice point -> integer).
    Returns ``(G_2!)^d S_d``, which is wtT_d, as a canonical pair.
    """
    _resume(rows, points)
    gi, gj = points[0]
    g2f = fact[gi] * fact[gj]
    for ell in range(len(rows) + 1, len(points) + 1):
        # a root's children, the multisets of >= 2 trees with ell leaves in all:
        # (1/ell) sum_s s S_s y^{G_{3s-1}} forest_{ell-s}, over one denominator
        share = math.lcm(*(rows[s - 1][2] * rows[ell - s - 1][4] for s in range(1, ell)))
        kids: dict = {}
        for s in range(1, ell):
            (si, sj), s_num, s_den, _, _ = rows[s - 1]
            forest, denom = rows[ell - s - 1][3:]
            weight = s * s_num * (share // (s_den * denom))
            for (i, j), coeff in forest.items():
                key = (i + si, j + sj)
                kids[key] = kids.get(key, 0) + weight * coeff
        kids_den = ell * share
        # each unmovable root over children at P has factor -G_{3l-1}! / P!;
        # i + j <= 3l - 2 and i! j! divides (i + j)!, so (3l - 2)! clears each P!
        clear = fact[3 * ell - 2]
        unmov_num = -sum(c * (clear // (fact[i] * fact[j])) for (i, j), c in kids.items())
        unmov_den = kids_den * clear
        # the all-leaves root, counted there with weight 1 / (l! (l G_2)!), is
        # movable: swapping its -1 for (l G_2)! / (l!^2 (G_2!)^l) - 1 adds
        # 1 / (l!^3 (G_2!)^l), and G_{3l-1}! then multiplies the whole sum
        swap_den = fact[ell] ** 3 * g2f ** ell
        ti, tj = points[ell - 1]
        num = fact[ti] * fact[tj] * (unmov_num * swap_den + unmov_den)
        den = unmov_den * swap_den
        g = math.gcd(num, den)
        num, den = num // g, den // g
        # forest_ell: the multisets of >= 2 trees, and a single tree at G_{3l-1}
        denom = math.lcm(kids_den, den)
        forest = {key: c * (denom // kids_den) for key, c in kids.items()}
        forest[points[ell - 1]] = forest.get(points[ell - 1], 0) + num * (denom // den)
        g = math.gcd(denom, *forest.values())
        rows.append((points[ell - 1], num, den, {key: c // g for key, c in forest.items()}, denom // g))
    num, den = g2f ** len(points) * rows[-1][1], rows[-1][2]
    g = math.gcd(num, den)
    return num // g, den // g

"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every assertion is exact rational equality; the time limits are
wall-clock budgets for the whole criterion.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy

from ellsuper import (
    AspectRatio,
    LinfMorphism,
    compose,
    ellipsoid_morphism,
    enumerate_ordered_trees,
    enumerate_trees,
    factorial,
    gamma_path,
    gamma_point,
    invert,
    linf_superpotential,
    ordered_count,
    recursion_wtT,
    superpotential,
    tree_wtT,
)
from ellsuper.cli import main
from oracles import ASSORTED_FRACTIONS, brute_gamma_point, brute_tree_forms, path_signature, tree_wtT_infinity

INF = AspectRatio.infinite()

EIGHT_RATIOS = [
    INF,
    AspectRatio.plus_delta(1, 1),
    AspectRatio.plus_delta(3, 2),
    AspectRatio.plus_delta(2, 1),
    AspectRatio.plus_delta(5, 2),
    AspectRatio.plus_delta(7, 2),
    AspectRatio.plus_delta(5, 1),
    AspectRatio.plus_delta(100, 1),
]


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"criterion exceeded its {self.seconds}s budget: {elapsed:.2f}s"


def test_criterion_1_headline_values_all_methods():
    budget = Budget(1.0)
    wt_expected = {1: 2, 2: 5, 3: 32}
    t_expected = {1: 1, 2: 1, 3: 4}
    for d in (1, 2, 3):
        values = {
            "recursion": recursion_wtT(d, INF),
            "tree": tree_wtT(d, INF),
            "tree-infinity": tree_wtT_infinity(d),
            "linf": linf_superpotential(d, INF),
        }
        for name, value in values.items():
            assert value == wt_expected[d], (d, name, value)
        assert superpotential(d, INF, "tree").T == t_expected[d]
        assert superpotential(d, INF, "recursion").T == t_expected[d]
        assert superpotential(d, INF, "linf").T == t_expected[d]
    budget.check()


def test_criterion_2_ordered_tree_coincidence_breaks_at_5():
    budget = Budget(5.0)
    # ordered counts by two independent routes: orbit sums and set-partition
    # enumeration; the value 26 at d=4 is forced by both
    for d in range(1, 6):
        assert ordered_count(d) == len(enumerate_ordered_trees(d))
    assert ordered_count(4) == 26
    assert superpotential(4, INF, "tree").T == 26

    for d in range(1, 5):
        assert superpotential(d, INF, "tree").T == ordered_count(d)
    t5 = superpotential(5, INF, "tree").T
    assert t5 < ordered_count(5)
    assert t5 == 217 and ordered_count(5) == 236
    budget.check()


def test_criterion_3_lattice_path_fixture_and_oracle():
    budget = Budget(1.0)
    assert gamma_path(AspectRatio.plus_delta(3, 2), 7) == [
        (0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (4, 3),
    ]
    assert len(ASSORTED_FRACTIONS) == 25
    for p, q in ASSORTED_FRACTIONS:
        a = AspectRatio.plus_delta(p, q)
        for k in range(61):
            assert gamma_point(a, k) == brute_gamma_point(p, q, k), (p, q, k)
    budget.check()


def test_criterion_4_tree_combinatorics():
    budget = Budget(10.0)
    expected_counts = [1, 1, 2, 5, 12, 33, 90]
    for d, want in zip(range(1, 8), expected_counts):
        trees = enumerate_trees(d)
        assert len(trees) == want
        assert {t.key for t in trees} == set(brute_tree_forms(d))
    assert sorted(t.aut_order for t in enumerate_trees(4)) == [2, 4, 6, 8, 24]
    for d in range(1, 8):
        orbit_sum = sum(Fraction(factorial(d), t.aut_order) for t in enumerate_trees(d))
        assert orbit_sum.denominator == 1
        assert orbit_sum == len(enumerate_ordered_trees(d))
    budget.check()


def test_criterion_5_three_way_method_equality():
    budget = Budget(120.0)
    for a in EIGHT_RATIOS:
        for d in range(1, 9):
            assert recursion_wtT(d, a) == tree_wtT(d, a), (d, str(a))
        for d in range(1, 6):
            assert linf_superpotential(d, a) == recursion_wtT(d, a), (d, str(a))
    budget.check()


def _assert_identity(morphism, max_index, max_arity):
    for k in range(1, max_arity + 1):
        for key in combinations_with_replacement(range(1, max_index + 1), k):
            if sum(key) + k - 1 > max_index:
                continue
            want = 1 if k == 1 else 0
            assert morphism.entry(key) == want, (morphism.name, key)


def test_criterion_6_round_trip_and_symbolic_expansions():
    budget = Budget(30.0)
    for a in (INF, AspectRatio.plus_delta(3, 2), AspectRatio.plus_delta(2, 1),
              AspectRatio.plus_delta(5, 2)):
        eps = ellipsoid_morphism(a, max_index=17, max_arity=6)
        eta = invert(eps)
        _assert_identity(compose(eta, eps), 17, 6)
        _assert_identity(compose(eps, eta), 17, 6)

    # symbolic check on a generic diagonal morphism: arity-1 coefficients c_i,
    # arity-2 table g_ij, arity-3 table h_ijk, target indices forced by degree
    max_index = 11
    c = {i: sympy.Symbol(f"c{i}") for i in range(1, max_index + 1)}
    g = {key: sympy.Symbol(f"g{key[0]}_{key[1]}")
         for key in combinations_with_replacement(range(1, max_index + 1), 2)}
    h = {key: sympy.Symbol(f"h{key[0]}_{key[1]}_{key[2]}")
         for key in combinations_with_replacement(range(1, max_index + 1), 3)}

    def rule(key):
        if len(key) == 1:
            return c[key[0]]
        if len(key) == 2:
            return g[key]
        if len(key) == 3:
            return h[key]
        return 0

    phi = LinfMorphism("V", "W", max_index=max_index,
                       max_arity=3, rule=rule, name="generic-symbolic")
    psi = invert(phi)

    def expect_psi2(i, j):
        return -g[tuple(sorted((i, j)))] / (c[i] * c[j] * c[i + j + 1])

    for i, j in [(1, 1), (1, 2), (2, 3), (1, 4)]:
        assert sympy.simplify(psi.entry((i, j)) - expect_psi2(i, j)) == 0, (i, j)

    # the four-term expansion: minus the flat arity-3 term, plus the three
    # ways to nest an arity-2 inside another
    for x, y, z in [(1, 2, 3), (1, 1, 2), (2, 2, 2)]:
        got = psi.entry((x, y, z))
        out_idx = x + y + z + 2
        total = -h[tuple(sorted((x, y, z)))] / (c[x] * c[y] * c[z] * c[out_idx])
        for a_, b_, c_ in ((x, y, z), (y, x, z), (z, x, y)):
            inner_idx = b_ + c_ + 1
            inner = g[tuple(sorted((b_, c_)))] / (c[b_] * c[c_] * c[inner_idx])
            total += g[tuple(sorted((a_, inner_idx)))] * inner / (c[a_] * c[out_idx])
        assert sympy.simplify(got - total) == 0, (x, y, z)
    budget.check()


def test_criterion_7_integrality_at_boundary_fractions():
    budget = Budget(120.0)
    import math

    for d in range(1, 6):
        for q in range(1, 3 * d):
            p = 3 * d - q
            if p <= q or math.gcd(p, q) != 1:
                continue
            value = superpotential(d, AspectRatio.plus_delta(p, q), "tree").T
            assert value.denominator == 1, (d, p, q, value)
            assert value >= 0, (d, p, q, value)
    budget.check()


def test_criterion_8_path_prefix_invariance():
    budget = Budget(30.0)
    rng = random.Random(20250810)
    for d in range(1, 7):
        groups: dict = {}
        pairs = []
        while len(pairs) < 10:
            p = rng.randint(2, 6 * d)
            q = rng.randint(1, 2 * d)
            a = AspectRatio.plus_delta(p, q)
            sig = path_signature(a, d)
            bucket = groups.setdefault(sig, [])
            if all((a.p, a.q) == (b.p, b.q) for b in bucket):
                if bucket:
                    pairs.append((bucket[0], a))
                bucket.append(a)
        for a1, a2 in pairs:
            assert path_signature(a1, d) == path_signature(a2, d)
            assert tree_wtT(d, a1) == tree_wtT(d, a2), (d, str(a1), str(a2))
            assert recursion_wtT(d, a1) == recursion_wtT(d, a2)
    budget.check()


def test_scan_subcommands_emit_well_formed_reports(capsys):
    # structural check only: the conjectures themselves are not gates
    assert main(["scan", "--d", "2"]) == 0
    scan_payload = json.loads(capsys.readouterr().out)
    assert set(scan_payload) == {"d", "profile", "infinity_T", "nondecreasing", "consistent"}
    assert scan_payload["consistent"] is True
    for row in scan_payload["profile"]:
        assert set(row) == {"interval_start", "a", "T", "midpoint", "midpoint_T"}
        Fraction(row["T"])  # re-parses exactly

    assert main(["integrality", "--d", "4"]) == 0
    integ_payload = json.loads(capsys.readouterr().out)
    assert set(integ_payload) == {"d", "rows", "all_integral", "all_nonnegative"}
    for row in integ_payload["rows"]:
        assert {"p", "q", "a", "T", "integer", "nonnegative", "vanishes", "adjunction_bound"} == set(row)

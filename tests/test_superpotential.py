import json
import math
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellsuper.pipelines as sp
from ellsuper import (
    AspectRatio,
    MethodDisagreement,
    cross_validate,
    gamma_path,
    integrality_scan,
    ordered_count,
    path_signature,
    recursion_wtT,
    scan_breakpoints,
    scan_monotonicity,
    superpotential,
    tree_wtT,
)
from oracles import (
    fraction_series_recursion_wtT,
    multiset_recursion_wtT,
    ordered_recursion_wtT,
    per_tree_wtT,
    tree_wtT_infinity,
)

INF = AspectRatio.infinite()

# Cross-validated between the recursion, the tree sum, the infinite-ratio
# specialization, and (for d <= 6) the inversion oracle; frozen as regression.
WTT_INFINITY = {1: 2, 2: 5, 3: 32, 4: 286, 5: 3038, 6: 35870, 7: 454880, 8: 6073311}
T_INFINITY = {1: 1, 2: 1, 3: 4, 4: 26, 5: 217, 6: 2110, 7: 22744, 8: 264057}

RATIOS = [
    INF,
    AspectRatio.plus_delta(1, 1),
    AspectRatio.plus_delta(3, 2),
    AspectRatio.plus_delta(2, 1),
    AspectRatio.plus_delta(5, 2),
    AspectRatio.plus_delta(7, 2),
    AspectRatio.plus_delta(5, 1),
    AspectRatio.plus_delta(100, 1),
]


def test_recursion_headline_values():
    assert recursion_wtT(1, INF) == 2
    assert recursion_wtT(2, INF) == 5
    assert recursion_wtT(3, INF) == 32


def test_recursion_d2_by_hand():
    # (5,0)! * ( (2!)^-3 - wtT_1^2 / (2! * ((2,0)+(2,0))!) ) = 120 * (1/8 - 1/12)
    assert recursion_wtT(2, INF) == 120 * (Fraction(1, 8) - Fraction(1, 12))


def test_tree_headline_values():
    assert tree_wtT(1, INF) == 2
    assert tree_wtT(2, INF) == 5
    assert tree_wtT(3, INF) == 32


def test_tree_d2_by_hand():
    # single tree, one movable vertex with leaf number 2:
    # 2^2 * (1/2) * (5!/4!) * (2^-2 * binom(4,2) - 1) = 4 * (1/2) * 5 * (1/2)
    movable = Fraction(math.comb(4, 2), 4) - 1
    assert tree_wtT(2, INF) == 4 * Fraction(1, 2) * 5 * movable == 5


def test_tree_d3_by_hand():
    # 2^3 * (14 - 10): corolla term 14, nested term -10
    corolla = Fraction(1, 6) * Fraction(40320, 720) * (Fraction(math.comb(6, 3), 8) - 1)
    nested = Fraction(1, 2) * 5 * 8 * (Fraction(math.comb(4, 2), 4) - 1)
    assert corolla == 14 and nested == 10
    assert tree_wtT(3, INF) == 8 * (corolla - nested)


def test_tree_single_leaf_narrow_ratio():
    # 1 < a < 2 gives path point (1, 1) at index 2, whose pair factorial is 1
    for p, q in [(3, 2), (7, 4), (9, 5)]:
        assert tree_wtT(1, AspectRatio.plus_delta(p, q)) == 1


def test_infinity_specialization_matches_general_tree():
    for d in range(1, 11):
        assert tree_wtT_infinity(d) == tree_wtT(d, INF)


def test_frozen_infinity_values():
    for d, want in WTT_INFINITY.items():
        assert tree_wtT_infinity(d) == want
        assert superpotential(d, INF).T == T_INFINITY[d]


def test_methods_agree_across_ratios():
    for a in RATIOS:
        for d in range(1, 7):
            assert recursion_wtT(d, a) == tree_wtT(d, a)


def test_inner_sum_modes_agree():
    for a in (INF, AspectRatio.plus_delta(3, 2), AspectRatio.plus_delta(5, 2)):
        for d in range(1, 9):
            assert ordered_recursion_wtT(d, a) == recursion_wtT(d, a)


# INF, or a reduced p/q > 1 with p + q <= 60 (plus delta)
aspect_ratios = st.one_of(
    st.just(INF),
    st.integers(1, 29).flatmap(
        lambda q: st.integers(q + 1, 60 - q)
        .filter(lambda p: math.gcd(p, q) == 1)
        .map(lambda p: AspectRatio.plus_delta(p, q))
    ),
)


@given(a=aspect_ratios)
@settings(max_examples=40, deadline=None)
def test_series_recursion_matches_oracles(a):
    for d in range(1, 13):
        wt = recursion_wtT(d, a)
        assert wt == multiset_recursion_wtT(d, a), (d, str(a))
        if d <= 9:
            assert wt == ordered_recursion_wtT(d, a), (d, str(a))
        if d <= 7:
            assert wt == tree_wtT(d, a), (d, str(a))


@given(a=aspect_ratios)
@settings(max_examples=25, deadline=None)
def test_integer_recursion_matches_fraction_series_oracle(a):
    # the degrees beyond the reach of the partition-sum oracle
    for d in range(1, 31):
        assert recursion_wtT(d, a) == fraction_series_recursion_wtT(d, a), (d, str(a))


@given(a=aspect_ratios)
@settings(max_examples=40, deadline=None)
def test_tree_sum_matches_per_tree_oracle(a):
    for d in range(1, 9):
        assert tree_wtT(d, a) == per_tree_wtT(d, a), (d, str(a))


def test_tree_sum_matches_per_tree_oracle_at_breakpoints():
    # every interval representative of the d = 8 scan, so every path prefix
    # a ratio above 1 can have up to index 23
    for rep in [Fraction(1)] + scan_breakpoints(8):
        a = AspectRatio.plus_delta(rep.numerator, rep.denominator)
        for d in range(1, 8):
            assert tree_wtT(d, a) == per_tree_wtT(d, a), (d, str(a))


def test_tree_table_cache_is_bounded():
    bound = sp._tree_table.cache_info().maxsize
    assert bound is not None
    for d in range(1, bound + 2):
        tree_wtT(d, INF)
        assert sp._tree_table.cache_info().currsize <= bound
    # degree 1, the least recently used, was evicted; its rebuilt table gives the same value
    assert tree_wtT(1, INF) == WTT_INFINITY[1]


def test_movable_factor_positive_for_wide_ratios():
    # for a >= 2 the movable factor is 2^-l * binom(2l, l) - 1; movable
    # vertices always have l >= 2, where it is strictly positive
    for ell in range(2, 31):
        assert Fraction(math.comb(2 * ell, ell), 2 ** ell) - 1 > 0
    assert Fraction(math.comb(2, 1), 2) - 1 == 0


def test_tree_term_signs_for_wide_ratios():
    # with every movable factor positive, each summand's sign is determined
    # by the parity of the unmovable internal vertices; the terms also re-sum
    # to the pipeline value
    from ellsuper import enumerate_trees, gamma_point, pair_factorial, point_add, vertex_data
    from ellsuper.numerics import factorial as fact

    for a in (INF, AspectRatio.plus_delta(5, 2)):
        for d in range(2, 7):
            path = [gamma_point(a, k) for k in range(3 * d)]
            g2f = pair_factorial(path[2])
            total = Fraction(0)
            for tree in enumerate_trees(d):
                term = Fraction(1, tree.aut_order)
                unmovable = 0
                for v in vertex_data(tree):
                    num = pair_factorial(path[3 * v.leaf_number - 1])
                    den = pair_factorial(point_add(*(path[3 * c - 1] for c in v.child_leaf_numbers)))
                    term *= Fraction(num, den)
                    if v.movable:
                        ell = v.leaf_number
                        term *= Fraction(pair_factorial(tuple(ell * x for x in path[2])),
                                         fact(ell) ** 2 * g2f ** ell) - 1
                    else:
                        unmovable += 1
                assert term > 0, (d, str(a), tree)
                total += (-1) ** unmovable * term
            assert g2f ** d * total == tree_wtT(d, a)


def test_superpotential_record():
    res = superpotential(3, INF, "tree")
    assert (res.d, res.method) == (3, "tree")
    assert res.wtT == 32 and res.multiplier == 8 and res.T == 4
    assert res.T * res.multiplier == res.wtT

    assert superpotential(1, INF, "recursion").T == 1
    assert superpotential(4, INF, "tree").T == 26
    assert superpotential(2, INF, "linf").T == 1


def test_multiplier_at_infinity_is_3d_minus_1():
    for d in range(1, 8):
        assert superpotential(d, INF).multiplier == 3 * d - 1


def test_linf_method_refused_beyond_bound():
    with pytest.raises(ValueError, match="linf"):
        superpotential(9, INF, "linf")
    # explicit bound raise is honored
    assert superpotential(4, INF, "linf", linf_bound=4).T == 26


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        superpotential(2, INF, "magic")


def test_warning_below_one():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        superpotential(1, AspectRatio.plus_delta(2, 3))
    assert any("outside the intended range" in str(w.message) for w in caught)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        superpotential(1, AspectRatio.plus_delta(3, 2))  # above 1: no warning


def test_path_prefix_invariance():
    # ratios beyond 3d-1 share the all-first-coordinate prefix with infinity
    for d in (2, 4, 6):
        big = AspectRatio.plus_delta(3 * d, 1)
        bigger = AspectRatio.plus_delta(97, 1)
        assert path_signature(big, d) == path_signature(bigger, d) == path_signature(INF, d)
        assert tree_wtT(d, big) == tree_wtT(d, bigger) == tree_wtT(d, INF)
    # an interior coincidence: equal prefixes force equal values
    d = 3
    groups = {}
    for p in range(2, 40):
        for q in range(1, 12):
            a = AspectRatio.plus_delta(p, q)
            groups.setdefault(path_signature(a, d), []).append(a)
    shared = [g for g in groups.values() if len({(x.p, x.q) for x in g}) >= 2]
    assert shared, "expected at least one interior prefix coincidence"
    checked = 0
    for group in shared[:5]:
        vals = {tree_wtT(d, a) for a in group} | {recursion_wtT(d, a) for a in group}
        assert len(vals) == 1
        checked += 1
    assert checked


def test_cross_validate_report():
    report = cross_validate(3, INF)
    assert report["agree"] is True
    assert report["wtT"] == "32" and report["T"] == "4" and report["mult"] == 8
    assert set(report["methods"]) == {"recursion", "tree", "linf"}
    assert set(report["ms"]) == set(report["methods"])
    json.dumps(report)  # JSON-ready

    narrow = cross_validate(2, AspectRatio.plus_delta(3, 2))
    assert narrow["wtT"] == "0" and narrow["agree"] is True
    assert set(narrow["methods"]) == {"recursion", "tree", "linf"}

    skipped = cross_validate(2, INF, linf_bound=0)
    assert "linf" not in skipped["methods"]


def test_cross_validate_reports_unchecked_beyond_the_oracles():
    # past both oracles' bounds only the recursion runs, so nothing is compared
    report = cross_validate(13, INF)
    assert report["methods"] == ["recursion"]
    assert report["agree"] is None
    assert report["T"] == "105919629403"
    # one oracle beside the recursion is still a comparison
    assert cross_validate(2, INF, linf_bound=0)["agree"] is True


def test_cross_validate_detects_disagreement(monkeypatch):
    monkeypatch.setattr(sp, "tree_wtT", lambda d, a: Fraction(1, 7))
    with pytest.raises(MethodDisagreement, match="path_prefix"):
        sp.cross_validate(2, INF, linf_bound=0)


def test_scan_breakpoints_small():
    assert scan_breakpoints(1) == [Fraction(2)]
    assert scan_breakpoints(2) == [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4), Fraction(5)]
    # every breakpoint actually changes the path prefix somewhere nearby
    bps = scan_breakpoints(2)
    for left, right in zip([Fraction(1)] + bps, bps):
        mid = (left + right) / 2
        assert mid.denominator > 0  # representatives exist strictly inside


# a reduced p/q >= 1 with p + q <= 120, as a Fraction (plus delta is added in the test)
ratios_from_one = st.integers(1, 60).flatmap(
    lambda q: st.integers(q, 120 - q)
    .filter(lambda p: math.gcd(p, q) == 1)
    .map(lambda p: Fraction(p, q))
)


@given(r=ratios_from_one)
@settings(max_examples=100, deadline=None)
def test_scan_breakpoints_cover_every_prefix_change(r):
    # r + delta shares its path prefix with the start of its scan interval
    for d in range(1, 11):
        start = max(b for b in [Fraction(1)] + scan_breakpoints(d) if b <= r)
        assert path_signature(AspectRatio.plus_delta(r.numerator, r.denominator), d) == \
            path_signature(AspectRatio.plus_delta(start.numerator, start.denominator), d), (d, r)


@given(r=ratios_from_one, t=st.integers(0, 50), d=st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_equal_path_signatures_give_equal_recursion_values(r, t, d):
    # a second ratio in r's scan interval [start, end): it shares r's path prefix
    bps = scan_breakpoints(d)
    start = max(b for b in [Fraction(1)] + bps if b <= r)
    end = min((b for b in bps if b > r), default=start + 2)
    other = start + (end - start) * Fraction(t, t + 1)
    a = AspectRatio.plus_delta(r.numerator, r.denominator)
    b = AspectRatio.plus_delta(other.numerator, other.denominator)
    assert path_signature(a, d) == path_signature(b, d), (d, r, other)
    assert recursion_wtT(d, a) == recursion_wtT(d, b), (d, r, other)


def test_scan_monotonicity_d1_constant():
    report = scan_monotonicity(1)
    assert [row["T"] for row in report["profile"]] == ["1", "1"]
    assert report["infinity_T"] == "1"
    assert report["nondecreasing"] is True
    assert report["consistent"] is True


def test_scan_monotonicity_d2_profile():
    report = scan_monotonicity(2)
    assert report["nondecreasing"] is True
    assert report["consistent"] is True
    values = [Fraction(row["T"]) for row in report["profile"]]
    assert values[0] == 0  # vanishes just above 1
    assert Fraction(report["infinity_T"]) == 1
    json.dumps(report)


def test_scan_same_interval_same_value():
    # two ratios between consecutive breakpoints share the prefix, hence T
    d = 2
    a1 = AspectRatio.plus_delta(31, 10)  # 3.1
    a2 = AspectRatio.plus_delta(39, 10)  # 3.9, same interval (3, 4)
    assert path_signature(a1, d) == path_signature(a2, d)
    assert superpotential(d, a1).T == superpotential(d, a2).T


def test_integrality_scan_values():
    rows1 = integrality_scan(1)["rows"]
    assert [(r["p"], r["q"], r["T"]) for r in rows1] == [(2, 1, "1")]

    rep3 = integrality_scan(3)
    assert [(r["p"], r["q"], r["T"]) for r in rep3["rows"]] == [
        (8, 1, "4"), (7, 2, "0"), (5, 4, "0"),
    ]
    assert rep3["all_integral"] and rep3["all_nonnegative"]

    rep4 = integrality_scan(4)
    assert [(r["p"], r["q"], r["T"]) for r in rep4["rows"]] == [(11, 1, "26"), (7, 5, "0")]


def test_integrality_scan_through_degree_20():
    # the integrality property at p + q = 3d, far beyond acceptance criterion 7;
    # about 1 s, so the loose limit only catches an exponential engine
    start = time.perf_counter()
    for d in range(1, 21):
        report = integrality_scan(d)
        assert report["all_integral"] and report["all_nonnegative"], d
    assert time.perf_counter() - start < 60.0


def test_integrality_scan_at_degree_40():
    # a fraction of a second; the loose limit only catches an exponential engine
    start = time.perf_counter()
    report = integrality_scan(40)
    assert report["rows"]
    assert report["all_integral"] and report["all_nonnegative"]
    assert time.perf_counter() - start < 60.0


def test_degree_14_monotonicity_drop():
    # observed data: the first drop of the scan profile, T = 392/5 on (36/5, 29/4)
    # and T = 68 above 29/4; both sides have mult 5, so wtT drops as well
    left = superpotential(14, AspectRatio.plus_delta(36, 5))
    right = superpotential(14, AspectRatio.plus_delta(29, 4))
    assert (left.wtT, left.multiplier, left.T) == (392, 5, Fraction(392, 5))
    assert (right.wtT, right.multiplier, right.T) == (340, 5, 68)


def test_vanishing_matches_failed_adjunction_bound_through_degree_40():
    # observed data, not a theorem: at every boundary fraction p + q = 3d with
    # d <= 40 (555 rows), T vanishes exactly where the adjunction bound fails
    rows = [row for d in range(1, 41) for row in integrality_scan(d)["rows"]]
    assert len(rows) == 555
    mismatched = [(r["p"], r["q"]) for r in rows if r["vanishes"] != (not r["adjunction_bound"])]
    assert mismatched == []


def test_integrality_scan_adjunction_column():
    rows = {(r["p"], r["q"]): r for r in integrality_scan(3)["rows"]}
    assert rows[(8, 1)]["adjunction_bound"] is True and not rows[(8, 1)]["vanishes"]
    assert rows[(7, 2)]["adjunction_bound"] is False and rows[(7, 2)]["vanishes"]
    assert rows[(5, 4)]["adjunction_bound"] is False and rows[(5, 4)]["vanishes"]


def test_invalid_degree_rejected():
    for fn in (lambda: recursion_wtT(0, INF), lambda: tree_wtT(0, INF),
               lambda: tree_wtT_infinity(0), lambda: superpotential(0, INF),
               lambda: cross_validate(0, INF), lambda: integrality_scan(0)):
        with pytest.raises(ValueError):
            fn()


import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellsuper.engine as engine
import ellsuper.sweeps as sweeps
import ellsuper.treesum as treesum
from ellsuper import (
    AspectRatio,
    MethodDisagreement,
    cross_validate,
    gamma_path,
    integrality_scan,
    linf_superpotential,
    ordered_count,
    path_signature,
    recursion_wtT,
    scan_breakpoints,
    scan_monotonicity,
    superpotential,
    tree_wtT,
)
from oracles import (
    ASSORTED_FRACTIONS,
    _multiset_recursion_from_path,
    brute_scan_breakpoints,
    exact_mult,
    exact_path,
    fraction_series_recursion_wtT,
    multiset_recursion_wtT,
    ordered_recursion_wtT,
    partition_tree_wtT,
    per_tree_wtT,
    tree_wtT_infinity,
)

INF = AspectRatio.infinite()

# Cross-validated between the recursion, the tree sum, the infinite-ratio
# specialization, and (for d <= 6) the inversion oracle; frozen as regression.
# The values at d = 9 and 10 were computed in this repository by the first
# three; they are not yet checked against a published table.
WTT_INFINITY = {1: 2, 2: 5, 3: 32, 4: 286, 5: 3038, 6: 35870, 7: 454880, 8: 6073311,
                9: 84302270, 10: 1206291308}
T_INFINITY = {1: 1, 2: 1, 3: 4, 4: 26, 5: 217, 6: 2110, 7: 22744, 8: 264057,
              9: 3242395, 10: 41596252}

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
    # ratios with nonzero values at large d, so more than exact cancellation
    for a in (INF, AspectRatio.plus_delta(52, 7), AspectRatio.plus_delta(7, 1)):
        assert recursion_wtT(20, a) == tree_wtT(20, a), str(a)
        assert recursion_wtT(40, a) == tree_wtT(40, a), str(a)


def test_series_tree_pass_matches_partition_sum_oracle():
    # one row list per ratio, so each degree also resumes the one before
    fact = engine._factorials(16)
    for a in [INF] + [AspectRatio.plus_delta(p, q) for p, q in ASSORTED_FRACTIONS]:
        points, rows = path_signature(a, 16)[2::3], []
        for d in range(1, 17):
            assert Fraction(*treesum._tree_pass(points[:d], fact, rows)) == partition_tree_wtT(d, a), (d, str(a))


def test_tree_pass_rows_are_recursion_rows_rescaled():
    # a check of the lemma in the treesum docstring: row l of the tree pass
    # times (G_2!)^l is row l of the recursion, for the value and for the whole
    # series; the two passes share one derivation, so a divergence is a coding
    # slip in one of them, and it points at the row where it starts
    d = 30
    fact = engine._factorials(d)
    for a in [AspectRatio.plus_delta(p, q) for p, q in ((3, 2), (52, 7), (29, 4), (7, 1))] + [INF]:
        points = path_signature(a, d)[2::3]
        recursion_rows, tree_rows = [], []
        engine._recursion_pass(points, fact, recursion_rows)
        treesum._tree_pass(points, fact, tree_rows)
        g2f = fact[points[0][0]] * fact[points[0][1]]
        for ell, (rec, tree) in enumerate(zip(recursion_rows, tree_rows, strict=True), start=1):
            scale = g2f ** ell
            value = Fraction(tree[1] * scale, tree[2]) == Fraction(rec[1], rec[2])
            series = ({key: Fraction(c * scale, tree[4]) for key, c in tree[3].items()}
                      == {key: Fraction(c, rec[4]) for key, c in rec[3].items()})
            assert value and series, f"a = {a}: row {ell} diverges (value {value}, series {series})"


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


def _interval_starts(d):
    m = (3 * d - 1) // 2  # m/(m+1) is the largest breakpoint below 1
    return [Fraction(m, m + 1), Fraction(1)] + scan_breakpoints(d)


def _plus_delta_T(d, s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the interval below 1 warns
        return superpotential(d, AspectRatio.plus_delta(s.numerator, s.denominator)).T


def _exact_ratio_T(d, ratio):
    # T at the plain ratio, with no delta: the path and the multiplicity by a
    # brute argmin, wtT by the multiset recursion oracle fed that path
    num, den = ratio.numerator, ratio.denominator
    path = exact_path(num, den, 3 * d - 1)
    return _multiset_recursion_from_path(d, path) / exact_mult(num, den, path[-1])


def test_interval_values_match_exact_ratios_on_both_sides_of_each_start():
    # The shared path, mult and tie-rule layer, witnessed without it: at the plain
    # ratios s + eps and s - eps around each interval start s = p/q, the path and
    # the multiplicity come from a brute argmin and wtT from the multiset
    # recursion oracle.  eps = 1/(3d q) is below the gap to a neighbouring
    # breakpoint p'/q', since p' + q' <= 3d gives |s - p'/q'| >= 1/(q q') with
    # q' < 3d (q' < 3d/2 above 1, where q' < p'); so s + eps lies in the interval
    # s starts, s - eps in the one before, and no two candidates tie at either.
    for d in range(1, 13):
        starts = _interval_starts(d)
        values = [_plus_delta_T(d, s) for s in starts]
        for idx in range(1, len(starts)):
            s = starts[idx]
            eps = Fraction(1, 3 * d * s.denominator)
            for ratio, expected in ((s + eps, values[idx]), (s - eps, values[idx - 1])):
                assert _exact_ratio_T(d, ratio) == expected, (d, str(s), str(ratio))


@given(data=st.data(), d=st.integers(13, 20))
@settings(max_examples=40, deadline=None)
def test_sampled_interval_starts_match_exact_ratios_beyond_degree_12(data, d):
    # the check above at sampled starts of 13 <= d <= 20, where every start
    # would take too long
    starts = _interval_starts(d)
    idx = data.draw(st.integers(1, len(starts) - 1), label="start index")
    s = starts[idx]
    eps = Fraction(1, 3 * d * s.denominator)
    assert _exact_ratio_T(d, s + eps) == _plus_delta_T(d, s), (d, str(s))
    assert _exact_ratio_T(d, s - eps) == _plus_delta_T(d, starts[idx - 1]), (d, str(s))


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
    from math import factorial as fact

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
    with pytest.raises(ValueError, match="d <= 8"):
        superpotential(9, INF, "linf")
    assert superpotential(8, INF, "linf").T == T_INFINITY[8]
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


@pytest.mark.parametrize("run", [superpotential, cross_validate], ids=lambda f: f.__name__)
def test_warning_below_one_names_the_caller(run):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        run(2, AspectRatio(1, 2))
    assert len(rec) == 1 and rec[0].filename == __file__


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


def test_cross_validate_runs_the_tree_sum_beyond_linf():
    # past linf's bound the tree sum still runs beside the recursion
    report = cross_validate(13, INF)
    assert report["methods"] == ["recursion", "tree"]
    assert report["agree"] is True
    assert report["T"] == "105919629403"
    assert cross_validate(2, INF, linf_bound=0)["agree"] is True


def test_cross_validate_detects_disagreement(monkeypatch):
    monkeypatch.setattr(treesum, "_tree_pass", lambda points, fact, rows: (1, 7))
    with pytest.raises(MethodDisagreement, match="path_prefix"):
        cross_validate(2, INF, linf_bound=0)


def test_cross_validate_checks_every_lower_degree(monkeypatch):
    # a fault planted at d = 3 surfaces in cross_validate(5), with d = 3 in the dump
    tree_pass = treesum._tree_pass

    def faulty(points, fact, rows):
        num, den = tree_pass(points, fact, rows)
        return (num + den, den) if len(points) == 3 else (num, den)

    monkeypatch.setattr(treesum, "_tree_pass", faulty)
    a = AspectRatio.plus_delta(52, 7)
    with pytest.raises(MethodDisagreement) as caught:
        cross_validate(5, a)
    dump = json.loads(str(caught.value).split(": ", 1)[1])
    assert dump["d"] == 3
    # the engines read only G_2, G_5, G_8; the dump still carries all of G_0..G_8
    assert dump["path_prefix"] == [list(pt) for pt in path_signature(a, 3)]


def test_cross_validate_resolves_each_engine_before_its_clock():
    # each ms entry times its pipeline, not the first import of linf: in a fresh
    # interpreter, linf is loaded before any clock is read
    probe = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "import ellsuper\n"
        "import ellsuper.sweeps as sweeps\n"
        "seen = []\n"
        "sweeps.time = SimpleNamespace(perf_counter=lambda: seen.append('ellsuper.linf' in sys.modules) or 0.0)\n"
        "assert ellsuper.cross_validate(2, ellsuper.AspectRatio.infinite())['methods'] == ['linf', 'recursion', 'tree']\n"
        "assert len(seen) == 12 and all(seen), seen\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(sweeps.__file__).parents[1])}, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("a", [INF] + [AspectRatio.plus_delta(p, q) for p, q in ASSORTED_FRACTIONS], ids=str)
def test_validation_sweep_matches_lone_runs(a):
    # one sweep per ratio gives, at every d, what each pipeline gives run alone
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = sweeps._validation_sweep(8, a, linf_bound=8)
        for d, row in enumerate(rows, start=1):
            wt = recursion_wtT(d, a)
            assert tree_wtT(d, a) == linf_superpotential(d, a) == wt
            res = superpotential(d, a)
            assert row["wtT"] == str(wt) and row["mult"] == res.multiplier and row["T"] == str(res.T)
            assert row["methods"] == ["linf", "recursion", "tree"] and list(row["ms"]) == ["recursion", "tree", "linf"]
            alone = cross_validate(d, a, linf_bound=8)
            assert alone.pop("ms").keys() == row.pop("ms").keys()
            assert alone == row


@pytest.mark.parametrize("method", engine.METHODS)
@pytest.mark.parametrize("a", [INF, AspectRatio.plus_delta(3, 2), AspectRatio.plus_delta(52, 7),
                               AspectRatio.plus_delta(29, 4)], ids=str)
def test_every_engine_yields_each_degree_as_its_lone_value(method, a):
    # one calling convention for every pipeline: (d, a) yields wtT_1 .. wtT_d,
    # each the canonical pair that a run at that degree alone gives
    assert list(engine._engine(method)(6, a)) == [engine._value(n, a, method)[0] for n in range(1, 7)]


@given(a=aspect_ratios, d=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_every_pass_yields_canonical_pairs_from_one_factorial_table(a, d):
    # the sweeps decide agreement by equal pairs and order pairs by
    # cross-multiplication, sound only if every pass reduces through
    # engine._pair: gcd 1 and den > 0, so zero is (0, 1); and every pass
    # reads its factorials from engine._factorials
    assert engine._factorials(d) == [math.factorial(n) for n in range(3 * d)]
    for method in engine.METHODS:
        for num, den in engine._engine(method)(min(d, 8), a):
            assert type(num) is int and type(den) is int, (method, str(a))
            assert den > 0 and math.gcd(num, den) == 1, (method, str(a), num, den)


def _canonical(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


CANONICAL_PAIRS = st.builds(_canonical, st.integers(-10**12, 10**12), st.integers(1, 10**12))


@given(x=CANONICAL_PAIRS, y=CANONICAL_PAIRS, m=st.integers(1, 10**6))
@example(x=(0, 1), y=(-1, 2), m=3)
def test_pair_helpers_match_fraction(x, y, m):
    # every printed value is rendered, divided by its multiplicity and compared
    # as a canonical pair; each helper gives what Fraction gives, zero and signs included
    quotient = Fraction(*x) / m
    assert engine._text(x) == str(Fraction(*x))
    assert engine._over(x, m) == (quotient.numerator, quotient.denominator)
    assert sweeps._below(x, y) == (Fraction(*x) < Fraction(*y))


def test_scan_breakpoints_walk_the_farey_sequence():
    # the Farey successor rule gives exactly the brute-force set, in ascending order
    for d in range(1, 41):
        assert scan_breakpoints(d) == brute_scan_breakpoints(d), d


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


@given(data=st.data(), d=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_resumed_passes_match_fresh_calls_in_any_order(data, d):
    # the passes share one row list across ratios in any order, repeats and
    # inf included; each result must equal a fresh call at that ratio
    drawn = data.draw(st.lists(aspect_ratios, min_size=1, max_size=6))
    order = data.draw(st.permutations(drawn + drawn[: len(drawn) // 2 + 1] + [INF]))
    fact = engine._factorials(d)
    recursion_rows, tree_rows = [], []
    for a in order:
        points = path_signature(a, d)[2::3]
        assert Fraction(*engine._recursion_pass(points, fact, recursion_rows)) == recursion_wtT(d, a), (d, str(a))
        assert Fraction(*treesum._tree_pass(points, fact, tree_rows)) == tree_wtT(d, a), (d, str(a))


def test_scan_midpoints_catch_a_missing_breakpoint(monkeypatch):
    # with one breakpoint of d = 5 left out, its two intervals merge; the
    # midpoint check must notice wherever the value changes across it
    full = list(sweeps._breakpoint_pairs(5))
    caught = set()
    for dropped in full:
        monkeypatch.setattr(sweeps, "_breakpoint_pairs", lambda d: [b for b in full if b != dropped])
        if not scan_monotonicity(5)["consistent"]:
            caught.add(Fraction(*dropped))
    assert caught == {5, 6, 8, 11, 13}


def test_scan_cross_checks_the_tree_sum(monkeypatch):
    monkeypatch.setattr(treesum, "_tree_pass", lambda points, fact, rows: (1, 7))
    with pytest.raises(MethodDisagreement, match="path_prefix") as caught:
        scan_monotonicity(4)
    dump = json.loads(str(caught.value).split(": ", 1)[1])
    assert (dump["d"], dump["a"]) == (4, "1+delta")
    assert dump["path_prefix"] == [list(pt) for pt in path_signature(AspectRatio.plus_delta(1), 4)]


@pytest.mark.parametrize("inf_mult, infinity_T, nondecreasing", [
    (lambda m: 2 * m, "2", False),  # T at inf halves, below the last start's 4
    (lambda m: 1, "32", True),  # T at inf is wtT itself, above it
], ids=["drop", "rise"])
def test_scan_verdicts_read_the_value_at_inf(monkeypatch, inf_mult, infinity_T, nondecreasing):
    # only the value at inf changes, so only the verdicts that read it can move:
    # the drop from the last start and the last start's consistency with inf
    real = sweeps.mult
    monkeypatch.setattr(sweeps, "mult", lambda a, pt: inf_mult(real(a, pt)) if a.is_infinite else real(a, pt))
    report = scan_monotonicity(3)
    assert report["profile"][-1]["T"] == "4"
    assert report["infinity_T"] == infinity_T
    assert (report["nondecreasing"], report["consistent"]) == (nondecreasing, False)


def _record_pass_calls(monkeypatch) -> dict:
    """Patch both passes to log the read points of each call, by pass name."""
    calls = {"_recursion_pass": [], "_tree_pass": []}
    for module, name in ((sweeps, "_recursion_pass"), (treesum, "_tree_pass")):
        def recorded(points, fact, rows, run=getattr(module, name), log=calls[name]):
            log.append(tuple(points))
            return run(points, fact, rows)

        monkeypatch.setattr(module, name, recorded)
    return calls


def test_scan_runs_the_passes_once_per_distinct_prefix(monkeypatch):
    # d = 7 has 70 interval starts and 141 ratios but only 27 distinct read-point
    # prefixes; inf's points equal the last start's, so nothing runs there
    calls = _record_pass_calls(monkeypatch)
    scan_monotonicity(7)
    assert {name: len(log) for name, log in calls.items()} == {"_recursion_pass": 27, "_tree_pass": 27}


def test_scan_cross_checks_every_prefix_it_reads(monkeypatch):
    # with one breakpoint of d = 5 left out, a midpoint may read a prefix no
    # start reads; the tree pass must check it too
    full = list(sweeps._breakpoint_pairs(5))
    for dropped in full:
        monkeypatch.setattr(sweeps, "_breakpoint_pairs", lambda d: [b for b in full if b != dropped])
        calls = _record_pass_calls(monkeypatch)
        scan_monotonicity(5)
        assert set(calls["_recursion_pass"]) <= set(calls["_tree_pass"]), Fraction(*dropped)
        monkeypatch.undo()


def test_scan_values_match_values_computed_alone():
    # every ratio whose points repeat reuses the last wtT; each T must still equal
    # a value computed at that ratio alone, with its own multiplicity
    for d in range(1, 10):
        report = scan_monotonicity(d)
        for row in report["profile"]:
            for ratio, t in ((row["interval_start"], row["T"]), (row["midpoint"], row["midpoint_T"])):
                assert Fraction(t) == superpotential(d, AspectRatio.parse(ratio)).T, (d, ratio)
        assert Fraction(report["infinity_T"]) == superpotential(d, INF).T, d


def test_scan_profile_through_degree_20():
    # observed data, not a theorem (ROADMAP item A): every scan is consistent,
    # and the profile drops somewhere exactly at these degrees
    reports = {d: scan_monotonicity(d) for d in range(1, 21)}
    assert all(report["consistent"] for report in reports.values())
    assert [d for d, report in reports.items() if not report["nondecreasing"]] == [14, 17, 19, 20]


# tau^4 = (7 + 3 sqrt 5)/2, with tau the golden ratio, is where the Fibonacci
# staircase of McDuff-Schlenk, "The embedding capacity of 4-dimensional
# symplectic ellipsoids" (Ann. of Math. 175, 2012), accumulates.
def test_vanishing_starts_form_an_initial_segment_through_degree_20():
    # observed data, not proved (ROADMAP item R): T >= 0 at every interval start,
    # the starts where T = 0 come first, and the last of them, a0 = p/q, lies
    # below tau^4; exactly, p/q < (7 + 3 sqrt 5)/2 iff 2p - 7q < 0 or (2p - 7q)^2 < 45 q^2
    last_zero = {}
    for d in range(1, 21):
        starts = [(Fraction(row["interval_start"]), Fraction(row["T"]))
                  for row in scan_monotonicity(d)["profile"]]
        assert all(t >= 0 for _, t in starts), d
        zeros = [t == 0 for _, t in starts]
        k = zeros.count(True)
        assert zeros == [True] * k + [False] * (len(zeros) - k), d
        if k:
            a0 = last_zero[d] = starts[k - 1][0]
            p, q = a0.numerator, a0.denominator
            assert 2 * p - 7 * q < 0 or (2 * p - 7 * q) ** 2 < 45 * q * q, (d, a0)
    assert {d: str(last_zero[d]) for d in (5, 13, 17, 19, 20)} == {
        5: "9/2", 13: "32/5", 17: "32/5", 19: "45/7", 20: "45/7"}


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


def test_integrality_rows_match_the_scan_at_their_interval_starts():
    # integrality runs the recursion alone; each boundary fraction p + q = 3d is an
    # interval start of the scan at the same degree, where both passes agree
    rows = 0
    for d in range(1, 17):
        starts = {Fraction(r["interval_start"]): r["T"] for r in scan_monotonicity(d)["profile"]}
        for row in integrality_scan(d)["rows"]:
            assert row["T"] == starts[Fraction(row["p"], row["q"])], (d, row["p"], row["q"])
            rows += 1
    assert rows == 91


def test_degree_14_monotonicity_drop():
    # observed data: the first drop of the scan profile, T = 392/5 on (36/5, 29/4)
    # and T = 68 above 29/4; both sides have mult 5, so wtT drops as well
    left = superpotential(14, AspectRatio.plus_delta(36, 5))
    right = superpotential(14, AspectRatio.plus_delta(29, 4))
    assert (left.wtT, left.multiplier, left.T) == (392, 5, Fraction(392, 5))
    assert (right.wtT, right.multiplier, right.T) == (340, 5, 68)
    # the tree sum agrees
    assert tree_wtT(14, AspectRatio.plus_delta(36, 5)) == 392
    assert tree_wtT(14, AspectRatio.plus_delta(29, 4)) == 340
    # and so does linf, independent of both in derivation, at every degree up to 14
    # on both sides; cross_validate raises at the first degree where any two differ
    for (p, q), wt in (((36, 5), "392"), ((29, 4), "340")):
        report = cross_validate(14, AspectRatio.plus_delta(p, q), linf_bound=14)
        assert (report["methods"], report["wtT"], report["mult"]) == (["linf", "recursion", "tree"], wt, 5)


# Expected from exceptional-class theory and observed here, not cited as a
# theorem (ROADMAP item M): the classes with p + q = 3d and pq = d^2 + 1 are the
# outer corners of McDuff-Schlenk's Fibonacci staircase, and an exceptional class
# is expected to count once, so T(d, p/q + delta) = 1 with wtT = mult = p.
STAIRCASE_CLASSES = [(1, 2, 1), (2, 5, 1), (5, 13, 2), (13, 34, 5), (34, 89, 13)]


@pytest.mark.parametrize("method", ["recursion", "tree"])
def test_fibonacci_staircase_classes_count_once(method):
    for d, p, q in STAIRCASE_CLASSES:
        assert p + q == 3 * d and p * q == d * d + 1
        res = superpotential(d, AspectRatio.plus_delta(p, q), method)
        assert (res.wtT, res.multiplier, res.T) == (p, p, 1), \
            f"d = {d}, a = {p}/{q}+delta, {method}: wtT = {res.wtT}, mult = {res.multiplier}, T = {res.T}"


def test_scan_rows_have_integer_wtT_at_degree_20():
    # observed data, not a theorem: wtT has denominator 1 at every degree of
    # every scan representative at d = 20 (11020 rows); a failure is a finding
    d = 20
    fact = engine._factorials(d)
    rows: list = []
    checked = 0
    for rep in [Fraction(1)] + scan_breakpoints(d):
        a = AspectRatio.plus_delta(rep.numerator, rep.denominator)
        engine._recursion_pass(path_signature(a, d)[2::3], fact, rows)
        for n, (_, num, den, _, _) in enumerate(rows, start=1):
            assert den == 1, f"d = {d}, interval start {rep}, degree {n}: wtT = {num}/{den}"
        checked += len(rows)
    assert checked == 11020


def test_vanishing_matches_failed_adjunction_bound_through_degree_40():
    # observed data, not a theorem: at every boundary fraction p + q = 3d with
    # d <= 40 (555 rows), T vanishes exactly where the adjunction bound fails
    reports = {d: integrality_scan(d)["rows"] for d in range(1, 41)}
    rows = [row for d_rows in reports.values() for row in d_rows]
    assert len(rows) == 555
    mismatched = [(r["p"], r["q"]) for r in rows if r["vanishes"] != (not r["adjunction_bound"])]
    assert mismatched == []
    # also observed data (ROADMAP item A): on these fractions, sorted by p/q,
    # T is nondecreasing and at most T(d, inf), although the scan over every
    # interval drops at d = 14, 17, 19 and 20 (test_scan_profile_through_degree_20)
    for d, d_rows in reports.items():
        values = [Fraction(r["T"]) for r in sorted(d_rows, key=lambda r: Fraction(r["p"], r["q"]))]
        assert values == sorted(values), d
        assert values[-1] <= superpotential(d, INF).T, d


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
    for fn in (scan_monotonicity, scan_breakpoints):
        with pytest.raises(ValueError, match=fn.__name__):
            fn(0)


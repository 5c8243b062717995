import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import (
    AspectRatio,
    LinfError,
    LinfMorphism,
    compose,
    ellipsoid_morphism,
    factorial,
    gamma_point,
    invert,
    linf_superpotential,
    pair_factorial,
    point_add,
    recursion_wtT,
)
from ellsuper.engine import _pair, _value
from ellsuper.linf import _index, _linf_pass
from ellsuper.morphisms import _splits
from oracles import (
    ASSORTED_FRACTIONS,
    basis_value,
    identity_morphism,
    morphism_linf_pass,
    ordered_linf_superpotential,
    per_partition_compose,
    set_partition_splits,
    tree_sum_invert,
)

INF = AspectRatio.infinite()
A32 = AspectRatio.plus_delta(3, 2)


def generic_morphism(max_index=9, max_arity=3, seed=7):
    """Invertible morphism with diagonal arity-1 part and random higher tables."""
    rng = random.Random(seed)
    v = "V"
    w = "W"
    diag = {i: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for i in range(1, max_index + 1)}
    table2 = {}
    table3 = {}
    for i, j in combinations_with_replacement(range(1, max_index + 1), 2):
        table2[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    for i, j, k in combinations_with_replacement(range(1, max_index + 1), 3):
        table3[(i, j, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def rule(key):
        if len(key) == 1:
            return diag[key[0]]
        if len(key) == 2:
            return table2[key]
        if len(key) == 3:
            return table3[key]
        return 0

    phi = LinfMorphism(v, w, max_index=max_index, max_arity=max_arity, rule=rule, name="generic")
    return phi, diag, table2, table3


def test_ellipsoid_arity_one_table():
    eps = ellipsoid_morphism(A32, max_index=8, max_arity=3)
    for k in range(1, 9):
        gk = gamma_point(A32, k)
        assert eps.entry((k,)) == Fraction(1, pair_factorial(gk))


def test_ellipsoid_higher_arity_denominators():
    eps = ellipsoid_morphism(INF, max_index=11, max_arity=3)
    assert eps.entry((2, 2)) == Fraction(1, 24)  # (2,0)+(2,0) = (4,0), 4! = 24
    assert eps.entry((2, 5)) == Fraction(1, 5040)
    assert eps.entry((2, 2, 2)) == Fraction(1, 720)
    eps32 = ellipsoid_morphism(A32, max_index=11, max_arity=2)
    total = point_add(gamma_point(A32, 2), gamma_point(A32, 5))  # (1,1)+(3,2) = (4,3)
    assert eps32.entry((2, 5)) == Fraction(1, pair_factorial(total))


def test_degree_homogeneity_enforced():
    v = "V"
    w = "W"
    # the rule reads sorted inputs; here it gives 0 for a key its table does not list
    table = {(1, 2): Fraction(3), (1, 1): Fraction(0)}
    listed = LinfMorphism(v, w, max_index=5, max_arity=2, rule=lambda key: table.get(key, 0))
    assert listed.entry((2, 1)) == 3 and listed.entry((1, 1)) == 0 and listed.entry((2, 2)) == 0
    # an entry is one scalar on the only degree-0 target index for inputs (i, j),
    # i+j+1, which is where apply puts it
    assert listed.apply([{1: Fraction(1)}, {2: Fraction(2)}]) == {4: Fraction(6)}
    assert listed.apply([{1: Fraction(1)}, {1: Fraction(1)}]) == {}
    # a lazy rule is read once, on first access
    calls = []
    lazy = LinfMorphism(v, w, max_index=5, max_arity=2, rule=lambda key: calls.append(key) or 2)
    assert lazy.entry((3,)) == 2 and lazy.entry([3]) == 2 and calls == [(3,)]


def test_truncation_bounds_enforced():
    for bounds in ({"max_index": 0, "max_arity": 1}, {"max_index": 1, "max_arity": 0}):
        with pytest.raises(LinfError, match="truncation bounds must be at least 1"):
            LinfMorphism("V", "W", rule=lambda key: 0, **bounds)
    eps = ellipsoid_morphism(INF, max_index=5, max_arity=2)
    with pytest.raises(LinfError, match=r"basis indices start at 1, got \(0,\)"):
        eps.entry((0,))
    with pytest.raises(LinfError):
        eps.entry((6,))
    with pytest.raises(LinfError):
        eps.entry((1, 1, 1))
    with pytest.raises(LinfError):
        eps.entry(())


def test_rule_is_required_and_empty_inputs_have_no_entry():
    with pytest.raises(TypeError):
        LinfMorphism("V", "W", max_index=1, max_arity=1)
    eps = ellipsoid_morphism(INF, max_index=5, max_arity=2)
    assert eps.apply([]) == {}
    with pytest.raises(LinfError, match="arity-zero entries do not exist"):
        eps.entry(())


def test_morphism_repr_names_its_truncation():
    eps = ellipsoid_morphism(INF, max_index=5, max_arity=2)
    assert repr(eps) == "LinfMorphism(eps[inf], idx<=5, k<=2)"
    assert repr(invert(eps)) == "LinfMorphism(inv(eps[inf]), idx<=5, k<=2)"  # phi's own truncation


def test_identity_morphism():
    v = "V"
    ident = identity_morphism(v, max_index=6, max_arity=4)
    assert ident.entry((3,)) == 1
    assert ident.entry((1, 2)) == 0
    assert ident.entry((2, 2, 3)) == 0
    # identity composed with itself is itself
    double = compose(ident, ident)
    for key in [(1,), (4,), (1, 2), (2, 2), (1, 2, 3)]:
        assert double.entry(key) == ident.entry(key)
    # and inverting it changes nothing
    inv = invert(ident)
    for key in [(1,), (2, 3), (1, 1, 4)]:
        assert inv.entry(key) == ident.entry(key)


def test_compose_identity_laws():
    eps = ellipsoid_morphism(A32, max_index=8, max_arity=3)
    left = compose(identity_morphism(eps.target, max_index=8, max_arity=3), eps)
    right = compose(eps, identity_morphism(eps.source, max_index=8, max_arity=3))
    for key in [(1,), (3,), (2, 2), (2, 5), (1, 2, 3), (2, 2, 2)]:
        assert left.entry(key) == eps.entry(key)
        assert right.entry(key) == eps.entry(key)


def test_compose_arity_two_expansion():
    # (Psi o Phi)^2(x, y) = Psi^1(Phi^2(x, y)) + Psi^2(Phi^1 x, Phi^1 y)
    phi, diag, table2, _ = generic_morphism()
    psi, pdiag, ptable2, _ = generic_morphism(seed=11)
    psi = LinfMorphism(phi.target, "U", max_index=phi.max_index,
                       max_arity=3, rule=psi._rule, name="psi")
    comp = compose(psi, phi)
    for key in [(1, 1), (1, 2), (2, 3)]:
        i, j = key
        manual = {}
        for idx, c in psi.apply([basis_value(phi, [i]), basis_value(phi, [j])]).items():
            manual[idx] = manual.get(idx, Fraction(0)) + c
        for idx, c in psi.apply([basis_value(phi, key)]).items():
            manual[idx] = manual.get(idx, Fraction(0)) + c
        manual = {idx: c for idx, c in manual.items() if c != 0}
        assert basis_value(comp, key) == manual


@given(seed=st.integers(0, 10**6),
       key=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(lambda xs: tuple(sorted(xs))))
@settings(max_examples=150, deadline=None)
def test_apply_on_basis_inputs_is_the_scalar_entry(seed, key):
    # the vector API and the scalar table agree: one coefficient, on the index degree zero allows
    phi, _, _, _ = generic_morphism(seed=seed)
    c = phi.entry(key)
    assert phi.apply([{i: 1} for i in key]) == ({_index(key): c} if c != 0 else {})


def test_compose_space_mismatch():
    eps = ellipsoid_morphism(A32, max_index=6, max_arity=2)
    with pytest.raises(LinfError):
        compose(eps, eps)


def test_invert_requires_bijective_arity_one():
    v = "V"
    w = "W"
    zero_first = LinfMorphism(v, w, max_index=3, max_arity=1,
                              rule=lambda key: 0 if key == (1,) else Fraction(1))
    with pytest.raises(LinfError, match="scaled basis bijection at index 1"):
        invert(zero_first)


def test_invert_reads_integer_coefficients_exactly():
    ints = LinfMorphism("V", "W", max_index=2, max_arity=1, rule=lambda key: key[0] + 1)
    inv = invert(ints)
    assert inv.entry((1,)) == Fraction(1, 2) and inv.entry((2,)) == Fraction(1, 3)
    assert all(type(inv.entry(key)) is Fraction for key in ((1,), (2,)))


def test_invert_arity_one_of_ellipsoid():
    for a in (INF, A32):
        eps = ellipsoid_morphism(a, max_index=8, max_arity=3)
        eta = invert(eps)
        for k in range(1, 9):
            assert eta.entry((k,)) == pair_factorial(gamma_point(a, k))


def _psi1(diag, vec):
    return {i: c / diag[i] for i, c in vec.items()}


def test_invert_arity_two_formula():
    # Psi^2(x, y) = -Psi^1 Phi^2(Psi^1 x, Psi^1 y)
    phi, diag, _, _ = generic_morphism()
    psi = invert(phi)
    for key in [(1, 1), (1, 2), (2, 3), (3, 3)]:
        i, j = key
        inner = phi.apply([_psi1(diag, {i: Fraction(1)}), _psi1(diag, {j: Fraction(1)})])
        manual = {idx: -c for idx, c in _psi1(diag, inner).items()}
        assert basis_value(psi, key) == manual


def test_invert_arity_three_formula():
    # Psi^3(x,y,z) = -Psi^1 Phi^3(Psi^1 x, Psi^1 y, Psi^1 z)
    #               + Psi^1 Phi^2(Psi^1 x, Psi^1 Phi^2(Psi^1 y, Psi^1 z))
    #               + Psi^1 Phi^2(Psi^1 y, Psi^1 Phi^2(Psi^1 x, Psi^1 z))
    #               + Psi^1 Phi^2(Psi^1 z, Psi^1 Phi^2(Psi^1 x, Psi^1 y))
    phi, diag, _, _ = generic_morphism()
    psi = invert(phi)

    def p1(idx):
        return _psi1(diag, {idx: Fraction(1)})

    def nested(a, b, c):
        inner = _psi1(diag, phi.apply([p1(b), p1(c)]))
        return _psi1(diag, phi.apply([p1(a), inner]))

    for key in [(1, 2, 3), (1, 1, 2), (2, 2, 2)]:
        x, y, z = key
        manual = {}
        for idx, c in _psi1(diag, phi.apply([p1(x), p1(y), p1(z)])).items():
            manual[idx] = manual.get(idx, Fraction(0)) - c
        for a, b, c_ in ((x, y, z), (y, x, z), (z, x, y)):
            for idx, cf in nested(a, b, c_).items():
                manual[idx] = manual.get(idx, Fraction(0)) + cf
        manual = {idx: c for idx, c in manual.items() if c != 0}
        assert basis_value(psi, key) == manual


def test_round_trip_small():
    for a in (INF, A32):
        eps = ellipsoid_morphism(a, max_index=11, max_arity=4)
        eta = invert(eps)
        back = compose(eta, eps)
        forth = compose(eps, eta)
        for k in range(1, 5):
            for key in combinations_with_replacement(range(1, 12), k):
                if sum(key) + k - 1 > 11:
                    continue
                want = 1 if k == 1 else 0
                assert back.entry(key) == want
                assert forth.entry(key) == want


def test_apply_is_symmetric_in_inputs():
    eps = ellipsoid_morphism(A32, max_index=14, max_arity=3)
    vectors = [
        {1: Fraction(2), 3: Fraction(-1, 3)},
        {2: Fraction(5, 7)},
        {1: Fraction(1), 4: Fraction(3)},
    ]
    results = {tuple(sorted(eps.apply(list(perm)).items())) for perm in permutations(vectors)}
    assert len(results) == 1


def test_intermediate_index_overflow_reported():
    eps = ellipsoid_morphism(INF, max_index=4, max_arity=2)
    eta = invert(eps)
    with pytest.raises(LinfError):
        eta.entry((3, 4))  # output index 8 exceeds the bound 4


def test_linf_superpotential_values():
    assert linf_superpotential(1, INF) == 2
    assert linf_superpotential(2, INF) == 5
    assert linf_superpotential(3, INF) == 32
    assert linf_superpotential(1, A32) == 1  # (1,1)! = 1
    with pytest.raises(ValueError, match="linf_superpotential requires d >= 1, got 0"):
        linf_superpotential(0, INF)


def test_linf_superpotential_inner_modes_agree():
    for a in (INF, A32, AspectRatio.plus_delta(5, 2)):
        for d in range(1, 5):
            assert ordered_linf_superpotential(d, a) == linf_superpotential(d, a)


def test_linf_matches_recursion():
    for a in (INF, A32, AspectRatio.plus_delta(2, 1)):
        for d in range(1, 5):
            assert linf_superpotential(d, a) == recursion_wtT(d, a)


def _assert_inverses_agree(phi, max_arity):
    # every key whose intermediate indices stay inside the truncation
    fast = invert(phi)
    slow = tree_sum_invert(phi, max_arity)
    checked = 0
    for k in range(1, max_arity + 1):
        for key in combinations_with_replacement(range(1, phi.max_index + 1), k):
            if sum(key) + k - 1 > phi.max_index:
                continue
            assert fast.entry(key) == slow.entry(key), (phi.name, key)
            checked += 1
    return checked


def test_root_split_inverse_matches_tree_sum_oracle_generic():
    phi, _, _, _ = generic_morphism(max_index=14, max_arity=5)
    assert _assert_inverses_agree(phi, 5) > 100


def test_root_split_inverse_matches_tree_sum_oracle_ellipsoid():
    for a in (INF, A32, AspectRatio.plus_delta(52, 7)):
        eps = ellipsoid_morphism(a, max_index=14, max_arity=5)
        assert _assert_inverses_agree(eps, 5) > 100


def _assert_composites_agree(psi, phi, max_arity):
    # every key, repeated indices included, whose intermediate indices stay inside the truncation
    grouped = compose(psi, phi)
    slow = per_partition_compose(psi, phi)
    checked = 0
    for k in range(1, max_arity + 1):
        for key in combinations_with_replacement(range(1, grouped.max_index + 1), k):
            if sum(key) + k - 1 > grouped.max_index:
                continue
            assert grouped.entry(key) == slow.entry(key), (grouped.name, key)
            checked += 1
    return checked


BELL = [1, 1, 2, 5, 15, 52, 203, 877]


@given(key=st.lists(st.integers(1, 4), min_size=1, max_size=7).map(lambda xs: tuple(sorted(xs))))
@settings(max_examples=150, deadline=None)
def test_multiset_splits_match_set_partition_oracle(key):
    # the grouping built from binomials equals the grouping of every set partition
    splits = _splits(key, {})
    assert splits == set_partition_splits(key)
    assert sum(splits.values()) == BELL[len(key)]


def test_multiset_splits_pin_six_equal_inputs():
    splits = _splits((2,) * 6, {})
    assert len(splits) == 11 and sum(splits.values()) == 203
    assert splits[((2, 2), (2, 2), (2, 2))] == 15 and splits[((2,) * 6,)] == 1


def test_grouped_compose_matches_per_partition_oracle_generic():
    phi, _, _, _ = generic_morphism(max_index=14, max_arity=5)
    psi, _, _, _ = generic_morphism(max_index=14, max_arity=5, seed=11)
    psi = LinfMorphism(phi.target, "U", max_index=14, max_arity=5,
                       rule=psi._rule, name="psi")
    assert _assert_composites_agree(psi, phi, 5) > 100


def test_grouped_compose_matches_per_partition_oracle_round_trip():
    eps = ellipsoid_morphism(INF, max_index=14, max_arity=5)
    assert _assert_composites_agree(invert(eps), eps, 5) > 100


@pytest.mark.parametrize("a", [INF] + [AspectRatio.plus_delta(p, q) for p, q in ASSORTED_FRACTIONS], ids=str)
def test_scalar_pass_matches_the_generic_inverse(a):
    # one scalar per input multiset gives the generic engine's value at every
    # degree, as a canonical pair
    values = list(_linf_pass(8, a))
    assert values == [(v.numerator, v.denominator) for v in morphism_linf_pass(8, a)]


def test_scalar_pass_keeps_its_inverse_in_a_morphism(monkeypatch):
    # the witness reads every entry of its inverse through LinfMorphism.entry
    read = []
    entry = LinfMorphism.entry
    monkeypatch.setattr(LinfMorphism, "entry", lambda self, key: read.append((self.name, key)) or entry(self, key))
    assert linf_superpotential(4, INF) == 286
    assert {name for name, _ in read} == {"inv(eps[inf])"}
    assert {(2,), (2, 2, 2, 2), (2, 8), (11,)} <= {key for _, key in read}


@pytest.mark.parametrize("num, den, pair", [
    (6, 3, (2, 1)), (-7, 3, (-7, 3)), (-12, 8, (-3, 2)), (0, 5, (0, 1)),
    (Fraction(3, 4), 6, (1, 8)), (Fraction(-9, 2), 3, (-3, 2)), (Fraction(10, 3), 5, (2, 3)),
    (Fraction(-8, 1), 4, (-2, 1)),
])
def test_pair_divides_exactly(num, den, pair):
    # the witness's one exact division: an entry by binom(j, x), a degree's sum by its common denominator
    got = _pair(num, den)
    assert got == pair and all(type(x) is int for x in got)


@given(num=st.one_of(st.integers(-10**30, 10**30), st.fractions(max_denominator=10**6)),
       den=st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_pair_is_the_reduced_quotient(num, den):
    q = Fraction(num) / den
    assert _pair(num, den) == (q.numerator, q.denominator)


def test_pass_stays_exact_off_the_integers(monkeypatch):
    # a lattice path of no aspect ratio makes entries and degree sums
    # non-integer; the witness then builds Fractions and still equals the
    # generic engine, which inverts the same ellipsoid morphism
    rng = random.Random(4)
    path = [(0, 0)]
    for _ in range(20):
        x, y = path[-1]
        path.append((x + 1, y) if rng.random() < 0.5 else (x, y + 1))
    monkeypatch.setattr("ellsuper.linf.gamma_path", lambda a, k_max: path[:k_max + 1])
    monkeypatch.setattr("ellsuper.morphisms.gamma_path", lambda a, k_max: path[:k_max + 1])
    read = []
    entry = LinfMorphism.entry
    monkeypatch.setattr(LinfMorphism, "entry", lambda self, key: read.append(entry(self, key)) or read[-1])
    values = list(_linf_pass(6, INF))
    assert {type(v) for v in read} == {int, Fraction}  # an integer entry stays an int
    assert all(v.denominator != 1 for v in read if type(v) is Fraction)
    assert any(den != 1 for _, den in values)
    assert values == [(v.numerator, v.denominator) for v in morphism_linf_pass(6, INF)]


@given(pq=st.tuples(st.integers(2, 120), st.integers(1, 40))
       .filter(lambda pq: pq[0] > pq[1] and gcd(*pq) == 1))
@settings(max_examples=40, deadline=None)
def test_scalar_pass_yields_the_recursions_canonical_pairs(pq):
    # no integrality assumed: the pairs are compared as the recursion gives them
    a = AspectRatio.plus_delta(*pq)
    values = list(_linf_pass(6, a))
    assert all(gcd(num, den) == 1 and den > 0 for num, den in values)
    assert values == [_value(d, a)[0] for d in range(1, 7)]


def test_linf_matches_recursion_beyond_default_bound():
    # d = 7 and 8 take well under a second together with the root-split inverse
    for a in (INF, A32, AspectRatio.plus_delta(52, 7)):
        for d in (7, 8):
            assert linf_superpotential(d, a) == recursion_wtT(d, a), (d, str(a))


def test_dump_is_json_ready():
    import json

    eps = ellipsoid_morphism(INF, max_index=5, max_arity=2)
    eps.entry((1, 2))
    eps.entry((2,))
    dump = eps.dump()
    text = json.dumps(dump)
    assert "arities" in dump and json.loads(text) == dump
    assert dump["arities"]["2"]["1,2"] == "1/6"  # (1,0)+(2,0) = (3,0), 3! = 6, on index 4

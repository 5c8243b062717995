import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from ellsuper import (
    AspectRatio,
    BasedSpace,
    LinfError,
    LinfMorphism,
    compose,
    ellipsoid_morphism,
    factorial,
    gamma_point,
    identity_morphism,
    invert,
    linf_superpotential,
    pair_factorial,
    point_add,
    recursion_wtT,
)
from oracles import ordered_linf_superpotential, per_partition_compose, tree_sum_invert

INF = AspectRatio.infinite()
A32 = AspectRatio.plus_delta(3, 2)


def generic_morphism(max_index=9, max_arity=3, seed=7):
    """Invertible morphism with diagonal arity-1 part and random higher tables."""
    rng = random.Random(seed)
    v = BasedSpace("V")
    w = BasedSpace("W")
    diag = {i: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for i in range(1, max_index + 1)}
    table2 = {}
    table3 = {}
    for i, j in combinations_with_replacement(range(1, max_index + 1), 2):
        table2[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    for i, j, k in combinations_with_replacement(range(1, max_index + 1), 3):
        table3[(i, j, k)] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    def rule(key):
        if len(key) == 1:
            return {key[0]: diag[key[0]]}
        if len(key) == 2:
            return {key[0] + key[1] + 1: table2[key]}
        if len(key) == 3:
            return {sum(key) + 2: table3[key]}
        return {}

    phi = LinfMorphism(v, w, max_index=max_index, max_arity=max_arity, rule=rule, name="generic")
    return phi, diag, table2, table3


def test_ellipsoid_arity_one_table():
    eps = ellipsoid_morphism(A32, max_index=8, max_arity=3)
    for k in range(1, 9):
        gk = gamma_point(A32, k)
        assert eps.entry((k,)) == {k: Fraction(1, pair_factorial(gk))}


def test_ellipsoid_higher_arity_denominators():
    eps = ellipsoid_morphism(INF, max_index=11, max_arity=3)
    assert eps.entry((2, 2)) == {5: Fraction(1, 24)}  # (2,0)+(2,0) = (4,0), 4! = 24
    assert eps.entry((2, 5)) == {8: Fraction(1, 5040)}
    assert eps.entry((2, 2, 2)) == {8: Fraction(1, 720)}
    eps32 = ellipsoid_morphism(A32, max_index=11, max_arity=2)
    total = point_add(gamma_point(A32, 2), gamma_point(A32, 5))  # (1,1)+(3,2) = (4,3)
    assert eps32.entry((2, 5)) == {8: Fraction(1, pair_factorial(total))}


def test_degree_homogeneity_enforced():
    v = BasedSpace("V")
    w = BasedSpace("W")
    with pytest.raises(LinfError):
        LinfMorphism(v, w, max_index=5, max_arity=2, entries={(1,): {2: Fraction(1)}})
    # the only degree-0 target index for inputs (i, j) is i+j+1
    LinfMorphism(v, w, max_index=5, max_arity=2, entries={(1, 2): {4: Fraction(1)}})
    with pytest.raises(LinfError):
        LinfMorphism(v, w, max_index=5, max_arity=2, entries={(1, 2): {5: Fraction(1)}})


def test_odd_degrees_refused():
    odd = BasedSpace("odd", degree=lambda i: -1 - 2 * i)
    with pytest.raises(LinfError):
        LinfMorphism(odd, odd, max_index=3, max_arity=1,
                     entries={(1,): {1: Fraction(1)}})


def test_truncation_bounds_enforced():
    eps = ellipsoid_morphism(INF, max_index=5, max_arity=2)
    with pytest.raises(LinfError):
        eps.entry((6,))
    with pytest.raises(LinfError):
        eps.entry((1, 1, 1))
    with pytest.raises(LinfError):
        eps.entry(())


def test_identity_morphism():
    v = BasedSpace("V")
    ident = identity_morphism(v, max_index=6, max_arity=4)
    assert ident.entry((3,)) == {3: Fraction(1)}
    assert ident.entry((1, 2)) == {}
    assert ident.entry((2, 2, 3)) == {}
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
    psi = LinfMorphism(phi.target, BasedSpace("U"), max_index=phi.max_index,
                       max_arity=3, rule=psi._rule, name="psi")
    comp = compose(psi, phi)
    for key in [(1, 1), (1, 2), (2, 3)]:
        i, j = key
        manual = {}
        for idx, c in psi.apply([phi.entry((i,)), phi.entry((j,))]).items():
            manual[idx] = manual.get(idx, Fraction(0)) + c
        for idx, c in psi.apply([phi.entry((i, j))]).items():
            manual[idx] = manual.get(idx, Fraction(0)) + c
        manual = {idx: c for idx, c in manual.items() if c != 0}
        assert comp.entry(key) == manual


def test_compose_space_mismatch():
    eps = ellipsoid_morphism(A32, max_index=6, max_arity=2)
    with pytest.raises(LinfError):
        compose(eps, eps)


def test_invert_requires_bijective_arity_one():
    v = BasedSpace("V")
    w = BasedSpace("W")
    zero_first = LinfMorphism(v, w, max_index=3, max_arity=1,
                              rule=lambda key: {} if key == (1,) else {key[0]: Fraction(1)})
    with pytest.raises(LinfError):
        invert(zero_first)


def test_invert_arity_one_of_ellipsoid():
    for a in (INF, A32):
        eps = ellipsoid_morphism(a, max_index=8, max_arity=3)
        eta = invert(eps)
        for k in range(1, 9):
            assert eta.entry((k,)) == {k: Fraction(pair_factorial(gamma_point(a, k)))}


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
        assert psi.entry(key) == manual


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
        assert psi.entry(key) == manual


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
                want = {key[0]: Fraction(1)} if k == 1 else {}
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
    fast = invert(phi, max_arity)
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


def test_grouped_compose_matches_per_partition_oracle_generic():
    phi, _, _, _ = generic_morphism(max_index=14, max_arity=5)
    psi, _, _, _ = generic_morphism(max_index=14, max_arity=5, seed=11)
    psi = LinfMorphism(phi.target, BasedSpace("U"), max_index=14, max_arity=5,
                       rule=psi._rule, name="psi")
    assert _assert_composites_agree(psi, phi, 5) > 100


def test_grouped_compose_matches_per_partition_oracle_round_trip():
    eps = ellipsoid_morphism(INF, max_index=14, max_arity=5)
    assert _assert_composites_agree(invert(eps), eps, 5) > 100


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
    assert dump["arities"]["2"]["1,2"] == {"4": "1/6"}  # (1,0)+(2,0) = (3,0), 3! = 6

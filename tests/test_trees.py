import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsuper import (
    LEAF,
    Tree,
    compositions,
    enumerate_ordered_trees,
    enumerate_trees,
    factorial,
    ordered_count,
    ordered_internal_count,
    ordered_leaves,
    partitions,
    set_partitions,
    vertex_data,
)
from oracles import brute_tree_forms

UNORDERED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 12, 6: 33, 7: 90}
ORDERED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752, 7: 39208}


def test_leaf_basics():
    assert LEAF.is_leaf
    assert LEAF.leaf_count == 1
    assert LEAF.aut_order == 1
    assert vertex_data(LEAF) == []


def test_bivalent_vertices_rejected():
    with pytest.raises(ValueError):
        Tree([LEAF])
    with pytest.raises(ValueError):
        Tree([Tree([LEAF, LEAF])])


def test_enumeration_counts_match_brute_force():
    for d, want in UNORDERED_COUNTS.items():
        trees = enumerate_trees(d)
        assert len(trees) == want
        assert {t.key for t in trees} == set(brute_tree_forms(d))


def test_enumeration_is_deterministic_and_deduplicated():
    for d in range(1, 8):
        trees = enumerate_trees(d)
        keys = [t.key for t in trees]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(t.leaf_count == d for t in trees)


def test_three_leaves():
    t_corolla = Tree([LEAF, LEAF, LEAF])
    t_nested = Tree([LEAF, Tree([LEAF, LEAF])])
    assert set(enumerate_trees(3)) == {t_corolla, t_nested}
    assert t_corolla.aut_order == 6
    assert t_nested.aut_order == 2


def test_four_leaves_aut_orders():
    assert sorted(t.aut_order for t in enumerate_trees(4)) == [2, 4, 6, 8, 24]


def test_vertex_data_examples():
    info = vertex_data(Tree([LEAF, LEAF]))
    assert len(info) == 1
    assert (info[0].leaf_number, info[0].valency, info[0].movable) == (2, 3, True)

    nested = vertex_data(Tree([LEAF, Tree([LEAF, LEAF])]))
    assert [(v.leaf_number, v.valency, v.movable) for v in nested] == [
        (3, 3, False),
        (2, 3, True),
    ]
    assert nested[0].child_leaf_numbers == (1, 2)


def test_leaf_numbers_are_consistent():
    for d in range(1, 8):
        for t in enumerate_trees(d):
            for v in vertex_data(t):
                assert v.leaf_number == sum(v.child_leaf_numbers)
                assert v.valency == len(v.child_leaf_numbers) + 1
                assert v.movable == all(c == 1 for c in v.child_leaf_numbers)


def test_aut_order_divides_factorial():
    for d in range(1, 8):
        for t in enumerate_trees(d):
            assert factorial(d) % t.aut_order == 0


def _shuffled_copy(t: Tree, rng: random.Random) -> Tree:
    if t.is_leaf:
        return LEAF
    kids = [_shuffled_copy(c, rng) for c in t.children]
    rng.shuffle(kids)
    return Tree(kids)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_canonical_key_invariant_under_shuffling(seed, d):
    rng = random.Random(seed)
    t = rng.choice(enumerate_trees(d))
    copy = _shuffled_copy(t, rng)
    assert copy.key == t.key
    assert copy.aut_order == t.aut_order
    assert copy == t


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, want in enumerate(bell):
        assert sum(1 for _ in set_partitions(range(n))) == want


def test_ordered_counts_both_routes():
    for d, want in ORDERED_COUNTS.items():
        assert ordered_count(d) == want
        assert len(enumerate_ordered_trees(d)) == want


def test_ordered_trees_structure():
    assert enumerate_ordered_trees(1) == (1,)
    assert enumerate_ordered_trees(2) == ((1, 2),)
    got = set(enumerate_ordered_trees(3))
    assert got == {(1, 2, 3), ((1, 2), 3), ((1, 3), 2), (1, (2, 3))}
    for k in range(1, 6):
        for t in enumerate_ordered_trees(k):
            assert ordered_leaves(t) == tuple(range(1, k + 1))
            assert ordered_internal_count(t) >= (0 if k == 1 else 1)


def test_enumerate_trees_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_trees(0)
    with pytest.raises(ValueError):
        enumerate_ordered_trees(0)


def test_to_string_round_trip_forms():
    forms = {t.to_string() for t in enumerate_trees(4)}
    assert forms == {"(****)", "(**(**))", "(*(***))", "(*(*(**)))", "((**)(**))"}
    assert repr(Tree([LEAF, LEAF])) == "Tree[(**)]"


def test_factorial_base_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(8) == 40320


def test_factorial_recurrence():
    for n in range(40):
        assert factorial(n + 1) == (n + 1) * factorial(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_compositions_counts():
    assert list(compositions(1)) == [(1,)]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 9):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)
        assert sum(1 for _ in compositions(n, min_parts=2)) == 2 ** (n - 1) - 1
        assert all(sum(c) == n for c in compositions(n))


def test_partitions_counts():
    # partition numbers p(1..9)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, want in zip(range(1, 10), expected):
        parts = list(partitions(n))
        assert len(parts) == want
        assert all(sum(p) == n for p in parts)
        assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in parts)


def test_negative_totals_rejected():
    # both are generators, so the check runs on the first item
    with pytest.raises(ValueError, match="compositions requires total >= 0, got -1"):
        next(compositions(-1))
    with pytest.raises(ValueError, match="partitions requires total >= 0, got -1"):
        next(partitions(-1))

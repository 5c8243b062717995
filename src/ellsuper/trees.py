"""Rooted trees with unordered leaves and no bivalent vertices.

A tree here is the combinatorial object hanging from a univalent root vertex:
either a single leaf, or an internal vertex carrying an unordered multiset of
at least two subtrees.  Vertices with exactly one child are excluded (every
internal vertex has valency >= 3, counting the edge toward the root), which
makes the number of isomorphism classes with d leaves finite:
1, 1, 2, 5, 12, 33, 90, ... for d = 1..7.

Isomorphism is decided through a canonical key (the recursively sorted tuple
of child keys), so equality, hashing, and deterministic enumeration order all
come for free.  The automorphism order is the product, over internal vertices,
of m! for each multiplicity m of an isomorphism class among that vertex's
children.

The ordered variant (leaves labeled 1..k, children still unordered) is
enumerated independently via set partitions of the label set; its cardinality
equals the sum of d!/|Aut(T)| over the unordered classes, and the test suite
checks the two routes against each other.

The module also holds the integer splits both enumerations run:
:func:`partitions` of a leaf count and :func:`set_partitions` of a label set.
:func:`compositions` is run by no pipeline; it stays public only for the test
oracles, which sum over ordered compositions, and for the benchmark's trace,
which counts the items it yields.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, product
from math import factorial


def compositions(total: int, min_parts: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``total``.

    Yields all 2^(total-1) compositions (fewer when ``min_parts`` > 1) in
    lexicographic order of the leading parts.
    """
    if total < 0:
        raise ValueError(f"compositions requires total >= 0, got {total}")

    def rec(remaining: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if len(acc) >= min_parts:
                yield acc
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, acc + (first,))

    yield from rec(total, ())


def partitions(total: int, min_parts: int = 1) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive integers summing to ``total``."""
    if total < 0:
        raise ValueError(f"partitions requires total >= 0, got {total}")

    def rec(remaining: int, cap: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            if len(acc) >= min_parts:
                yield acc
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, first, acc + (first,))

    yield from rec(total, total, ())


def set_partitions(items: Iterable) -> Iterator[list[tuple]]:
    """All partitions of a sequence into unordered nonempty blocks (as tuples)."""
    seq = list(items)

    def rec(rest: list) -> Iterator[list[tuple]]:
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for part in rec(tail):
            for idx in range(len(part)):
                yield part[:idx] + [(first,) + part[idx]] + part[idx + 1 :]
            yield [(first,)] + part

    yield from rec(seq)


# Ordered trees are plain nested tuples: a leaf is its integer label, an
# internal vertex the tuple of its children sorted by minimum label.
OrderedTree = int | tuple


class Tree:
    """Immutable rooted tree; ``Tree()`` is a leaf, ``Tree(children)`` internal."""

    __slots__ = ("children", "key", "leaf_count", "aut_order")

    def __init__(self, children: Iterable["Tree"] = ()):
        kids = tuple(sorted(children, key=lambda t: t.key))
        if len(kids) == 1:
            raise ValueError("internal vertices need >= 2 children (no bivalent vertices)")
        self.children = kids
        if not kids:
            self.key = ()
            self.leaf_count = 1
            self.aut_order = 1
        else:
            self.key = tuple(c.key for c in kids)
            self.leaf_count = sum(c.leaf_count for c in kids)
            aut = 1
            for _, grp in groupby(kids, key=lambda t: t.key):
                aut *= factorial(len(tuple(grp)))
            for c in kids:
                aut *= c.aut_order
            self.aut_order = aut

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Tree[{self.to_string()}]"

    def to_string(self) -> str:
        """Compact canonical form: '*' for a leaf, '(..)' around children."""
        if self.is_leaf:
            return "*"
        return "(" + "".join(c.to_string() for c in self.children) + ")"


LEAF = Tree()


class VertexInfo(namedtuple("VertexInfo", "leaf_number valency movable child_leaf_numbers")):
    """Data attached to one internal vertex.

    ``leaf_number`` counts the leaves lying above the vertex; ``valency`` is
    its children + 1 (the edge toward the root); ``movable`` says no internal
    vertex lies above it (all children are leaves); ``child_leaf_numbers`` is
    the sorted multiset of its children's leaf numbers.
    """

    __slots__ = ()


def vertex_data(tree: Tree) -> list[VertexInfo]:
    """One :class:`VertexInfo` per internal vertex, in preorder; empty for a leaf."""
    out: list[VertexInfo] = []

    def walk(t: Tree) -> None:
        if t.is_leaf:
            return
        out.append(
            VertexInfo(
                leaf_number=t.leaf_count,
                valency=len(t.children) + 1,
                movable=all(c.is_leaf for c in t.children),
                child_leaf_numbers=tuple(sorted(c.leaf_count for c in t.children)),
            )
        )
        for c in t.children:
            walk(c)

    walk(tree)
    return out


@lru_cache(maxsize=None)
def enumerate_trees(d: int) -> tuple[Tree, ...]:
    """All trees with d unordered leaves, one per isomorphism class, in key order.

    Children multisets are assembled per leaf-count partition, choosing a
    multiset of subtrees for every part size, so each class is produced
    exactly once without deduplication.
    """
    if d < 1:
        raise ValueError(f"enumerate_trees requires d >= 1, got {d}")
    if d == 1:
        return (LEAF,)
    out: list[Tree] = []
    for part in partitions(d, min_parts=2):
        sizes = [(s, len(tuple(grp))) for s, grp in groupby(part)]
        pools = [combinations_with_replacement(enumerate_trees(s), m) for s, m in sizes]
        for combo in product(*pools):
            out.append(Tree(chain.from_iterable(combo)))
    out.sort(key=lambda t: t.key)
    return tuple(out)


def _min_leaf(t: OrderedTree) -> int:
    while not isinstance(t, int):
        t = t[0]
    return t


def enumerate_ordered_trees(k: int) -> tuple[OrderedTree, ...]:
    """All trees with leaves labeled 1..k and no bivalent vertices.

    Built recursively over set partitions of the label set: the root's
    children are trees on the blocks of a partition into >= 2 parts.  Each
    isomorphism class arises from exactly one (partition, subtree) choice.
    The trees over each label subset are memoized for the call only.
    """
    if k < 1:
        raise ValueError(f"enumerate_ordered_trees requires k >= 1, got {k}")
    memo: dict[tuple[int, ...], tuple[OrderedTree, ...]] = {}

    def over(labels: tuple[int, ...]) -> tuple[OrderedTree, ...]:
        if len(labels) == 1:
            return (labels[0],)
        if labels not in memo:
            out: list[OrderedTree] = []
            for blocks in set_partitions(labels):
                if len(blocks) < 2:
                    continue
                for pieces in product(*(over(tuple(sorted(b))) for b in blocks)):
                    out.append(tuple(sorted(pieces, key=_min_leaf)))
            memo[labels] = tuple(out)
        return memo[labels]

    return over(tuple(range(1, k + 1)))


def ordered_count(d: int) -> int:
    """Number of ordered-leaf classes, as the sum of d!/|Aut(T)| over unordered ones.

    Every term is the size of a leaf-relabeling orbit, so each division is
    exact: with no bivalent vertex, each internal vertex is fixed by the set
    of leaves above it, so Aut(T) acts faithfully on the d leaves and its
    order divides d! (Lagrange).
    """
    return sum(factorial(d) // t.aut_order for t in enumerate_trees(d))

"""Inverting an evenly graded L-infinity morphism by the signed tree sum.

The ellipsoid morphism has arity-k entries 1/(G_{i_1}+...+G_{i_k})! landing
on the index i_1+...+i_k+k-1; its inverse is the sum over rooted trees with
ordered leaves, evaluated grouped at the root as a recursion over set
partitions of the inputs, and composing the two in either order gives the
identity.  Degree zero pins each entry to one output index, so a morphism
stores one coefficient per multiset of inputs.
"""

import json

from ellsuper import AspectRatio, compose, ellipsoid_morphism, invert

a = AspectRatio.parse("3/2")
eps = ellipsoid_morphism(a, max_index=8, max_arity=3)
eta = invert(eps)

print(f"arity-1 tables for a = {a}:")
for k in range(1, 6):
    print(f"  eps(o_{k}) = {eps.entry((k,))} q_{k}    eta(q_{k}) = {eta.entry((k,))} o_{k}")

print()
print("a few higher-arity entries of the inverse, each on the index sum(key) + len(key) - 1:")
for key in [(2, 2), (2, 5), (2, 2, 2)]:
    print(f"  eta{key} = {eta.entry(key)} o_{sum(key) + len(key) - 1}")

print()
print("round trip: both composites act as the identity,")
back = compose(eta, eps)
forth = compose(eps, eta)
for key in [(3,), (2, 2), (1, 2, 3)]:
    print(f"  (eta o eps){key} = {back.entry(key)}    (eps o eta){key} = {forth.entry(key)}")

print()
print("materialized tables are dumpable as JSON, one coefficient per input multiset:")
print(json.dumps(eps.dump(), indent=2)[:400], "...")

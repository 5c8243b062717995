"""Inverting an evenly graded L-infinity morphism by the signed tree sum.

The ellipsoid morphism has arity-k entries 1/(G_{i_1}+...+G_{i_k})! landing
on the index i_1+...+i_k+k-1; its inverse is the sum over rooted trees with
ordered leaves, evaluated grouped at the root as a recursion over set
partitions of the inputs, and composing the two in either order gives the
identity.
"""

import json

from ellsuper import AspectRatio, compose, ellipsoid_morphism, invert

a = AspectRatio.parse("3/2")
eps = ellipsoid_morphism(a, max_index=8, max_arity=3)
eta = invert(eps)

print(f"arity-1 tables for a = {a} (index: coefficient):")
for k in range(1, 6):
    fwd = eps.entry((k,))
    back = eta.entry((k,))
    print(f"  eps(o_{k}) = {dict(fwd)}    eta(q_{k}) = {dict(back)}")

print()
print("a few higher-arity entries of the inverse:")
for key in [(2, 2), (2, 5), (2, 2, 2)]:
    print(f"  eta{key} = {eta.entry(key)}")

print()
print("round trip: both composites act as the identity,")
back = compose(eta, eps)
forth = compose(eps, eta)
for key in [(3,), (2, 2), (1, 2, 3)]:
    print(f"  (eta o eps){key} = {back.entry(key)}    (eps o eta){key} = {forth.entry(key)}")

print()
print("materialized tables are dumpable as JSON:")
print(json.dumps(eps.dump(), indent=2)[:400], "...")

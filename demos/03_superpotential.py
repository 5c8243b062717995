"""The superpotential by three mutually validating pipelines.

The recursion over degree splits, the closed sum over rooted trees, and the
morphism-inversion oracle all produce the same exact rationals.
"""

from ellsuper import (
    AspectRatio,
    cross_validate,
    linf_superpotential,
    ordered_count,
    recursion_wtT,
    superpotential,
    tree_wtT,
)

INF = AspectRatio.infinite()

print("wtT and T at the infinite ratio:")
print("  d :      wtT        T   (recursion == tree == inversion)")
for d in range(1, 7):
    wt = tree_wtT(d, INF)
    assert wt == recursion_wtT(d, INF) == linf_superpotential(d, INF)
    res = superpotential(d, INF)
    print(f"  {d} : {str(wt):>8} {str(res.T):>8}")

print()
print("T at the infinite ratio vs the number of ordered-leaf tree classes:")
for d in range(1, 7):
    t_val = superpotential(d, INF).T
    oc = ordered_count(d)
    marker = "==" if t_val == oc else "< "
    print(f"  d={d}: T = {str(t_val):>5}  {marker}  {oc} ordered classes")
print("  (the coincidence holds through d = 4 and breaks from d = 5 on)")

print()
print("a full cross-validation report (d = 3, a = 13/2 + delta):")
report = cross_validate(3, AspectRatio.parse("13/2"))
for name in report["methods"]:
    print(f"  {name:<20} wtT = {report['wtT']:>4}")
print(f"  T = wtT / mult = {report['wtT']}/{report['mult']} = {report['T']}")

print()
print(f"d = 8 by the tree sum: wtT = {tree_wtT(8, INF)}")

"""Staircase lattice paths of an aspect ratio.

For a > 0 the path point at index k is the pair (i, j) with i + j = k
minimizing max(i, a*j); rational a always means a + delta for an
infinitesimal delta > 0, and the infinite ratio pushes all mass onto the
first coordinate.
"""

from ellsuper import AspectRatio, gamma_path, gamma_point, mult

for text in ("3/2", "2", "5/2", "5", "inf"):
    a = AspectRatio.parse(text)
    path = gamma_path(a, 8)
    print(f"a = {str(a):<10} path:", " ".join(f"({i},{j})" for i, j in path))

print()
print("The multiplicity of a path point picks the coordinate achieving the max:")
a = AspectRatio.parse("3/2")
for k in (2, 5, 7):
    pt = gamma_point(a, k)
    print(f"  mult_{a}{pt} = {mult(a, pt)}")


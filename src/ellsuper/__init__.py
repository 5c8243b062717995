"""Exact superpotential counts for the projective plane.

The package computes the ellipsoidal superpotential T(d, a), an exact
rational count attached to a degree d >= 1 and an ellipsoid aspect ratio
a > 0, together with its supporting combinatorics: staircase lattice paths,
rooted trees with unordered leaves and no bivalent vertices, and a generic
engine for evenly graded L-infinity morphisms.  Three independent pipelines
(a recursion over degree splits, a closed sum over trees, and morphism
inversion) produce the same values and cross-validate each other.
"""

from .lattice import (
    AmbiguityError,
    AspectRatio,
    AspectVector,
    gamma_path,
    gamma_point,
    gamma_point_vec,
    mult,
    pair_factorial,
    point_add,
    point_scale,
)
from .linf import (
    BasedSpace,
    LinfError,
    LinfMorphism,
    compose,
    descendant_space,
    ellipsoid_morphism,
    ellipsoid_space,
    identity_morphism,
    invert,
    linf_superpotential,
)
from .numerics import ExactRational, binomial, compositions, factorial, partitions
from .pipelines import (
    DEFAULT_LINF_BOUND,
    MethodDisagreement,
    SuperpotentialResult,
    cross_validate,
    integrality_scan,
    path_signature,
    recursion_wtT,
    scan_breakpoints,
    scan_monotonicity,
    superpotential,
    tree_wtT,
)
from .trees import (
    LEAF,
    Tree,
    VertexInfo,
    enumerate_ordered_trees,
    enumerate_trees,
    ordered_count,
    ordered_internal_count,
    ordered_leaves,
    set_partitions,
    vertex_data,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "AspectRatio",
    "AspectVector",
    "BasedSpace",
    "DEFAULT_LINF_BOUND",
    "ExactRational",
    "LEAF",
    "LinfError",
    "LinfMorphism",
    "MethodDisagreement",
    "SuperpotentialResult",
    "Tree",
    "VertexInfo",
    "binomial",
    "compose",
    "compositions",
    "cross_validate",
    "descendant_space",
    "ellipsoid_morphism",
    "ellipsoid_space",
    "enumerate_ordered_trees",
    "enumerate_trees",
    "factorial",
    "gamma_path",
    "gamma_point",
    "gamma_point_vec",
    "identity_morphism",
    "integrality_scan",
    "invert",
    "linf_superpotential",
    "mult",
    "ordered_count",
    "ordered_internal_count",
    "ordered_leaves",
    "pair_factorial",
    "partitions",
    "path_signature",
    "point_add",
    "point_scale",
    "recursion_wtT",
    "scan_breakpoints",
    "scan_monotonicity",
    "set_partitions",
    "superpotential",
    "tree_wtT",
    "vertex_data",
]

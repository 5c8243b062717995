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
    AspectRatio,
    gamma_path,
    gamma_point,
    mult,
    pair_factorial,
    point_add,
)
from .numerics import compositions, factorial, partitions, set_partitions
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

# The L-infinity engine and the tree enumerator are imported on first use
# (PEP 562), so that a job which never runs them does not load them.
_LAZY = {
    "linf": ("BasedSpace", "LinfError", "LinfMorphism", "compose", "descendant_space",
             "ellipsoid_morphism", "ellipsoid_space", "identity_morphism", "invert",
             "linf_superpotential"),
    "trees": ("LEAF", "Tree", "VertexInfo", "enumerate_ordered_trees", "enumerate_trees",
              "ordered_count", "ordered_internal_count", "ordered_leaves", "vertex_data"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})

__version__ = "0.1.0"

__all__ = [
    "AspectRatio",
    "BasedSpace",
    "DEFAULT_LINF_BOUND",
    "LEAF",
    "LinfError",
    "LinfMorphism",
    "MethodDisagreement",
    "SuperpotentialResult",
    "Tree",
    "VertexInfo",
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
    "recursion_wtT",
    "scan_breakpoints",
    "scan_monotonicity",
    "set_partitions",
    "superpotential",
    "tree_wtT",
    "vertex_data",
]

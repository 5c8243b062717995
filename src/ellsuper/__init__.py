"""Exact superpotential counts for the projective plane.

The package computes the ellipsoidal superpotential T(d, a), an exact
rational count attached to a degree d >= 1 and an ellipsoid aspect ratio
a > 0, together with its supporting combinatorics: staircase lattice paths,
rooted trees with unordered leaves and no bivalent vertices, and a generic
engine for evenly graded L-infinity morphisms.  Three pipelines
(a recursion over degree splits, a closed sum over trees, and morphism
inversion) produce the same values and cross-validate each other.
"""

# Every public name, by the module it is read from.  Each is imported on first
# use (PEP 562), so `import ellsuper` loads no submodule and a job loads only
# the modules it runs.  `factorial` (math.factorial itself) and `compositions`
# stay public only because the benchmark's trace resolves them by name.
_PUBLIC = {
    "lattice": ("AspectRatio", "gamma_path", "gamma_point", "mult", "pair_factorial", "point_add"),
    "pipelines": ("DEFAULT_LINF_BOUND", "MethodDisagreement", "SuperpotentialResult",
                  "path_signature", "recursion_wtT", "superpotential", "tree_wtT"),
    "sweeps": ("cross_validate", "integrality_scan", "scan_breakpoints", "scan_monotonicity"),
    "linf": ("BasedSpace", "LinfError", "LinfMorphism", "compose", "descendant_space",
             "ellipsoid_morphism", "ellipsoid_space", "identity_morphism", "invert",
             "linf_superpotential"),
    "trees": ("LEAF", "Tree", "VertexInfo", "compositions", "enumerate_ordered_trees",
              "enumerate_trees", "factorial", "ordered_count", "ordered_internal_count",
              "ordered_leaves", "partitions", "set_partitions", "vertex_data"),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _PUBLIC.values() for name in names)


def __getattr__(name: str):
    from importlib import import_module

    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    for module, names in _PUBLIC.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *__all__})

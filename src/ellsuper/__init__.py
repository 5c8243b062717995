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
    "lattice": ("AspectRatio", "gamma_path", "gamma_point", "mult", "path_signature"),
    "engine": ("DEFAULT_LINF_BOUND", "MethodDisagreement"),
    "pipelines": ("SuperpotentialResult", "cross_validate", "linf_superpotential", "recursion_wtT",
                  "scan_breakpoints", "superpotential", "tree_wtT"),
    "sweeps": ("integrality_scan", "scan_monotonicity"),
    "linf": ("LinfError", "LinfMorphism"),
    "morphisms": ("compose", "ellipsoid_morphism", "invert", "pair_factorial", "point_add"),
    "trees": ("LEAF", "Tree", "VertexInfo", "compositions", "enumerate_ordered_trees",
              "enumerate_trees", "factorial", "ordered_count", "partitions", "set_partitions",
              "vertex_data"),
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

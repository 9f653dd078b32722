"""Interval-indexed homology of filtered sets, with mechanical verification.

The package computes homology groups of finite filtered sets and relative
pairs over any closed interval of filtration values, with exact prime-field
(or rational) coefficients, builds the induced and connecting maps and the
standard exact sequences, and cross-checks everything through three
independent computation paths: the direct definition, a skeleton-based chain
theory, and persistent cohomology by column reduction.

Every public name below is loaded from its submodule on first use (PEP 562),
so a command imports only the modules it reaches.
"""

import importlib
import sys
import types

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "filtration": (
            "EMPTY_SET", "INF", "FiltrationError", "FiltValue", "FilteredSet", "Interval",
            "MissingFace", "MonotonicityViolation", "NotFiltrationPreserving",
            "PreservingMap", "RelativeFilteredPair", "SubNotMappedIntoSub", "UnknownVertex",
            "closed_star", "complex_at", "compose", "critical_intervals", "critical_values",
            "cylinder", "fin", "identity_map", "inclusion", "intersection",
            "is_star_shaped", "pair_of", "point", "simplex", "skeleton",
            "standard_boundary", "standard_simplex", "union", "OracleMismatch",
        ),
        "fields": ("GF", "GF2", "GF3", "QQ"),
        "linalg": (
            "DimensionMismatch", "Matrix", "Subspace", "SubspaceNotContained",
            "boundary_matrix", "chain_map_matrix", "chain_space", "image", "kernel", "preimage",
        ),
        "homology": (
            "BettiGrid", "ClassNotInTarget", "DirectSumGroup", "HomologyGroup", "LinearMap",
            "NotRepresentableAtLowerEndpoint", "VertexNotPresent", "betti_grid",
            "coefficient_group", "connecting", "h0_decomposition", "homology",
            "induced_map", "point_class", "reduced_homology", "zero_group",
        ),
        "barcode": ("Bar", "bars_alive", "barcode", "pair_barcode", "reduced_barcode"),
        "sequences": (
            "ExactSequence", "ExactnessReport", "HypothesisViolated", "NotARetraction",
            "are_contiguous", "are_contiguously_equivalent", "check_exact",
            "deformation_retract_check", "direct_sum_check", "is_homologically_trivial",
            "is_proper_triad", "les_pair", "les_triple", "mayer_vietoris", "reduced_les_pair",
            "triad_sequence",
        ),
        "skeletal": (
            "SkeletalChainGroup", "SkeletalHomology", "direct_to_skeletal", "generator",
            "incidence_iso", "skeletal_boundary", "skeletal_chain_group", "skeletal_homology",
            "skeletal_pair",
        ),
        "axioms": ("AxiomReport", "MalformedInstance", "verify_axiom"),
        "fuzz": ("fuzz_axiom_reports",),
    }.items()
    for name in names
}
_SUBMODULES = ("axioms", "barcode", "cli", "fields", "filtration", "formats", "fuzz",
               "homology", "linalg", "sequences", "skeletal")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


class _Package(types.ModuleType):
    """The package module, whose exports win over same-named submodules.

    ``homology`` and ``barcode`` are functions and submodules at once.  The
    import system binds a submodule on its package once it is loaded; here
    that binding keeps the function the submodule defines under that name.
    """

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})

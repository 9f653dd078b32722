"""Interval-indexed homology of filtered sets, with mechanical verification.

The package computes homology groups of finite filtered sets and relative
pairs over any closed interval of filtration values, with exact prime-field
(or rational) coefficients, builds the induced and connecting maps and the
standard exact sequences, and cross-checks everything through three
independent computation paths: the direct definition, a skeleton-based chain
theory, and persistent cohomology by column reduction.
"""

from .filtration import (
    EMPTY_SET,
    INF,
    FiltrationError,
    FiltValue,
    FilteredSet,
    Interval,
    MissingFace,
    MonotonicityViolation,
    NotFiltrationPreserving,
    PreservingMap,
    RelativeFilteredPair,
    SubNotMappedIntoSub,
    UnknownVertex,
    closed_star,
    complex_at,
    compose,
    critical_intervals,
    critical_values,
    cylinder,
    fin,
    identity_map,
    inclusion,
    intersection,
    is_star_shaped,
    pair_of,
    point,
    simplex,
    skeleton,
    standard_boundary,
    standard_simplex,
    union,
)
from .linalg import (
    GF,
    GF2,
    GF3,
    QQ,
    DimensionMismatch,
    Matrix,
    Subspace,
    SubspaceNotContained,
    boundary_matrix,
    chain_map_matrix,
    chain_space,
    image,
    kernel,
    preimage,
)
from .homology import (
    BettiGrid,
    ClassNotInTarget,
    DirectSumGroup,
    HomologyGroup,
    LinearMap,
    NotRepresentableAtLowerEndpoint,
    VertexNotPresent,
    betti_grid,
    coefficient_group,
    connecting,
    h0_decomposition,
    homology,
    induced_map,
    point_class,
    reduced_homology,
    zero_group,
)
from .barcode import Bar, bars_alive, barcode, pair_barcode, reduced_barcode
from .sequences import (
    ExactSequence,
    ExactnessReport,
    HypothesisViolated,
    NotARetraction,
    NotProperTriad,
    are_contiguous,
    are_contiguously_equivalent,
    check_exact,
    deformation_retract_check,
    direct_sum_check,
    is_homologically_trivial,
    is_proper_triad,
    les_pair,
    les_triple,
    mayer_vietoris,
    reduced_les_pair,
    triad_sequence,
)
from .skeletal import (
    OracleMismatch,
    SkeletalChainGroup,
    SkeletalHomology,
    direct_to_skeletal,
    generator,
    incidence_iso,
    skeletal_boundary,
    skeletal_chain_group,
    skeletal_homology,
    skeletal_pair,
)
from .axioms import AxiomReport, MalformedInstance, fuzz_axiom_reports, verify_axiom

__version__ = "0.1.0"

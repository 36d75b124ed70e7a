"""Grading-preserving orthonormalization of vector systems.

Orthonormalizes a graded family of linearly independent vectors level
by level: each level is projected against all finished lower levels and
then normalized symmetrically via the inverse square root of its
projected Gram block, so the grading survives.  Singleton levels
reproduce classical Gram-Schmidt; a single level reproduces the Gram
(Loewdin) method.  A signed variant handles nondegenerate indefinite
metrics, including promotion of lone isotropic vectors into the next
level.  Gram matrices come from explicit input, weighted Fourier bases
on the circle, or multivariate monomial bases on boxes.
"""

from ._version import __version__
from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    GradedOrthoError,
    InsufficientGrid,
    LevelNotReady,
    LinearlyDependentInput,
    NoConvergence,
    NonPositiveWeight,
    NonSquare,
    NotHermitian,
    QuadratureOrderTooLow,
    SchemaError,
    ShapeMismatch,
    TerminalIsotropicVector,
)
from .grading import GradedIndex
from .gram import (
    GramSource,
    MonomialBasisSpec,
    WeightFunction,
    build_explicit,
    fourier_gram,
    monomial_gram,
    monomial_index,
)
from .ortho import (
    CoefficientTable,
    VerificationReport,
    gram_method_reference,
    gram_schmidt_reference,
    is_lone_isotropic,
    level_normalizer,
    orthonormalize_graded,
    verify_table,
)
from .pseudo import pseudo_orthonormalize_graded
from .spectral import (
    DEFAULT_DEGENERACY_TOL,
    EigenDecomposition,
    eigh,
    hermitize,
)

__all__ = [
    "__version__",
    "DEFAULT_DEGENERACY_TOL",
    "CoefficientTable",
    "DegenerateMetric",
    "DimensionMismatch",
    "EigenDecomposition",
    "GradedIndex",
    "GradedOrthoError",
    "GramSource",
    "InsufficientGrid",
    "LevelNotReady",
    "LinearlyDependentInput",
    "MonomialBasisSpec",
    "NoConvergence",
    "NonPositiveWeight",
    "NonSquare",
    "NotHermitian",
    "QuadratureOrderTooLow",
    "SchemaError",
    "ShapeMismatch",
    "TerminalIsotropicVector",
    "VerificationReport",
    "WeightFunction",
    "build_explicit",
    "eigh",
    "fourier_gram",
    "gram_method_reference",
    "gram_schmidt_reference",
    "hermitize",
    "is_lone_isotropic",
    "level_normalizer",
    "monomial_gram",
    "monomial_index",
    "orthonormalize_graded",
    "pseudo_orthonormalize_graded",
    "verify_table",
]

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
    GradedOrthoError,
    LinearlyDependentInput,
    NoConvergence,
    SchemaError,
    TerminalIsotropicVector,
)
from .grading import GradedIndex
from .gram import GramSource, fourier_gram, monomial_gram
from .ortho import (
    DEFAULT_DEGENERACY_TOL,
    CoefficientTable,
    VerificationReport,
    gram_method_reference,
    gram_schmidt_reference,
    orthonormalize_graded,
    verify_table,
)
from .pseudo import pseudo_orthonormalize_graded

__all__ = [
    "__version__",
    "DEFAULT_DEGENERACY_TOL",
    "CoefficientTable",
    "DegenerateMetric",
    "GradedIndex",
    "GradedOrthoError",
    "GramSource",
    "LinearlyDependentInput",
    "NoConvergence",
    "SchemaError",
    "TerminalIsotropicVector",
    "VerificationReport",
    "fourier_gram",
    "gram_method_reference",
    "gram_schmidt_reference",
    "monomial_gram",
    "orthonormalize_graded",
    "pseudo_orthonormalize_graded",
    "verify_table",
]

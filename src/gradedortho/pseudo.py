"""Graded pseudo-orthonormalization for nondegenerate indefinite metrics.

The signed run of the graded level loop in :mod:`gradedortho.ortho`,
plus the demonstration of why Gram-Schmidt fails on an isotropic vector.
Projection against finished levels carries each finished vector's sign
(pseudo-norm +1 or -1), the per-level normalization brings the projected
block to diag(+1.., -1..), and a lone isotropic vector is promoted into
the following level before that level is processed.  The whole run
assumes the metric is nondegenerate in the strong sense: every subsystem
with more than one element has a nondegenerate Gram matrix.
"""

from dataclasses import dataclass

from .errors import NotACounterexample
from .ortho import _orthonormalize_levels
from .spectral import DEFAULT_DEGENERACY_TOL, hermitize, max_abs


def pseudo_orthonormalize_graded(source, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Pseudo-orthonormalize a graded system, promoting isotropic strays.

    Returns a :class:`~gradedortho.ortho.CoefficientTable` with
    ``signs``, whose columns satisfy c_a† G c_b = sign(a) * delta_ab.  A
    singleton level whose vector is isotropic is merged into the next
    level (logged in ``promotions``, with the merged levels in
    ``output_index``); if no next level exists the run fails with
    TerminalIsotropicVector, and if the next level holds the same label
    with ValueError.  On a positive definite source every step
    reduces exactly to the Euclidean path and all signs come out +1.
    """
    return _orthonormalize_levels(source, degeneracy_tol, signed=True)


@dataclass(frozen=True)
class FailureTrace:
    """Record of the unsolvable projection equation against an isotropic vector.

    Orthogonalizing the second vector against the first asks for alpha
    with coefficient * alpha = right_side; an isotropic first vector
    makes the coefficient zero while the right side stays nonzero.
    """

    coefficient: complex
    right_side: complex
    solvable: bool
    detail: str


def gram_schmidt_isotropic_obstruction(gram, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Demonstrate why sequential projection dies on an isotropic leader.

    Expects a 2x2 indefinite Gram matrix whose first vector is isotropic
    and not orthogonal to the second; returns the trace of the
    unsolvable equation.  Anything else raises NotACounterexample.
    """
    gram, _ = hermitize(gram)
    if gram.shape != (2, 2):
        raise NotACounterexample(
            f"the demonstration needs a 2x2 Gram matrix, got {gram.shape}"
        )
    scale = max(max_abs(gram), 1.0)
    band = degeneracy_tol * scale
    if abs(gram[0, 0]) > band:
        raise NotACounterexample(
            f"first vector is not isotropic: squared pseudo-norm {gram[0, 0]:.6e}"
        )
    if abs(gram[0, 1]) <= band:
        raise NotACounterexample(
            "the vectors are initially orthogonal, so no projection is needed"
        )
    coefficient = complex(gram[0, 0])
    right_side = complex(-gram[1, 0])
    return FailureTrace(
        coefficient=coefficient,
        right_side=right_side,
        solvable=False,
        detail=(
            f"projection coefficient alpha must satisfy "
            f"{coefficient} * alpha = {right_side}, which has no solution"
        ),
    )

"""Dense Hermitian spectral operations.

Everything downstream (graded orthonormalization, the CLI) goes
through ``hermitize`` and ``eigh`` here.  Eigendecompositions use
LAPACK through ``numpy.linalg.eigh``; the package only fixes the order
(descending) and the phases of the eigenvectors.  Inside a degenerate
eigenspace the basis is LAPACK's: the Hermitian normalizer of a
definite level block does not depend on it, the columns
:func:`gradedortho.ortho.level_normalizer` returns for a mixed
signature do.
"""

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonSquare

DEFAULT_DEGENERACY_TOL = 1e-10
# Acceptance bound of an eigendecomposition's reconstruction residual,
# relative to dim * max|a_ij|.
EIGH_RESIDUAL_TOL = 1e-11


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order; unit eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_complex_square(a, who):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"{who} requires a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{who}: matrix contains non-finite entries")
    return a


def hermitize(a):
    """Symmetrize to (a + a†)/2 with a real diagonal.

    Returns the Hermitian matrix together with the largest entrywise
    adjustment that was applied, so callers can reject inputs that were
    not Hermitian to begin with.
    """
    a = _as_complex_square(a, "hermitize")
    h = _hermitian_part(a)
    adjustment = float(np.max(np.abs(h - a))) if a.size else 0.0
    return h, adjustment


def _hermitian_part(a):
    # Halving first keeps entries near the float maximum from
    # overflowing the sum; halving a normal float is exact, so outside
    # the subnormal range every entry rounds as (a + a†)/2 would.
    # Idempotent there: on an exactly Hermitian matrix every such entry
    # comes back bit for bit, so symmetrizing twice changes nothing.
    h = 0.5 * a + 0.5 * a.conj().T
    h.flat[:: h.shape[0] + 1] = h.diagonal().real
    return h


def max_abs(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def eigh(a):
    """Full eigendecomposition of a Hermitian matrix (LAPACK via numpy).

    Parameters
    ----------
    a : array_like
        Hermitian matrix (symmetrized defensively).

    Returns
    -------
    EigenDecomposition
        Real eigenvalues in descending order and a unitary eigenvector
        matrix with a fixed phase convention (the largest-magnitude
        component of each column is real positive).

    Raises
    ------
    NoConvergence
        When LAPACK fails to converge or the reconstruction residual
        exceeds ``EIGH_RESIDUAL_TOL``.
    """
    h = _hermitian_part(_as_complex_square(a, "eigh"))
    n = h.shape[0]
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"eigendecomposition failed: {err}") from err
    values = values[::-1]
    vectors = vectors[:, ::-1]
    if n:
        vectors = vectors * _phase_fixes(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    # An eigenvalue that overflowed inside LAPACK makes the residual NaN,
    # which must fail the bound rather than slip past a ``>`` test.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = max_abs((vectors * values) @ vectors.conj().T - h)
    if not residual <= EIGH_RESIDUAL_TOL * max(n, 1) * max(max_abs(h), np.finfo(float).tiny):
        raise NoConvergence(
            f"eigendecomposition residual {residual:.3e} exceeds requested"
            f" tolerance"
        )
    return EigenDecomposition(values=values, vectors=vectors)


def _phase_fixes(vectors):
    """Per column of a matrix with at least one row, the unit factor that
    makes its largest-magnitude entry (the first one, on a tie) real
    positive; 1 for a zero column."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    mags = np.abs(pivots)
    fixes = np.ones_like(pivots)
    np.divide(pivots.conj(), mags, out=fixes, where=mags > 0.0)
    return fixes


def _from_eigenbasis(dec, diag_values):
    return _hermitian_part((dec.vectors * diag_values) @ dec.vectors.conj().T)

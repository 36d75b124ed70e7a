"""Dense Hermitian spectral operations.

:class:`gradedortho.gram.GramSource` symmetrizes every Gram matrix
through ``_hermitian_part``, and ``level_normalizer`` the normalizer of
a definite block; the one caller of ``eigh`` is
:func:`gradedortho.ortho.level_normalizer`, which normalizes every level
block and the Gram method's full Gram matrix, each scaled as ``eigh``
requires, one block or an (..., n, n) stack of them per call.
``_hermitian_part`` and ``eigh`` work block by block on a stack and
give each block the bits of its own 2-D call.  The CLI uses
``max_abs`` alone.  The one tolerance here is ``EIGH_RESIDUAL_TOL``;
the refusal band's ``DEFAULT_DEGENERACY_TOL`` lives in
:mod:`gradedortho.ortho`, which reads it.  Eigendecompositions use
LAPACK through ``numpy.linalg.eigh``; the package only fixes the order
(descending) and the phases of the eigenvectors.  Inside a degenerate
eigenspace the basis is LAPACK's: the Hermitian normalizer of a
definite level block does not depend on it, the columns
:func:`gradedortho.ortho.level_normalizer` returns for a mixed
signature do.
"""

import numpy as np

from .errors import NoConvergence

# Acceptance bound of an eigendecomposition's reconstruction residual,
# relative to dim * max|a_ij|.
EIGH_RESIDUAL_TOL = 1e-11


def _hermitian_part(a):
    # Of an (..., n, n) stack, block by block.  Halving first keeps
    # entries near the float maximum from overflowing the sum; halving a
    # normal float is exact, so outside the subnormal range every entry
    # rounds as (a + a†)/2 would.  Idempotent there: on an exactly
    # Hermitian matrix every such entry comes back bit for bit, so
    # symmetrizing twice changes nothing.
    h = 0.5 * a + 0.5 * a.swapaxes(-1, -2).conj()
    diagonal = np.arange(h.shape[-1])
    h[..., diagonal, diagonal] = h[..., diagonal, diagonal].real
    return h


def max_abs(a):
    """max|a_ij| of a non-empty array, as a float."""
    return float(np.max(np.abs(a)))


def eigh(a):
    """Full eigendecomposition of each Hermitian matrix of a stack (LAPACK via numpy).

    Parameters
    ----------
    a : array_like
        An (..., n, n) stack of non-empty, finite matrices, each
        Hermitian up to rounding (symmetrized here) and with max|a_ij| 0
        or in [1/2, 2): no eigenvalue overflows.  A real stack is
        decomposed in real arithmetic; each block gets the bits its own
        2-D call gives.

    Returns
    -------
    values, vectors : ndarray
        Per block, real eigenvalues in descending order and an
        eigenvector matrix of a's dtype with a fixed phase convention:
        unitary, with the largest-magnitude component of each column real
        positive, or for a real a orthogonal, with that component positive.

    Raises
    ------
    NoConvergence
        When LAPACK fails to converge or a block's reconstruction
        residual exceeds ``EIGH_RESIDUAL_TOL`` (a NaN residual fails too);
        the message gives the residual of the first such block.
    """
    h = _hermitian_part(np.asarray(a))
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"eigendecomposition failed: {err}") from err
    values, vectors = values[..., ::-1], vectors[..., ::-1]
    vectors = vectors * _phase_fixes(vectors)
    recon = (vectors * values[..., None, :]) @ vectors.swapaxes(-1, -2).conj()
    residual = np.abs(recon - h).max(axis=(-2, -1))
    failed = ~(residual <= EIGH_RESIDUAL_TOL * h.shape[-1] * np.abs(h).max(axis=(-2, -1)))
    if failed.any():
        raise NoConvergence(
            f"eigendecomposition residual {residual.flat[failed.argmax()]:.3e} exceeds requested"
            f" tolerance"
        )
    return values, vectors


def _phase_fixes(vectors):
    """Per column of each unitary matrix of a stack, the unit factor that
    makes its largest-magnitude entry (the first one, on a tie) real
    positive: a sign when the matrix is real.  Shape (..., 1, n)."""
    rows = np.abs(vectors).argmax(axis=-2)[..., None, :]
    pivots = np.take_along_axis(vectors, rows, axis=-2)
    return pivots.conj() / np.abs(pivots)

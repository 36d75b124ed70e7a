"""Dense Hermitian spectral operations.

Everything downstream (graded orthonormalization, signature handling,
the CLI) goes through the five functions here: ``hermitize``, ``eigh``,
``inv_sqrt``, ``signature_split`` and ``pseudo_normalizer``.
Eigendecompositions use LAPACK through ``numpy.linalg.eigh``; the
package only fixes the order (descending) and the phases of the
eigenvectors.  Inside a degenerate eigenspace the basis is LAPACK's:
``inv_sqrt`` does not depend on it, the columns ``pseudo_normalizer``
returns for a mixed signature do.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateMetric,
    NoConvergence,
    NonSquare,
    NotPositiveDefinite,
)

DEFAULT_DEGENERACY_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order; unit eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self):
        return self.values.shape[0]


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
    # Idempotent: on an exactly Hermitian matrix every entry comes back
    # bit for bit, so symmetrizing twice costs time but changes nothing.
    h = 0.5 * (a + a.conj().T)
    h.flat[:: h.shape[0] + 1] = h.diagonal().real
    return h


def max_abs(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def eigh(a, tol=1e-11):
    """Full eigendecomposition of a Hermitian matrix (LAPACK via numpy).

    Parameters
    ----------
    a : array_like
        Hermitian matrix (symmetrized defensively).
    tol : float
        Acceptance bound for the reconstruction residual, relative to
        dim * max|a_ij|.

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
        exceeds the tolerance.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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
    decomposition = EigenDecomposition(values=values, vectors=vectors)
    residual = max_abs(_reconstruct(decomposition) - h)
    if residual > tol * max(n, 1) * max(max_abs(h), np.finfo(float).tiny):
        raise NoConvergence(
            f"eigendecomposition residual {residual:.3e} exceeds requested"
            f" tolerance"
        )
    return decomposition


def _reconstruct(dec):
    return (dec.vectors * dec.values) @ dec.vectors.conj().T


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


def inv_sqrt(a, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Principal inverse square root of a Hermitian positive definite matrix.

    Raises NotPositiveDefinite when any eigenvalue falls at or below
    degeneracy_tol times the largest one, which is how numerically
    dependent input vectors announce themselves.
    """
    dec = eigh(a)
    return _inv_sqrt_from(dec, degeneracy_tol)


def _inv_sqrt_from(dec, degeneracy_tol):
    if dec.dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    w_max = float(dec.values[0])
    w_min = float(dec.values[-1])
    threshold = degeneracy_tol * w_max
    if w_max <= 0.0 or w_min <= threshold:
        raise NotPositiveDefinite(
            f"matrix is not positive definite: min eigenvalue {w_min:.6e}, "
            f"max {w_max:.6e}, cutoff {threshold:.6e}",
            min_eigenvalue=w_min,
            max_eigenvalue=w_max,
            threshold=threshold,
        )
    return _from_eigenbasis(dec, 1.0 / np.sqrt(dec.values))


def signature_split(a, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Count positive and negative eigenvalues of a nondegenerate Hermitian matrix.

    Returns (p, q, decomposition).  An eigenvalue inside the dead band
    ±degeneracy_tol*max|λ| means the metric is degenerate and raises.
    """
    dec = eigh(a)
    if dec.dim == 0:
        return 0, 0, dec
    scale = float(np.max(np.abs(dec.values)))
    band = degeneracy_tol * scale
    if scale == 0.0:
        raise DegenerateMetric("matrix is identically zero")
    p = int(np.count_nonzero(dec.values > band))
    q = int(np.count_nonzero(dec.values < -band))
    if p + q != dec.dim:
        dead = [v for v in dec.values if -band <= v <= band]
        raise DegenerateMetric(
            f"metric is numerically degenerate: eigenvalue(s) {dead} inside "
            f"the dead band ±{band:.3e}"
        )
    return p, q, dec


def pseudo_normalizer(a, degeneracy_tol=DEFAULT_DEGENERACY_TOL):
    """Congruence transform bringing a Hermitian matrix to diag(+1..,-1..).

    Returns (r, signs) with r† a r = diag(signs), signs sorted +1 first.
    On a definite input this reduces to the (Hermitian) inverse square
    root of ±a; for mixed signatures the columns are eigenvectors scaled
    by |eigenvalue|^(-1/2), positives first, each block ordered by
    descending magnitude.
    """
    p, q, dec = signature_split(a, degeneracy_tol)
    if q == 0:
        return _inv_sqrt_from(dec, degeneracy_tol), np.ones(p, dtype=np.int64)
    if p == 0:
        r = _from_eigenbasis(dec, 1.0 / np.sqrt(-dec.values))
        return r, -np.ones(q, dtype=np.int64)
    # dec.values is descending, so positives already lead; flip the
    # negative block to get descending |eigenvalue| there as well.
    neg_order = np.arange(p, p + q)[::-1]
    order = np.concatenate([np.arange(p), neg_order])
    columns = dec.vectors[:, order]
    scales = 1.0 / np.sqrt(np.abs(dec.values[order]))
    r = columns * scales
    signs = np.concatenate(
        [np.ones(p, dtype=np.int64), -np.ones(q, dtype=np.int64)]
    )
    return r, signs

"""Reference computations the tests check the package against.

The level loop forms every level in one pass over the finished
coefficient matrix; the per-pair helpers recompute the same quantities
one lower level at a time, straight from the Gram matrix and the
finished blocks.  :func:`tensor_legendre_table` is the closed-form
answer for monomials under the uniform weight on a box, and
:func:`graded_table_mp` the graded table of any Euclidean Gram matrix,
worked out in 40-digit arithmetic, and :func:`signed_table_mp` the
level invariants of a signed table from a 40-digit block LDL† of G.
:func:`monomial_gram_by_nodes`
assembles the monomial Gram matrix node by node, a second construction
that ``monomial_gram``'s outer products of 1-D powers match bitwise,
from the basis values at the nodes that :func:`monomial_nodes` (and
:func:`fourier_nodes` for the Fourier basis) gives the tests of the
three-term relation.
:func:`matrix_by_entries` reads a JSON matrix one entry at a time, the
reader ``parse_matrix``'s one conversion matches bit for bit and
message for message.
:func:`refused_by_ratio_rule` keeps the refusal rule ``level_normalizer``
had before its one band, which refuses every block it refused.
:func:`gram_schmidt_isotropic_obstruction` shows why the signed loop
promotes a lone isotropic vector instead of projecting against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from gradedortho import DEFAULT_DEGENERACY_TOL, GradedOrthoError
from gradedortho.errors import SchemaError
from gradedortho.gram import GramSource, _gauss_legendre, monomial_index
from gradedortho.spectral import eigh, max_abs

from conftest import hermitian


def level_slice(index, k):
    """Flat slice occupied by input level k of a graded index."""
    return slice(index.ends[k] - index.sizes[k], index.ends[k])


def cross_overlap(source, table, k, j):
    """Overlaps between finished level-j vectors and raw level-k vectors.

    Entry (beta, gamma) is the inner product of finished vector beta of
    level j with raw basis vector gamma of level k, computed entirely
    from the Gram matrix and the coefficient table's level j.
    """
    if j >= k:
        raise ValueError(f"level {j} is not below level {k}")
    cols = level_slice(source.index, k)
    return table.blocks[j].conj().T @ source.matrix[:, cols]


def residual_gram(gamma_k, corrections):
    """Level Gram block minus the finished-level projection corrections."""
    b = np.array(gamma_k, dtype=np.complex128)
    for delta in corrections:
        if delta.shape != b.shape:
            raise ValueError(
                f"correction shape {delta.shape} does not match block {b.shape}"
            )
        b = b - delta
    return hermitian(b)


def mixing_block(overlap, normalizer):
    """Lower-level mixing coefficients induced by an overlap block."""
    if overlap.shape[1] != normalizer.shape[0]:
        raise ValueError(
            f"overlap shape {overlap.shape} does not conform with "
            f"normalizer shape {normalizer.shape}"
        )
    return -overlap @ normalizer


def residual_gram_direct(source, table, k):
    """Brute-force Gram matrix of the projected level-k vectors.

    Forms each projected vector explicitly in coefficient space (raw
    vector minus its expansion over all finished vectors) and contracts
    the full Gram matrix; serves as the independent oracle for
    :func:`residual_gram`.  Only the table's levels below k are read.
    """
    gram = source.matrix
    index = source.index
    cols = level_slice(index, k)
    h = np.zeros((index.total, index.sizes[k]), dtype=np.complex128)
    h[cols, :] = np.eye(index.sizes[k])
    for j in range(k):
        finished = table.blocks[j]
        coeffs = finished.conj().T @ (gram[:, cols])
        h = h - finished @ coeffs
    return hermitian(h.conj().T @ gram @ h)


def legendre_1d(max_degree, lo, hi):
    """Row k: the coefficients over 1, x, .., x^max_degree of the
    orthonormal Legendre polynomial of degree k on [lo, hi], uniform weight.

    Three-term recurrence (k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1} in
    t = (2x - lo - hi) / (hi - lo), which maps [lo, hi] onto [-1, 1];
    P_k has norm sqrt((hi - lo) / (2k + 1)) there.
    """
    t = np.zeros(max_degree + 2)
    t[:2] = -(lo + hi) / (hi - lo), 2.0 / (hi - lo)
    polys = np.zeros((max_degree + 1, max_degree + 2))
    polys[0, 0] = 1.0
    for k in range(max_degree):
        # t * P_k, as coefficient rows: the constant of t, then x times its slope
        t_pk = t[0] * polys[k]
        t_pk[1:] += t[1] * polys[k, :-1]
        previous = polys[k - 1] if k else 0.0
        polys[k + 1] = ((2 * k + 1) * t_pk - k * previous) / (k + 1)
    norms = np.sqrt((2 * np.arange(max_degree + 1) + 1) / (hi - lo))
    return polys[:, :-1] * norms[:, None]


def tensor_legendre_table(dimension, max_degree, box):
    """The orthonormal coefficient matrix of the graded monomial basis on a
    box under the uniform weight: column beta is the product over axes i
    of the degree-beta_i Legendre polynomial of axis i (:func:`legendre_1d`).

    Its rows and columns follow ``monomial_index``.  Entry (alpha, beta)
    is nonzero only when alpha <= beta on every axis, so the table is
    upper triangular and each level's diagonal block is positive
    diagonal.  A block upper triangular G-orthonormal table whose
    diagonal blocks are Hermitian positive definite is unique, so this
    is both the graded output and Gram-Schmidt's for such a problem.
    """
    _, exponents = monomial_index(dimension, max_degree)
    exponents = np.array(exponents)
    table = np.ones((len(exponents), len(exponents)))
    for axis, (lo, hi) in enumerate(box):
        e = exponents[:, axis]
        table *= legendre_1d(max_degree, lo, hi)[np.ix_(e, e)]
    return table.T


def monomial_nodes(dimension, max_degree, box, weight=None, quadrature_order=None):
    """(index, points, weights, values) of ``monomial_gram``'s rule: the
    tensor nodes from ``np.meshgrid`` (``points``, one row per axis), the
    quadrature weights times the weight samples, and ``values[t]``, the
    t-th monomial at every node (the product over axes of that axis's
    coordinate to its exponent, axes of exponent 0 skipped)."""
    index, exponents = monomial_index(dimension, max_degree)
    nodes_1d, weights_1d = _gauss_legendre(quadrature_order or max_degree + 1)
    axes_nodes = []
    axes_weights = []
    for lo, hi in box:
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        axes_nodes.append(center + half * nodes_1d)
        axes_weights.append(half * weights_1d)
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=0)
    wgrids = np.meshgrid(*axes_weights, indexing="ij")
    quad_weights = np.prod(np.stack([wg.ravel() for wg in wgrids], axis=0), axis=0)
    if weight is not None:
        quad_weights = quad_weights * np.asarray(weight, dtype=np.float64)
    values = np.empty((len(exponents), points.shape[1]))
    for t, m in enumerate(exponents):
        v = np.ones(points.shape[1])
        for axis, e in enumerate(m):
            if e:
                v = v * points[axis] ** e
        values[t] = v
    return index, points, quad_weights, values


def monomial_gram_by_nodes(dimension, max_degree, box, weight=None, quadrature_order=None):
    """The monomial Gram matrix from values at every tensor node
    (:func:`monomial_nodes`), in one weighted product.  ``monomial_gram``
    must agree bitwise."""
    index, _, quad_weights, values = monomial_nodes(
        dimension, max_degree, box, weight, quadrature_order
    )
    return GramSource(index, (values * quad_weights) @ values.T)


def fourier_nodes(max_harmonic, weight):
    """(points, weights, values) of ``fourier_gram``'s periodic rectangle
    rule on the grid of the weight samples: ``values[b]`` is the b-th
    basis function e^(-i h_b x) at the nodes, in the index's harmonic
    order (0, +1, -1, +2, ...), so (conj(values) * weights) @ values.T
    is the Fourier Gram matrix."""
    samples = np.asarray(weight, dtype=np.float64)
    n = samples.size
    points = 2.0 * np.pi * np.arange(n) / n
    harmonics = [0] + [h for k in range(1, max_harmonic + 1) for h in (k, -k)]
    return points, (2.0 * np.pi / n) * samples, np.exp(-1j * np.outer(harmonics, points))


def _entry_part(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field '{where}' must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = float("inf")
    if not np.isfinite(value):
        raise SchemaError(f"field '{where}' must be finite")
    return value


def _entry_to_complex(entry, where):
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(_entry_part(entry, where), 0.0)
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_entry_part(entry[0], where), _entry_part(entry[1], where))
    raise SchemaError(f"entry at '{where}' must be a number or an [re, im] pair")


def matrix_by_entries(obj, path):
    """A JSON matrix of numbers and [re, im] pairs read entry by entry,
    each entry its own ``complex``; the errors name the first offending
    row or entry, in row-major order."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"field '{path}' must be a non-empty matrix")
    width = None
    data = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"row '{path}[{i}]' must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"row '{path}[{i}]' has inconsistent length")
        data.append([_entry_to_complex(e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return np.asarray(data, dtype=np.complex128)


def graded_table_mp(source, dps=40):
    """The graded table of a Euclidean source, exact for its float64 G
    up to the final rounding.

    In ``dps``-digit arithmetic: factor G = R†R with R upper triangular,
    take R⁻¹, and for each level the unitary polar factor U_k of R⁻¹'s
    diagonal block B (U_k = B (B†B)^(-1/2)).  C = R⁻¹·blockdiag(U_k†) is
    block upper triangular and G-orthonormal, and its diagonal blocks
    B U_k† are Hermitian positive definite, so it is the unique graded
    table (the argument of :func:`tensor_legendre_table`).
    """
    import mpmath as mp

    index = source.index
    with mp.workdps(dps):
        r_inv = mp.inverse(mp.cholesky(mp.matrix(source.matrix.tolist())).H)
        polar = mp.zeros(index.total, index.total)
        for k in range(len(index.sizes)):
            s = level_slice(index, k)
            b = r_inv[s.start:s.stop, s.start:s.stop]
            e, q = mp.eighe(b.H * b)
            inv_sqrt = q * mp.diag([1 / mp.sqrt(x) for x in e]) * q.H
            polar[s.start:s.stop, s.start:s.stop] = (b * inv_sqrt).H
        return np.array((r_inv * polar).tolist(), dtype=np.complex128)


def signed_table_mp(source, stops, degeneracy_tol=DEFAULT_DEGENERACY_TOL, dps=40):
    """The level invariants of a signed table with column ``stops``, from
    a block LDL† of G over those output levels in ``dps``-digit arithmetic.

    Returns (P, negatives, isotropic): per output level k the N x N
    matrix P_k = C_k S_k C_k† and the number of -1 signs of its columns,
    and per promoted singleton (an output level that spans two input
    levels) whether its raw or projected 1x1 value is within
    ``degeneracy_tol`` times the largest magnitude in its row of G, the
    package's band, judged at this precision.

    With M = P_0 + ... + P_(k-1), the inverse of G's leading block up to
    level k (zero elsewhere), X_k = E_k - M G E_k holds level k's raw
    vectors projected against the lower levels and D_k = X_k† G X_k is
    the block pivot of the LDL†, so P_k = X_k D_k⁻¹ X_k†: the same for
    every normalizer r with r† D_k r = S_k, whatever mixing of equal
    signs a level picks.  The signs of a level are the inertia of D_k,
    and a promoted singleton's projected value is D_k[0, 0].
    """
    import mpmath as mp

    edges = (0, *source.index.ends)
    with mp.workdps(dps):
        gram = mp.matrix(source.matrix.tolist())
        n = gram.rows
        m = mp.zeros(n, n)
        levels, negatives, isotropic = [], [], []
        for start, stop in zip((0, *stops), stops):
            e = mp.zeros(n, stop - start)
            for j in range(stop - start):
                e[start + j, j] = 1
            x = e - m * (gram * e)
            d = x.H * gram * x
            p = x * mp.inverse(d) * x.H
            m += p
            levels.append(np.array(p.tolist(), dtype=np.complex128))
            negatives.append(sum(1 for v in mp.eighe(d)[0] if v < 0))
            if edges.index(stop) - edges.index(start) > 1:
                raw = gram[start, start]
                band = degeneracy_tol * max(abs(gram[start, j]) for j in range(n))
                isotropic.append(min(abs(raw), abs(mp.re(d[0, 0]))) <= band)
        return levels, negatives, isotropic


def refused_by_ratio_rule(b, degeneracy_tol=DEFAULT_DEGENERACY_TOL, signed=False):
    """True when the earlier refusal rule of ``level_normalizer`` refuses
    the Hermitian block b, from the descending eigenvalues of b scaled as
    the package scales it (max|b| into [1/2, 2)).

    Euclidean: no positive eigenvalue, or λmin <= tol·λmax.  Signed: some
    |λ| <= tol·max|λ|.  The single band tol·max(max|Γ|, max|λ|) refuses
    every block this rule refuses.
    """
    half = math.ldexp(1.0, -(math.frexp(max_abs(b))[1] // 2))
    values = eigh(b * half * half)[0]
    if signed:
        return bool(np.any(np.abs(values) <= degeneracy_tol * max_abs(values)))
    return bool(values[0] <= 0.0 or values[-1] <= degeneracy_tol * values[0])


class NotACounterexample(GradedOrthoError):
    """The Gram matrix given to the obstruction demonstration shows no obstruction."""


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
    gram = hermitian(gram)
    if gram.shape != (2, 2):
        raise NotACounterexample(
            f"the demonstration needs a 2x2 Gram matrix, got {gram.shape}"
        )
    # the package's isotropy band: the first vector's row of G
    band = degeneracy_tol * max_abs(gram[0])
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

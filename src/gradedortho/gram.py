"""Gram matrix sources: explicit matrices, weighted Fourier bases and
multivariate monomial bases on box domains.

A :class:`GramSource` pairs a :class:`~gradedortho.grading.GradedIndex`
with the full Hermitian Gram matrix of the underlying vectors, blocks
aligned with the grading.  It is the one constructor of a Gram matrix:
an explicit matrix is passed to it as it stands, and the Fourier and
monomial builders assemble theirs eagerly and hand it over.  It checks
the shape and finiteness, refuses a matrix that is not Hermitian,
symmetrizes away roundoff and freezes the result; the orthogonalizers
never integrate anything themselves.

The builders take plain values (a weight is None for the uniform one,
or a 1-d sequence of samples) and check each where they use it, raising
ValueError for a value no Gram matrix can be built from.  Each one checks
the values that size its problem, sizes it in closed form and raises
MemoryError, before it builds anything, when the machine cannot hold it.
"""

import itertools
import math
import os
from functools import reduce

import numpy as np

from .grading import GradedIndex
from .spectral import _hermitian_part, max_abs

TWO_PI = 2.0 * math.pi

# A Gram matrix whose symmetrization moves an entry by more than this
# (relative to the largest magnitude) is rejected rather than silently
# repaired.
HERMITIZE_REJECT_FACTOR = 1e-12


def _weight_samples(values):
    """A weight sampled on a fixed grid, as a float array: a non-empty
    1-d sequence of finite, positive numbers."""
    samples = np.asarray(values, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("weight samples must be a non-empty 1-d array")
    if not np.all(np.isfinite(samples)) or np.any(samples <= 0.0):
        raise ValueError("weight samples must all be finite and positive")
    return samples


class GramSource:
    """A graded index plus the frozen Hermitian Gram matrix it induces.

    The one place a Gram matrix is checked: it must be N x N for the
    index's N elements and finite, and symmetrizing it to (G + G†)/2
    with a real diagonal may move no entry by more than
    ``HERMITIZE_REJECT_FACTOR`` times max|G_ij|, floored at the smallest
    normal float, so the bound has the units of G.  The source keeps
    that symmetrized copy, read-only: float64 when every imaginary part
    of the matrix given is exactly +0.0 or -0.0, complex128 otherwise.
    The orthogonalizers compute in that dtype, so a real problem does
    no work on imaginary parts.
    """

    def __init__(self, index, matrix):
        matrix = np.asarray(matrix)
        if np.iscomplexobj(matrix) and matrix.imag.any():
            matrix = matrix.astype(np.complex128, copy=False)
        else:
            matrix = matrix.real.astype(np.float64, copy=False)
        if matrix.shape != (index.total, index.total):
            raise ValueError(
                f"Gram matrix shape {matrix.shape} does not match the "
                f"{index.total} indexed elements"
            )
        if not np.isfinite(matrix).all():
            raise ValueError("Gram matrix has non-finite entries")
        h = _hermitian_part(matrix)
        adjustment = max_abs(h - matrix)
        scale = max_abs(matrix)
        if adjustment > HERMITIZE_REJECT_FACTOR * max(scale, np.finfo(float).tiny):
            raise ValueError(
                f"matrix is not Hermitian: symmetrization moved an entry by "
                f"{adjustment:.3e} (max magnitude {scale:.3e})"
            )
        h.setflags(write=False)
        self.index = index
        self.matrix = h


def _refuse_oversize(n, *others):
    """Raise MemoryError, naming it, when the n x n Gram matrix, counted
    as complex, or another ``(name, bytes)`` array its builder makes
    exceeds the machine's physical memory; exact integers, so sizes past
    the float range too."""
    try:
        room = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such query on this platform
        return
    for name, size in ((f"its N = {n} Gram matrix", 16 * n * n), *others):
        if size > room:
            raise MemoryError(
                f"building {name} needs more than the {room / 2**30:.3g} GiB this machine has"
            )


def fourier_harmonics(max_harmonic):
    """The harmonic at each flat row of a Fourier source: 0, +1, -1, +2, -2, ..."""
    positive = np.arange(1, max_harmonic + 1, dtype=np.int64)
    return np.concatenate([[0], np.column_stack([positive, -positive]).ravel()])


def fourier_gram(max_harmonic, weight=None):
    """Gram matrix of {exp(imx)} for |m| <= max_harmonic in L2([0,2pi], rho).

    ``weight`` is None for the uniform weight, or rho's positive samples
    on the uniform periodic grid over [0, 2pi).  Entries are integrals
    of exp(i(m - m')x) rho(x), evaluated with the periodic rectangle
    rule on the sample grid (exact for band-limited weights once the
    grid has at least 4*max_harmonic + 1 points), all moments at once
    by one real FFT of the samples.  The matrix is exactly Toeplitz in
    the harmonic difference and exactly Hermitian by construction.

    The source returned also holds ``moments``, read-only: mu(s) =
    G[m, m'] for m - m' = s = 0..2M, taken from G's column at harmonic
    -M, so they have G's bits and dtype.  No other source has the
    field; it sends the source past the graded level loop to the
    Levinson recursion (:func:`gradedortho.ortho.orthonormalize_graded`).
    """
    if max_harmonic < 0:
        raise ValueError("max_harmonic must be non-negative")
    n_coeff = 2 * max_harmonic + 1
    _refuse_oversize(n_coeff)
    # level 0 holds the constant, level k the +k and -k harmonics
    index = GradedIndex([["0"]] + [["+", "-"]] * max_harmonic)
    harmonics = fourier_harmonics(max_harmonic)
    if weight is None:
        moments = np.zeros(n_coeff, dtype=np.complex128)
        moments[0] = TWO_PI
    else:
        samples = _weight_samples(weight)
        n_grid = samples.size
        if n_grid < 4 * max_harmonic + 1:
            raise ValueError(
                f"{n_grid} grid points cannot resolve harmonics up to "
                f"{max_harmonic}; need at least {4 * max_harmonic + 1}"
            )
        # moments[s] = (2pi/n) sum_j w_j exp(i s x_j), x_j = 2pi j/n: the
        # conjugated DFT, whose first 2M + 1 bins the grid size
        # guarantees.  rfft's bin 0 is exactly real, so G is exactly
        # Hermitian.  GramSource rejects moments that left the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            moments = (TWO_PI / n_grid) * np.conj(np.fft.rfft(samples)[:n_coeff])
    # moment of every difference s = -2M..2M at position s + 2M
    by_difference = np.concatenate([np.conj(moments[:0:-1]), moments])
    gram = by_difference[harmonics[:, None] - harmonics[None, :] + 2 * max_harmonic]
    source = GramSource(index, gram)
    source.moments = np.empty(n_coeff, dtype=source.matrix.dtype)
    source.moments[harmonics + max_harmonic] = source.matrix[:, -1]
    source.moments.setflags(write=False)
    return source


def monomial_index(dimension, max_degree):
    """The graded index of the monomials of total degree <= max_degree and
    their exponent tuples.  Each degree's sorted axis multisets, in
    ``combinations_with_replacement`` order, are its exponents in
    descending lexicographic order: x^2 before x*y before y^2."""
    if dimension <= 3:
        names = ("x", "y", "z")[:dimension]
    else:
        names = [f"x{i + 1}" for i in range(dimension)]
    levels = []
    exponents = []
    for degree in range(max_degree + 1):
        level = []
        for axes in itertools.combinations_with_replacement(range(dimension), degree):
            m = tuple(axes.count(i) for i in range(dimension))
            factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
            level.append("*".join(factors) or "1")
            exponents.append(m)
        levels.append(level)
    return GradedIndex(levels), exponents


def _gauss_legendre(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # Enforce exact +- symmetry so odd moments cancel to roundoff.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def _outer(a, b):
    """Every product a_i b_j, b fastest, as one flat array: no array has
    more axes than two, so a box of any dimension is folded."""
    return np.outer(a, b).ravel()


def monomial_gram(dimension, max_degree, box, weight=None, quadrature_order=None):
    """Gram matrix of the graded monomial basis via tensor Gauss-Legendre.

    Monomials of total degree <= max_degree on ``box``, one finite
    ``(lo, hi)`` interval with lo < hi per axis, graded by degree.
    ``weight`` is None for the uniform weight, or its positive samples
    per tensor quadrature node (last axis fastest), taken as given.
    ``quadrature_order`` defaults to max_degree + 1, the lowest order at
    which the uniform weight's rule is exact for all entries (total
    degree per axis at most 2*max_degree <= 2*order - 1).
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != dimension:
        raise ValueError(f"box has {len(box)} intervals for dimension {dimension}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid box interval [{lo}, {hi}]")
    if quadrature_order is None:
        quadrature_order = max_degree + 1
    if quadrature_order < max_degree + 1:
        raise ValueError(
            f"quadrature order {quadrature_order} is below max_degree + 1 = "
            f"{max_degree + 1}; Gram entries would not be exact"
        )
    # order^d is named, not printed: it can pass str()'s digit limit
    n, order = math.comb(dimension + max_degree, dimension), quadrature_order
    basis = (f"its {n} x {order}^{dimension} array of basis values", 8 * n * order**dimension)
    rule = (f"the {order} x {order} matrix behind its 1-D quadrature rule", 8 * order**2)
    _refuse_oversize(n, basis, rule)
    index, exponents = monomial_index(dimension, max_degree)
    nodes_1d, weights_1d = _gauss_legendre(quadrature_order)
    halves = [0.5 * (hi - lo) for lo, hi in box]
    # A box wider than the float range, or powers of a wide box, can
    # leave it; GramSource's finiteness check names that, instead of one
    # warning per numpy step.
    with np.errstate(over="ignore", invalid="ignore"):
        axes_nodes = [0.5 * (lo + hi) + half * nodes_1d for (lo, hi), half in zip(box, halves)]
        # Tensor nodes, last axis fastest: the outer product of the
        # per-axis factors, taken left to right.
        quad_weights = reduce(_outer, [half * weights_1d for half in halves])
        if weight is not None:
            samples = _weight_samples(weight)
            if samples.size != quad_weights.size:
                raise ValueError(
                    f"weight sampled at {samples.size} points but the tensor "
                    f"grid has {quad_weights.size} nodes"
                )
            quad_weights = quad_weights * samples
        values = np.array(
            [reduce(_outer, [x ** e for x, e in zip(axes_nodes, m)]) for m in exponents]
        )
        gram = (values * quad_weights) @ values.T
    return GramSource(index, gram)

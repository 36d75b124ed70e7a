"""Gram matrix sources: explicit matrices, weighted Fourier bases and
multivariate monomial bases on box domains.

A :class:`GramSource` pairs a :class:`~gradedortho.grading.GradedIndex`
with the full Hermitian Gram matrix of the underlying vectors, blocks
aligned with the grading.  All backends assemble the matrix eagerly and
freeze it; the orthogonalizers never integrate anything themselves.
"""

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientGrid,
    NonPositiveWeight,
    NotHermitian,
    QuadratureOrderTooLow,
)
from .grading import GradedIndex
from .spectral import hermitize, max_abs

TWO_PI = 2.0 * math.pi

# An explicit matrix whose symmetrization moves an entry by more than
# this (relative to the largest magnitude) is rejected rather than
# silently repaired.
HERMITIZE_REJECT_FACTOR = 1e-12


class WeightFunction:
    """Positive weight, either uniform or sampled on a fixed grid.

    Fourier sources sample on the uniform periodic grid over [0, 2pi);
    monomial sources sample per tensor quadrature node (last axis
    fastest).  Build one with :meth:`uniform` or :meth:`samples`.
    """

    def __init__(self, kind, values=None):
        if kind not in ("uniform", "samples"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.values = values

    @classmethod
    def uniform(cls):
        return cls("uniform")

    @classmethod
    def samples(cls, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise NonPositiveWeight("weight samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise NonPositiveWeight("weight samples must all be finite and positive")
        values = values.copy()
        values.setflags(write=False)
        return cls("samples", values)


class MonomialBasisSpec:
    """Monomials of total degree <= max_degree on a box, graded by degree.

    ``box`` holds one finite ``(lo, hi)`` interval with lo < hi per axis;
    ``quadrature_order`` defaults to max_degree + 1, the lowest order
    at which the uniform weight's Gram entries are exact.
    """

    def __init__(self, dimension, max_degree, box=(), weight=None, quadrature_order=None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != dimension:
            raise DimensionMismatch(
                f"box has {len(box)} intervals for dimension {dimension}"
            )
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid box interval [{lo}, {hi}]")
        if quadrature_order is None:
            quadrature_order = max_degree + 1
        if quadrature_order < max_degree + 1:
            raise QuadratureOrderTooLow(
                f"quadrature order {quadrature_order} is below max_degree + 1 = "
                f"{max_degree + 1}; Gram entries would not be exact"
            )
        self.dimension = dimension
        self.max_degree = max_degree
        self.box = box
        self.weight = WeightFunction.uniform() if weight is None else weight
        self.quadrature_order = quadrature_order


class GramSource:
    """A graded index plus the frozen Gram matrix it induces."""

    def __init__(self, index, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (index.total, index.total):
            raise DimensionMismatch(
                f"Gram matrix shape {matrix.shape} does not match the "
                f"{index.total} indexed elements"
            )
        if not np.isfinite(matrix).all():
            raise ValueError("Gram matrix has non-finite entries")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.index = index
        self.matrix = matrix


def build_explicit(index, matrix):
    """Wrap a user-supplied Hermitian matrix as a GramSource."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (index.total, index.total):
        raise DimensionMismatch(
            f"matrix dimension {matrix.shape} does not match index total {index.total}"
        )
    h, adjustment = hermitize(matrix)
    scale = max_abs(matrix)
    if adjustment > HERMITIZE_REJECT_FACTOR * max(scale, 1.0):
        raise NotHermitian(
            f"matrix is not Hermitian: symmetrization moved an entry by "
            f"{adjustment:.3e} (max magnitude {scale:.3e})"
        )
    return GramSource(index, h)


def fourier_index(max_harmonic):
    """Level 0 holds the constant; level k holds the +k and -k harmonics."""
    if max_harmonic < 0:
        raise ValueError("max_harmonic must be non-negative")
    levels = [["0"]] + [["+", "-"] for _ in range(max_harmonic)]
    return GradedIndex(levels)


def _fourier_harmonics(max_harmonic):
    harmonics = [0]
    for k in range(1, max_harmonic + 1):
        harmonics.extend([k, -k])
    return np.asarray(harmonics, dtype=np.int64)


def fourier_gram(max_harmonic, weight):
    """Gram matrix of {exp(imx)} for |m| <= max_harmonic in L2([0,2pi], rho).

    Entries are integrals of exp(i(m - m')x) rho(x), evaluated with the
    periodic rectangle rule on the sample grid (exact for band-limited
    weights once the grid has at least 4*max_harmonic + 1 points), all
    moments at once by one real FFT of the samples.  The matrix is
    exactly Toeplitz in the harmonic difference and exactly Hermitian by
    construction.
    """
    index = fourier_index(max_harmonic)
    n_coeff = 2 * max_harmonic + 1
    if weight.kind == "uniform":
        moments = np.zeros(n_coeff, dtype=np.complex128)
        moments[0] = TWO_PI
    else:
        samples = weight.values
        n_grid = samples.size
        if n_grid < 4 * max_harmonic + 1:
            raise InsufficientGrid(
                f"{n_grid} grid points cannot resolve harmonics up to "
                f"{max_harmonic}; need at least {4 * max_harmonic + 1}"
            )
        # moments[s] = (2pi/n) sum_j w_j exp(i s x_j), x_j = 2pi j/n: the
        # conjugated DFT, whose first 2M + 1 bins the grid size
        # guarantees.  rfft's bin 0 is exactly real, so G is exactly
        # Hermitian.  GramSource rejects moments that left the float range.
        with np.errstate(over="ignore", invalid="ignore"):
            moments = (TWO_PI / n_grid) * np.conj(np.fft.rfft(samples)[:n_coeff])
    harmonics = _fourier_harmonics(max_harmonic)
    # moment of every difference s = -2M..2M at position s + 2M
    by_difference = np.concatenate([np.conj(moments[:0:-1]), moments])
    gram = by_difference[harmonics[:, None] - harmonics[None, :] + 2 * max_harmonic]
    return GramSource(index, gram)


def _variable_names(dimension):
    if dimension <= 3:
        return ("x", "y", "z")[:dimension]
    return tuple(f"x{i + 1}" for i in range(dimension))


def monomial_label(exponents, names):
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _degree_multi_indices(dimension, degree):
    # Descending lexicographic order: x^2 before x*y before y^2.
    if dimension == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _degree_multi_indices(dimension - 1, degree - first):
            yield (first,) + rest


def monomial_index(dimension, max_degree):
    names = _variable_names(dimension)
    levels = []
    exponents = []
    for degree in range(max_degree + 1):
        members = list(_degree_multi_indices(dimension, degree))
        levels.append([monomial_label(m, names) for m in members])
        exponents.extend(members)
    return GradedIndex(levels), exponents


def _gauss_legendre(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # Enforce exact +- symmetry so odd moments cancel to roundoff.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights


def monomial_gram(spec):
    """Gram matrix of the graded monomial basis via tensor Gauss-Legendre.

    With the uniform weight the rule is exact for all entries (total
    degree per axis at most 2*max_degree <= 2*order - 1); sampled
    weights are taken as given at the tensor nodes.
    """
    index, exponents = monomial_index(spec.dimension, spec.max_degree)
    nodes_1d, weights_1d = _gauss_legendre(spec.quadrature_order)
    axes_nodes = []
    axes_weights = []
    for lo, hi in spec.box:
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        axes_nodes.append(center + half * nodes_1d)
        axes_weights.append(half * weights_1d)
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=0)
    wgrids = np.meshgrid(*axes_weights, indexing="ij")
    quad_weights = np.prod(np.stack([wg.ravel() for wg in wgrids], axis=0), axis=0)
    if spec.weight.kind == "samples":
        samples = spec.weight.values
        if samples.size != points.shape[1]:
            raise DimensionMismatch(
                f"weight sampled at {samples.size} points but the tensor "
                f"grid has {points.shape[1]} nodes"
            )
        quad_weights = quad_weights * samples
    n_terms = len(exponents)
    values = np.empty((n_terms, points.shape[1]))
    # Powers of a wide box can leave the float range; the finiteness
    # check below names that, instead of one warning per numpy step.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, m in enumerate(exponents):
            v = np.ones(points.shape[1])
            for axis, e in enumerate(m):
                if e:
                    v = v * points[axis] ** e
            values[t] = v
        gram = (values * quad_weights) @ values.T
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix has non-finite entries")
    return GramSource(index, hermitize(gram)[0])

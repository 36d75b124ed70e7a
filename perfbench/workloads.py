"""Seeded problem generators for the benchmark workloads.

Each generator returns a :class:`Workload`: the problem file contents
the program sees, the operations to run on it, and everything the
independent correctness check needs (the Gram matrix computed here in
numpy, the expected output levels, the expected number of negative
signs).  The same seed always gives the same problem.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class Workload:
    name: str
    problem: dict
    operations: tuple
    # Input levels: list of label lists in flat (row) order.
    input_levels: list
    # Reference Gram matrix over the flat input order, built here.
    gram: np.ndarray
    # Expected output levels as (level id, sorted labels); for the
    # Euclidean workloads they equal the input levels.
    expected_levels: list
    expected_negative: int


def _expected_from_input(levels):
    return [(k, sorted(level)) for k, level in enumerate(levels)]


# ---------------------------------------------------------------- fourier

FOURIER_M = 100
FOURIER_BAND = 24


def fourier_many_levels(seed):
    """Fourier basis up to harmonic M, positive band-limited weight: levels of <=2."""
    rng = np.random.default_rng([seed, 1])
    m = FOURIER_M
    n_grid = 4 * m + 1
    k = np.arange(1, FOURIER_BAND + 1)
    amp = rng.uniform(0.2, 1.0, size=(2, FOURIER_BAND)) / k
    amp *= 0.8 / amp.sum()  # keeps the weight in [0.2, 1.8]
    phase = rng.uniform(0.0, TWO_PI, size=FOURIER_BAND)
    x = TWO_PI * np.arange(n_grid) / n_grid
    weight = 1.0 + amp[0] @ np.cos(np.outer(k, x) + phase[:, None]) + amp[1] @ np.sin(
        np.outer(k, x)
    )
    problem = {
        "mode": "fourier",
        "metric": "euclidean",
        "fourier": {
            "max_harmonic": m,
            "weight": {"kind": "samples", "values": [float(v) for v in weight]},
        },
    }
    levels = [["0"]] + [["+", "-"] for _ in range(m)]
    # Moments by FFT: mu[s] = (2pi/n) sum_j w_j exp(i s x_j).
    moments = TWO_PI * np.fft.ifft(weight)[: 2 * m + 1]
    harmonics = fourier_harmonics(levels, range(len(levels)))
    diff = harmonics[:, None] - harmonics[None, :]
    gram = np.where(diff >= 0, moments[np.abs(diff)], np.conj(moments[np.abs(diff)]))
    return Workload(
        name="fourier_many_levels",
        problem=problem,
        operations=("run", "verify"),
        input_levels=levels,
        gram=gram,
        expected_levels=_expected_from_input(levels),
        expected_negative=0,
    )


def fourier_harmonics(levels, level_ids):
    """Harmonic of every flat position, read from the level labels."""
    out = []
    for lid, level in zip(level_ids, levels):
        for label in level:
            out.append({"0": 0, "+": lid, "-": -lid}[label])
    return np.asarray(out, dtype=np.int64)


# --------------------------------------------------------------- monomial

MONO_DIM = 4
MONO_DEG = 4


def _degree_exponents(dim, degree):
    if dim == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in _degree_exponents(dim - 1, degree - first)
    ]


def monomial_label(exponents):
    parts = []
    for axis, e in enumerate(exponents):
        if e:
            parts.append(f"x{axis + 1}" + (f"^{e}" if e > 1 else ""))
    return "*".join(parts) if parts else "1"


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_monomial_label(label, dim):
    """Exponent tuple of a label such as ``x1^2*x3`` (``1`` is the constant)."""
    exps = [0] * dim
    if label != "1":
        for factor in label.split("*"):
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"bad monomial label {label!r}")
            exps[int(match.group(1)) - 1] += int(match.group(2) or 1)
    return tuple(exps)


def tensor_nodes(box, order):
    """Tensor Gauss-Legendre nodes (dim x n, last axis fastest) and weights."""
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(order)
    axes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes_1d for lo, hi in box]
    axis_w = [0.5 * (hi - lo) * weights_1d for lo, hi in box]
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    weights = np.prod(np.stack([g.ravel() for g in np.meshgrid(*axis_w, indexing="ij")]), 0)
    return points, weights


def monomial_gram(exponents, points, weights):
    """Vandermonde times quadrature weights: G = (V * w) V^T."""
    exps = np.asarray(exponents, dtype=np.int64)
    vander = np.prod(points[None, :, :] ** exps[:, :, None], axis=1)
    return (vander * weights) @ vander.T


def monomial_wide_levels(seed):
    """Monomials of degree <= MONO_DEG in MONO_DIM variables, non-separable weight."""
    rng = np.random.default_rng([seed, 2])
    dim, deg = MONO_DIM, MONO_DEG
    order = deg + 1
    lo = -rng.uniform(0.7, 1.0, size=dim)
    hi = rng.uniform(0.9, 1.3, size=dim)
    box = [(float(a), float(b)) for a, b in zip(lo, hi)]
    points, quad = tensor_nodes(box, order)
    # Non-separable: a product weight makes the projected level blocks
    # diagonal, and the level normalizer would do no real work.
    unit = (2.0 * points - (lo + hi)[:, None]) / (hi - lo)[:, None]
    cross = rng.uniform(-0.5, 0.5, size=(dim, dim))
    cross = np.triu(cross, 1)
    lin = rng.uniform(-0.3, 0.3, size=dim)
    weight = np.exp(np.einsum("in,ij,jn->n", unit, cross, unit) + lin @ unit)
    problem = {
        "mode": "monomial",
        "metric": "euclidean",
        "monomial": {
            "dimension": dim,
            "max_degree": deg,
            "box": [[a, b] for a, b in box],
            "quadrature_order": order,
            "weight": {"kind": "samples", "values": [float(v) for v in weight]},
        },
    }
    levels = [[monomial_label(e) for e in _degree_exponents(dim, d)] for d in range(deg + 1)]
    exponents = [parse_monomial_label(lbl, dim) for level in levels for lbl in level]
    gram = monomial_gram(exponents, points, quad * weight).astype(np.complex128)
    return Workload(
        name="monomial_wide_levels",
        problem=problem,
        operations=("run", "verify", "compare"),
        input_levels=levels,
        gram=gram,
        expected_levels=_expected_from_input(levels),
        expected_negative=0,
    )


# ----------------------------------------------------------------- pseudo

PSEUDO_N = 200
PSEUDO_NEGATIVE = 80  # signature 120:80, 26 levels
# Level sizes, cycled until PSEUDO_N vectors are placed.
PSEUDO_PATTERN = (1, 5, 12, 1, 3, 24, 2, 8, 1, 16, 4, 1, 6, 30, 2, 10, 1, 7, 20, 3)
# Positions (in the level list) of the exactly isotropic singletons.
PSEUDO_ISOTROPIC = (3, 11, 23)


def pseudo_level_sizes():
    sizes, total, i = [], 0, 0
    while total < PSEUDO_N:
        size = min(PSEUDO_PATTERN[i % len(PSEUDO_PATTERN)], PSEUDO_N - total)
        sizes.append(size)
        total += size
        i += 1
    return sizes


def pseudo_explicit(seed):
    """Explicit indefinite Gram matrix near a pseudo-orthonormal frame.

    A few singleton levels hold an exactly isotropic vector e_i + e_j
    (one positive and one negative axis); its partner e_i - e_j sits in
    the following level, so promotion merges them into a nondegenerate
    block.
    """
    rng = np.random.default_rng([seed, 3])
    n = PSEUDO_N
    sizes = pseudo_level_sizes()
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    signs = np.ones(n)
    signs[rng.permutation(n)[:PSEUDO_NEGATIVE]] = -1.0
    pos_axes = list(rng.permutation(np.flatnonzero(signs > 0)))
    neg_axes = list(rng.permutation(np.flatnonzero(signs < 0)))
    frame = np.zeros((n, n))
    exact = []
    for lvl in PSEUDO_ISOTROPIC:
        assert sizes[lvl] == 1 and sizes[lvl + 1] > 1
        c = offsets[lvl]
        partner = offsets[lvl + 1] + int(rng.integers(sizes[lvl + 1]))
        i, j = pos_axes.pop(), neg_axes.pop()
        frame[[i, j], c] = 1.0, 1.0
        frame[[i, j], partner] = 1.0, -1.0
        exact.append(c)
    rest = [c for c in range(n) if not frame[:, c].any()]
    axes = rng.permutation(pos_axes + neg_axes)
    frame[axes, rest] = 1.0
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vectors = frame + (0.25 / math.sqrt(2 * n)) * noise
    vectors[:, exact] = frame[:, exact]
    gram = vectors.conj().T @ (signs[:, None] * vectors)
    gram = 0.5 * (gram + gram.conj().T)
    np.fill_diagonal(gram, gram.diagonal().real)
    gram[exact, exact] = 0.0
    levels = []
    label = 0
    for size in sizes:
        levels.append([f"v{label + t}" for t in range(size)])
        label += size
    problem = {
        "mode": "explicit",
        "metric": "pseudo",
        "explicit": {
            "levels": levels,
            "gram": [[[float(z.real), float(z.imag)] for z in row] for row in gram],
        },
    }
    expected = []
    carry = []
    for k, level in enumerate(levels):
        if k in PSEUDO_ISOTROPIC:
            carry = list(level)
            continue
        expected.append((k, sorted(carry + level)))
        carry = []
    return Workload(
        name="pseudo_explicit",
        problem=problem,
        operations=("run", "verify"),
        input_levels=levels,
        gram=gram,
        expected_levels=expected,
        expected_negative=PSEUDO_NEGATIVE,
    )


WORKLOADS = {
    "fourier_many_levels": fourier_many_levels,
    "monomial_wide_levels": monomial_wide_levels,
    "pseudo_explicit": pseudo_explicit,
}

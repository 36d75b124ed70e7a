import numpy as np

import gradedortho as go


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q


def hermitian_from_spectrum(rng, eigenvalues):
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    u = random_unitary(rng, eigenvalues.size)
    return go.hermitize((u * eigenvalues) @ u.conj().T)[0]


def random_spd(rng, n, cond=1e3):
    """Random Hermitian positive definite matrix with bounded condition number."""
    lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    w[0], w[-1] = hi, lo
    return hermitian_from_spectrum(rng, w)


def random_level_sizes(rng, n_levels, max_size=5, max_total=40):
    sizes = []
    total = 0
    for _ in range(n_levels):
        if total >= max_total:
            break
        size = min(int(rng.integers(1, max_size + 1)), max_total - total)
        sizes.append(size)
        total += size
    return sizes


def index_from_sizes(sizes):
    labels = []
    for k, size in enumerate(sizes):
        labels.append([f"v{k}.{i}" for i in range(size)])
    return go.GradedIndex(labels)


def random_graded_source(rng, n_levels=None, cond=1e3, max_size=5, max_total=40):
    """Random well-conditioned complex graded problem (euclidean metric)."""
    if n_levels is None:
        n_levels = int(rng.integers(2, 9))
    sizes = random_level_sizes(rng, n_levels, max_size, max_total)
    index = index_from_sizes(sizes)
    gram = random_spd(rng, index.total, cond)
    return go.build_explicit(index, gram)


def random_indefinite_source(rng, n_levels=None, max_size=4, max_total=20):
    """Random nondegenerate indefinite graded problem with mixed signs."""
    if n_levels is None:
        n_levels = int(rng.integers(2, 5))
    sizes = []
    total = 0
    for _ in range(n_levels):
        size = int(rng.integers(2, max_size + 1))
        if total + size > max_total:
            break
        sizes.append(size)
        total += size
    if not sizes:
        sizes = [2, 2]
        total = 4
    index = index_from_sizes(sizes)
    magnitudes = rng.uniform(0.1, 10.0, size=total)
    signs = rng.choice([-1.0, 1.0], size=total)
    signs[0], signs[-1] = 1.0, -1.0
    gram = hermitian_from_spectrum(rng, magnitudes * signs)
    return go.build_explicit(index, gram)

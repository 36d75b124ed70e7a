"""Graded indices and the three Gram matrix backends."""

import numpy as np
import pytest

import gradedortho as go


# --- GradedIndex -----------------------------------------------------------

def test_index_offsets_and_slices():
    idx = go.GradedIndex([["a", "b"], ["c"], ["d", "e", "f"]])
    assert idx.total == 6
    assert idx.sizes == (2, 1, 3)
    assert idx.offsets == (0, 2, 3)
    assert idx.level_slice(2) == slice(3, 6)


def test_index_rejects_empty_and_duplicate_levels():
    with pytest.raises(ValueError):
        go.GradedIndex([["a"], []])
    with pytest.raises(ValueError):
        go.GradedIndex([["a", "a"]])
    with pytest.raises(ValueError):
        go.GradedIndex([])


def test_index_allows_same_label_on_different_levels():
    idx = go.GradedIndex([["+", "-"], ["+", "-"]])
    assert idx.total == 4


# --- explicit --------------------------------------------------------------

def test_build_explicit_identity():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, np.eye(2))
    assert np.array_equal(src.matrix, np.eye(2))


def test_build_explicit_returns_given_hermitian():
    idx = go.GradedIndex([["a", "b"], ["c"]])
    h = np.array([[2.0, 1.0j, 0.0], [-1.0j, 3.0, 0.5], [0.0, 0.5, 1.0]])
    src = go.build_explicit(idx, h)
    assert np.array_equal(src.matrix, h)


def test_build_explicit_rejects_non_hermitian():
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(go.NotHermitian):
        go.build_explicit(idx, np.array([[1.0, 0.5], [0.4, 1.0]]))


def test_build_explicit_rejects_dimension_mismatch():
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(go.DimensionMismatch):
        go.build_explicit(idx, np.eye(3))


def test_gram_source_matrix_is_frozen():
    src = go.build_explicit(go.GradedIndex([["a"]]), np.eye(1))
    with pytest.raises(ValueError):
        src.matrix[0, 0] = 2.0


# --- fourier ---------------------------------------------------------------

def sampled_weight(n, fn):
    x = 2.0 * np.pi * np.arange(n) / n
    return go.WeightFunction.samples(fn(x)), x


def test_fourier_uniform_is_scaled_identity():
    src = go.fourier_gram(1, go.WeightFunction.uniform())
    assert src.index.levels == (("0",), ("+", "-"))
    assert np.array_equal(src.matrix, 2.0 * np.pi * np.eye(3))


def test_fourier_cosine_weight_matches_hand_integrals():
    # rho = 2 + cos x: diagonal entries 4*pi, nearest-harmonic coupling pi
    weight, _ = sampled_weight(64, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(2, weight).matrix
    assert np.allclose(np.diag(g), 4.0 * np.pi, atol=1e-12)
    assert abs(g[1, 0] - np.pi) < 1e-12
    assert abs(g[0, 2] - np.pi) < 1e-12


def test_fourier_quadrature_matches_dense_quadrature_oracle():
    # independent check of one entry with a fine trapezoid rule
    weight, _ = sampled_weight(256, lambda x: 1.5 + 0.5 * np.sin(2 * x) ** 2)
    g = go.fourier_gram(3, weight).matrix
    xs = np.linspace(0.0, 2.0 * np.pi, 200001)
    rho = 1.5 + 0.5 * np.sin(2 * xs) ** 2
    integrand = np.exp(1j * (2 - (-1)) * xs) * rho
    oracle = np.trapezoid(integrand, xs)
    m_plus2 = 3  # flat order: 0, +1, -1, +2, -2, +3, -3
    m_minus1 = 2
    assert abs(g[m_plus2, m_minus1] - oracle) < 1e-8


def test_fourier_gram_is_exactly_toeplitz_and_hermitian():
    weight, _ = sampled_weight(64, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(4, weight).matrix
    assert np.array_equal(g, g.conj().T)
    harmonics = [0] + [h for k in range(1, 5) for h in (k, -k)]
    seen = {}
    for i, hi in enumerate(harmonics):
        for j, hj in enumerate(harmonics):
            key = hi - hj
            if key in seen:
                assert g[i, j] == seen[key]
            seen[key] = g[i, j]


@pytest.mark.parametrize("max_harmonic, n_grid", [(0, 1), (0, 6), (1, 5), (4, 17), (7, 29), (7, 64)])
def test_fourier_gram_is_the_rectangle_rule(max_harmonic, n_grid):
    # the minimal grid 4M + 1 and M = 0 included; a sampled weight gives
    # an exactly Hermitian G
    values = np.random.default_rng(n_grid).uniform(0.2, 3.0, n_grid)
    g = go.fourier_gram(max_harmonic, go.WeightFunction.samples(values)).matrix
    assert np.array_equal(g, g.conj().T)
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    harmonics = np.array([0] + [h for k in range(1, max_harmonic + 1) for h in (k, -k)])
    phases = np.exp(1j * (harmonics[:, None, None] - harmonics[None, :, None]) * x)
    direct = (2.0 * np.pi / n_grid) * (phases * values).sum(axis=-1)
    assert np.max(np.abs(g - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_fourier_real_weight_conjugate_pairing():
    weight, _ = sampled_weight(64, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(3, weight).matrix
    harmonics = [0] + [h for k in range(1, 4) for h in (k, -k)]
    pos = {h: i for i, h in enumerate(harmonics)}
    for hi in harmonics:
        for hj in harmonics:
            assert abs(g[pos[hi], pos[hj]] - np.conj(g[pos[-hi], pos[-hj]])) < 1e-12


def test_fourier_positive_definite():
    weight, _ = sampled_weight(64, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(8, weight).matrix
    assert go.eigh(g).values[-1] > 0.0


def test_fourier_rejects_bad_weights():
    with pytest.raises(go.NonPositiveWeight):
        go.WeightFunction.samples([1.0, -0.5, 2.0])
    with pytest.raises(go.NonPositiveWeight):
        go.WeightFunction.samples([])
    weight = go.WeightFunction.samples(np.ones(8))
    with pytest.raises(go.InsufficientGrid):
        go.fourier_gram(2, weight)  # needs 4M+1 = 9 points


# --- monomial --------------------------------------------------------------

def test_monomial_interval_closed_forms():
    spec = go.MonomialBasisSpec(dimension=1, max_degree=2, box=[(-1.0, 1.0)])
    g = go.monomial_gram(spec).matrix.real
    assert abs(g[0, 0] - 2.0) < 1e-14
    assert abs(g[1, 1] - 2.0 / 3.0) < 1e-14
    assert abs(g[0, 1]) < 1e-14
    assert abs(g[0, 2] - 2.0 / 3.0) < 1e-14


def test_monomial_level_labels_lexicographic():
    idx, exponents = go.monomial_index(2, 2)
    assert idx.levels == (("1",), ("x", "y"), ("x^2", "x*y", "y^2"))
    assert exponents == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_unit_interval_hilbert_entries():
    spec = go.MonomialBasisSpec(dimension=1, max_degree=3, box=[(0.0, 1.0)])
    g = go.monomial_gram(spec).matrix.real
    for a in range(4):
        for b in range(4):
            assert abs(g[a, b] - 1.0 / (a + b + 1)) < 1e-14


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_monomial_quadrature_exactness_1d(degree):
    spec = go.MonomialBasisSpec(dimension=1, max_degree=degree, box=[(-1.0, 1.0)])
    g = go.monomial_gram(spec).matrix.real
    for a in range(degree + 1):
        for b in range(degree + 1):
            p = a + b
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert abs(g[a, b] - exact) < 1e-12


def test_monomial_symmetric_box_parity_zeros():
    spec = go.MonomialBasisSpec(dimension=2, max_degree=3, box=[(-1.0, 1.0), (-2.0, 2.0)])
    src = go.monomial_gram(spec)
    g = src.matrix.real
    _, exponents = go.monomial_index(2, 3)
    for i, mi in enumerate(exponents):
        for j, mj in enumerate(exponents):
            if any((a + b) % 2 for a, b in zip(mi, mj)):
                assert abs(g[i, j]) < 1e-14


def test_monomial_positive_definite():
    spec = go.MonomialBasisSpec(dimension=2, max_degree=3, box=[(-1.0, 1.0), (0.0, 1.0)])
    g = go.monomial_gram(spec).matrix
    assert go.eigh(g).values[-1] > 0.0


def test_monomial_sampled_weight_matches_uniform_when_constant():
    order = 4
    spec_u = go.MonomialBasisSpec(dimension=2, max_degree=2, box=[(-1.0, 1.0)] * 2,
                                  quadrature_order=order)
    weight = go.WeightFunction.samples(np.ones(order * order))
    spec_s = go.MonomialBasisSpec(dimension=2, max_degree=2, box=[(-1.0, 1.0)] * 2,
                                  weight=weight, quadrature_order=order)
    assert np.array_equal(go.monomial_gram(spec_u).matrix, go.monomial_gram(spec_s).matrix)


def test_monomial_rejects_low_order_and_bad_box():
    with pytest.raises(go.QuadratureOrderTooLow):
        go.MonomialBasisSpec(dimension=1, max_degree=4, box=[(-1.0, 1.0)], quadrature_order=3)
    with pytest.raises(ValueError):
        go.MonomialBasisSpec(dimension=1, max_degree=1, box=[(1.0, -1.0)])
    with pytest.raises(go.DimensionMismatch):
        go.MonomialBasisSpec(dimension=2, max_degree=1, box=[(-1.0, 1.0)])


def test_monomial_sampled_weight_wrong_length():
    weight = go.WeightFunction.samples(np.ones(5))
    spec = go.MonomialBasisSpec(dimension=1, max_degree=2, box=[(-1.0, 1.0)],
                                weight=weight, quadrature_order=4)
    with pytest.raises(go.DimensionMismatch):
        go.monomial_gram(spec)

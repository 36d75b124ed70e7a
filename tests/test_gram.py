"""Graded indices and the three Gram matrix backends."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import gradedortho as go
from gradedortho import gram
from gradedortho.fileio import parse_matrix
from gradedortho.gram import monomial_index
from gradedortho.spectral import eigh
from oracles import level_slice, monomial_gram_by_nodes

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# --- GradedIndex -----------------------------------------------------------

def test_index_sizes_ends_and_total():
    idx = go.GradedIndex([["a", "b"], ["c"], ["d", "e", "f"]])
    assert idx.total == 6
    assert idx.sizes == (2, 1, 3)
    assert idx.ends == (2, 3, 6)
    assert level_slice(idx, 2) == slice(3, 6)


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


# --- explicit: GramSource -------------------------------------------------

def test_gram_source_stores_a_real_identity_as_real():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.GramSource(idx, np.eye(2))
    assert src.matrix.dtype == np.float64
    assert np.array_equal(src.matrix, np.eye(2))


# An explicit problem's ``gram`` entries, as a file holds them: G is
# float64 exactly when every imaginary part is +0.0 or -0.0, whatever the
# spelling (a plain number, [x, 0], [x, -0.0]); a subnormal one, which
# symmetrization would keep, makes it complex.
@pytest.mark.parametrize(
    "entries, dtype",
    [
        ([[2, 1.0], [1, 3.0]], np.float64),
        ([[[2.0, 0], [1.0, 0]], [[1.0, 0], [3.0, 0]]], np.float64),
        ([[[2.0, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [3.0, -0.0]]], np.float64),
        ([[2.0, [1.0, 1e-300]], [[1.0, -1e-300], 3.0]], np.complex128),
        ([[2.0, 1.0], [1.0, [3.0, 5e-324]]], np.complex128),
    ],
    ids=["numbers", "pairs", "negative-zero", "off-diagonal", "subnormal-diagonal"],
)
def test_gram_source_is_real_exactly_when_every_imaginary_part_is_zero(entries, dtype):
    matrix = parse_matrix(entries, "gram")
    src = go.GramSource(go.GradedIndex([["a"], ["b"]]), matrix)
    assert src.matrix.dtype == dtype
    # the real parts keep their bits, the sign of -0.0 too
    real_bits = [np.ascontiguousarray(a.real).view(np.int64) for a in (src.matrix, matrix)]
    assert np.array_equal(*real_bits)


@pytest.mark.parametrize(
    "build, dtype",
    [
        (lambda: go.fourier_gram(3), np.float64),
        (lambda: go.fourier_gram(3, 2.0 + np.sin(np.arange(13))), np.complex128),
        (lambda: go.monomial_gram(2, 3, [(-1.0, 1.0), (0.0, 2.0)]), np.float64),
        (lambda: go.monomial_gram(1, 2, [(0.0, 1.0)], np.linspace(0.5, 2.0, 3)), np.float64),
    ],
    ids=["fourier-uniform", "fourier-sampled", "monomial-uniform", "monomial-sampled"],
)
def test_builders_are_real_exactly_when_their_gram_matrix_is(build, dtype):
    # the uniform Fourier moments are 2pi and zeros; a sampled weight's
    # come from an FFT, whose imaginary parts are not zero
    assert build().matrix.dtype == dtype


def test_gram_source_keeps_a_hermitian_matrix_bitwise():
    # an exactly Hermitian matrix keeps every bit
    idx = go.GradedIndex([["a", "b"], ["c"]])
    h = np.array([[2.0, 1.0j, 0.0], [-1.0j, 3.0, 0.5], [0.0, 0.5, 1.0]])
    src = go.GramSource(idx, h)
    assert np.array_equal(src.matrix, h)


def test_gram_source_averages_offdiagonal_within_band():
    # roundoff-sized asymmetry is symmetrized away, not refused
    a = np.array([[0.0, 1.0], [1.0 + 1e-15j, 0.0]])
    h = go.GramSource(go.GradedIndex([["a", "b"]]), a).matrix
    assert h[0, 1] == np.conj(h[1, 0])
    assert np.max(np.abs(h - a)) == pytest.approx(5e-16, rel=0.5)


def test_gram_source_rejects_non_hermitian():
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(ValueError, match="matrix is not Hermitian: symmetrization moved"):
        go.GramSource(idx, np.array([[1.0, 0.5], [0.4, 1.0]]))


@pytest.mark.parametrize("k", [-40, 40])
def test_gram_source_judges_symmetry_in_the_units_of_g(k):
    # The bound is 1e-12 max|G|, with no floor at 1: the rejected matrix
    # above is rejected at any scale, and roundoff-sized asymmetry at
    # any scale is averaged away.
    idx = go.GradedIndex([["a"], ["b"]])
    scale = 4.0**k
    with pytest.raises(ValueError, match="matrix is not Hermitian: symmetrization moved"):
        go.GramSource(idx, scale * np.array([[1.0, 0.5], [0.4, 1.0]]))
    a = scale * np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    h = go.GramSource(idx, a).matrix
    assert h[0, 1] == h[1, 0]
    assert 0.0 < np.max(np.abs(h - a)) <= 1e-15 * scale


def test_gram_source_keeps_an_all_subnormal_hermitian_matrix():
    # halving a subnormal rounds, so symmetrizing moves entries by up to
    # one unit of 5e-324; the bound's floor is the smallest normal float
    idx = go.GradedIndex([["a", "b"]])
    m = np.array([[3e-323, 1.5e-323], [1.5e-323, 3e-323]])  # 6 and 3 units
    h = go.GramSource(idx, m).matrix
    assert np.max(np.abs(h - m)) == 5e-324


def test_gram_source_rejects_non_hermitian_readme_example():
    # README's example with one entry changed: before GramSource checked
    # the Hermitian property, this built a source whose table FAILed
    # verification with residual 1.1 and no error naming the cause.
    idx = go.GradedIndex([["a", "b"], ["c"]])
    m = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, -0.3], [0.1, -0.3, 1.0]])
    m[0, 2] = 0.9
    with pytest.raises(
        ValueError, match=r"matrix is not Hermitian: symmetrization moved an entry by 4\.000e-01"
    ):
        go.GramSource(idx, m)


def test_gram_source_rejects_a_shape_mismatch():
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(ValueError, match=r"Gram matrix shape \(3, 3\) does not match the 2 "):
        go.GramSource(idx, np.eye(3))
    with pytest.raises(ValueError, match=r"Gram matrix shape \(2, 3\) does not match the 2 "):
        go.GramSource(idx, np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_source_rejects_non_finite_entries(bad):
    # refused before any arithmetic, so no numpy warning comes first
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="^Gram matrix has non-finite entries$"):
        go.GramSource(go.GradedIndex([["a", "b"]]), m)


def test_gram_source_keeps_entries_near_the_float_maximum():
    big = np.finfo(float).max
    idx = go.GradedIndex([["a", "b"]])
    h = np.array([[big, -big * 1j], [big * 1j, big]])
    assert np.array_equal(go.GramSource(idx, h).matrix, h)
    # and measures a non-Hermitian one there without overflowing
    with pytest.raises(ValueError, match=r"moved an entry by 1\.798e\+308"):
        go.GramSource(idx, np.array([[big, big], [-big, big]]))


def test_gram_source_matrix_is_frozen():
    m = np.eye(1, dtype=np.complex128)
    src = go.GramSource(go.GradedIndex([["a"]]), m)
    with pytest.raises(ValueError):
        src.matrix[0, 0] = 2.0
    # the source froze its own copy, not the caller's array
    m[0, 0] = 3.0
    assert src.matrix[0, 0] == 1.0


# --- fourier ---------------------------------------------------------------

def sampled_weight(n, fn):
    x = 2.0 * np.pi * np.arange(n) / n
    return fn(x), x


def test_fourier_uniform_is_scaled_identity():
    src = go.fourier_gram(1)
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
    # independent check of one entry with a fine trapezoid rule, written
    # out so the oracle needs no numpy 2 name (np.trapezoid)
    weight, _ = sampled_weight(256, lambda x: 1.5 + 0.5 * np.sin(2 * x) ** 2)
    g = go.fourier_gram(3, weight).matrix
    xs = np.linspace(0.0, 2.0 * np.pi, 200001)
    rho = 1.5 + 0.5 * np.sin(2 * xs) ** 2
    integrand = np.exp(1j * (2 - (-1)) * xs) * rho
    oracle = np.sum(np.diff(xs) * (integrand[:-1] + integrand[1:]) / 2.0)
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
    g = go.fourier_gram(max_harmonic, values).matrix
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


def test_fourier_gram_is_the_sample_matrix_product():
    # E[j, m] = sqrt(2pi w_j / n) exp(-i m x_j), columns in the index's
    # harmonic order, gives E^dagger E = G; exp(+i m x) gives the
    # transposed G, which differs for a weight with sine terms
    n = 81
    weight, x = sampled_weight(n, lambda x: 2.0 + np.cos(x) + 0.5 * np.sin(x) + 0.3 * np.sin(2 * x))
    g = go.fourier_gram(20, weight).matrix
    harmonics = [0] + [h for k in range(1, 21) for h in (k, -k)]

    def sample_gram(sign):
        e = np.sqrt(2.0 * np.pi * weight / n)[:, None] * np.exp(sign * 1j * np.outer(x, harmonics))
        return e.conj().T @ e

    assert np.max(np.abs(sample_gram(-1) - g)) <= 1e-13 * np.max(np.abs(g))  # measured 2.2e-14
    assert np.max(np.abs(sample_gram(+1) - g)) > 1.0  # measured pi


def test_fourier_positive_definite():
    weight, _ = sampled_weight(64, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(8, weight).matrix
    assert eigh(g)[0][-1] > 0.0


def test_fourier_rejects_bad_weights():
    with pytest.raises(ValueError, match="weight samples must all be finite and positive"):
        go.fourier_gram(0, [1.0, -0.5, 2.0])
    with pytest.raises(ValueError, match="weight samples must all be finite and positive"):
        go.fourier_gram(1, [-1.0] * 5)  # enough points: only the signs are at fault
    with pytest.raises(ValueError, match="weight samples must be a non-empty 1-d array"):
        go.fourier_gram(0, [])
    with pytest.raises(ValueError, match="8 grid points cannot resolve harmonics up to 2; need at least 9"):
        go.fourier_gram(2, np.ones(8))  # needs 4M+1 = 9 points


def test_fourier_samples_as_list_tuple_or_array_agree():
    values, _ = sampled_weight(9, lambda x: 2.0 + np.cos(x))
    g = go.fourier_gram(2, values).matrix
    assert np.array_equal(go.fourier_gram(2, values.tolist()).matrix, g)
    assert np.array_equal(go.fourier_gram(2, tuple(values.tolist())).matrix, g)


# --- monomial --------------------------------------------------------------

def test_monomial_interval_closed_forms():
    g = go.monomial_gram(1, 2, [(-1.0, 1.0)]).matrix.real
    assert abs(g[0, 0] - 2.0) < 1e-14
    assert abs(g[1, 1] - 2.0 / 3.0) < 1e-14
    assert abs(g[0, 1]) < 1e-14
    assert abs(g[0, 2] - 2.0 / 3.0) < 1e-14


def test_monomial_level_labels_lexicographic():
    idx, exponents = monomial_index(2, 2)
    assert idx.levels == (("1",), ("x", "y"), ("x^2", "x*y", "y^2"))
    assert exponents == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_monomial_index_orders_each_degree_descending_lexicographic():
    for dimension in range(1, 6):
        if dimension <= 3:
            names = ("x", "y", "z")[:dimension]
        else:
            names = tuple(f"x{i + 1}" for i in range(dimension))
        for max_degree in range(7):
            idx, exponents = monomial_index(dimension, max_degree)
            assert len(idx.levels) == max_degree + 1
            for degree, labels in enumerate(idx.levels):
                level = exponents[level_slice(idx, degree)]
                assert len(level) == math.comb(dimension + degree - 1, degree)
                assert all(len(m) == dimension and sum(m) == degree for m in level)
                assert all(a > b for a, b in zip(level, level[1:]))
                assert labels == tuple(
                    "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e) or "1"
                    for m in level
                )
    idx, _ = monomial_index(4, 2)
    assert idx.levels[1] == ("x1", "x2", "x3", "x4")
    assert idx.levels[2][:5] == ("x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2")


def monomial_exemplar(name):
    spec = json.loads((PROBLEMS / name).read_text())["monomial"]
    weight = spec.get("weight", {"kind": "uniform"})
    samples = weight["values"] if weight["kind"] == "samples" else None
    return spec["dimension"], spec["max_degree"], spec["box"], samples, spec.get("quadrature_order")


def sampled(dimension, max_degree, box, order=None):
    n_nodes = (order or max_degree + 1) ** dimension
    samples = np.random.default_rng(n_nodes).uniform(0.2, 3.0, n_nodes)
    return dimension, max_degree, box, samples, order


@pytest.mark.parametrize(
    "args",
    [monomial_exemplar("monomial_euclidean.json"), monomial_exemplar("monomial_pseudo.json")]
    + [(d, 3, [(-1.0, 1.0)] * d, None, None) for d in range(1, 6)]
    + [
        sampled(2, 6, [(0.0, 1.0)] * 2),
        sampled(3, 4, [(-1.0, 2.0), (0.0, 1.0), (0.0, 3.0)], order=6),
        (4, 2, [(-0.3, 1.7), (-1.0, 3.0), (2.0, 5.0), (-4.0, -1.5)], None, 5),
        (2, 3, [(-1.0, 1.0), (-2.0, 2.0)], None, 7),
    ],
    ids=["euclidean-exemplar", "pseudo-exemplar"] + [f"d{d}" for d in range(1, 6)]
    + ["sampled-unit-square", "sampled-asymmetric-box-order-6", "asymmetric-box-order-5", "order-7"],
)
def test_monomial_gram_is_bitwise_the_node_by_node_rule(args):
    assert np.array_equal(go.monomial_gram(*args).matrix, monomial_gram_by_nodes(*args).matrix)


def test_monomial_gram_has_no_dimension_cap():
    # the tensor products are folded two axes at a time, so no array has
    # one axis per box dimension (numpy allows at most 32 or 64)
    assert np.array_equal(go.monomial_gram(70, 0, [(0.0, 2.0)] * 70).matrix, [[2.0**70]])


def test_monomial_unit_interval_hilbert_entries():
    g = go.monomial_gram(1, 3, [(0.0, 1.0)]).matrix.real
    for a in range(4):
        for b in range(4):
            assert abs(g[a, b] - 1.0 / (a + b + 1)) < 1e-14


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_monomial_quadrature_exactness_1d(degree):
    g = go.monomial_gram(1, degree, [(-1.0, 1.0)]).matrix.real
    for a in range(degree + 1):
        for b in range(degree + 1):
            p = a + b
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert abs(g[a, b] - exact) < 1e-12


def test_monomial_symmetric_box_parity_zeros():
    src = go.monomial_gram(2, 3, [(-1.0, 1.0), (-2.0, 2.0)])
    g = src.matrix.real
    _, exponents = monomial_index(2, 3)
    for i, mi in enumerate(exponents):
        for j, mj in enumerate(exponents):
            if any((a + b) % 2 for a, b in zip(mi, mj)):
                assert abs(g[i, j]) < 1e-14


def test_monomial_positive_definite():
    g = go.monomial_gram(2, 3, [(-1.0, 1.0), (0.0, 1.0)]).matrix
    assert eigh(g)[0][-1] > 0.0


def test_monomial_sampled_weight_matches_uniform_when_constant():
    order = 4
    uniform = go.monomial_gram(2, 2, [(-1.0, 1.0)] * 2, quadrature_order=order)
    sampled = go.monomial_gram(2, 2, [(-1.0, 1.0)] * 2, weight=np.ones(order * order),
                               quadrature_order=order)
    assert np.array_equal(uniform.matrix, sampled.matrix)


def test_monomial_rejects_low_order_and_bad_box():
    with pytest.raises(ValueError, match=r"quadrature order 3 is below max_degree \+ 1 = 5"):
        go.monomial_gram(1, 4, [(-1.0, 1.0)], quadrature_order=3)
    with pytest.raises(ValueError):
        go.monomial_gram(1, 1, [(1.0, -1.0)])
    with pytest.raises(ValueError, match="box has 1 intervals for dimension 2"):
        go.monomial_gram(2, 1, [(-1.0, 1.0)])


def test_monomial_sampled_weight_wrong_length():
    with pytest.raises(ValueError, match="weight sampled at 5 points but the tensor grid has 4 nodes"):
        go.monomial_gram(1, 2, [(-1.0, 1.0)], weight=np.ones(5), quadrature_order=4)


def test_monomial_rejects_negative_samples():
    with pytest.raises(ValueError, match="weight samples must all be finite and positive"):
        go.monomial_gram(1, 1, [(-1.0, 1.0)], weight=[-1.0, -1.0])
    # the box is checked before the samples
    with pytest.raises(ValueError, match=r"invalid box interval \[1.0, -1.0\]"):
        go.monomial_gram(1, 1, [(1.0, -1.0)], weight=[-1.0, -1.0])


def test_monomial_samples_as_list_tuple_or_array_agree():
    samples = np.linspace(0.5, 2.0, 9)
    g = go.monomial_gram(2, 2, [(-1.0, 1.0), (0.0, 2.0)], weight=samples).matrix
    for same in (samples.tolist(), tuple(samples.tolist())):
        assert np.array_equal(go.monomial_gram(2, 2, [(-1.0, 1.0), (0.0, 2.0)], weight=same).matrix, g)


# --- sizes no machine holds ----------------------------------------------------

@pytest.mark.parametrize(
    "build, array",
    [
        (lambda: go.fourier_gram(10**9), r"its N = 2000000001 Gram matrix"),
        (lambda: go.monomial_gram(40, 40, [(0.0, 1.0)] * 40), r"its N = \d+ Gram matrix"),
        # few monomials, but 3^20 tensor nodes to evaluate each at
        (
            lambda: go.monomial_gram(20, 2, [(0.0, 1.0)] * 20),
            r"its 231 x 3\^20 array of basis values",
        ),
        # two monomials, but a 10^6 x 10^6 companion matrix for the rule
        (
            lambda: go.monomial_gram(1, 1, [(0.0, 1.0)], quadrature_order=10**6),
            r"the 1000000 x 1000000 matrix behind its 1-D quadrature rule",
        ),
    ],
    ids=["fourier-M1e9", "monomial-d40-deg40", "monomial-d20-nodes", "monomial-order1e6"],
)
def test_builders_refuse_sizes_the_machine_cannot_hold_before_building(monkeypatch, build, array):
    # sized in closed form: the builder raises before it enumerates the
    # index, the 1-D rule or a single basis value, and names the array
    # that does not fit
    def unreachable(*args, **kwargs):
        raise AssertionError("the builder went on to build the problem")

    monkeypatch.setattr(gram, "GradedIndex", unreachable)
    monkeypatch.setattr(gram, "_gauss_legendre", unreachable)
    with pytest.raises(MemoryError, match=rf"^building {array} needs more than"):
        build()

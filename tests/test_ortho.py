"""The graded orthonormalization core and its reference methods."""

import json
import math
import re
import sys

import numpy as np
import pytest

import gradedortho as go
from gradedortho import spectral
from gradedortho.cli import main
from gradedortho.fileio import parse_problem
from gradedortho.ortho import level_normalizer
from gradedortho.spectral import eigh

from conftest import (
    ROOT,
    benchmark_problem,
    hermitian,
    hermitian_from_spectrum,
    index_from_sizes,
    random_graded_source,
    random_indefinite_source,
    random_spd,
    real_part,
    relative_error,
    rotated,
)
from oracles import (
    cross_overlap,
    fourier_nodes,
    graded_table_mp,
    level_slice,
    mixing_block,
    monomial_nodes,
    refused_by_ratio_rule,
    residual_gram,
    residual_gram_direct,
    tensor_legendre_table,
)

PAIR_GRAM = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
EXEMPLARS = sorted((ROOT / "problems").glob("*.json"))


def pair_source():
    return go.GramSource(go.GradedIndex([["a"], ["b"]]), PAIR_GRAM)


def identity_source(sizes=(2, 1, 2)):
    levels = [[f"l{k}.{i}" for i in range(s)] for k, s in enumerate(sizes)]
    idx = go.GradedIndex(levels)
    return go.GramSource(idx, np.eye(idx.total))


# --- cross_overlap ----------------------------------------------------------

def test_cross_overlap_vanishes_for_identity_gram():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    for k in range(1, 3):
        for j in range(k):
            d = cross_overlap(src, table, k, j)
            assert np.max(np.abs(d)) == 0.0


def test_cross_overlap_pair_case():
    src = pair_source()
    table = go.orthonormalize_graded(src)
    d = cross_overlap(src, table, 1, 0)
    # f0 = e1 and the plane vectors are e1=(1,0), e2=(1,1): overlap is 1
    assert d.shape == (1, 1)
    assert abs(d[0, 0] - 1.0) < 1e-14


def test_cross_overlap_fourier_uniform_vanishes():
    src = go.fourier_gram(1)
    table = go.orthonormalize_graded(src)
    d = cross_overlap(src, table, 1, 0)
    assert np.max(np.abs(d)) < 1e-15


def test_cross_overlap_level_not_ready():
    src = pair_source()
    table = go.orthonormalize_graded(src)
    with pytest.raises(ValueError, match="level 1 is not below level 1"):
        cross_overlap(src, table, 1, 1)


def test_every_public_name_resolves():
    for name in go.__all__:
        assert hasattr(go, name), name


# --- residual_gram / level_normalizer / mixing_block -------------------------

def test_residual_gram_no_corrections():
    b = residual_gram(np.eye(2), [])
    assert np.array_equal(b, np.eye(2))


def test_residual_gram_scalar():
    b = residual_gram(np.array([[2.0]]), [np.array([[1.0]])])
    assert b[0, 0] == 1.0


def test_residual_gram_matches_projection_norm():
    # h = e2 - (e2, f0) f0 has squared norm 1 for the pair fixture
    src = pair_source()
    table = go.orthonormalize_graded(src)
    d = cross_overlap(src, table, 1, 0)
    delta = hermitian(d.conj().T @ d)
    b = residual_gram(PAIR_GRAM[1:, 1:], [delta])
    assert abs(b[0, 0] - 1.0) < 1e-14


def test_residual_gram_shape_mismatch():
    with pytest.raises(ValueError, match="correction shape"):
        residual_gram(np.eye(2), [np.eye(3)])


def test_level_normalizer_cases():
    assert np.allclose(level_normalizer(np.eye(2))[0], np.eye(2), atol=1e-14)
    assert np.allclose(level_normalizer(np.array([[4.0]]))[0], [[0.5]], atol=1e-15)
    q, signs = level_normalizer(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert list(signs) == [1, 1]
    expected = np.array([[1.115355, -0.298858], [-0.298858, 1.115355]])
    assert np.max(np.abs(q - expected)) < 1e-6


def test_level_normalizer_reports_level_on_failure():
    with pytest.raises(go.LinearlyDependentInput) as info:
        level_normalizer(np.array([[1.0, 1.0], [1.0, 1.0]]), level=3)
    assert info.value.level == 3
    with pytest.raises(go.DegenerateMetric) as info:
        level_normalizer(np.diag([1.0, -2.0]), level=1)
    assert info.value.level == 1
    with pytest.raises(go.DegenerateMetric, match="level 2: projected Gram block is degenerate"):
        level_normalizer(np.diag([1.0, 0.0]), level=2, signed=True)
    for entry in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^level 4: projected Gram block is not finite$"):
            level_normalizer(np.diag([1.0, entry]), level=4)


@pytest.mark.parametrize("signed", [False, True])
def test_the_band_refuses_every_block_the_ratio_rule_refused(signed):
    # Blocks whose smallest |eigenvalue| lies near the ratio rule's edge
    # tol * max|λ|, at random units, with Γ = b times 0.1 to 10, so that
    # max|Γ| is often below λmax(b): the band tol * max(max|Γ|, max|λ|)
    # refuses every block that rule refuses.
    rng = np.random.default_rng(31)
    refused = above_gamma = 0
    for _ in range(600):
        n = int(rng.integers(1, 6))
        tol = 10.0 ** rng.uniform(-12, -2)
        spectrum = rng.uniform(tol, 1.0, size=n)
        spectrum[0] = 1.0
        spectrum[-1] = tol * 10.0 ** rng.uniform(-1.0, 1.0)
        spectrum *= rng.choice([-1.0, 1.0], size=n) if signed else rng.choice([-1.0, 1.0])
        spectrum[-1] *= 1.0 if signed else rng.choice([-1.0, 1.0])
        b = hermitian_from_spectrum(rng, spectrum) * 4.0 ** int(rng.integers(-20, 21))
        raw = None if rng.random() < 0.25 else b * 10.0 ** rng.uniform(-1.0, 1.0)
        if not refused_by_ratio_rule(b, tol, signed):
            continue
        refused += 1
        lam_max = np.max(np.abs(np.linalg.eigvalsh(b)))
        above_gamma += lam_max > spectral.max_abs(b if raw is None else raw)
        with pytest.raises(go.DegenerateMetric if signed else
                           (go.LinearlyDependentInput, go.DegenerateMetric)):
            level_normalizer(b, tol, 0, signed, raw)
    assert refused >= 200 and above_gamma >= 50


def test_mixing_block_cases():
    assert np.max(np.abs(mixing_block(np.zeros((2, 2)), np.eye(2)))) == 0.0
    assert mixing_block(np.array([[1.0]]), np.array([[1.0]]))[0, 0] == -1.0
    with pytest.raises(ValueError, match="does not conform"):
        mixing_block(np.ones((1, 2)), np.ones((3, 3)))


def test_pair_fixture_full_chain():
    # D=[1], Q=[1], P=[-1]: f1 = e2 - e1 = (0, 1) in the plane
    src = pair_source()
    table = go.orthonormalize_graded(src)
    assert np.allclose(table.matrix.real, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


# --- orthonormalize_graded ---------------------------------------------------

def test_identity_gram_gives_identity_table():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    assert np.array_equal(table.matrix, np.eye(5))


def test_fourier_uniform_scalar_normalization():
    src = go.fourier_gram(1)
    table = go.orthonormalize_graded(src)
    scale = 1.0 / np.sqrt(2.0 * np.pi)
    assert np.allclose(table.matrix, scale * np.eye(3), atol=1e-15)


def test_fourier_constant_level_real_positive():
    src = go.fourier_gram(4, 2.0 + np.cos(2 * np.pi * np.arange(64) / 64))
    table = go.orthonormalize_graded(src)
    f0 = table.blocks[0][:, 0]
    assert f0[0].imag == 0.0
    assert f0[0].real > 0.0
    assert np.max(np.abs(f0[1:])) == 0.0


def test_linear_dependence_names_level():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.GramSource(idx, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.LinearlyDependentInput) as info:
        go.orthonormalize_graded(src)
    assert info.value.level == 1


def test_indefinite_metric_rejected_in_euclidean_mode():
    idx = go.GradedIndex([["a", "b"]])
    src = go.GramSource(idx, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(go.DegenerateMetric):
        go.orthonormalize_graded(src)


def test_random_orthonormality_and_structure():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        src = random_graded_source(rng, cond=1e4)
        table = go.orthonormalize_graded(src)
        report = go.verify_table(src, table, 1e-9)
        assert report.passed and report.structural_ok
        # every normalizer block is Hermitian positive definite
        for q in table.normalizers:
            assert np.array_equal(q, q.conj().T)
            assert eigh(q)[0][-1] > 0.0


# --- references and degenerations -------------------------------------------

def test_gram_schmidt_reference_examples():
    src = identity_source()
    assert np.array_equal(go.gram_schmidt_reference(src).matrix, np.eye(5))
    table = go.gram_schmidt_reference(pair_source())
    assert np.allclose(table.matrix.real, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_gram_schmidt_blocks_match_block_recursion():
    # Gram-Schmidt tables obey the same recursion as graded ones:
    # blocks[k] = E_k q + sum_j blocks[j] @ mixing_block(cross_overlap, q)
    rng = np.random.default_rng(405)
    for _ in range(3):
        src = random_graded_source(rng, cond=1e4)
        table = go.gram_schmidt_reference(src)
        for k in range(len(src.index)):
            q = table.normalizers[k]
            assembled = np.zeros_like(table.blocks[k])
            assembled[level_slice(src.index, k), :] = q
            for j in range(k):
                d = cross_overlap(src, table, k, j)
                assembled += table.blocks[j] @ mixing_block(d, q)
            assert relative_error(table.blocks[k], assembled) <= 1e-12


def test_gram_schmidt_detects_dependence():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.GramSource(idx, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.LinearlyDependentInput):
        go.gram_schmidt_reference(src)


def source_in_levels(gram, level_size=1):
    """All vectors in levels of ``level_size``, flat order unchanged."""
    n = gram.shape[0]
    labels = [f"v{i}" for i in range(n)]
    idx = go.GradedIndex([labels[i : i + level_size] for i in range(0, n, level_size)])
    return go.GramSource(idx, gram)


def pivoted_gram(pivots, seed=130):
    """L diag(pivots) L† for the Cholesky factor L of a well-conditioned
    complex Gram matrix: vector i's squared norm, once the earlier
    vectors are projected out, is pivots[i] L_ii²."""
    rng = np.random.default_rng(seed)
    n = len(pivots)
    factor = np.linalg.cholesky(random_spd(rng, n, cond=1e2))
    return hermitian((factor * pivots) @ factor.conj().T), factor


@pytest.mark.parametrize("level_size", [1, 10])
@pytest.mark.parametrize("bad", [0, 97])
def test_gram_schmidt_names_a_dependent_vector(bad, level_size):
    # Past LAPACK's block size, so the first failing pivot is bisected for.
    rng = np.random.default_rng(97)
    vectors = rng.normal(size=(160, 130)) + 1j * rng.normal(size=(160, 130))
    vectors[:, bad] = vectors[:, :bad] @ rng.normal(size=bad)
    src = source_in_levels(hermitian(vectors.conj().T @ vectors), level_size)
    with pytest.raises(go.LinearlyDependentInput) as err:
        go.gram_schmidt_reference(src)
    level = bad // level_size
    assert err.value.level == level
    prefix = f"level {level}: the Gram-Schmidt pivot of vector {bad} is numerically singular ("
    message = str(err.value)
    assert message.startswith(prefix)
    # the reduced squared norm lies within the band it is reported with
    norm_sq, band = re.fullmatch(
        r"reduced squared norm (\S+), the band \+/-(\S+) \(degeneracy_tol \* \|G_ii\|\)"
        r"(, within .*)?\); the input vectors are not linearly independent; "
        r"G has condition number .*",
        message[len(prefix):],
    ).groups()[:2]
    assert float(band) == float(f"{1e-10 * src.matrix[bad, bad].real:.6e}")
    assert abs(float(norm_sq)) <= float(band)


@pytest.mark.parametrize("level_size", [1, 10])
@pytest.mark.parametrize("bad", [0, 70])
def test_gram_schmidt_names_a_negative_direction(bad, level_size):
    pivots = np.ones(130)
    pivots[bad] = -0.5
    pivots[100] = 0.0  # a later dependence must not be the one named
    gram, factor = pivoted_gram(pivots)
    with pytest.raises(go.DegenerateMetric) as err:
        go.gram_schmidt_reference(source_in_levels(gram, level_size))
    assert err.value.level == bad // level_size
    expected = -0.5 * factor[bad, bad].real ** 2
    band = 1e-10 * abs(gram[bad, bad].real)
    low, high = np.linalg.eigvalsh(gram)[[0, -1]]
    message = (
        f"level {bad // level_size}: the Gram-Schmidt pivot of vector {bad} is not positive "
        f"semidefinite (reduced squared norm {expected:.6e}, the band +/-{band:.6e} "
        f"(degeneracy_tol * |G_ii|)); the metric is not positive definite; "
        f"G is indefinite (smallest/largest eigenvalue {low / high:.3e})"
    )
    assert str(err.value) == message


EUCLIDEAN_METHODS = [go.orthonormalize_graded, go.gram_schmidt_reference, go.gram_method_reference]


def test_only_a_failing_euclidean_method_computes_the_conditioning(monkeypatch):
    # the conditioning of G costs one eigvalsh, paid on the failure path
    # alone (the problems are parsed first: numpy's Gauss-Legendre rule
    # calls eigvalsh too)
    passing = [parse_problem(path) for path in EXEMPLARS]
    calls = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for problem in passing:
        if problem.metric == "euclidean":
            for method in EUCLIDEAN_METHODS:
                method(problem.source)
        else:
            go.pseudo_orthonormalize_graded(problem.source)
    assert calls == []
    dependent = go.GramSource(go.GradedIndex([["a"], ["b", "c"]]), np.ones((3, 3)))
    for method in EUCLIDEAN_METHODS:
        with pytest.raises(go.LinearlyDependentInput, match=r"; G has condition number > 1/eps"):
            method(dependent)
    assert calls == [(3, 3)] * 3


# Spectra of the units test: κ = 3, a zero eigenvalue, a negative eigenvalue.
SCALING_SPECTRA = {
    "kappa-3": [3.0, 2.2, 1.7, 1.4, 1.2, 1.0],
    "singular": [2.0, 1.5, 1.0, 0.7, 0.5, 0.0],
    "indefinite": [2.0, 1.5, 1.0, -0.7, 0.5, 0.8],
}
SCALING_ERRORS = {"singular": go.LinearlyDependentInput, "indefinite": go.DegenerateMetric}


def compare_verdict(tmp_path, capsys, source):
    """``compare``'s exit code and its identity lines, or the error type it
    names, on an explicit problem holding the source's matrix."""
    path = tmp_path / "problem.json"
    gram = [[[z.real, z.imag] for z in row] for row in source.matrix.tolist()]
    levels = [list(level) for level in source.index.levels]
    path.write_text(json.dumps({"mode": "explicit", "metric": "euclidean",
                                "explicit": {"levels": levels, "gram": gram}}))
    code = main(["compare", str(path)])
    out, err = capsys.readouterr()
    return code, [line for line in out.splitlines() if "reduces to" in line], err.split(":")[:2]


@pytest.mark.parametrize("levels", ["singletons", "one-level"])
@pytest.mark.parametrize("spectrum", sorted(SCALING_SPECTRA))
def test_every_euclidean_method_is_free_of_the_units_of_g(tmp_path, capsys, spectrum, levels):
    # Every tolerance reads G in its own units, so on 4^k G each method
    # decides as on G, and its C scales by 2^-k: measured bit for bit here,
    # bounded by 4 eps of max|C| as in the signed test.
    rng = np.random.default_rng(41)
    gram = hermitian_from_spectrum(rng, SCALING_SPECTRA[spectrum])
    labels = [f"v{i}" for i in range(len(gram))]
    index = go.GradedIndex([[x] for x in labels] if levels == "singletons" else [labels])
    source = go.GramSource(index, gram)
    verdict = compare_verdict(tmp_path, capsys, source)
    if spectrum in SCALING_ERRORS:
        assert verdict == (3, [], ["error", f" {SCALING_ERRORS[spectrum].__name__}"])
    else:
        assert verdict[0] == 0 and verdict[1] and all(x.endswith("HOLDS") for x in verdict[1])
    for k in (0, -40, -20, 20, 40):
        scaled = go.GramSource(index, source.matrix * 4.0**k)
        assert compare_verdict(tmp_path, capsys, scaled) == verdict
        for method in EUCLIDEAN_METHODS:
            if spectrum in SCALING_ERRORS:
                with pytest.raises(SCALING_ERRORS[spectrum]):
                    method(scaled)
                continue
            table = method(source)
            got = method(scaled)
            assert got.stops == table.stops
            bound = 4 * np.finfo(float).eps * np.max(np.abs(table.matrix))
            assert np.max(np.abs(got.matrix * 2.0**k - table.matrix)) <= bound


def refusal(method, source):
    """None when ``method`` returns a table, else its error's class and level."""
    try:
        method(source)
    except (go.LinearlyDependentInput, go.DegenerateMetric) as err:
        return type(err), err.level
    return None


# Monomials d=1 on an interval, up to the degree where Gram-Schmidt refuses.
SINGLETON_DEGREES = {(-1.0, 1.0): range(10, 27), (0.0, 1.0): range(6, 19), (0.0, 3.0): range(6, 16)}


@pytest.mark.parametrize(
    "box, degree",
    [
        pytest.param(box, degree, id=f"{box[0]:g}..{box[1]:g}-deg{degree}")
        for box, degrees in SINGLETON_DEGREES.items()
        for degree in degrees
    ],
)
def test_singleton_levels_refuse_where_gram_schmidt_does(box, degree):
    # On a 1x1 block the band tol * max(max|Γ|, max|λ|) is Gram-Schmidt's
    # tol * |G_ii|, so the graded loop refuses the same problems, with the
    # same error at the same level.
    source = go.monomial_gram(1, degree, [box])
    for k in (0, 20, -20):
        scaled = go.GramSource(source.index, source.matrix * 4.0**k)
        graded = refusal(go.orthonormalize_graded, scaled)
        assert graded == refusal(go.gram_schmidt_reference, scaled)
        assert graded is not None or degree < SINGLETON_DEGREES[box][-1]


@pytest.mark.parametrize(
    "src",
    [
        # Sources on which the inverse of the lower factor, by a pivoted
        # LU, leaves nonzeros below the diagonal of C.
        source_in_levels(random_spd(np.random.default_rng(130), 130, cond=1e8)),
        go.monomial_gram(3, 5, [(-2.0, 1.0), (0.0, 1.0), (1.0, 3.0)]),
    ],
    ids=["singletons", "monomial"],
)
def test_gram_schmidt_table_is_exactly_upper_triangular(src):
    gs = go.gram_schmidt_reference(src)
    assert np.all(np.tril(gs.matrix, -1) == 0.0)
    assert go.verify_table(src, gs).structural_ok


def test_singleton_levels_degenerate_to_gram_schmidt():
    rng = np.random.default_rng(99)
    for _ in range(5):
        n = int(rng.integers(3, 10))
        idx = go.GradedIndex([[f"v{i}"] for i in range(n)])
        src = go.GramSource(idx, random_spd(rng, n, cond=1e4))
        graded = go.orthonormalize_graded(src)
        reference = go.gram_schmidt_reference(src)
        assert np.max(np.abs(graded.matrix - reference.matrix)) < 1e-10


def test_gram_method_reference_examples():
    src = identity_source()
    assert np.allclose(go.gram_method_reference(src).matrix, np.eye(5), atol=1e-14)
    idx = go.GradedIndex([["a", "b"]])
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    src2 = go.GramSource(idx, g)
    table = go.gram_method_reference(src2)
    assert np.array_equal(table.matrix, level_normalizer(g)[0])


def test_single_level_degenerates_to_gram_method():
    # On one level the graded loop and the Gram method make the same
    # level_normalizer call on the same bits: the tables are equal bit
    # for bit, or both methods refuse with the same class.
    def outcome(method, src):
        try:
            return method(src).matrix
        except go.GradedOrthoError as err:
            return type(err)

    rng = np.random.default_rng(123)
    grams = [go.fourier_gram(0, rng.uniform(0.2, 3.0, 7)).matrix]
    for trial in range(300):
        # positive definite, kappa up to 1e8, real or complex, at 4^k
        n = int(rng.integers(1, 40))
        g = random_spd(rng, n, cond=10.0 ** rng.uniform(0.0, 8.0))
        if trial % 2:
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            g = hermitian((q * np.linalg.eigvalsh(g)) @ q.T)
        grams.append(g * 4.0 ** int(rng.integers(-29, 30)))
    for trial in range(400):
        # singular, in the band, just above it, or indefinite
        n = int(rng.integers(1, 12))
        w = rng.uniform(0.1, 10.0, n)
        w[rng.integers(n)] = (0.0, 1e-11, 2e-10, -1.0)[trial % 4] * w.max()
        grams.append(hermitian_from_spectrum(rng, w) * 4.0 ** int(rng.integers(-29, 30)))
    equal = refused = 0
    for g in grams:
        src = go.GramSource(go.GradedIndex([[f"v{i}" for i in range(len(g))]]), g)
        graded = outcome(go.orthonormalize_graded, src)
        reference = outcome(go.gram_method_reference, src)
        if isinstance(graded, type):
            assert graded is reference
            refused += 1
        else:
            assert np.array_equal(graded, reference)
            equal += 1
    assert equal > 300 and refused > 250  # 412 and 289


def test_gram_method_ignores_grading():
    rng = np.random.default_rng(7)
    src = go.GramSource(
        go.GradedIndex([["a", "b"], ["c"]]), random_spd(rng, 3, cond=10.0)
    )
    table = go.gram_method_reference(src)
    report = go.verify_table(src, table)
    assert report.passed
    assert not report.structural_ok


def test_references_satisfy_orthonormality():
    rng = np.random.default_rng(49)
    src = random_graded_source(rng, cond=1e3)
    for table in (go.gram_schmidt_reference(src), go.gram_method_reference(src)):
        assert go.verify_table(src, table, 1e-9).passed


def test_methods_genuinely_differ_on_multielement_levels():
    rng = np.random.default_rng(31)
    idx = go.GradedIndex([["a", "b"], ["c", "d"]])
    src = go.GramSource(idx, random_spd(rng, 4, cond=50.0))
    graded = go.orthonormalize_graded(src).matrix
    gs = go.gram_schmidt_reference(src).matrix
    assert np.max(np.abs(graded - gs)) > 1e-3


# --- brute-force projected-Gram oracle ---------------------------------------

def test_residual_gram_direct_base_cases():
    src = pair_source()
    table = go.orthonormalize_graded(src)
    assert np.array_equal(residual_gram_direct(src, table, 0), PAIR_GRAM[:1, :1])
    h = residual_gram_direct(src, table, 1)
    assert abs(h[0, 0] - 1.0) < 1e-14


def test_residual_gram_direct_identity_gram():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    for k in range(3):
        h = residual_gram_direct(src, table, k)
        sl = level_slice(src.index, k)
        assert np.max(np.abs(h - src.matrix[sl, sl])) < 1e-15


def test_projection_oracle_matches_block_recursion():
    rng = np.random.default_rng(404)
    for _ in range(5):
        src = random_graded_source(rng, cond=1e4)
        table = go.orthonormalize_graded(src)
        for k in range(len(src.index)):
            overlaps = [cross_overlap(src, table, k, j) for j in range(k)]
            deltas = [hermitian(d.conj().T @ d) for d in overlaps]
            sl = level_slice(src.index, k)
            b = residual_gram(src.matrix[sl, sl], deltas)
            h = residual_gram_direct(src, table, k)
            assert np.max(np.abs(b - h)) <= 1e-10
            # the batched loop's blocks equal the per-pair K^2 recursion
            # built from the public helpers
            q = table.normalizers[k]
            assembled = np.zeros_like(table.blocks[k])
            assembled[sl, :] = q
            for j, d in enumerate(overlaps):
                assembled += table.blocks[j] @ mixing_block(d, q)
            assert relative_error(table.blocks[k], assembled) <= 1e-12


# --- verify ------------------------------------------------------------------

def test_verify_identity_table_zero_residual():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    report = go.verify_table(src, table)
    assert report.max_residual == 0.0
    assert report.passed and report.structural_ok


def test_verify_detects_corruption():
    rng = np.random.default_rng(12)
    src = random_graded_source(rng, cond=100.0)
    table = go.orthonormalize_graded(src)
    table.blocks[0][0, 0] += 0.1
    report = go.verify_table(src, table)
    assert report.max_residual >= 0.01
    assert not report.passed


def test_verify_rejects_a_table_of_another_source():
    table = go.orthonormalize_graded(identity_source((1, 1)))
    with pytest.raises(ValueError, match="^the table has 2 coefficient rows, the source 5$"):
        go.verify_table(identity_source(), table)


@pytest.mark.parametrize(
    "matrix, stops, signs, message",
    [
        (np.eye(3)[:, :2], [1, 2], None, r"the matrix has shape \(3, 2\), expected \(2, 2\)"),
        (np.ones((2, 3)), [2, 3], None, r"the matrix has shape \(2, 3\), expected \(2, 2\)"),
        (np.eye(2), [1, 1, 2], None, r"column stops \[1, 1, 2\] must strictly increase to 2"),
        (np.eye(2), [2, 1], None, r"column stops \[2, 1\] must strictly increase to 2"),
        (np.eye(2), [0, 2], None, r"column stops \[0, 2\] must strictly increase to 2"),
        (np.eye(2), [1], None, r"column stops \[1\] must strictly increase to 2"),
        (np.eye(2), [], None, r"column stops \[\] must strictly increase to 2"),
        (np.eye(2), [1, 3], None, r"column stops \[1, 3\] must strictly increase to 2"),
        (np.eye(2)[:, :1], [1], None, r"the matrix has shape \(2, 1\), expected \(2, 2\)"),
        (np.zeros((2, 0)), [], None, r"the matrix has shape \(2, 0\), expected \(2, 2\)"),
        (np.eye(2), [1, 2], np.ones(1, dtype=np.int64), "1 signs for 2 coefficient columns"),
        (np.ones(2), [2], None, r"the matrix has shape \(2,\), expected \(2, 2\)"),
    ],
    ids=[
        "rows", "columns", "repeated-stop", "decreasing-stops", "empty-level",
        "short-stops", "no-stops", "stops-past-columns", "too-few-columns", "no-columns",
        "signs", "one-dimensional-matrix",
    ],
)
def test_table_rejects_a_wrong_shape(matrix, stops, signs, message):
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        go.CoefficientTable(idx, matrix, stops, signs)


@pytest.mark.parametrize(
    "signs, bad",
    [([1, 2], "2"), ([0, -1], "0"), ([-1.0, 1.5], "1.5")],
    ids=["two", "zero", "fraction"],
)
def test_table_rejects_a_sign_other_than_plus_or_minus_one(signs, bad):
    idx = go.GradedIndex([["a"], ["b"]])
    with pytest.raises(ValueError, match=f"^sign {bad} is neither \\+1 nor -1$"):
        go.CoefficientTable(idx, np.eye(2), [1, 2], signs)


# Every exemplar through the signed loop, the euclidean ones also through
# the euclidean loop.
LOOP_RUNS = [(p, True) for p in EXEMPLARS] + [
    (p, False) for p in EXEMPLARS if json.loads(p.read_text())["metric"] == "euclidean"
]


@pytest.mark.parametrize(
    "path, signed", LOOP_RUNS, ids=[f"{p.stem}-{'signed' if s else 'euclidean'}" for p, s in LOOP_RUNS]
)
def test_table_parts_are_views_of_the_loops_matrix(path, signed):
    source = parse_problem(path).source
    table = (go.pseudo_orthonormalize_graded if signed else go.orthonormalize_graded)(source)
    assert table.matrix.shape == (source.index.total,) * 2
    assert table.stops[-1] == source.index.total
    assert (table.signs is None) is not signed
    assert not signed or (table.signs.dtype == np.int64 and len(table.signs) == table.stops[-1])
    parts = table.blocks + table.normalizers
    assert all(np.shares_memory(part, table.matrix) for part in parts)


def test_verify_judges_every_block_after_a_level_mismatch():
    # block 0 merges input levels 0 and 1, which no Euclidean run does;
    # the blocks after it still count for the structural zeros and the
    # condition numbers
    src = identity_source((1, 1, 1, 1))
    matrix = np.eye(4, dtype=complex)
    matrix[3, 2] = 0.5  # a level-3 row of the level-2 block
    report = go.verify_table(src, go.CoefficientTable(src.index, matrix, [2, 3, 4]))
    assert report.levels_mismatch == (
        "levels[0] columns 0..1 merge input levels 0..1, which no run does"
    )
    assert report.output_levels == ()
    assert not report.structural_ok
    assert [lid for lid, _ in report.condition_numbers] == [1, 2, 3]
    assert not report.passed


def test_verify_condition_numbers_sane():
    src = pair_source()
    table = go.orthonormalize_graded(src)
    report = go.verify_table(src, table)
    assert [lid for lid, _ in report.condition_numbers] == [0, 1]
    for _, cond in report.condition_numbers:
        assert cond == pytest.approx(1.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_verify_reads_a_non_finite_normalizer_as_infinitely_conditioned(entry):
    # LAPACK's SVD does not converge on a NaN block; the table FAILs
    # with condition number inf instead of raising LinAlgError
    idx = go.GradedIndex([["a"], ["b"]])
    m = np.eye(2)
    m[0, 0] = entry
    report = go.verify_table(go.GramSource(idx, np.eye(2)), go.CoefficientTable(idx, m, [1, 2]))
    assert report.condition_numbers == ((0, math.inf), (1, 1.0))
    assert not report.passed


def exemplar_table(path):
    problem = parse_problem(path)
    if problem.metric == "pseudo":
        return problem.source, go.pseudo_orthonormalize_graded(problem.source)
    return problem.source, go.orthonormalize_graded(problem.source)


@pytest.mark.parametrize("path", EXEMPLARS, ids=lambda p: p.stem)
def test_verify_condition_numbers_match_per_level_oracles(path):
    # each level's singular-value condition number against numpy's svd and
    # against sqrt(lambda_max / lambda_min) of r^dagger r
    source, table = exemplar_table(path)
    report = go.verify_table(source, table)
    ids = [lid for lid, _ in table.output_levels()]
    assert [lid for lid, _ in report.condition_numbers] == ids
    for (_, cond), r in zip(report.condition_numbers, table.normalizers):
        s = np.linalg.svd(r, compute_uv=False)
        w = np.linalg.eigvalsh(r.conj().T @ r)
        for expected in (s[0] / s[-1], np.sqrt(w[-1] / w[0])):
            assert abs(cond - expected) <= 1e-13 * expected


def test_verify_condition_numbers_cover_signed_and_promoted_tables():
    tables = [exemplar_table(path)[1] for path in EXEMPLARS]
    assert any(table.signs is not None for table in tables)
    assert any(table.promotions for table in tables)


def test_verify_table_makes_no_eigh_calls(monkeypatch):
    calls = []
    original = spectral.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("gradedortho")]:
        if getattr(module, "eigh", None) is original:
            monkeypatch.setattr(module, "eigh", counting_eigh)
    source, table = exemplar_table(EXEMPLARS[0])
    assert calls, "the counter does not see the level loop's eigh calls"
    calls.clear()
    go.verify_table(source, table)
    assert calls == []


MONOMIAL_EUCLIDEAN = EXEMPLARS[0].parent / "monomial_euclidean.json"


def test_records_reject_attribute_assignment():
    problem = parse_problem(MONOMIAL_EUCLIDEAN)
    report = go.verify_table(problem.source, go.orthonormalize_graded(problem.source))
    for record, name in ((problem, "verify_tol"), (report, "passed")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_verify_fails_a_graded_table_with_a_broken_structural_zero():
    source = parse_problem(MONOMIAL_EUCLIDEAN).source
    table = go.orthonormalize_graded(source)
    table.blocks[0][6, 0] = 1e-12  # row 6 holds x^6, far above level 0
    report = go.verify_table(source, table)
    assert report.max_residual <= report.tolerance
    assert report.structural_ok is False
    assert report.passed is False


def test_verify_waives_the_zeros_of_the_gram_method():
    source = parse_problem(MONOMIAL_EUCLIDEAN).source
    assert len(source.index) > 1
    report = go.verify_table(source, go.gram_method_reference(source))
    assert report.structural_ok is False
    assert report.passed is True


BOOST = np.array([[np.cosh(0.5), np.sinh(0.5)], [np.sinh(0.5), np.cosh(0.5)]])


@pytest.mark.parametrize(
    "c,signs",
    [
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), None),  # a reflection: not positive definite
        (BOOST, np.array([1, -1])),  # positive definite, but signed
    ],
    ids=["reflection", "boost"],
)
def test_verify_waives_no_zeros_of_other_hermitian_tables(c, signs):
    # both tables are exactly Hermitian, meet C† G C = diag(signs) and
    # mix the two levels; neither is the Gram method's G^(-1/2)
    metric = np.diag([1.0, 1.0 if signs is None else -1.0])
    src = go.GramSource(go.GradedIndex([["a"], ["b"]]), metric)
    table = go.CoefficientTable(src.index, c, [1, 2], signs)
    report = go.verify_table(src, table)
    assert np.array_equal(c, c.conj().T)
    assert report.max_residual <= 1e-15
    assert report.structural_ok is False
    assert report.passed is False


# --- structural symmetries ----------------------------------------------------

def test_within_level_permutation_equivariance():
    rng = np.random.default_rng(2718)
    sizes = (2, 3, 2)
    idx = go.GradedIndex([[f"l{k}.{i}" for i in range(s)] for k, s in enumerate(sizes)])
    gram = random_spd(rng, idx.total, cond=100.0)
    src = go.GramSource(idx, gram)
    table = go.orthonormalize_graded(src)

    perm = [1, 2, 0]  # reorder the middle level's labels
    flat = list(range(idx.total))
    flat[2:5] = [2 + p for p in perm]
    pi = np.eye(idx.total)[flat, :]
    permuted_levels = [list(idx.levels[0]), [idx.levels[1][p] for p in perm], list(idx.levels[2])]
    src_p = go.GramSource(
        go.GradedIndex(permuted_levels), hermitian(pi @ gram @ pi.T)
    )
    table_p = go.orthonormalize_graded(src_p)

    # rows permute with pi; columns of the permuted level follow the labels
    for k in range(3):
        expected = pi @ table.blocks[k]
        if k == 1:
            expected = expected[:, perm]
        assert np.max(np.abs(table_p.blocks[k] - expected)) < 1e-12


def test_fourier_conjugate_symmetry_preserved():
    x = 2.0 * np.pi * np.arange(64) / 64
    src = go.fourier_gram(8, 2.0 + np.cos(x))
    table = go.orthonormalize_graded(src)
    harmonics = [0] + [h for k in range(1, 9) for h in (k, -k)]
    mirror = [harmonics.index(-h) for h in harmonics]
    for k in range(1, 9):
        plus = table.blocks[k][:, 0]
        minus = table.blocks[k][:, 1]
        assert np.max(np.abs(plus - np.conj(minus[mirror]))) < 1e-10


def test_legendre_regression():
    src = go.monomial_gram(1, 6, [(-1.0, 1.0)], quadrature_order=8)
    table = go.orthonormalize_graded(src)
    legendre = tensor_legendre_table(1, 6, [(-1.0, 1.0)])
    for k in range(7):
        got = table.blocks[k][:, 0]
        assert np.max(np.abs(got.imag)) < 1e-12
        assert np.max(np.abs(got.real - legendre[:, k])) < 1e-8


# Uniform weight on a box: the graded table and Gram-Schmidt's both equal
# the tensor-Legendre table.  Measured relative errors (graded / Gram-
# Schmidt): 1.4e-11 / 1.8e-11, 2.0e-10 / 1.9e-10 and 6.8e-10 / 1.4e-9;
# each bound is about ten times the larger one.
@pytest.mark.parametrize(
    "dimension, max_degree, box, tol",
    [
        (4, 8, [(-1.0, 1.0)] * 4, 2e-10),
        (2, 10, [(-1.0, 1.0)] * 2, 2e-9),
        (4, 4, [(-1.0, 2.0), (0.0, 1.0), (-3.0, -1.0), (0.5, 2.5)], 2e-8),
    ],
)
def test_tensor_legendre_is_graded_and_gram_schmidt(dimension, max_degree, box, tol):
    src = go.monomial_gram(dimension, max_degree, box)
    legendre = tensor_legendre_table(dimension, max_degree, box)
    for method in (go.orthonormalize_graded, go.gram_schmidt_reference):
        assert relative_error(method(src).matrix, legendre) <= tol, method.__name__


def test_high_precision_oracle_is_the_tensor_legendre_table():
    # the oracle is exact for the rounded G, the Legendre table for the
    # exact one: they differ by the input's rounding only
    box = [(0.0, 1.0), (-1.0, 2.0)]
    src = go.monomial_gram(2, 3, box)
    assert relative_error(graded_table_mp(src), tensor_legendre_table(2, 3, box)) <= 1e-12


def fourier_sampled_source():
    x = 2.0 * np.pi * np.arange(81) / 81
    return go.fourier_gram(20, 2.0 + np.cos(x) + 0.5 * np.sin(x) + 0.3 * np.sin(2 * x))


# Forward error of the graded loop against the 40-digit table, bounded by
# 4 eps kappa(G).  Measured ratios: 0.007 (monomial), 1.00 (Fourier,
# whose kappa is 3.4) and 0.03 (explicit).
@pytest.mark.parametrize(
    "make_source",
    [
        lambda: go.monomial_gram(
            2, 6, [(0.0, 1.0)] * 2, weight=np.random.default_rng(7).uniform(0.5, 2.0, 49)
        ),
        fourier_sampled_source,
        lambda: go.GramSource(
            index_from_sizes([1, 3, 6, 2, 8, 4, 5, 7, 4]),
            random_spd(np.random.default_rng(8), 40, cond=1e4),
        ),
    ],
    ids=["sampled-monomial-N28", "sampled-fourier-N41", "explicit-9-levels-N40"],
)
def test_graded_table_is_within_eps_kappa_of_the_high_precision_oracle(make_source):
    src = make_source()
    bound = 4.0 * np.finfo(float).eps * np.linalg.cond(src.matrix)
    assert relative_error(go.orthonormalize_graded(src).matrix, graded_table_mp(src)) <= bound


# --- the block three-term relation and the polar factors --------------------

def fourier_sampled(max_harmonic):
    """Builder arguments of the Fourier basis to ``max_harmonic`` under a
    weight with sine terms, sampled on the minimal grid 4M + 1."""
    n = 4 * max_harmonic + 1
    x = 2.0 * np.pi * np.arange(n) / n
    weight = 2.0 + np.cos(x) + 0.5 * np.sin(x) + 0.3 * np.sin(2 * x)
    return "fourier", {"max_harmonic": max_harmonic, "weight": weight}


def builder_args(problem):
    """(mode, keyword arguments of its Gram builder) of the contents of a
    Fourier or monomial problem file."""
    mode = problem["mode"]
    args = dict(problem[mode])
    args["weight"] = args.pop("weight", {}).get("values")
    if mode == "monomial":
        args["box"] = [tuple(interval) for interval in args["box"]]
    return mode, args


def exemplar_args(name):
    return builder_args(json.loads((ROOT / "problems" / f"{name}.json").read_text()))


def build(mode, args):
    return {"fourier": go.fourier_gram, "monomial": go.monomial_gram}[mode](**args)


UNIT_BOX = (0.0, 1.0)
SYMMETRIC_BOX = (-1.0, 1.0)
POLYNOMIAL_CASES = {
    "monomial-exemplar": lambda: exemplar_args("monomial_euclidean"),
    "fourier-exemplar": lambda: exemplar_args("fourier_euclidean"),
    "monomial_wide_levels-101": lambda: builder_args(benchmark_problem("monomial_wide_levels", 101)),
    "fourier_many_levels-101": lambda: builder_args(benchmark_problem("fourier_many_levels", 101)),
    "d2-deg6-unit": lambda: ("monomial", {"dimension": 2, "max_degree": 6, "box": [UNIT_BOX] * 2}),
    "d3-deg7-unit": lambda: ("monomial", {"dimension": 3, "max_degree": 7, "box": [UNIT_BOX] * 3}),
    "d1-deg16": lambda: ("monomial", {"dimension": 1, "max_degree": 16, "box": [SYMMETRIC_BOX]}),
    "d4-deg4": lambda: ("monomial", {"dimension": 4, "max_degree": 4, "box": [SYMMETRIC_BOX] * 4}),
    "d4-deg4-sampled": lambda: (
        "monomial",
        {
            "dimension": 4,
            "max_degree": 4,
            "box": [SYMMETRIC_BOX] * 4,
            "weight": np.random.default_rng(7).uniform(0.5, 2.0, 5**4),
        },
    ),
    "d4-deg8-N495": lambda: ("monomial", {"dimension": 4, "max_degree": 8, "box": [SYMMETRIC_BOX] * 4}),
    "fourier-M20": lambda: fourier_sampled(20),
    "fourier-M200": lambda: fourier_sampled(200),
}


def off_band_multiplication(mode, args, table):
    """max |J_kl| over output levels k, l with |k - l| > 1, J being the
    table's matrix of multiplication by each coordinate x_i (monomials)
    or by e^(ix) (Fourier): J = Φ† diag(w m) Φ, with Φ the table's
    vectors at the nodes of the source's rule and w its weights."""
    if mode == "fourier":
        points, weights, values = fourier_nodes(**args)
        multipliers = [np.exp(1j * points)]
    else:
        _, points, weights, values = monomial_nodes(**args)
        multipliers = list(points)
    phi = values.T @ table.matrix  # real on a monomial table
    level = np.searchsorted(table.stops, np.arange(phi.shape[1]), side="right")
    off = np.abs(level[:, None] - level[None, :]) > 1
    return max(
        float(np.max(np.abs(phi.conj().T @ ((weights * m)[:, None] * phi))[off], initial=0.0))
        for m in multipliers
    )


# Multiplication by x_i maps polynomials of total degree n into degrees
# n-1..n+1, and by e^(ix) the harmonics of level k into levels k-1..k+1
# (a vector v is the function sum_b v_b e^(-i h_b x)).  So on an
# orthonormal graded table J is block tridiagonal in the output levels,
# up to rounding.  Measured off-band max|J| / (residual + N eps) is at
# most 0.85 (d4-deg4, 2.0e-14 against 8.2e-15 + 70 eps); the others are
# 0.03-0.52, so c = 4 leaves a margin of 4.7 or more.
@pytest.mark.parametrize("case", sorted(POLYNOMIAL_CASES))
def test_graded_tables_satisfy_the_block_three_term_relation(case):
    mode, args = POLYNOMIAL_CASES[case]()
    src = build(mode, args)
    table = go.orthonormalize_graded(src)
    residual = go.verify_table(src, table).max_residual
    bound = 4.0 * (residual + src.index.total * np.finfo(float).eps)
    assert off_band_multiplication(mode, args, table) <= bound


@pytest.mark.parametrize("case", ["fourier-M20", "d2-deg6-unit"])
def test_the_gram_method_breaks_the_three_term_relation(case):
    # the Loewdin table mixes all levels: measured 1.3e-2 and 7.7e-2
    mode, args = POLYNOMIAL_CASES[case]()
    table = go.gram_method_reference(build(mode, args))
    assert off_band_multiplication(mode, args, table) > 1e-3


# The graded table is Gram-Schmidt's times one polar factor per level:
# with W S Z† the SVD of level k's diagonal block of C_GS, the columns
# C_GS[:hi, lo:hi] Z W† have a Hermitian positive definite diagonal
# block, and such an orthonormal block upper triangular table is unique.
# Measured max|ΔC| / max|C| / (eps κ(G)): 0.62, 0.61 and 0.009 on the
# exemplars, 1.35 on fourier-M200, 0.011 at N=495 and 0.038 on
# d3-deg7-unit, so c = 8 leaves a margin of 5.9 or more.
@pytest.mark.parametrize(
    "case",
    ["explicit_euclidean", "fourier_euclidean", "monomial_euclidean", "fourier-M200",
     "d4-deg8-N495", "d3-deg7-unit"],
)
def test_graded_table_is_gram_schmidt_times_one_polar_factor_per_level(case):
    if case in POLYNOMIAL_CASES:
        src = build(*POLYNOMIAL_CASES[case]())
    else:
        src = parse_problem(ROOT / "problems" / f"{case}.json").source
    gram_schmidt = go.gram_schmidt_reference(src).matrix
    polar = np.zeros_like(gram_schmidt)
    for lo, hi in zip((0, *src.index.ends[:-1]), src.index.ends):
        w, _, zh = np.linalg.svd(gram_schmidt[lo:hi, lo:hi])
        polar[:hi, lo:hi] = gram_schmidt[:hi, lo:hi] @ (zh.conj().T @ w.conj().T)
    bound = 8.0 * np.finfo(float).eps * np.linalg.cond(src.matrix)
    assert relative_error(polar, go.orthonormalize_graded(src).matrix) <= bound


# --- real and complex arithmetic ---------------------------------------------

EUCLIDEAN_METHODS = [go.orthonormalize_graded, go.gram_schmidt_reference, go.gram_method_reference]


def dtype_sources():
    """(source, metric) pairs: the exemplars, random complex draws and
    their real parts."""
    rng = np.random.default_rng(11)
    sources = []
    for path in EXEMPLARS:
        problem = parse_problem(path)
        sources.append((problem.source, problem.metric))
    for _ in range(3):
        for source, metric in (
            (random_graded_source(rng), "euclidean"),
            (random_indefinite_source(rng), "pseudo"),
        ):
            sources += [(source, metric), (real_part(source), metric)]
    return sources


def test_every_table_carries_the_dtype_of_g():
    seen = set()
    for source, metric in dtype_sources():
        methods = EUCLIDEAN_METHODS if metric == "euclidean" else []
        for method in [go.pseudo_orthonormalize_graded, *methods]:
            try:
                table = method(source)
            except go.GradedOrthoError:
                continue  # the real part of an indefinite draw may be refused
            assert table.matrix.dtype == source.matrix.dtype, method.__name__
            seen.add((metric, table.matrix.dtype))
    assert len(seen) == 4


def real_euclidean_source(case):
    """The seed-101 ``monomial_wide_levels`` source, or the real part of a
    Euclidean exemplar's G (G itself when it is real)."""
    if case == "monomial_wide_levels-101":
        return build(*POLYNOMIAL_CASES[case]())
    return real_part(parse_problem(ROOT / "problems" / f"{case}.json").source)


# For a diagonal unitary D the tables of D† G D are D† C D: the level
# blocks stay Hermitian positive definite and Gram-Schmidt's pivots
# positive, so the complex run of a rotated real G checks the real run.
# Measured max|ΔC| / max|C| / (eps κ(G)) over five draws of D: at most
# 1.22 (graded), 0.67 (Gram-Schmidt) and 2.39 (Gram method), so c = 16
# leaves a margin of 6.7; a run that drops an imaginary part is off by
# O(1).
@pytest.mark.parametrize("method", EUCLIDEAN_METHODS, ids=lambda m: m.__name__)
@pytest.mark.parametrize(
    "case",
    ["explicit_euclidean", "fourier_euclidean", "monomial_euclidean", "monomial_wide_levels-101"],
)
def test_complex_run_of_a_rotated_real_gram_is_the_rotated_real_table(case, method):
    source = real_euclidean_source(case)
    d, complex_source = rotated(source)
    assert source.matrix.dtype == np.float64
    assert complex_source.matrix.dtype == np.complex128
    real, complex_ = method(source), method(complex_source)
    assert complex_.stops == real.stops
    bound = 16.0 * np.finfo(float).eps * np.linalg.cond(source.matrix)
    assert relative_error(complex_.matrix, d.conj()[:, None] * real.matrix * d) <= bound


# --- Fourier sources: the Levinson route ------------------------------------

def the_loop(source):
    """The same G without the moments: the graded level loop runs it."""
    return go.GramSource(source.index, source.matrix)


def floored_weight(max_harmonic, floor):
    """floor + (1 + cos x)^2 (1 + 0.3 sin 3x) / 4 on the grid 4M + 1: at
    M = 100 a floor of 1e-6 gives κ(G) = 1.2e6."""
    n = 4 * max_harmonic + 1
    x = 2.0 * np.pi * np.arange(n) / n
    return floor + (1.0 + np.cos(x)) ** 2 * (1.0 + 0.3 * np.sin(3.0 * x)) / 4.0


FOURIER_ROUTE_CASES = {
    **{
        name: lambda name=name: parse_problem(ROOT / "problems" / f"{name}.json").source
        for name in ("fourier_euclidean", "fourier_pseudo")
    },
    **{
        f"fourier_many_levels-{seed}": lambda seed=seed: build(
            *builder_args(benchmark_problem("fourier_many_levels", seed))
        )
        for seed in (101, 202, 303)
    },
    "fourier-M200": lambda: build(*fourier_sampled(200)),
    "kappa-1.2e6": lambda: go.fourier_gram(100, floored_weight(100, 1e-6)),
}


# Measured max|ΔC| / max|C| / (eps κ(G)) against the loop: 0.31 and 0 on
# the exemplars, 2.8, 2.8 and 3.2 on fourier_many_levels, 2.0 at M=200
# and 0.07 at κ = 1.2e6, so c = 16 leaves a margin of 5.
@pytest.mark.parametrize("case", sorted(FOURIER_ROUTE_CASES))
def test_the_levinson_route_gives_the_loops_table_within_eps_kappa(case):
    source = FOURIER_ROUTE_CASES[case]()
    table, loop = go.orthonormalize_graded(source), go.orthonormalize_graded(the_loop(source))
    assert table.stops == loop.stops == source.index.ends
    assert table.matrix.dtype == loop.matrix.dtype == source.matrix.dtype
    bound = 16.0 * np.finfo(float).eps * np.linalg.cond(source.matrix)
    assert relative_error(table.matrix, loop.matrix) <= bound
    assert go.verify_table(source, table).passed
    # the signed run is the Euclidean one, with every sign +1
    signed = go.pseudo_orthonormalize_graded(source)
    assert np.array_equal(signed.matrix, table.matrix) and np.all(signed.signs == 1)


def test_a_fourier_source_takes_the_route_and_its_g_alone_the_loop(monkeypatch):
    # the route normalizes level 0 and then levels 1..M as one stack
    calls = []

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(go.ortho, "eigh", counting)
    source = go.fourier_gram(7, floored_weight(7, 0.1))
    go.orthonormalize_graded(source)
    assert calls == [(1, 1), (7, 2, 2)]
    calls.clear()
    go.orthonormalize_graded(the_loop(source))
    assert calls == [(1, 1)] + [(2, 2)] * 7


@pytest.mark.parametrize(
    "weight", [None, [3.0], [0.5, 2.0, 1e-3, 7.0]], ids=["uniform", "one", "four"]
)
def test_a_fourier_source_without_harmonics_is_the_gram_method_bit_for_bit(weight):
    source = go.fourier_gram(0, weight)
    reference = go.gram_method_reference(source).matrix
    for run in (go.orthonormalize_graded, go.pseudo_orthonormalize_graded):
        table = run(source)
        assert table.matrix.dtype == reference.dtype
        assert table.matrix.tobytes() == reference.tobytes()


def test_a_uniform_fourier_weight_gives_a_real_table():
    source = go.fourier_gram(6)
    assert source.matrix.dtype == source.moments.dtype == np.float64
    for run in (go.orthonormalize_graded, go.pseudo_orthonormalize_graded):
        table = run(source)
        assert table.matrix.dtype == np.float64
        assert np.array_equal(table.matrix, run(the_loop(source)).matrix)


def test_a_numerically_singular_fourier_weight_is_refused_as_the_loop_refuses_it():
    # a weight of width about 0.1 rad: the loop refuses level 5, as
    # LinearlyDependentInput under the Euclidean metric and as
    # DegenerateMetric under the signed one
    x = 2.0 * np.pi * np.arange(81) / 81
    source = go.fourier_gram(20, np.exp(-100.0 * np.sin(x / 2.0) ** 2))
    for run in (go.orthonormalize_graded, go.pseudo_orthonormalize_graded):
        raised = []
        for s in (source, the_loop(source)):
            with pytest.raises((go.LinearlyDependentInput, go.DegenerateMetric)) as info:
                run(s)
            raised.append((type(info.value), info.value.level))
        assert raised[0] == raised[1]
        assert raised[0][1] == 5


def test_a_signed_fourier_run_at_a_tolerance_of_1_refuses_level_0_on_the_route():
    # only a degeneracy_tol of 1 or more puts the constant in the band;
    # the route promotes nothing and refuses level 0, where the loop
    # promotes it and then fails (at M = 0 for want of a next level)
    for m, error, level in ((0, go.TerminalIsotropicVector, 0), (3, go.DegenerateMetric, 1)):
        source = go.fourier_gram(m, floored_weight(m, 0.1))
        with pytest.raises(go.DegenerateMetric) as info:
            go.pseudo_orthonormalize_graded(source, 2.0)
        assert info.value.level == 0
        with pytest.raises(error) as info:
            go.pseudo_orthonormalize_graded(the_loop(source), 2.0)
        assert info.value.level == level


@pytest.mark.parametrize("case", ["fourier_many_levels-101", "kappa-1.2e6"])
def test_scaling_a_fourier_weight_by_4_to_the_k_scales_c_by_2_to_the_minus_k(case):
    mode, args = (
        builder_args(benchmark_problem("fourier_many_levels", 101))
        if case.startswith("fourier")
        else ("fourier", {"max_harmonic": 100, "weight": floored_weight(100, 1e-6)})
    )
    for run in (go.orthonormalize_graded, go.pseudo_orthonormalize_graded):
        table = run(build(mode, args))
        for k in (-40, -20, 20, 40):
            scaled = dict(args, weight=np.asarray(args["weight"]) * 4.0**k)
            got = run(build(mode, scaled))
            assert got.stops == table.stops
            assert relative_error(got.matrix * 2.0**k, table.matrix) <= 4 * np.finfo(float).eps

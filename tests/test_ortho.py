"""The graded orthonormalization core and its reference methods."""

import sys
from pathlib import Path

import numpy as np
import pytest

import gradedortho as go
from gradedortho import spectral
from gradedortho.fileio import parse_problem

from conftest import random_graded_source, random_spd, relative_error
from oracles import cross_overlap, mixing_block, residual_gram, residual_gram_direct

PAIR_GRAM = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
EXEMPLARS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def pair_source():
    return go.build_explicit(go.GradedIndex([["a"], ["b"]]), PAIR_GRAM)


def identity_source(sizes=(2, 1, 2)):
    levels = [[f"l{k}.{i}" for i in range(s)] for k, s in enumerate(sizes)]
    idx = go.GradedIndex(levels)
    return go.build_explicit(idx, np.eye(idx.total))


# --- cross_overlap ----------------------------------------------------------

def test_cross_overlap_vanishes_for_identity_gram():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    for k in range(1, 3):
        for j in range(k):
            d = cross_overlap(src, table.partial(k), k, j)
            assert np.max(np.abs(d)) == 0.0


def test_cross_overlap_pair_case():
    src = pair_source()
    table = go.orthonormalize_graded(src).partial(1)
    d = cross_overlap(src, table, 1, 0)
    # f0 = e1 and the plane vectors are e1=(1,0), e2=(1,1): overlap is 1
    assert d.shape == (1, 1)
    assert abs(d[0, 0] - 1.0) < 1e-14


def test_cross_overlap_fourier_uniform_vanishes():
    src = go.fourier_gram(1, go.WeightFunction.uniform())
    table = go.orthonormalize_graded(src).partial(1)
    d = cross_overlap(src, table, 1, 0)
    assert np.max(np.abs(d)) < 1e-15


def test_cross_overlap_level_not_ready():
    src = pair_source()
    empty = go.CoefficientTable(src.index, [])
    with pytest.raises(go.LevelNotReady):
        cross_overlap(src, empty, 1, 0)
    table = go.orthonormalize_graded(src)
    with pytest.raises(go.LevelNotReady):
        cross_overlap(src, table, 1, 1)


def test_partial_rejects_levels_out_of_range():
    table = go.orthonormalize_graded(identity_source())
    assert table.partial(0).completed == 0
    for upto in (-1, table.completed + 1):
        with pytest.raises(go.LevelNotReady):
            table.partial(upto)


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
    table = go.orthonormalize_graded(src).partial(1)
    d = cross_overlap(src, table, 1, 0)
    delta = go.hermitize(d.conj().T @ d)[0]
    b = residual_gram(PAIR_GRAM[1:, 1:], [delta])
    assert abs(b[0, 0] - 1.0) < 1e-14


def test_residual_gram_shape_mismatch():
    with pytest.raises(go.ShapeMismatch):
        residual_gram(np.eye(2), [np.eye(3)])


def test_level_normalizer_cases():
    assert np.allclose(go.level_normalizer(np.eye(2))[0], np.eye(2), atol=1e-14)
    assert np.allclose(go.level_normalizer(np.array([[4.0]]))[0], [[0.5]], atol=1e-15)
    q, signs = go.level_normalizer(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert list(signs) == [1, 1]
    expected = np.array([[1.115355, -0.298858], [-0.298858, 1.115355]])
    assert np.max(np.abs(q - expected)) < 1e-6


def test_level_normalizer_reports_level_on_failure():
    with pytest.raises(go.LinearlyDependentInput) as info:
        go.level_normalizer(np.array([[1.0, 1.0], [1.0, 1.0]]), level=3)
    assert info.value.level == 3
    with pytest.raises(go.DegenerateMetric) as info:
        go.level_normalizer(np.diag([1.0, -2.0]), level=1)
    assert info.value.level == 1
    with pytest.raises(go.DegenerateMetric, match="level 2: projected Gram block is degenerate"):
        go.level_normalizer(np.diag([1.0, 0.0]), level=2, signed=True)


def test_mixing_block_cases():
    assert np.max(np.abs(mixing_block(np.zeros((2, 2)), np.eye(2)))) == 0.0
    assert mixing_block(np.array([[1.0]]), np.array([[1.0]]))[0, 0] == -1.0
    with pytest.raises(go.ShapeMismatch):
        mixing_block(np.ones((1, 2)), np.ones((3, 3)))


def test_pair_fixture_full_chain():
    # D=[1], Q=[1], P=[-1]: f1 = e2 - e1 = (0, 1) in the plane
    src = pair_source()
    table = go.orthonormalize_graded(src)
    assert np.allclose(table.matrix().real, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


# --- orthonormalize_graded ---------------------------------------------------

def test_identity_gram_gives_identity_table():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    assert np.array_equal(table.matrix(), np.eye(5))


def test_fourier_uniform_scalar_normalization():
    src = go.fourier_gram(1, go.WeightFunction.uniform())
    table = go.orthonormalize_graded(src)
    scale = 1.0 / np.sqrt(2.0 * np.pi)
    assert np.allclose(table.matrix(), scale * np.eye(3), atol=1e-15)


def test_fourier_constant_level_real_positive():
    weight = go.WeightFunction.samples(2.0 + np.cos(2 * np.pi * np.arange(64) / 64))
    src = go.fourier_gram(4, weight)
    table = go.orthonormalize_graded(src)
    f0 = table.blocks[0][:, 0]
    assert f0[0].imag == 0.0
    assert f0[0].real > 0.0
    assert np.max(np.abs(f0[1:])) == 0.0


def test_linear_dependence_names_level():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.LinearlyDependentInput) as info:
        go.orthonormalize_graded(src)
    assert info.value.level == 1


def test_indefinite_metric_rejected_in_euclidean_mode():
    idx = go.GradedIndex([["a", "b"]])
    src = go.build_explicit(idx, np.array([[0.0, 1.0], [1.0, 0.0]]))
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
            assert go.eigh(q).values[-1] > 0.0


# --- references and degenerations -------------------------------------------

def test_gram_schmidt_reference_examples():
    src = identity_source()
    assert np.array_equal(go.gram_schmidt_reference(src).matrix(), np.eye(5))
    table = go.gram_schmidt_reference(pair_source())
    assert np.allclose(table.matrix().real, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_gram_schmidt_blocks_match_block_recursion():
    # Gram-Schmidt tables obey the same recursion as graded ones:
    # blocks[k] = E_k q + sum_j blocks[j] @ mixing_block(cross_overlap, q)
    rng = np.random.default_rng(405)
    for _ in range(3):
        src = random_graded_source(rng, cond=1e4)
        table = go.gram_schmidt_reference(src)
        for k in range(len(src.index)):
            partial = table.partial(k)
            q = table.normalizers[k]
            assembled = np.zeros_like(table.blocks[k])
            assembled[src.index.level_slice(k), :] = q
            for j in range(k):
                d = cross_overlap(src, partial, k, j)
                assembled += table.blocks[j] @ mixing_block(d, q)
            assert relative_error(table.blocks[k], assembled) <= 1e-12


def test_gram_schmidt_detects_dependence():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.LinearlyDependentInput):
        go.gram_schmidt_reference(src)


def test_singleton_levels_degenerate_to_gram_schmidt():
    rng = np.random.default_rng(99)
    for _ in range(5):
        n = int(rng.integers(3, 10))
        idx = go.GradedIndex([[f"v{i}"] for i in range(n)])
        src = go.build_explicit(idx, random_spd(rng, n, cond=1e4))
        graded = go.orthonormalize_graded(src)
        reference = go.gram_schmidt_reference(src)
        assert np.max(np.abs(graded.matrix() - reference.matrix())) < 1e-10


def test_gram_method_reference_examples():
    src = identity_source()
    assert np.allclose(go.gram_method_reference(src).matrix(), np.eye(5), atol=1e-14)
    idx = go.GradedIndex([["a", "b"]])
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    src2 = go.build_explicit(idx, g)
    table = go.gram_method_reference(src2)
    assert np.array_equal(table.matrix(), go.level_normalizer(g)[0])


def test_single_level_degenerates_to_gram_method():
    rng = np.random.default_rng(123)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        idx = go.GradedIndex([[f"v{i}" for i in range(n)]])
        src = go.build_explicit(idx, random_spd(rng, n, cond=1e3))
        graded = go.orthonormalize_graded(src)
        reference = go.gram_method_reference(src)
        assert np.max(np.abs(graded.matrix() - reference.matrix())) < 1e-12
        normalizer, _ = go.level_normalizer(src.matrix)
        assert np.max(np.abs(graded.normalizers[0] - normalizer)) < 1e-12


def test_gram_method_ignores_grading():
    rng = np.random.default_rng(7)
    src = go.build_explicit(
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
    src = go.build_explicit(idx, random_spd(rng, 4, cond=50.0))
    graded = go.orthonormalize_graded(src).matrix()
    gs = go.gram_schmidt_reference(src).matrix()
    assert np.max(np.abs(graded - gs)) > 1e-3


# --- brute-force projected-Gram oracle ---------------------------------------

def test_residual_gram_direct_base_cases():
    src = pair_source()
    empty = go.CoefficientTable(src.index, [])
    assert np.array_equal(residual_gram_direct(src, empty, 0), PAIR_GRAM[:1, :1])
    table = go.orthonormalize_graded(src)
    h = residual_gram_direct(src, table.partial(1), 1)
    assert abs(h[0, 0] - 1.0) < 1e-14
    with pytest.raises(go.LevelNotReady):
        residual_gram_direct(src, table.partial(1), 2)


def test_residual_gram_direct_identity_gram():
    src = identity_source()
    table = go.orthonormalize_graded(src)
    for k in range(3):
        h = residual_gram_direct(src, table.partial(k), k)
        sl = src.index.level_slice(k)
        assert np.max(np.abs(h - src.matrix[sl, sl])) < 1e-15


def test_projection_oracle_matches_block_recursion():
    rng = np.random.default_rng(404)
    for _ in range(5):
        src = random_graded_source(rng, cond=1e4)
        table = go.orthonormalize_graded(src)
        for k in range(len(src.index)):
            partial = table.partial(k)
            overlaps = [cross_overlap(src, partial, k, j) for j in range(k)]
            deltas = [go.hermitize(d.conj().T @ d)[0] for d in overlaps]
            sl = src.index.level_slice(k)
            b = residual_gram(src.matrix[sl, sl], deltas)
            h = residual_gram_direct(src, partial, k)
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


def test_verify_rejects_blocks_with_more_columns_than_inputs():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, np.eye(2))
    table = go.CoefficientTable(idx, [np.eye(2), np.eye(2)[:, :1]])
    with pytest.raises(go.ShapeMismatch, match="3 coefficient columns for 2 inputs"):
        go.verify_table(src, table)


def test_verify_condition_numbers_sane():
    src = pair_source()
    table = go.orthonormalize_graded(src)
    report = go.verify_table(src, table)
    assert [lid for lid, _ in report.condition_numbers] == [0, 1]
    for _, cond in report.condition_numbers:
        assert cond == pytest.approx(1.0)


def exemplar_table(path):
    problem = parse_problem(path)
    if problem.metric == "pseudo":
        return problem.source, go.pseudo_orthonormalize_graded(problem.source)
    return problem.source, go.orthonormalize_graded(problem.source)


@pytest.mark.parametrize("path", EXEMPLARS, ids=lambda p: p.stem)
def test_verify_condition_numbers_match_per_level_oracles(path):
    # the batched singular values against each level's own svd and
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
    decomposition = go.eigh(np.eye(2))
    for record, name in ((problem, "verify_tol"), (report, "passed"), (decomposition, "values")):
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
        (BOOST, [np.array([1]), np.array([-1])]),  # positive definite, but signed
    ],
    ids=["reflection", "boost"],
)
def test_verify_waives_no_zeros_of_other_hermitian_tables(c, signs):
    # both tables are exactly Hermitian, meet C† G C = diag(signs) and
    # mix the two levels; neither is the Gram method's G^(-1/2)
    src = go.build_explicit(go.GradedIndex([["a"], ["b"]]), np.diag([1.0, -1.0 if signs else 1.0]))
    table = go.CoefficientTable(src.index, [c[:, :1], c[:, 1:]], signs)
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
    src = go.build_explicit(idx, gram)
    table = go.orthonormalize_graded(src)

    perm = [1, 2, 0]  # reorder the middle level's labels
    flat = list(range(idx.total))
    flat[2:5] = [2 + p for p in perm]
    pi = np.eye(idx.total)[flat, :]
    permuted_levels = [list(idx.levels[0]), [idx.levels[1][p] for p in perm], list(idx.levels[2])]
    src_p = go.build_explicit(
        go.GradedIndex(permuted_levels), go.hermitize(pi @ gram @ pi.T)[0]
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
    weight = go.WeightFunction.samples(2.0 + np.cos(x))
    src = go.fourier_gram(8, weight)
    table = go.orthonormalize_graded(src)
    harmonics = [0] + [h for k in range(1, 9) for h in (k, -k)]
    mirror = [harmonics.index(-h) for h in harmonics]
    for k in range(1, 9):
        plus = table.blocks[k][:, 0]
        minus = table.blocks[k][:, 1]
        assert np.max(np.abs(plus - np.conj(minus[mirror]))) < 1e-10


def test_legendre_regression():
    spec = go.MonomialBasisSpec(dimension=1, max_degree=6, box=[(-1.0, 1.0)],
                                quadrature_order=8)
    src = go.monomial_gram(spec)
    table = go.orthonormalize_graded(src)
    # three-term recurrence oracle: (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(1, 6):
        lifted = np.zeros(k + 2)
        lifted[1:] = (2 * k + 1) * polys[k]
        lifted[: k] -= k * polys[k - 1]
        polys.append(lifted / (k + 1))
    for k in range(7):
        expected = np.zeros(7)
        expected[: k + 1] = polys[k] * np.sqrt((2 * k + 1) / 2.0)
        got = table.blocks[k][:, 0]
        assert np.max(np.abs(got.imag)) < 1e-12
        assert np.max(np.abs(got.real - expected)) < 1e-8

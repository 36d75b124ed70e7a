"""Pseudo-Euclidean orthonormalization, promotion, and the
Gram-Schmidt obstruction demonstration."""

import importlib.util
import json
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

import gradedortho as go
from gradedortho import ortho
from gradedortho.cli import main
from gradedortho.fileio import parse_problem, result_payload, write_result
from gradedortho.ortho import _structural_zeros_ok

from conftest import random_indefinite_source, random_spd, relative_error
from oracles import (
    NotACounterexample,
    cross_overlap,
    gram_schmidt_isotropic_obstruction,
    mixing_block,
)

PROMOTION_GRAM = np.array([[0.0, 1.0], [1.0, 2.0]], dtype=complex)
ROOT = Path(__file__).resolve().parent.parent


def signed_residual(source, table):
    c = table.matrix()
    target = np.diag(np.concatenate(table.signs).astype(complex))
    return np.max(np.abs(c.conj().T @ source.matrix @ c - target))


# --- is_lone_isotropic --------------------------------------------------------

def test_lone_isotropic_cases():
    assert go.is_lone_isotropic(np.array([[0.0]]))
    assert not go.is_lone_isotropic(np.array([[1.0]]))
    assert go.is_lone_isotropic(np.array([[1e-14]]), scale=1.0)
    assert not go.is_lone_isotropic(np.eye(2))


def test_lone_isotropic_respects_scale():
    # same entry, different level scales
    assert not go.is_lone_isotropic(np.array([[1e-8]]), scale=1.0)
    assert go.is_lone_isotropic(np.array([[1e-8]]), scale=1e3)


# --- pseudo_orthonormalize_graded ----------------------------------------------

def test_positive_definite_reduces_to_euclidean_exactly():
    rng = np.random.default_rng(61)
    idx = go.GradedIndex([["a", "b"], ["c", "d", "e"], ["f"]])
    src = go.build_explicit(idx, random_spd(rng, 6, cond=1e3))
    euclid = go.orthonormalize_graded(src)
    signed = go.pseudo_orthonormalize_graded(src)
    assert np.array_equal(euclid.matrix(), signed.matrix())
    assert len(euclid.normalizers) == len(signed.normalizers)
    assert all(np.array_equal(q, r) for q, r in zip(euclid.normalizers, signed.normalizers))
    assert euclid.signs is None
    assert all(np.all(s == 1) for s in signed.signs)
    assert signed.promotions == []
    assert signed.output_levels() == tuple(enumerate(idx.levels))


def test_single_level_minkowski_plane():
    idx = go.GradedIndex([["a", "b"]])
    g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    src = go.build_explicit(idx, g)
    table = go.pseudo_orthonormalize_graded(src)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(table.blocks[0][:, 0], [s, s], atol=1e-14)
    assert np.allclose(table.blocks[0][:, 1], [s, -s], atol=1e-14)
    assert list(table.signs[0]) == [1, -1]
    assert signed_residual(src, table) < 1e-14


def test_isotropic_leader_promoted():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, PROMOTION_GRAM)
    table = go.pseudo_orthonormalize_graded(src)
    assert table.promotions == [(0, "a", 1)]
    assert table.output_levels() == ((1, ("a", "b")),)
    assert list(table.signs[0]) == [1, -1]
    assert signed_residual(src, table) < 1e-12
    # signature of the merged block is (1, 1)
    w = np.linalg.eigvalsh(src.matrix)
    assert (int(np.sum(w > 0)), int(np.sum(w < 0))) == (1, 1)


def test_euclidean_loop_never_promotes():
    src = go.build_explicit(go.GradedIndex([["a"], ["b"]]), PROMOTION_GRAM)
    with pytest.raises(go.LinearlyDependentInput) as info:
        go.orthonormalize_graded(src)
    assert info.value.level == 0
    assert go.pseudo_orthonormalize_graded(src).promotions == [(0, "a", 1)]


def test_trailing_isotropic_vector_is_terminal():
    idx = go.GradedIndex([["b"], ["a"]])
    src = go.build_explicit(idx, np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(go.TerminalIsotropicVector) as info:
        go.pseudo_orthonormalize_graded(src)
    assert info.value.level == 1
    assert info.value.label == "a"


def test_single_isotropic_vector_is_terminal():
    idx = go.GradedIndex([["a"]])
    src = go.build_explicit(idx, np.array([[0.0]], dtype=complex))
    with pytest.raises(go.TerminalIsotropicVector):
        go.pseudo_orthonormalize_graded(src)


def test_promotion_keeps_filtration_zeros():
    # three levels; the level-0 vector is isotropic and joins level 1,
    # level 2 must stay untouched by the merged columns
    g = np.array(
        [
            [0.0, 1.0, 0.3],
            [1.0, 2.0, -0.4],
            [0.3, -0.4, -1.0],
        ],
        dtype=complex,
    )
    idx = go.GradedIndex([["a"], ["b"], ["c"]])
    src = go.build_explicit(idx, g)
    table = go.pseudo_orthonormalize_graded(src)
    assert table.promotions == [(0, "a", 1)]
    assert [lid for lid, _ in table.output_levels()] == [1, 2]
    merged = table.blocks[0]
    assert merged.shape == (3, 2)
    assert np.all(merged[2, :] == 0.0)  # level-2 rows exactly zero
    assert signed_residual(src, table) < 1e-12
    report = go.verify_table(src, table, 1e-12)
    assert report.passed and report.structural_ok
    # the merged columns end with level 1, so row 2 alone must be zero
    broken = [merged.copy(), table.blocks[1]]
    broken[0][2, 0] = 1e-12
    assert not _structural_zeros_ok(idx, broken)


def test_partial_of_signed_table_keeps_signs_and_output_levels():
    g = np.array(
        [[0.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]],
        dtype=complex,
    )
    src = go.build_explicit(go.GradedIndex([["a"], ["b"], ["c", "d"]]), g)
    table = go.pseudo_orthonormalize_graded(src)
    assert [lid for lid, _ in table.output_levels()] == [1, 2]
    for k in range(1, table.completed + 1):
        part = table.partial(k)
        assert [lid for lid, _ in part.output_levels()] == [1, 2][:k]
        assert [labels for _, labels in part.output_levels()] == [("a", "b"), ("c", "d")][:k]
        assert len(part.signs) == k
        assert part.promotions == [(0, "a", 1)]
        report = go.verify_table(src, part, 1e-12)
        assert report.passed and report.structural_ok


def test_partial_keeps_only_promotions_into_kept_levels():
    rng = np.random.default_rng(505)
    idx = go.GradedIndex([["a", "b"], ["c"], ["d", "e"], ["f"], ["g", "h", "i"]])
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    g = go.hermitize(a + a.conj().T)[0]
    g[2, 2] = g[5, 5] = 0.0
    src = go.build_explicit(idx, g)
    table = go.pseudo_orthonormalize_graded(src)
    kept = [[], [(1, "c", 2)], [(1, "c", 2), (3, "f", 4)]]
    for k in range(1, table.completed + 1):
        part = table.partial(k)
        assert part.promotions == kept[k - 1]
        assert [lid for lid, _ in part.output_levels()] == [0, 2, 4][:k]
        report = go.verify_table(src, part, 1e-9)
        assert report.passed and report.structural_ok
        assert report.levels_mismatch is None
        assert report.output_levels == part.output_levels()


def test_degenerate_multielement_level_rejected():
    # level 1 projects to a degenerate block: violates the hypothesis
    idx = go.GradedIndex([["a", "b"]])
    src = go.build_explicit(idx, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    with pytest.raises(go.DegenerateMetric) as info:
        go.pseudo_orthonormalize_graded(src)
    assert info.value.level == 0


def test_random_indefinite_suite():
    rng = np.random.default_rng(777)
    for _ in range(10):
        src = random_indefinite_source(rng)
        table = go.pseudo_orthonormalize_graded(src)
        assert signed_residual(src, table) <= 1e-9
        w = np.linalg.eigvalsh(src.matrix)
        p, q = int(np.sum(w > 0)), int(np.sum(w < 0))
        eps_sum = sum(int(np.sum(s)) for s in table.signs)
        assert eps_sum == p - q
        report = go.verify_table(src, table, 1e-9)
        assert report.passed and report.structural_ok


def test_signed_oracle_matches_block_recursion_with_promotion():
    # sizes 2, 1, 2, 1, 3; both singletons are exactly isotropic and get
    # promoted into the level after them
    rng = np.random.default_rng(505)
    idx = go.GradedIndex([["a", "b"], ["c"], ["d", "e"], ["f"], ["g", "h", "i"]])
    for _ in range(5):
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        g = go.hermitize(a + a.conj().T)[0]
        g[2, 2] = g[5, 5] = 0.0
        src = go.build_explicit(idx, g)
        table = go.pseudo_orthonormalize_graded(src)
        assert table.promotions == [(1, "c", 2), (3, "f", 4)]
        sizes = [len(labels) for _, labels in table.output_levels()]
        assert sizes == [2, 3, 4]
        for k, stop in enumerate(accumulate(sizes)):
            cols = slice(stop - sizes[k], stop)
            r = table.normalizers[k]
            assembled = np.zeros_like(table.blocks[k])
            assembled[cols, :] = r
            for j in range(k):
                d = table.blocks[j].conj().T @ g[:, cols]
                assembled += table.blocks[j] @ mixing_block(table.signs[j][:, None] * d, r)
            assert relative_error(table.blocks[k], assembled) <= 1e-12
        assert signed_residual(src, table) <= 1e-9


def test_signed_projection_reduces_to_plain_when_all_positive():
    # with every finished sign +1 the signed correction equals the
    # euclidean one on the same overlaps
    rng = np.random.default_rng(8)
    src = go.build_explicit(
        go.GradedIndex([["a", "b"], ["c", "d"]]), random_spd(rng, 4, cond=10.0)
    )
    table = go.orthonormalize_graded(src)
    partial = table.partial(1)
    d = cross_overlap(src, partial, 1, 0)
    plain = go.hermitize(d.conj().T @ d)[0]
    signs = np.ones(2, dtype=np.int64)
    signed = go.hermitize(d.conj().T @ (signs[:, None] * d))[0]
    assert np.array_equal(plain, signed)


def test_signed_table_verifies_against_signed_target():
    idx = go.GradedIndex([["a", "b"]])
    g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    src = go.build_explicit(idx, g)
    table = go.pseudo_orthonormalize_graded(src)
    report = go.verify_table(src, table, 1e-12)
    assert report.passed


# --- verify_table judges the merges ---------------------------------------------

def test_verify_table_fails_a_merged_non_isotropic_singleton():
    # orthonormal, zeros intact, merged as a promotion would: but the
    # vector of level 0 is not isotropic, so no run makes this table
    source = parse_problem(ROOT / "problems" / "fourier_pseudo.json").source
    table = go.pseudo_orthonormalize_graded(source)
    assert [len(labels) for _, labels in table.output_levels()[:2]] == [1, 2]
    assert not table.promotions
    merged = go.CoefficientTable(
        source.index,
        [np.hstack(table.blocks[:2])] + table.blocks[2:],
        [np.concatenate(table.signs[:2])] + table.signs[2:],
    )
    report = go.verify_table(source, merged)
    assert report.max_residual <= report.tolerance and report.structural_ok
    assert report.levels_mismatch == (
        "levels[0] columns 0..2 merge input level 0 into 1, but its vector is not isotropic"
    )
    assert report.output_levels == ()
    assert report.passed is False
    assert "output levels: mismatch (levels[0] columns 0..2" in "\n".join(report.lines())


def promotion_problem(name, tmp_path):
    """Path of ``explicit_pseudo.json`` (one isotropic singleton), or of the
    ``pseudo_explicit`` benchmark problem of seed 101 (N=200, three)."""
    if name == "explicit_pseudo":
        return ROOT / "problems" / "explicit_pseudo.json"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / "pseudo_explicit.json"
    path.write_text(json.dumps(workloads.pseudo_explicit(101).problem), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", ["explicit_pseudo", "pseudo_explicit-101"])
def test_verify_table_re_decides_promotions_from_the_loops_bits(monkeypatch, tmp_path, name):
    source = parse_problem(promotion_problem(name, tmp_path)).source
    calls = []
    original = ortho._projected_block

    def recording(gram, c, signs, lo, hi):
        b, sd = original(gram, c, signs, lo, hi)
        if hi - lo == 1:
            calls.append((lo, b.copy()))
        return b, sd

    monkeypatch.setattr(ortho, "_projected_block", recording)
    table = go.pseudo_orthonormalize_graded(source)
    looped = dict(calls)
    calls.clear()
    report = go.verify_table(source, table)
    promoted = [source.index.offsets[k] for k, *_ in table.promotions]
    assert len(promoted) == {"explicit_pseudo": 1, "pseudo_explicit-101": 3}[name]
    assert [lo for lo, _ in calls] == promoted
    for lo, b in calls:
        assert b.tobytes() == looped[lo].tobytes()
    assert report.passed and report.levels_mismatch is None
    assert report.output_levels == table.output_levels()


@pytest.mark.parametrize("name", ["explicit_pseudo", "pseudo_explicit-101"])
def test_table_rebuilt_from_its_blocks_keeps_its_levels_and_verifies(tmp_path, name):
    # the output levels and promotions follow from the blocks alone, so a
    # table rebuilt from (index, blocks, signs) writes the same file
    path = promotion_problem(name, tmp_path)
    problem = parse_problem(path)
    table = go.pseudo_orthonormalize_graded(problem.source)
    rebuilt = go.CoefficientTable(table.index, table.blocks, table.signs)
    assert rebuilt.output_levels() == table.output_levels()
    assert rebuilt.promotions == table.promotions
    assert len(rebuilt.promotions) == {"explicit_pseudo": 1, "pseudo_explicit-101": 3}[name]
    files = []
    for t in (table, rebuilt):
        report = go.verify_table(problem.source, t, problem.verify_tol, problem.degeneracy_tol)
        files.append(tmp_path / f"result-{len(files)}.json")
        write_result(files[-1], result_payload(problem, t, report, "graded"))
    assert files[0].read_bytes() == files[1].read_bytes()
    assert main(["verify", str(path), str(files[1])]) == 0


# --- obstruction demonstration --------------------------------------------------

def test_obstruction_trace_for_isotropic_leader():
    trace = gram_schmidt_isotropic_obstruction(PROMOTION_GRAM)
    assert trace.coefficient == 0.0
    assert trace.right_side == -1.0
    assert not trace.solvable


def test_obstruction_rejects_orthogonal_pair():
    with pytest.raises(NotACounterexample):
        gram_schmidt_isotropic_obstruction(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_obstruction_rejects_non_isotropic_leader():
    with pytest.raises(NotACounterexample):
        gram_schmidt_isotropic_obstruction(np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_obstruction_rejects_wrong_shape():
    with pytest.raises(NotACounterexample):
        gram_schmidt_isotropic_obstruction(np.eye(3))

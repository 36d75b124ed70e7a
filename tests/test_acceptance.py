"""Acceptance suite: one test per release criterion.

Each test prints a single [C##] PASS/FAIL line (run pytest with -s to
see them) and asserts at the criterion's stated tolerance.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import gradedortho as go
from gradedortho.cli import EXIT_OK, main

from conftest import (
    index_from_sizes,
    random_graded_source,
    random_indefinite_source,
    random_spd,
)
from oracles import (
    NotACounterexample,
    cross_overlap,
    gram_schmidt_isotropic_obstruction,
    residual_gram,
    residual_gram_direct,
)

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


def report(cid, ok, detail):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def suite_corpus():
    rng = np.random.default_rng(20240901)
    return [random_graded_source(rng, cond=1e4) for _ in range(200)]


def test_c01_orthonormality_suite(suite_corpus):
    worst = 0.0
    start = time.perf_counter()
    for src in suite_corpus:
        table = go.orthonormalize_graded(src)
        residual = go.verify_table(src, table, 1e-9).max_residual
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(
        "C01 orthonormality-suite",
        ok,
        f"200 problems, worst residual {worst:.3e} (<=1e-9), "
        f"elapsed {elapsed:.2f}s (<=10s)",
    )


def test_c02_projected_gram_oracle(suite_corpus):
    worst = 0.0
    for src in suite_corpus:
        table = go.orthonormalize_graded(src)
        for k in range(len(src.index)):
            partial = table.partial(k)
            overlaps = [cross_overlap(src, partial, k, j) for j in range(k)]
            deltas = [go.hermitize(d.conj().T @ d)[0] for d in overlaps]
            sl = src.index.level_slice(k)
            block = residual_gram(src.matrix[sl, sl], deltas)
            oracle = residual_gram_direct(src, partial, k)
            worst = max(worst, float(np.max(np.abs(block - oracle))))
    ok = worst <= 1e-10
    report(
        "C02 projected-gram-oracle",
        ok,
        f"every level of 200 problems, worst block difference {worst:.3e} (<=1e-10)",
    )


def test_c03_gram_schmidt_degeneration():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 13))
        idx = index_from_sizes([1] * n)
        src = go.build_explicit(idx, random_spd(rng, n, cond=1e4))
        graded = go.orthonormalize_graded(src).matrix()
        reference = go.gram_schmidt_reference(src).matrix()
        worst = max(worst, float(np.max(np.abs(graded - reference))))
    ok = worst <= 1e-10
    report(
        "C03 gram-schmidt-degeneration",
        ok,
        f"50 singleton-level problems, worst table difference {worst:.3e} (<=1e-10)",
    )


def test_c04_gram_method_degeneration():
    rng = np.random.default_rng(27182)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        idx = index_from_sizes([n])
        src = go.build_explicit(idx, random_spd(rng, n, cond=1e4))
        table = go.orthonormalize_graded(src)
        normalizer, _ = go.level_normalizer(src.matrix)
        worst = max(worst, float(np.max(np.abs(table.normalizers[0] - normalizer))))
    ok = worst <= 1e-12
    report(
        "C04 gram-method-degeneration",
        ok,
        f"50 single-level problems, worst normalizer difference {worst:.3e} (<=1e-12)",
    )


def test_c05_fourier_conjugate_symmetry():
    x = 2.0 * np.pi * np.arange(64) / 64
    weight = go.WeightFunction.samples(2.0 + np.cos(x))
    src = go.fourier_gram(8, weight)
    table = go.orthonormalize_graded(src)
    harmonics = [0] + [h for k in range(1, 9) for h in (k, -k)]
    mirror = [harmonics.index(-h) for h in harmonics]
    worst = 0.0
    for k in range(1, 9):
        plus = table.blocks[k][:, 0]
        minus = table.blocks[k][:, 1]
        worst = max(worst, float(np.max(np.abs(plus - np.conj(minus[mirror])))))
    f0 = table.blocks[0][0, 0]
    ok = worst <= 1e-10 and f0.imag == 0.0 and f0.real > 0.0
    report(
        "C05 conjugate-symmetry",
        ok,
        f"weight 2+cos(x), 64 points, 8 harmonics: worst mirror defect "
        f"{worst:.3e} (<=1e-10), constant output {f0.real:.6f} real positive",
    )


def test_c06_legendre_regression():
    spec = go.MonomialBasisSpec(
        dimension=1, max_degree=6, box=[(-1.0, 1.0)], quadrature_order=8
    )
    src = go.monomial_gram(spec)
    table = go.orthonormalize_graded(src)
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(1, 6):
        lifted = np.zeros(k + 2)
        lifted[1:] = (2 * k + 1) * polys[k]
        lifted[:k] -= k * polys[k - 1]
        polys.append(lifted / (k + 1))
    worst = 0.0
    for k in range(7):
        expected = np.zeros(7)
        expected[: k + 1] = polys[k] * np.sqrt((2 * k + 1) / 2.0)
        got = table.blocks[k][:, 0].real
        worst = max(worst, float(np.max(np.abs(got - expected))))
    ok = worst <= 1e-8
    report(
        "C06 legendre-regression",
        ok,
        f"degree 6 on [-1,1]: worst coefficient error {worst:.3e} (<=1e-8)",
    )


def test_c07_pseudo_orthonormalization():
    rng = np.random.default_rng(16180)
    worst = 0.0
    signatures_ok = True
    for _ in range(100):
        src = random_indefinite_source(rng)
        table = go.pseudo_orthonormalize_graded(src)
        c = table.matrix()
        target = np.diag(np.concatenate(table.signs).astype(complex))
        worst = max(worst, float(np.max(np.abs(c.conj().T @ src.matrix @ c - target))))
        w = np.linalg.eigvalsh(src.matrix)
        p, q = int(np.sum(w > 0)), int(np.sum(w < 0))
        eps_sum = sum(int(np.sum(s)) for s in table.signs)
        signatures_ok = signatures_ok and (eps_sum == p - q)
    ok = worst <= 1e-9 and signatures_ok
    report(
        "C07 pseudo-orthonormalization",
        ok,
        f"100 indefinite problems, worst residual {worst:.3e} (<=1e-9), "
        f"sign counts match signature: {signatures_ok}",
    )


def test_c08_isotropic_promotion():
    idx = go.GradedIndex([["a"], ["b"]])
    src = go.build_explicit(idx, np.array([[0.0, 1.0], [1.0, 2.0]], dtype=complex))
    table = go.pseudo_orthonormalize_graded(src)
    promoted = table.promotions == [(0, "a", 1)]
    residual = go.verify_table(src, table, 1e-12).max_residual
    reversed_idx = go.GradedIndex([["b"], ["a"]])
    reversed_src = go.build_explicit(
        reversed_idx, np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex)
    )
    raised = False
    try:
        go.pseudo_orthonormalize_graded(reversed_src)
    except go.TerminalIsotropicVector:
        raised = True
    ok = promoted and residual <= 1e-12 and raised
    report(
        "C08 isotropic-promotion",
        ok,
        f"promotion logged: {promoted}, residual {residual:.3e} (<=1e-12), "
        f"reversed order raised TerminalIsotropicVector: {raised}",
    )


def test_c09_pseudo_gram_schmidt_counterexample():
    trace = gram_schmidt_isotropic_obstruction(
        np.array([[0.0, 1.0], [1.0, 2.0]], dtype=complex)
    )
    unsolvable = (not trace.solvable) and trace.coefficient == 0.0 and trace.right_side == -1.0
    exception_case = False
    try:
        gram_schmidt_isotropic_obstruction(
            np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        )
    except NotACounterexample:
        exception_case = True
    ok = unsolvable and exception_case
    report(
        "C09 pseudo-gs-counterexample",
        ok,
        f"[[0,1],[1,2]] unsolvable trace: {unsolvable}, orthogonal pair "
        f"rejected as the stated exception: {exception_case}",
    )


def test_c10_within_level_equivariance():
    rng = np.random.default_rng(6022)
    sizes = (2, 3, 2)
    idx = index_from_sizes(list(sizes))
    gram = random_spd(rng, idx.total, cond=1e3)
    src = go.build_explicit(idx, gram)
    table = go.orthonormalize_graded(src)
    perm = [2, 0, 1]
    flat = list(range(idx.total))
    flat[2:5] = [2 + p for p in perm]
    pi = np.eye(idx.total)[flat, :]
    levels = [list(idx.levels[0]), [idx.levels[1][p] for p in perm], list(idx.levels[2])]
    src_p = go.build_explicit(
        go.GradedIndex(levels), go.hermitize(pi @ gram @ pi.T)[0]
    )
    table_p = go.orthonormalize_graded(src_p)
    worst = 0.0
    for k in range(3):
        expected = pi @ table.blocks[k]
        if k == 1:
            expected = expected[:, perm]
        worst = max(worst, float(np.max(np.abs(table_p.blocks[k] - expected))))
    ok = worst <= 1e-12
    report(
        "C10 within-level-equivariance",
        ok,
        f"3-element level permuted: worst coefficient difference {worst:.3e} (<=1e-12)",
    )


def test_c11_cli_round_trip(tmp_path):
    exemplars = sorted(PROBLEM_DIR.glob("*.json"))
    all_ok = len(exemplars) == 6
    deterministic = True
    for problem in exemplars:
        out1 = tmp_path / (problem.stem + ".1.json")
        out2 = tmp_path / (problem.stem + ".2.json")
        all_ok = all_ok and main(["run", str(problem), "--output", str(out1)]) == EXIT_OK
        all_ok = all_ok and main(["verify", str(problem), str(out1)]) == EXIT_OK
        main(["run", str(problem), "--output", str(out2)])
        deterministic = deterministic and out1.read_bytes() == out2.read_bytes()
    ok = all_ok and deterministic
    report(
        "C11 cli-round-trip",
        ok,
        f"{len(exemplars)} exemplars run+verify exit 0: {all_ok}, "
        f"consecutive runs byte-identical: {deterministic}",
    )


def test_c12_scale_sanity():
    rng = np.random.default_rng(1000)
    sizes = [10] * 10  # total dimension 100
    idx = index_from_sizes(sizes)
    gram = random_spd(rng, 100, cond=1e4)
    src = go.build_explicit(idx, gram)
    start = time.perf_counter()
    table = go.orthonormalize_graded(src)
    residual = go.verify_table(src, table, 1e-9).max_residual
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0 and residual <= 1e-9
    report(
        "C12 scale-sanity",
        ok,
        f"dimension 100 in {elapsed:.2f}s (<5s), residual {residual:.3e}",
    )

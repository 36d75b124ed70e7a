"""Hermitian spectral operations: examples with independent oracles,
then the quantified invariants."""

import importlib
import pkgutil

import numpy as np
import pytest

import gradedortho as go
from gradedortho import spectral
from gradedortho.fileio import parse_problem
from gradedortho.ortho import level_normalizer
from gradedortho.spectral import eigh, max_abs

from conftest import (
    ROOT,
    hermitian,
    hermitian_from_spectrum,
    random_graded_source,
    random_indefinite_source,
    random_spd,
    real_part,
)

EXEMPLARS = sorted((ROOT / "problems").glob("*.json"))


def eig2x2(a):
    """Characteristic-polynomial oracle for Hermitian 2x2 matrices."""
    tr = (a[0, 0] + a[1, 1]).real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = np.sqrt(tr * tr / 4.0 - det)
    return tr / 2.0 + disc, tr / 2.0 - disc


# --- symmetrization (GramSource, through _hermitian_part) -------------------

def test_hermitian_part_identity_untouched():
    h = go.GramSource(go.GradedIndex([["a", "b"]]), np.eye(2)).matrix
    assert np.array_equal(h, np.eye(2))
    assert max_abs(h - np.eye(2)) == 0.0


def test_hermitian_part_keeps_hermitian_input():
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    h = go.GramSource(go.GradedIndex([["a"], ["b"]]), a).matrix
    assert np.array_equal(h, a)
    assert max_abs(h - a) == 0.0


def test_hermitian_part_rejects_rectangular():
    with pytest.raises(ValueError, match=r"Gram matrix shape \(2, 3\) does not match the 2 indexed elements"):
        go.GramSource(go.GradedIndex([["a", "b"]]), np.ones((2, 3)))


# --- eigh ------------------------------------------------------------------

def test_eigh_diagonal_case():
    values, vectors = eigh(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(values, [3.0, 1.0])
    assert np.allclose(vectors, np.eye(2))


def test_eigh_symmetric_offdiagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    values, vectors = eigh(a)
    assert np.allclose(values, eig2x2(a), atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(vectors), [[s, s], [s, s]], atol=1e-14)
    # phase convention: largest-magnitude component real positive
    assert np.allclose(vectors[:, 0], [s, s], atol=1e-14)
    assert np.allclose(vectors[:, 1], [s, -s], atol=1e-14)


def test_eigh_complex_case_matches_oracle():
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    values, _ = eigh(a)
    assert np.allclose(values, eig2x2(a), atol=1e-14)
    assert np.allclose(values, [3.0, 1.0])


def test_eigh_maps_lapack_failure_to_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(go.NoConvergence) as info:
        eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize(
    "dtype, residual", [(np.float64, "inf"), (np.complex128, "nan")], ids=["real", "complex"]
)
def test_eigh_rejects_an_eigenvalue_that_overflows(dtype, residual):
    # finite and Hermitian, but its eigenvalue 2.7e308 overflows inside
    # LAPACK, so the reconstruction residual is inf in real arithmetic
    # and NaN in complex (inf times a zero imaginary part).
    # level_normalizer never passes such a block (it scales max|a_ij|
    # into [1/2, 2)), so eigh does not silence the warnings; the
    # package's path through this matrix is pinned in test_cli.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(go.NoConvergence, match=f"residual {residual}"):
            eigh(np.array([[1.7e308, 1e308], [1e308, 1.7e308]], dtype=dtype))


@pytest.mark.parametrize("n", [3, 8, 21, 64])
def test_eigh_reconstruction_invariant(n):
    rng = np.random.default_rng(n)
    a = random_spd(rng, n, cond=1e6)
    values, vectors = eigh(a)
    recon = (vectors * values) @ vectors.conj().T
    assert np.max(np.abs(recon - a)) <= 1e-11 * n * np.max(np.abs(a))
    unit = vectors.conj().T @ vectors
    assert np.max(np.abs(unit - np.eye(n))) < 1e-13
    assert np.all(np.diff(values) <= 0)


def test_eigh_phases_match_the_column_by_column_rule():
    # reference: one column at a time, scaled by the conjugate phase of
    # its largest-magnitude entry
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 17):
        a = random_spd(rng, n, cond=1e3)
        expected = np.linalg.eigh(hermitian(a))[1][:, ::-1].copy()
        for col in expected.T:
            pivot = col[np.argmax(np.abs(col))]
            col *= pivot.conjugate() / abs(pivot)
        assert np.max(np.abs(eigh(a)[1] - expected)) <= 4 * np.finfo(float).eps


def test_every_eigh_call_gets_a_non_empty_finite_block_scaled_into_half_to_two(monkeypatch):
    # eigh has no guard for an empty, non-finite or unscaled block: the
    # package never passes one.  Wrap it wherever the package holds it,
    # run every method, and check what each call receives: a block of
    # the source's dtype among the rest.
    blocks = []
    dtype = []

    def recording(a):
        blocks.append((a, dtype[-1]))
        return eigh(a)

    names = ["gradedortho"] + [
        f"gradedortho.{m.name}" for m in pkgutil.iter_modules(go.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        if getattr(module, "eigh", None) is eigh:
            monkeypatch.setattr(module, "eigh", recording)

    def run(source, signed):
        dtype.append(source.matrix.dtype)
        methods = (
            [go.pseudo_orthonormalize_graded]
            if signed
            else [go.orthonormalize_graded, go.gram_method_reference]
        )
        for method in methods:
            try:
                method(source)
            except (go.GradedOrthoError, ValueError):
                pass

    for path in EXEMPLARS:
        problem = parse_problem(path)
        run(problem.source, problem.metric == "pseudo")
    rng = np.random.default_rng(2024)
    for _ in range(4):
        run(random_graded_source(rng), False)
        run(random_indefinite_source(rng), True)
        run(real_part(random_graded_source(rng)), False)
        run(real_part(random_indefinite_source(rng)), True)
    g = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, -1.0], [0.5, -1.0, -2.5]])
    for scale in (1.7e308 / 3.0, 1e-320, 0.0):
        for levels in ([["a", "b", "c"]], [["a"], ["b", "c"]]):
            index = go.GradedIndex(levels)
            run(go.GramSource(index, scale * np.abs(g)), False)
            run(go.GramSource(index, scale * g), True)

    zero_blocks = 0
    assert {np.dtype(np.float64), np.dtype(np.complex128)} == {d for _, d in blocks}
    # a Fourier source's levels 1..M come as one (M, 2, 2) stack; each
    # block of a stack is judged as a 2-D call is
    assert any(a.ndim == 3 for a, _ in blocks)
    for stack, source_dtype in blocks:
        assert stack.ndim in (2, 3) and stack.size
        for a in stack.reshape(-1, *stack.shape[-2:]):
            largest = max_abs(a)
            assert stack.dtype == source_dtype and a.ndim == 2 and a.shape[0] == a.shape[1] >= 1
            assert np.isfinite(a).all()
            assert largest == 0.0 or 0.5 <= largest < 2.0
            zero_blocks += largest == 0.0
    # on G = 0 each of the three methods, on each grading, decomposes
    # one zero block and refuses it
    assert zero_blocks == 6 and len(blocks) > zero_blocks


def test_eigh_matches_lapack_eigenvalues():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 12, cond=1e4)
    values, _ = eigh(a)
    reference = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(values - reference)) < 1e-10 * np.max(np.abs(reference))


def test_eigh_degenerate_spectrum_still_unitary():
    rng = np.random.default_rng(17)
    a = hermitian_from_spectrum(rng, [2.0, 2.0, 2.0, 1.0])
    values, vectors = eigh(a)
    unit = vectors.conj().T @ vectors
    assert np.max(np.abs(unit - np.eye(4))) < 1e-13
    recon = (vectors * values) @ vectors.conj().T
    assert np.max(np.abs(recon - a)) < 1e-13


# --- level_normalizer: inverse square root of a definite block --------------

def test_level_normalizer_definite_identity():
    r, signs = level_normalizer(np.eye(3))
    assert np.allclose(r, np.eye(3), atol=1e-14)
    assert list(signs) == [1, 1, 1]


def test_level_normalizer_definite_diagonal():
    q, _ = level_normalizer(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(q, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_level_normalizer_definite_frozen_2x2():
    a = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    q, _ = level_normalizer(a)
    # hand eigendecomposition: eigenvalues 1.5 and 0.5
    expected = np.array([[1.115355, -0.298858], [-0.298858, 1.115355]])
    assert np.max(np.abs(q - expected)) < 1e-6
    assert np.max(np.abs(q @ a @ q - np.eye(2))) < 1e-14


def test_level_normalizer_definite_rejects_singular_and_indefinite():
    with pytest.raises(go.LinearlyDependentInput):
        level_normalizer(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.DegenerateMetric):
        level_normalizer(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n,cond", [(4, 10.0), (16, 1e3), (40, 1e6), (64, 1e6)])
def test_level_normalizer_definite_defining_relation_random_spd(n, cond):
    rng = np.random.default_rng(int(n + cond))
    a = random_spd(rng, n, cond=cond)
    q, _ = level_normalizer(a)
    assert np.max(np.abs(q @ a @ q - np.eye(n))) <= 1e-10
    # result is itself Hermitian positive definite
    assert np.array_equal(q, q.conj().T)
    assert eigh(q)[0][-1] > 0


def test_level_normalizer_definite_permutation_equivariance():
    rng = np.random.default_rng(23)
    n = 9
    a = random_spd(rng, n, cond=50.0)
    perm = rng.permutation(n)
    pi = np.eye(n)[:, perm]
    lhs, _ = level_normalizer(hermitian(pi.T @ a @ pi))
    rhs = pi.T @ level_normalizer(a)[0] @ pi
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- level_normalizer: signature of a signed block --------------------------

def signature(signs):
    return int(np.sum(signs > 0)), int(np.sum(signs < 0))


def test_level_normalizer_signed_minkowski_diag():
    _, signs = level_normalizer(np.diag([1.0, -1.0]).astype(complex), signed=True)
    assert signature(signs) == (1, 1)


def test_level_normalizer_signed_offdiagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, signs = level_normalizer(a, signed=True)
    assert signature(signs) == (1, 1)
    assert np.allclose(eigh(a)[0], [1.0, -1.0])


def test_level_normalizer_signed_positive_diag():
    _, signs = level_normalizer(np.diag([2.0, 3.0, 5.0]).astype(complex), signed=True)
    assert signature(signs) == (3, 0)


def test_level_normalizer_signed_rejects_degenerate():
    with pytest.raises(go.DegenerateMetric):
        level_normalizer(np.diag([1.0, 0.0]).astype(complex), signed=True)


def test_signature_matches_lapack_count():
    rng = np.random.default_rng(31)
    w = np.array([4.0, 2.5, 1.0, -0.5, -3.0])
    a = hermitian_from_spectrum(rng, w)
    p, q = signature(level_normalizer(a, signed=True)[1])
    reference = np.linalg.eigvalsh(a)
    assert p == int(np.sum(reference > 0)) and q == int(np.sum(reference < 0))


# --- level_normalizer: congruence to diag(+1.., -1..) -----------------------

def test_level_normalizer_signed_minkowski_identity():
    r, signs = level_normalizer(np.diag([1.0, -1.0]).astype(complex), signed=True)
    assert np.allclose(r, np.eye(2), atol=1e-14)
    assert list(signs) == [1, -1]


def test_level_normalizer_signed_euclidean_reduces_to_inv_sqrt():
    a = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    r, signs = level_normalizer(a, signed=True)
    assert list(signs) == [1, 1]
    assert np.array_equal(r, level_normalizer(a, signed=False)[0])
    r2, signs2 = level_normalizer(np.eye(2), signed=True)
    assert np.allclose(r2, np.eye(2), atol=1e-14)
    assert list(signs2) == [1, 1]


def test_level_normalizer_signed_offdiagonal_case():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    r, signs = level_normalizer(a, signed=True)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(r[:, 0], [s, s], atol=1e-14)
    assert np.allclose(r[:, 1], [s, -s], atol=1e-14)
    assert list(signs) == [1, -1]
    assert np.max(np.abs(r.conj().T @ a @ r - np.diag([1.0, -1.0]))) < 1e-14


def test_level_normalizer_signed_defining_relation_random():
    rng = np.random.default_rng(41)
    for trial in range(10):
        w = rng.uniform(0.1, 10.0, size=6) * rng.choice([-1.0, 1.0], size=6)
        w[0], w[-1] = abs(w[0]), -abs(w[-1])
        a = hermitian_from_spectrum(rng, w)
        r, signs = level_normalizer(a, signed=True)
        target = np.diag(signs.astype(complex))
        assert np.max(np.abs(r.conj().T @ a @ r - target)) < 1e-12
        assert list(signs) == sorted(signs, reverse=True)


def test_level_normalizer_signed_all_negative():
    a = np.diag([-2.0, -0.5]).astype(complex)
    r, signs = level_normalizer(a, signed=True)
    assert list(signs) == [-1, -1]
    assert np.max(np.abs(r.conj().T @ a @ r + np.eye(2))) < 1e-14


def test_deterministic_outputs():
    rng = np.random.default_rng(55)
    a = random_spd(rng, 10, cond=1e3)
    (values1, vectors1), (values2, vectors2) = eigh(a), eigh(a)
    assert np.array_equal(values1, values2)
    assert np.array_equal(vectors1, vectors2)
    assert np.array_equal(level_normalizer(a)[0], level_normalizer(a)[0])


# --- stacks: one call on an (..., n, n) stack is its blocks' 2-D calls ------

def bits(a):
    """The bytes of an array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).tobytes()


def block_stack(rng, n, kinds, real):
    """One block per kind, at random units 4^k: "definite" (positive),
    "negative" (negative definite), "mixed" (both signs), "singular"
    (one eigenvalue inside the band) or "indefinite" (one far below
    minus the band); with raw blocks b times 0.5 to 2."""
    spectra = {
        "definite": lambda: rng.uniform(0.1, 1.0, n),
        "negative": lambda: -rng.uniform(0.1, 1.0, n),
        "mixed": lambda: rng.uniform(0.1, 1.0, n) * np.resize([1.0, -1.0], n),
        "singular": lambda: np.concatenate([rng.uniform(0.1, 1.0, n - 1), [1e-13]]),
        "indefinite": lambda: np.concatenate([rng.uniform(0.1, 1.0, n - 1), [-0.5]]),
    }
    blocks = []
    for kind in kinds:
        a = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
        q = np.linalg.qr(a)[0]
        blocks.append((q * spectra[kind]()) @ q.conj().T * 4.0 ** int(rng.integers(-30, 31)))
    stack = spectral._hermitian_part(np.array(blocks))
    return stack, stack * rng.uniform(0.5, 2.0, (len(kinds), 1, 1))


def outcome(call):
    """(r, signs) of a call, or the type, message and level it raised."""
    try:
        return call()
    except (go.GradedOrthoError, ValueError) as err:
        return type(err), str(err), getattr(err, "level", None)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_stack_gives_each_block_the_bits_of_its_own_call(n, real):
    rng = np.random.default_rng(100 * n + real)
    kinds = ["definite", "negative", "mixed"] if n > 1 else ["definite", "negative"]
    for signed in (False, True):
        for _ in range(4):
            picks = list(rng.choice(kinds if signed else ["definite"], size=6))
            stack, raw = block_stack(rng, n, picks, real)
            levels = list(range(3, 9))
            r, signs = level_normalizer(stack, 1e-10, levels, signed, raw)
            assert r.shape == stack.shape and signs.shape == stack.shape[:2]
            assert r.dtype == stack.dtype
            for j in range(len(picks)):
                rj, sj = level_normalizer(stack[j], 1e-10, levels[j], signed, raw[j])
                assert bits(r[j]) == bits(rj) and np.array_equal(signs[j], sj)
            values, vectors = eigh(stack / np.max(np.abs(stack), axis=(1, 2))[:, None, None])
            for j, block in enumerate(stack):
                vj, wj = eigh(block / np.max(np.abs(block)))
                assert bits(values[j]) == bits(vj) and bits(vectors[j]) == bits(wj)
                assert bits(spectral._hermitian_part(stack)[j]) == bits(
                    spectral._hermitian_part(block)
                )
    # more than one leading axis: level ids of the same shape
    stack, raw = block_stack(rng, n, ["definite"] * 6, real)
    r, signs = level_normalizer(
        stack.reshape(2, 3, n, n), 1e-10, [[1, 2, 3], [4, 5, 6]], False, raw.reshape(2, 3, n, n)
    )
    flat, flat_signs = level_normalizer(stack, 1e-10, range(1, 7), False, raw)
    assert bits(r.reshape(stack.shape)) == bits(flat)
    assert np.array_equal(signs.reshape(flat_signs.shape), flat_signs)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize(
    "kinds, signed, error, level",
    [
        (["definite", "singular", "definite", "indefinite"], False, go.LinearlyDependentInput, 2),
        (["definite", "definite", "indefinite", "singular"], False, go.DegenerateMetric, 3),
        (["definite", "mixed", "singular", "indefinite"], True, go.DegenerateMetric, 3),
        (["nonfinite", "singular"], False, ValueError, 1),
        (["definite", "singular", "nonfinite"], False, go.LinearlyDependentInput, 2),
        (["definite", "mixed", "nonfinite", "indefinite"], True, ValueError, 3),
    ],
)
def test_a_stack_raises_the_error_of_its_lowest_refused_block(kinds, signed, error, level, real):
    # the first block whose own call fails decides: its class, message
    # and level, whatever the blocks after it hold
    rng = np.random.default_rng(len(kinds) + 10 * signed + real)
    stack, raw = block_stack(rng, 3, [k.replace("nonfinite", "definite") for k in kinds], real)
    stack[[k == "nonfinite" for k in kinds], 0, 0] = np.inf
    levels = list(range(1, len(kinds) + 1))
    own = outcome(lambda: level_normalizer(stack[level - 1], 1e-10, level, signed, raw[level - 1]))
    assert own[0] is error and f"level {level}:" in own[1]
    for j in range(level - 1):  # the blocks before it pass
        level_normalizer(stack[j], 1e-10, levels[j], signed, raw[j])
    assert outcome(lambda: level_normalizer(stack, 1e-10, levels, signed, raw)) == own

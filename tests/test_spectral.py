"""Hermitian spectral operations: examples with independent oracles,
then the quantified invariants."""

import numpy as np
import pytest

import gradedortho as go

from conftest import hermitian_from_spectrum, random_spd


def eig2x2(a):
    """Characteristic-polynomial oracle for Hermitian 2x2 matrices."""
    tr = (a[0, 0] + a[1, 1]).real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = np.sqrt(tr * tr / 4.0 - det)
    return tr / 2.0 + disc, tr / 2.0 - disc


# --- hermitize -------------------------------------------------------------

def test_hermitize_identity_untouched():
    h, adj = go.hermitize(np.eye(2))
    assert np.array_equal(h, np.eye(2))
    assert adj == 0.0


def test_hermitize_averages_offdiagonal():
    a = np.array([[0.0, 1.0], [1.0 + 1e-15j, 0.0]])
    h, adj = go.hermitize(a)
    assert h[0, 1] == np.conj(h[1, 0])
    assert adj == pytest.approx(5e-16, rel=0.5)


def test_hermitize_keeps_hermitian_input():
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    h, adj = go.hermitize(a)
    assert np.array_equal(h, a)
    assert adj == 0.0


def test_hermitize_rejects_rectangular():
    with pytest.raises(go.NonSquare):
        go.hermitize(np.ones((2, 3)))


def test_hermitize_rejects_nan():
    with pytest.raises(ValueError):
        go.hermitize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- eigh ------------------------------------------------------------------

def test_eigh_diagonal_case():
    dec = go.eigh(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(dec.values, [3.0, 1.0])
    assert np.allclose(dec.vectors, np.eye(2))


def test_eigh_symmetric_offdiagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    dec = go.eigh(a)
    assert np.allclose(dec.values, eig2x2(a), atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(dec.vectors), [[s, s], [s, s]], atol=1e-14)
    # phase convention: largest-magnitude component real positive
    assert np.allclose(dec.vectors[:, 0], [s, s], atol=1e-14)
    assert np.allclose(dec.vectors[:, 1], [s, -s], atol=1e-14)


def test_eigh_complex_case_matches_oracle():
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    dec = go.eigh(a)
    assert np.allclose(dec.values, eig2x2(a), atol=1e-14)
    assert np.allclose(dec.values, [3.0, 1.0])


def test_eigh_maps_lapack_failure_to_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(go.NoConvergence) as info:
        go.eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigh_rejects_an_eigenvalue_that_overflows():
    # finite and Hermitian, but its eigenvalue 2.7e308 overflows inside
    # LAPACK, so the reconstruction residual is NaN
    with pytest.raises(go.NoConvergence, match="residual nan"):
        go.eigh(np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))


@pytest.mark.parametrize("n", [3, 8, 21, 64])
def test_eigh_reconstruction_invariant(n):
    rng = np.random.default_rng(n)
    a = random_spd(rng, n, cond=1e6)
    dec = go.eigh(a)
    recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
    assert np.max(np.abs(recon - a)) <= 1e-11 * n * np.max(np.abs(a))
    unit = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(unit - np.eye(n))) < 1e-13
    assert np.all(np.diff(dec.values) <= 0)


def test_eigh_phases_match_the_column_by_column_rule():
    # reference: one column at a time, scaled by the conjugate phase of
    # its largest-magnitude entry
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 17):
        a = random_spd(rng, n, cond=1e3)
        expected = np.linalg.eigh(go.hermitize(a)[0])[1][:, ::-1].copy()
        for col in expected.T:
            pivot = col[np.argmax(np.abs(col))]
            col *= pivot.conjugate() / abs(pivot)
        assert np.max(np.abs(go.eigh(a).vectors - expected)) <= 4 * np.finfo(float).eps


def test_eigh_of_an_empty_matrix():
    dec = go.eigh(np.zeros((0, 0)))
    assert dec.values.shape == (0,)
    assert dec.vectors.shape == (0, 0)


def test_eigh_matches_lapack_eigenvalues():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 12, cond=1e4)
    dec = go.eigh(a)
    reference = np.linalg.eigvalsh(a)[::-1]
    assert np.max(np.abs(dec.values - reference)) < 1e-10 * np.max(np.abs(reference))


def test_eigh_degenerate_spectrum_still_unitary():
    rng = np.random.default_rng(17)
    a = hermitian_from_spectrum(rng, [2.0, 2.0, 2.0, 1.0])
    dec = go.eigh(a)
    unit = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(unit - np.eye(4))) < 1e-13
    recon = (dec.vectors * dec.values) @ dec.vectors.conj().T
    assert np.max(np.abs(recon - a)) < 1e-13


# --- level_normalizer: inverse square root of a definite block --------------

def test_inv_sqrt_identity():
    r, signs = go.level_normalizer(np.eye(3))
    assert np.allclose(r, np.eye(3), atol=1e-14)
    assert list(signs) == [1, 1, 1]


def test_inv_sqrt_diagonal():
    q, _ = go.level_normalizer(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(q, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_inv_sqrt_frozen_2x2():
    a = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    q, _ = go.level_normalizer(a)
    # hand eigendecomposition: eigenvalues 1.5 and 0.5
    expected = np.array([[1.115355, -0.298858], [-0.298858, 1.115355]])
    assert np.max(np.abs(q - expected)) < 1e-6
    assert np.max(np.abs(q @ a @ q - np.eye(2))) < 1e-14


def test_inv_sqrt_rejects_singular_and_indefinite():
    with pytest.raises(go.LinearlyDependentInput):
        go.level_normalizer(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(go.DegenerateMetric):
        go.level_normalizer(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n,cond", [(4, 10.0), (16, 1e3), (40, 1e6), (64, 1e6)])
def test_inv_sqrt_defining_relation_random_spd(n, cond):
    rng = np.random.default_rng(int(n + cond))
    a = random_spd(rng, n, cond=cond)
    q, _ = go.level_normalizer(a)
    assert np.max(np.abs(q @ a @ q - np.eye(n))) <= 1e-10
    # result is itself Hermitian positive definite
    assert np.array_equal(q, q.conj().T)
    assert go.eigh(q).values[-1] > 0


def test_inv_sqrt_permutation_equivariance():
    rng = np.random.default_rng(23)
    n = 9
    a = random_spd(rng, n, cond=50.0)
    perm = rng.permutation(n)
    pi = np.eye(n)[:, perm]
    lhs, _ = go.level_normalizer(go.hermitize(pi.T @ a @ pi)[0])
    rhs = pi.T @ go.level_normalizer(a)[0] @ pi
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# --- level_normalizer: signature of a signed block --------------------------

def signature(signs):
    return int(np.sum(signs > 0)), int(np.sum(signs < 0))


def test_signature_split_minkowski_diag():
    _, signs = go.level_normalizer(np.diag([1.0, -1.0]).astype(complex), signed=True)
    assert signature(signs) == (1, 1)


def test_signature_split_offdiagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, signs = go.level_normalizer(a, signed=True)
    assert signature(signs) == (1, 1)
    assert np.allclose(go.eigh(a).values, [1.0, -1.0])


def test_signature_split_positive_diag():
    _, signs = go.level_normalizer(np.diag([2.0, 3.0, 5.0]).astype(complex), signed=True)
    assert signature(signs) == (3, 0)


def test_signature_split_rejects_degenerate():
    with pytest.raises(go.DegenerateMetric):
        go.level_normalizer(np.diag([1.0, 0.0]).astype(complex), signed=True)


def test_signature_matches_lapack_count():
    rng = np.random.default_rng(31)
    w = np.array([4.0, 2.5, 1.0, -0.5, -3.0])
    a = hermitian_from_spectrum(rng, w)
    p, q = signature(go.level_normalizer(a, signed=True)[1])
    reference = np.linalg.eigvalsh(a)
    assert p == int(np.sum(reference > 0)) and q == int(np.sum(reference < 0))


# --- level_normalizer: congruence to diag(+1.., -1..) -----------------------

def test_pseudo_normalizer_minkowski_identity():
    r, signs = go.level_normalizer(np.diag([1.0, -1.0]).astype(complex), signed=True)
    assert np.allclose(r, np.eye(2), atol=1e-14)
    assert list(signs) == [1, -1]


def test_pseudo_normalizer_euclidean_reduces_to_inv_sqrt():
    a = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    r, signs = go.level_normalizer(a, signed=True)
    assert list(signs) == [1, 1]
    assert np.array_equal(r, go.level_normalizer(a, signed=False)[0])
    r2, signs2 = go.level_normalizer(np.eye(2), signed=True)
    assert np.allclose(r2, np.eye(2), atol=1e-14)
    assert list(signs2) == [1, 1]


def test_pseudo_normalizer_offdiagonal_case():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    r, signs = go.level_normalizer(a, signed=True)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(r[:, 0], [s, s], atol=1e-14)
    assert np.allclose(r[:, 1], [s, -s], atol=1e-14)
    assert list(signs) == [1, -1]
    assert np.max(np.abs(r.conj().T @ a @ r - np.diag([1.0, -1.0]))) < 1e-14


def test_pseudo_normalizer_defining_relation_random():
    rng = np.random.default_rng(41)
    for trial in range(10):
        w = rng.uniform(0.1, 10.0, size=6) * rng.choice([-1.0, 1.0], size=6)
        w[0], w[-1] = abs(w[0]), -abs(w[-1])
        a = hermitian_from_spectrum(rng, w)
        r, signs = go.level_normalizer(a, signed=True)
        target = np.diag(signs.astype(complex))
        assert np.max(np.abs(r.conj().T @ a @ r - target)) < 1e-12
        assert list(signs) == sorted(signs, reverse=True)


def test_pseudo_normalizer_all_negative():
    a = np.diag([-2.0, -0.5]).astype(complex)
    r, signs = go.level_normalizer(a, signed=True)
    assert list(signs) == [-1, -1]
    assert np.max(np.abs(r.conj().T @ a @ r + np.eye(2))) < 1e-14


def test_deterministic_outputs():
    rng = np.random.default_rng(55)
    a = random_spd(rng, 10, cond=1e3)
    d1, d2 = go.eigh(a), go.eigh(a)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)
    assert np.array_equal(go.level_normalizer(a)[0], go.level_normalizer(a)[0])

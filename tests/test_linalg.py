import numpy as np
import pytest

from unitary3.linalg import (
    NotHermitianError,
    eig_hermitian3,
    hermiticity_distance,
    is_unitary,
    outer_product,
    unitarity_distance,
)
from unitary3.sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_psd_hermitian,
)

from oracles import cubic_eigenvalues


def gaussian_hermitian(g):
    """Hermitian (not necessarily PSD) matrix (A + A†)/2 from a Gaussian A."""
    a = g.complex_gauss_matrix()
    return 0.5 * (a + a.conj().T)


def test_unitarity_distance_identity():
    assert unitarity_distance(np.eye(3)) == 0.0
    assert is_unitary(np.eye(3))


def test_unitarity_distance_scaled():
    assert unitarity_distance(2.0 * np.eye(3)) == pytest.approx(3.0 * np.sqrt(3.0))


def test_hermiticity_distance():
    h = np.array([[1.0, 2.0j, 0.0], [-2.0j, 3.0, 1.0], [0.0, 1.0, -1.0]])
    assert hermiticity_distance(h) == 0.0
    assert hermiticity_distance(h + np.diag([1j, 0, 0])) == pytest.approx(2.0)


def test_outer_product_is_rank_one_projector():
    v = np.array([0.6, 0.8j, 0.0])
    p = outer_product(v)
    assert hermiticity_distance(p) == 0.0
    assert np.allclose(p @ p, p)
    assert np.trace(p).real == pytest.approx(1.0)


def test_eig_diagonal():
    e = eig_hermitian3(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(e.values, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(e.vectors), np.eye(3)[:, [0, 2, 1]])


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian3(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_eig_residual_and_orthonormality():
    g = SeededGenerator(11)
    for _ in range(300):
        h = gaussian_hermitian(g)
        e = eig_hermitian3(h)
        assert np.all(np.diff(e.values) <= 1e-13)
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-13
        assert np.linalg.norm(h @ e.vectors - e.vectors * e.values) < 1e-12


def test_eig_matches_cubic_oracle():
    g = SeededGenerator(12)
    for _ in range(300):
        h = gaussian_hermitian(g)
        assert np.allclose(eig_hermitian3(h).values, cubic_eigenvalues(h), atol=1e-12)


def test_eig_normalized_values():
    g = SeededGenerator(13)
    for _ in range(100):
        r = random_psd_hermitian(g)
        e = eig_hermitian3(r)
        assert np.sum(e.normalized) == pytest.approx(1.0)
        assert e.normalized[2] >= -1e-14


def test_eig_zero_matrix():
    e = eig_hermitian3(np.zeros((3, 3)))
    assert np.allclose(e.values, 0.0)
    assert np.allclose(e.normalized, 0.0)


def test_eig_degenerate_spectrum():
    e = eig_hermitian3(np.eye(3) * 0.5)
    assert np.allclose(e.values, 0.5)
    assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-14


def test_eig_vector_phase_contract():
    # Documented contract of eig_hermitian3: nonincreasing values and
    # orthonormal columns, each with its largest-magnitude component real
    # (to rounding) and nonnegative; checked on generic and repeated spectra.
    g = SeededGenerator(14)
    mats = [gaussian_hermitian(g) for _ in range(200)]
    for spectrum in ([0.5, 0.5, 0.1], [0.7, 0.2, 0.2], [1.0, 0.0, 0.0], [0.4, 0.4, 0.4]):
        for _ in range(25):
            u = generate_haar_unitary(g)
            mats.append(u @ np.diag(spectrum) @ u.conj().T)
    for h in mats:
        e = eig_hermitian3(h)
        assert np.all(np.diff(e.values) <= 0.0)
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-13
        for i in range(3):
            col = e.vectors[:, i]
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) <= 1e-15
            assert lead.real >= 0.0

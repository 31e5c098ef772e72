import numpy as np
import pytest

from unitary3.characteristic import characteristic_decomposition, regularity_report
from unitary3.linalg import (
    NonFiniteError,
    NotHermitianError,
    eig_hermitian3,
    outer_product,
    unitarity_distance,
)
from unitary3.parametrization import (
    ellipticity,
    extract_core_params,
    normalize_global_phase,
    recover_first_column,
    recover_params,
)
from unitary3.rotations import extract_rotation_angles
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


def test_unitarity_distance_scaled():
    assert unitarity_distance(2.0 * np.eye(3)) == pytest.approx(3.0 * np.sqrt(3.0))


def test_outer_product_is_rank_one_projector():
    v = np.array([0.6, 0.8j, 0.0])
    p = outer_product(v)
    assert np.array_equal(p, p.conj().T)
    assert np.allclose(p @ p, p)
    assert np.trace(p).real == pytest.approx(1.0)


def test_eig_diagonal():
    e = eig_hermitian3(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(e.values, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(e.vectors), np.eye(3)[:, [0, 2, 1]])


def test_eig_rejects_non_hermitian():
    h = np.array([[1.0, 2.0j, 0.0], [-2.0j, 3.0, 1.0], [0.0, 1.0, -1.0]])
    for r in (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
              h + np.diag([1j, 0, 0])):
        with pytest.raises(NotHermitianError):
            eig_hermitian3(r)


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


NON_FINITE = {
    "re-nan": complex(np.nan, 0.0),
    "re-inf": complex(np.inf, 0.0),
    "re-minf": complex(-np.inf, 0.0),
    "im-nan": complex(0.0, np.nan),
    "im-inf": complex(0.0, np.inf),
    "im-minf": complex(0.0, -np.inf),
}


@pytest.mark.parametrize("z", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_input_rejected(z):
    # A NaN or infinity in either part of any entry raises NonFiniteError
    # before any arithmetic, at every public entry point of both pipelines.
    for k in range(3):
        col = np.array([1.0, 0.0, 0.0], dtype=complex)
        col[k] = z
        mat = np.eye(3, dtype=complex)
        mat[k, (k + 1) % 3] = z
        # The rotation is real: the non-finite part moves to the real entry.
        rot = mat.real + mat.imag
        for fn, arg in ((normalize_global_phase, col), (ellipticity, col),
                        (recover_first_column, col), (recover_params, mat),
                        (lambda m: extract_core_params(m, 0.3), mat), (eig_hermitian3, mat),
                        (characteristic_decomposition, mat), (regularity_report, mat),
                        (extract_rotation_angles, rot)):
            with pytest.raises(NonFiniteError, match="non-finite"):
                fn(arg)

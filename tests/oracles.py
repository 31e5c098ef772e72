"""Independent oracles for the test suite.

Everything here is computed by a different route than the library under
test: eigenvalues come from the characteristic cubic in closed form or
from LAPACK, the composed rotation from an explicit product of elementary
factors built locally.
"""
import numpy as np


def cubic_eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix from its characteristic cubic.

    Trigonometric (Casus irreducibilis) solution; returns a nonincreasing
    triple.  Never touches an iterative solver.
    """
    h = np.asarray(h, dtype=complex)
    q = np.trace(h).real / 3.0
    b = h - q * np.eye(3)
    p2 = np.real(np.trace(b @ b)) / 6.0
    if p2 <= 0.0:
        return np.full(3, q)
    p = np.sqrt(p2)
    det = np.linalg.det(b / p).real
    phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0)) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.array(sorted([e1, e2, e3], reverse=True))


def lapack_eigenvalues(h) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix from LAPACK, nonincreasing.

    Unlike the cubic, which loses half the digits at a repeated eigenvalue
    (about 2e-9 on diag(1/2, 1/2, 0)), this stays accurate to rounding on
    degenerate spectra.
    """
    return np.linalg.eigvalsh(np.asarray(h))[::-1]


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rotation_product(phi, theta, varphi) -> np.ndarray:
    """Composed rotation as an explicit product of elementary factors."""
    return _rz(-phi) @ _ry(-theta) @ _rz(varphi)


def first_column_oracle(chi, phi, theta, varphi) -> np.ndarray:
    """Phase-normalized first column built directly from the rotation."""
    q = rotation_product(phi, theta, varphi)
    return np.cos(chi) * q[:, 0] + 1j * np.sin(chi) * q[:, 1]

"""Independent oracles for the test suite.

Everything here is computed by a different route than the library under
test: eigenvalues come from the characteristic cubic in closed form, from
LAPACK or from mpmath's 50-digit eighe, the composed rotation from an
explicit product of elementary factors built locally.
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


def _branch_cases() -> list:
    """(chi, phi, theta, varphi, branch): first columns
    cos(chi) q1 + i sin(chi) q2 constructed to fire each of the paper's
    six zero-pattern branches, with both signs of chi in each elliptical
    one."""
    cases = []
    # branch a, all four (a3, b3) sign rows: varphi strictly inside (0, pi/2)
    for theta, chi in ((0.5, 0.3), (0.5, -0.3), (-0.5, 0.3), (-0.5, -0.3)):
        cases.append((chi, 0.7, theta, 0.6, "a"))
    # branch b1: linear polarization in the XY plane
    cases.append((0.0, 0.4, 0.0, 0.0, "b1"))
    # branch b2, all four (a1, b2) sign rows via cos(phi) and chi signs
    for phi, chi in ((0.3, 0.2), (2.5, 0.2), (0.3, -0.2), (2.5, -0.2)):
        cases.append((chi, phi, 0.0, 0.0, "b2"))
    # branch c (varphi = pi/2), four (a1, b2) sign rows via sin(phi), chi
    for phi, chi in ((0.4, 0.2), (-0.4, 0.2), (0.4, -0.2), (-0.4, -0.2)):
        cases.append((chi, phi, 0.5, np.pi / 2, "c"))
    # branch d1: linear polarization tilted out of the XY plane
    cases.append((0.0, 0.3, 0.5, 0.3, "d1"))
    # branch d2 (sin(varphi) = 0), four sign rows via theta and chi signs
    for theta, chi in ((0.5, 0.2), (-0.5, 0.2), (0.5, -0.2), (-0.5, -0.2)):
        cases.append((chi, 0.3, theta, 0.0, "d2"))
    return cases


BRANCH_CASES = _branch_cases()


def mp_compose(p, dps=60):
    """U = Q V1 in mpmath at ``dps`` digits from a dict of the nine fields,
    as rows of mpc: Q = Rz(-phi) Ry(-theta) Rz(varphi) from its elementary
    factors, V1 = N(chi) diag(e^{i alpha1}, W) as that product.  Shares no
    code or arithmetic with the library."""
    import mpmath

    with mpmath.workdps(dps):
        f = {k: mpmath.mpf(v) for k, v in p.items()}
        c, s = mpmath.cos(f["chi"]), mpmath.sin(f["chi"])
        cm, sm = mpmath.cos(f["mu"]), mpmath.sin(f["mu"])
        delta = f["beta2"] - f["alpha2"] + f["alpha3"]
        e = lambda a: mpmath.expj(a)  # noqa: E731
        basis = mpmath.matrix([[c, 1j * s, 0], [1j * s, c, 0], [0, 0, 1]])
        core = mpmath.matrix([
            [e(f["alpha1"]), 0, 0],
            [0, cm * e(f["alpha2"]), sm * e(f["alpha3"])],
            [0, sm * e(f["beta2"]), -cm * e(delta)],
        ])

        def rz(a):
            return mpmath.matrix([[mpmath.cos(a), -mpmath.sin(a), 0], [mpmath.sin(a), mpmath.cos(a), 0], [0, 0, 1]])

        def ry(a):
            return mpmath.matrix([[mpmath.cos(a), 0, -mpmath.sin(a)], [0, 1, 0], [mpmath.sin(a), 0, mpmath.cos(a)]])

        q = rz(-f.get("phi", 0)) * ry(-f.get("theta", 0)) * rz(f.get("varphi", 0))
        u = q * basis * core
        return [[u[i, j] for j in range(3)] for i in range(3)]


def mp_eigh(h, dps=50):
    """Eigenvalues (nonincreasing) and matching unit eigenvectors of the
    Hermitian part (H + H†)/2 of a 3x3 matrix given as rows of complex,
    from mpmath's eighe at ``dps`` digits: eigenvalues as mpf, each
    eigenvector a list of three mpc.  Shares no code with the library."""
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.matrix(3, 3)
        for i in range(3):
            for j in range(3):
                a[i, j] = (mpmath.mpc(h[i][j]) + mpmath.conj(mpmath.mpc(h[j][i]))) / 2
        values, vectors = mpmath.eighe(a)  # ascending
        return ([values[k] for k in (2, 1, 0)],
                [[vectors[i, k] for i in range(3)] for k in (2, 1, 0)])

"""Independent oracles for the test suite.

Everything here is computed by a different route than the library under
test: eigenvalues come from the characteristic cubic in closed form, from
LAPACK or from mpmath's 50-digit eighe, the composed rotation from an
explicit product of elementary factors built locally, and the chart's
Jacobian from central differences of the mpmath composition.
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
    factors, V1 = N(chi) diag(e^{i alpha1}, W) as that product, each
    entry of a product one mpmath.fdot, as an mpmath.matrix product forms
    it.  Shares no code or arithmetic with the library."""
    import mpmath

    with mpmath.workdps(dps):
        f = {k: mpmath.mpf(v) for k, v in p.items()}
        c, s = mpmath.cos(f["chi"]), mpmath.sin(f["chi"])
        cm, sm = mpmath.cos(f["mu"]), mpmath.sin(f["mu"])
        delta = f["beta2"] - f["alpha2"] + f["alpha3"]
        e = mpmath.expj
        zero, one = mpmath.mpf(0), mpmath.mpf(1)
        basis = [[c, 1j * s, zero], [1j * s, c, zero], [zero, zero, one]]
        core = [
            [e(f["alpha1"]), zero, zero],
            [zero, cm * e(f["alpha2"]), sm * e(f["alpha3"])],
            [zero, sm * e(f["beta2"]), -cm * e(delta)],
        ]

        def rz(a):
            ca, sa = mpmath.cos(a), mpmath.sin(a)
            return [[ca, -sa, zero], [sa, ca, zero], [zero, zero, one]]

        def ry(a):
            ca, sa = mpmath.cos(a), mpmath.sin(a)
            return [[ca, zero, -sa], [zero, one, zero], [sa, zero, ca]]

        def mul(a, b):
            columns = list(zip(*b))
            return [[mpmath.fdot(row, col) for col in columns] for row in a]

        q = mul(mul(rz(-f.get("phi", 0)), ry(-f.get("theta", 0))), rz(f.get("varphi", 0)))
        return mul(mul(q, basis), core)


PARAMS = ("phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")


def mp_jacobian(p, fields=PARAMS, h=1e-10, dps=30):
    """The Jacobian of the fields ``fields`` of the dict ``p`` to U =
    mp_compose(p), in the nine real coordinates of the anti-Hermitian
    U†dU: Im of its three diagonal entries, then Re and Im of its (0, 1),
    (0, 2) and (1, 2) entries.  An mpmath matrix with one row per
    coordinate and one column per field, by central differences of step
    ``h`` at ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        u = mp_compose(p, dps)
        columns = []
        for field in fields:
            x = mpmath.mpf(p[field])
            plus, minus = mp_compose({**p, field: x + h}, dps), mp_compose({**p, field: x - h}, dps)
            a = [[mpmath.fsum(mpmath.conj(u[i][j]) * (plus[i][k] - minus[i][k]) for i in range(3)) / (2 * h)
                  for k in range(3)] for j in range(3)]
            columns.append([a[0][0].imag, a[1][1].imag, a[2][2].imag, a[0][1].real, a[0][1].imag,
                            a[0][2].real, a[0][2].imag, a[1][2].real, a[1][2].imag])
        return mpmath.matrix(columns).T


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

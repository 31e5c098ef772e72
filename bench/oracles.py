"""Independent output checks for the benchmark.

Nothing here calls unitary3. Recovered parameters are recomposed from an
explicit product of elementary rotation factors and a core matrix written
out entry by entry; purity indices come from LAPACK eigenvalues; the
regularity spectrum is compared with its closed form in chi_m.
"""
import numpy as np

RECOVERY_RESIDUAL = 1e-10
PURITY_TOL = 1e-9
REASSEMBLY_TOL = 1e-9
REGULARITY_TOL = 1e-8


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def compose(p: dict) -> np.ndarray:
    """U = Rz(-phi) Ry(-theta) Rz(varphi) V1 from a dict of the nine fields."""
    q = _rz(-p["phi"]) @ _ry(-p["theta"]) @ _rz(p["varphi"])
    cx, sx = np.cos(p["chi"]), np.sin(p["chi"])
    cm, sm = np.cos(p["mu"]), np.sin(p["mu"])
    e1, e2, e3 = (np.exp(1j * p[k]) for k in ("alpha1", "alpha2", "alpha3"))
    eb = np.exp(1j * p["beta2"])
    ed = np.exp(1j * (p["beta2"] - p["alpha2"] + p["alpha3"]))
    v1 = np.array(
        [
            [e1 * cx, 1j * e2 * cm * sx, 1j * e3 * sm * sx],
            [1j * e1 * sx, e2 * cm * cx, e3 * sm * cx],
            [0.0, eb * sm, -ed * cm],
        ]
    )
    return q @ v1


def recovery_ok(u: np.ndarray, params: dict) -> bool:
    """The emitted parameters recompose to the input within 1e-10."""
    return bool(np.linalg.norm(compose(params) - u) <= RECOVERY_RESIDUAL)


def purity(r: np.ndarray) -> tuple[float, float]:
    """(P1, P2) from LAPACK eigenvalues of R / tr R."""
    l1, l2, l3 = np.linalg.eigvalsh(r / np.trace(r).real)[::-1]
    return float(l1 - l2), float(l1 + l2 - 2.0 * l3)


def chardecomp_ok(r: np.ndarray, comp, report) -> bool:
    """P1 and P2 match LAPACK, the components reassemble R, and the
    regularity spectrum and imaginary norm match chi_m in closed form:
    spec Re(Rm_hat) = {1/2, cos^2(chi_m)/2, sin^2(chi_m)/2} and
    ||Im Rm_hat||_F = |sin 2 chi_m| / (2 sqrt 2)."""
    p1, p2 = purity(r)
    if abs(comp.purity.P1 - p1) > PURITY_TOL or abs(comp.purity.P2 - p2) > PURITY_TOL:
        return False
    c1, c2, c3 = comp.coefficients
    whole = comp.traceR * (c1 * comp.Rp_hat + c2 * comp.Rm_hat + c3 * comp.Ru_hat)
    if np.linalg.norm(whole - r) > REASSEMBLY_TOL * np.linalg.norm(r):
        return False
    c, s = np.cos(report.chi_m), np.sin(report.chi_m)
    expected = sorted([0.5, 0.5 * c * c, 0.5 * s * s], reverse=True)
    got = [report.m1_hat, report.m2_hat, report.m3_hat]
    if max(abs(a - b) for a, b in zip(got, expected)) > REGULARITY_TOL:
        return False
    im_norm = abs(np.sin(2.0 * report.chi_m)) / (2.0 * np.sqrt(2.0))
    return bool(abs(report.im_norm - im_norm) <= REGULARITY_TOL)

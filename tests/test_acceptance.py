"""Acceptance suite: eleven criteria, each printing one pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add -s to see the lines on
success; pytest shows them automatically on failure).
"""
import io
import time
from contextlib import redirect_stdout

import numpy as np

from unitary3.characteristic import (
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    regularity_report,
)
from unitary3.cli import main
from unitary3.linalg import eig_hermitian3, unitarity_distance
from unitary3.parametrization import (
    compose_core,
    compose_unitary,
    normalize_global_phase,
    params_distance,
    recover_first_column,
    recover_params,
)
from unitary3.sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_params,
    random_psd_hermitian,
)

from oracles import cubic_eigenvalues, first_column_oracle, lapack_eigenvalues


def _report(number, name, ok, detail):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_composition_unitarity():
    g = SeededGenerator(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        worst = max(worst, unitarity_distance(compose_unitary(random_params(g))))
    elapsed = time.perf_counter() - t0
    _report(
        1, "composition unitarity",
        worst <= 1e-13 and elapsed < 5.0,
        f"worst {worst:.2e} over 10^4 samples in {elapsed:.1f}s",
    )


def test_criterion_02_matrix_roundtrip():
    g = SeededGenerator(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        worst = max(worst, recover_params(generate_haar_unitary(g)).residual)
    elapsed = time.perf_counter() - t0
    _report(
        2, "Haar matrix round-trip",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst residual {worst:.2e} over 10^4 samples in {elapsed:.1f}s",
    )


def test_criterion_03_parameter_roundtrip():
    g = SeededGenerator(1003)
    worst = 0.0
    for _ in range(10_000):
        p = random_params(g, margin=1e-3)
        worst = max(worst, params_distance(p, recover_params(compose_unitary(p)).params))
    _report(
        3, "parameter round-trip",
        worst <= 1e-9,
        f"worst fieldwise gap {worst:.2e} over 10^4 interior samples",
    )


def test_criterion_04_branch_coverage():
    # Constructed first columns cos(chi) q1 + i sin(chi) q2 firing every
    # sign-determination branch; the recovered sign must equal the
    # composing sign in every case.
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

    failures = []
    for chi0, phi0, theta0, varphi0, want_branch in cases:
        eps = first_column_oracle(chi0, phi0, theta0, varphi0)
        chi, _, branch = recover_first_column(eps)
        if branch != want_branch or np.sign(chi) != np.sign(chi0):
            failures.append((want_branch, branch, chi0, chi))
    _report(
        4, "Appendix branch coverage",
        not failures,
        f"{len(cases) - len(failures)}/{len(cases)} constructed cases matched"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_05_eq17_identity():
    g = SeededGenerator(1005)
    worst = 0.0
    for _ in range(1000):
        u = generate_haar_unitary(g)
        _, eps, _ = normalize_global_phase(u[:, 0])
        ca = np.linalg.norm(eps.real)
        sb = np.linalg.norm(eps.imag)
        worst = max(worst, abs(ca * ca + sb * sb - 1.0))
    _report(
        5, "cos^2 + sin^2 identity on recovery",
        worst <= 1e-12,
        f"worst deviation {worst:.2e} over 1000 recoveries",
    )


def test_criterion_06_characteristic_reconstruction():
    g = SeededGenerator(1006)
    worst = 0.0
    ordered = True
    for _ in range(1000):
        r = random_psd_hermitian(g)
        c = characteristic_decomposition(r)
        worst = max(worst, float(np.linalg.norm(c.reconstruct() - r)) / c.traceR)
        p = c.purity
        ordered = ordered and (-1e-12 <= p.P1 <= p.P2 + 1e-12 <= 1.0 + 2e-12)
    _report(
        6, "characteristic reconstruction",
        worst <= 1e-12 and ordered,
        f"worst relative gap {worst:.2e}, purity ordering {'held' if ordered else 'broken'}",
    )


def test_criterion_07_middle_spectrum():
    g = SeededGenerator(1007)
    target = np.array([0.5, 0.5, 0.0])
    worst = 0.0
    for _ in range(1000):
        e = eig_hermitian3(middle_component(generate_haar_unitary(g)))
        worst = max(worst, float(np.max(np.abs(e.values - target))))
    _report(
        7, "middle-component spectrum",
        worst <= 1e-12,
        f"worst eigenvalue gap {worst:.2e} over 1000 unitaries",
    )


def test_criterion_08_regularity_spectrum():
    worst = 0.0
    flags_ok = True
    max_nonreg = None
    for chi in (0.0, np.pi / 12, np.pi / 6, np.pi / 4):
        rep = regularity_report(intrinsic_middle(chi))
        want = (0.5, np.cos(chi) ** 2 / 2, np.sin(chi) ** 2 / 2)
        got = (rep.m1_hat, rep.m2_hat, rep.m3_hat)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        # The library takes the spectrum from its closed form in chi_m; the
        # LAPACK solve of Re(Rm_hat) checks it by a separate route.
        oracle = lapack_eigenvalues(characteristic_decomposition(intrinsic_middle(chi)).Rm_hat.real)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, oracle)))
        flags_ok = flags_ok and (rep.regular == (chi == 0.0))
        if chi == np.pi / 4:
            max_nonreg = abs(rep.m2_hat - 0.25) + abs(rep.m3_hat - 0.25)
    _report(
        8, "regularity spectrum",
        worst <= 1e-10 and flags_ok and max_nonreg <= 1e-10,
        f"worst spectrum gap {worst:.2e}; regular flags "
        f"{'correct' if flags_ok else 'wrong'}; maximal-nonregularity gap {max_nonreg:.2e}",
    )


def test_criterion_09_chi_only_dependence():
    g = SeededGenerator(1009)
    worst = 0.0
    for chi in (0.1, -0.3, 0.7):
        ref = intrinsic_middle(chi)
        for _ in range(334):
            u = compose_core(
                chi,
                mu=np.pi / 2 * g.uniform(),
                alpha1=0.0,
                alpha2=-np.pi + 2 * np.pi * g.uniform(),
                alpha3=-np.pi + 2 * np.pi * g.uniform(),
                beta2=-np.pi + 2 * np.pi * g.uniform(),
            )[:, [1, 2, 0]]
            worst = max(worst, float(np.linalg.norm(middle_component(u) - ref)))
    _report(
        9, "chi-only dependence of the middle component",
        worst <= 1e-13,
        f"worst spread {worst:.2e} over 1002 phase draws",
    )


def test_criterion_10_eigensolver_oracle():
    g = SeededGenerator(1010)
    worst = 0.0
    for _ in range(1000):
        h = random_psd_hermitian(g)
        gap = np.max(np.abs(eig_hermitian3(h).values - cubic_eigenvalues(h)))
        worst = max(worst, float(gap))
    _report(
        10, "eigensolver vs cubic oracle",
        worst <= 1e-11,
        f"worst eigenvalue gap {worst:.2e} over 1000 matrices",
    )


def test_criterion_11_cli_determinism_and_selftest():
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    c1, out1 = run(["gen", "--haar", "5", "--seed", "42"])
    c2, out2 = run(["gen", "--haar", "5", "--seed", "42"])
    t0 = time.perf_counter()
    c3, out3 = run(["selftest"])
    elapsed = time.perf_counter() - t0
    ok = c1 == c2 == c3 == 0 and out1 == out2 and elapsed < 120.0
    _report(
        11, "CLI determinism and selftest",
        ok,
        f"gen byte-identical: {out1 == out2}; selftest exit {c3} in {elapsed:.1f}s",
    )

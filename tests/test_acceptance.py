"""Acceptance suite: eleven criteria, each printing one pass/fail line.

Criteria 1, 2, 3, 6, 7, 8 and 9 call the invariant registry's measures
(``unitary3.selftest``, the same code the ``selftest`` subcommand runs) at
this suite's seeds, sample sizes and bounds; criterion 8 adds a LAPACK
oracle.  Criteria 4, 5 and 10 check the library against the independent
oracles in ``oracles.py``, and criterion 11 runs the CLI.

Run with ``pytest -v tests/test_acceptance.py`` (add -s to see the lines on
success; pytest shows them automatically on failure).
"""
import io
import time
from contextlib import redirect_stdout

import numpy as np

from unitary3.characteristic import characteristic_decomposition, intrinsic_middle, regularity_report
from unitary3.cli import main
from unitary3.linalg import eig_hermitian3
from unitary3.parametrization import _branch, _normalize_global_phase, _recover_first_column
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_psd_hermitian
from unitary3.selftest import (
    REGULARITY_CHI_VALUES,
    characteristic_reconstruction,
    chi_only_dependence,
    composition_unitarity,
    haar_roundtrip,
    middle_spectrum,
    param_roundtrip,
    regularity_spectrum,
)

from oracles import BRANCH_CASES, cubic_eigenvalues, first_column_oracle, lapack_eigenvalues


def _report(number, name, ok, detail):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_composition_unitarity():
    t0 = time.perf_counter()
    worst = composition_unitarity(SeededGenerator(1001), 10_000)
    elapsed = time.perf_counter() - t0
    _report(
        1, "composition unitarity",
        worst <= 1e-13 and elapsed < 5.0,
        f"worst {worst:.2e} over 10^4 samples in {elapsed:.1f}s",
    )


def test_criterion_02_matrix_roundtrip():
    t0 = time.perf_counter()
    worst = haar_roundtrip(SeededGenerator(1002), 10_000)
    elapsed = time.perf_counter() - t0
    _report(
        2, "Haar matrix round-trip",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst residual {worst:.2e} over 10^4 samples in {elapsed:.1f}s",
    )


def test_criterion_03_parameter_roundtrip():
    worst = param_roundtrip(SeededGenerator(1003), 10_000)
    _report(
        3, "parameter round-trip",
        worst <= 1e-9,
        f"worst fieldwise gap {worst:.2e} over 10^4 interior samples",
    )


def test_criterion_04_branch_coverage():
    # Constructed first columns cos(chi) q1 + i sin(chi) q2 firing every
    # sign-determination branch, through recovery's first-column stages;
    # the recovered sign must equal the composing sign in every case.
    failures = []
    for chi0, phi0, theta0, varphi0, want_branch in BRANCH_CASES:
        u1 = first_column_oracle(chi0, phi0, theta0, varphi0)
        eps, w = _normalize_global_phase(np.asarray(u1, dtype=complex).tolist())
        chi, _ = _recover_first_column(eps)
        branch = _branch(eps, w, chi)
        if branch != want_branch or np.sign(chi) != np.sign(chi0):
            failures.append((want_branch, branch, chi0, chi))
    _report(
        4, "Appendix branch coverage",
        not failures,
        f"{len(BRANCH_CASES) - len(failures)}/{len(BRANCH_CASES)} constructed cases matched"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_05_eq17_identity():
    g = SeededGenerator(1005)
    gaps = []
    for _ in range(1000):
        u = generate_haar_unitary(g)
        eps, _ = _normalize_global_phase(u[:, 0].tolist())
        eps = np.array(eps)
        ca = np.linalg.norm(eps.real)
        sb = np.linalg.norm(eps.imag)
        gaps.append(abs(ca * ca + sb * sb - 1.0))
    worst = float(np.max(gaps))  # NaN if any gap is NaN, so NaN fails the bound
    _report(
        5, "cos^2 + sin^2 identity on recovery",
        worst <= 1e-12,
        f"worst deviation {worst:.2e} over 1000 recoveries",
    )


def test_criterion_06_characteristic_reconstruction():
    # The measure folds the purity-ordering violation max(-P1, P1 - P2,
    # P2 - 1) into the relative reconstruction gap, so the one bound covers
    # -1e-12 <= P1 <= P2 + 1e-12 <= 1 + 2e-12 as well.
    worst = characteristic_reconstruction(SeededGenerator(1006), 1000)
    _report(
        6, "characteristic reconstruction",
        worst <= 1e-12,
        f"worst reconstruction gap or ordering violation {worst:.2e} over 1000 matrices",
    )


def test_criterion_07_middle_spectrum():
    worst = middle_spectrum(SeededGenerator(1007), 1000)
    _report(
        7, "middle-component spectrum",
        worst <= 1e-12,
        f"worst eigenvalue gap {worst:.2e} over 1000 unitaries",
    )


def test_criterion_08_regularity_spectrum():
    # The measure checks the closed form and the regular flags (inf if a
    # flag is wrong); the library takes the spectrum from its closed form
    # in chi_m, so the LAPACK solve of Re(Rm_hat) checks it by a separate
    # route.
    closed_form = regularity_spectrum(SeededGenerator(1008), 0)
    gaps = []
    for chi in REGULARITY_CHI_VALUES:
        rep = regularity_report(intrinsic_middle(chi))
        got = (rep.m1_hat, rep.m2_hat, rep.m3_hat)
        oracle = lapack_eigenvalues(characteristic_decomposition(intrinsic_middle(chi)).Rm_hat.real)
        gaps.append(np.abs(np.subtract(got, oracle)))
    oracle_gap = float(np.max(gaps))
    # rep is the report at chi = pi/4, where m2_hat = m3_hat = 1/4.
    max_nonreg = abs(rep.m2_hat - 0.25) + abs(rep.m3_hat - 0.25)
    _report(
        8, "regularity spectrum",
        closed_form <= 1e-10 and oracle_gap <= 1e-10 and max_nonreg <= 1e-10,
        f"closed-form gap {closed_form:.2e} (inf: a regular flag is wrong); "
        f"LAPACK gap {oracle_gap:.2e}; maximal-nonregularity gap {max_nonreg:.2e}",
    )


def test_criterion_09_chi_only_dependence():
    worst = chi_only_dependence(SeededGenerator(1009), 334)
    _report(
        9, "chi-only dependence of the middle component",
        worst <= 1e-13,
        f"worst spread {worst:.2e} over 1002 phase draws",
    )


def test_criterion_10_eigensolver_oracle():
    g = SeededGenerator(1010)
    gaps = []
    for _ in range(1000):
        h = random_psd_hermitian(g)
        gaps.append(np.abs(eig_hermitian3(h).values - cubic_eigenvalues(h)))
    worst = float(np.max(gaps))  # NaN if any gap is NaN, so NaN fails the bound
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

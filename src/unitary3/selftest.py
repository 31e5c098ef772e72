"""Built-in invariant suite, runnable via the CLI `selftest` subcommand.

Each check exercises one documented property with seeded random sampling
and prints a PASS/FAIL line.  The suite is sized to finish well under two
minutes on ordinary hardware.
"""
from __future__ import annotations

import numpy as np

from .characteristic import (
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    regularity_report,
)
from .linalg import eig_hermitian3, unitarity_distance
from .parametrization import compose_core, compose_unitary, params_distance, recover_params
from .rotations import RotationAngles, compose_rotation, extract_rotation_angles
from .sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_params,
    random_psd_hermitian,
)


def _check_composition_unitarity(n=2000):
    g = SeededGenerator(101)
    worst = 0.0
    for _ in range(n):
        worst = max(worst, unitarity_distance(compose_unitary(random_params(g))))
    return worst <= 1e-13, f"worst unitarity distance {worst:.2e}"


def _check_haar_roundtrip(n=2000):
    g = SeededGenerator(202)
    worst = 0.0
    for _ in range(n):
        worst = max(worst, recover_params(generate_haar_unitary(g)).residual)
    return worst <= 1e-10, f"worst recovery residual {worst:.2e}"


def _check_param_roundtrip(n=2000):
    g = SeededGenerator(303)
    worst = 0.0
    for _ in range(n):
        p = random_params(g, margin=1e-3)
        r = recover_params(compose_unitary(p))
        worst = max(worst, params_distance(p, r.params))
    return worst <= 1e-9, f"worst fieldwise parameter gap {worst:.2e}"


def _check_rotation_roundtrip(n=2000):
    g = SeededGenerator(404)
    worst = 0.0
    for _ in range(n):
        a = RotationAngles(
            phi=-np.pi + 2 * np.pi * g.uniform(),
            theta=-np.pi / 2 + np.pi * g.uniform(),
            varphi=np.pi * g.uniform(),
        )
        q = compose_rotation(a)
        b, _ = extract_rotation_angles(q)
        worst = max(worst, float(np.linalg.norm(compose_rotation(b) - q)))
    return worst <= 1e-12, f"worst rotation recomposition gap {worst:.2e}"


def _check_eigensolver(n=500):
    g = SeededGenerator(505)
    worst = 0.0
    for _ in range(n):
        r = random_psd_hermitian(g)
        e = eig_hermitian3(r)
        res = r @ e.vectors - e.vectors * e.values
        worst = max(worst, float(np.linalg.norm(res)))
    return worst <= 1e-12, f"worst eigen-residual {worst:.2e}"


def _check_characteristic_reconstruction(n=500):
    g = SeededGenerator(606)
    worst = 0.0
    for _ in range(n):
        r = random_psd_hermitian(g)
        c = characteristic_decomposition(r)
        gap = float(np.linalg.norm(c.reconstruct() - r)) / c.traceR
        worst = max(worst, gap)
        p = c.purity
        if not (-1e-12 <= p.P1 <= p.P2 + 1e-12 and p.P2 <= 1.0 + 1e-12):
            return False, f"purity ordering violated: P1={p.P1}, P2={p.P2}"
    return worst <= 1e-12, f"worst relative reconstruction gap {worst:.2e}"


def _check_middle_spectrum(n=500):
    g = SeededGenerator(707)
    target = np.array([0.5, 0.5, 0.0])
    worst = 0.0
    for _ in range(n):
        e = eig_hermitian3(middle_component(generate_haar_unitary(g)))
        worst = max(worst, float(np.max(np.abs(e.values - target))))
    return worst <= 1e-12, f"worst middle-spectrum gap {worst:.2e}"


def _check_chi_only_dependence(n=500):
    g = SeededGenerator(808)
    worst = 0.0
    for _ in range(n):
        p = random_params(g)
        u = compose_core(p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2)
        rm = middle_component(u[:, [1, 2, 0]])
        worst = max(worst, float(np.linalg.norm(rm - intrinsic_middle(p.chi))))
    return worst <= 1e-13, f"worst middle-component spread {worst:.2e}"


def _check_regularity_spectrum():
    worst = 0.0
    for chi in (0.0, np.pi / 12, np.pi / 6, np.pi / 4):
        rep = regularity_report(intrinsic_middle(chi))
        want = (0.5, np.cos(chi) ** 2 / 2, np.sin(chi) ** 2 / 2)
        got = (rep.m1_hat, rep.m2_hat, rep.m3_hat)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        if (chi == 0.0) != rep.regular:
            return False, f"regular flag wrong at chi={chi}"
    return worst <= 1e-10, f"worst regularity-spectrum gap {worst:.2e}"


def _check_haar_moment(n=4000):
    g = SeededGenerator(909)
    acc = 0.0
    for _ in range(n):
        acc += abs(generate_haar_unitary(g)[0, 0]) ** 2
    mean = acc / n
    return abs(mean - 1.0 / 3.0) <= 0.02, f"mean |u11|^2 = {mean:.4f}"


CHECKS = [
    ("composition-unitarity", _check_composition_unitarity),
    ("haar-roundtrip", _check_haar_roundtrip),
    ("param-roundtrip", _check_param_roundtrip),
    ("rotation-roundtrip", _check_rotation_roundtrip),
    ("eigensolver-residual", _check_eigensolver),
    ("characteristic-reconstruction", _check_characteristic_reconstruction),
    ("middle-spectrum", _check_middle_spectrum),
    ("chi-only-dependence", _check_chi_only_dependence),
    ("regularity-spectrum", _check_regularity_spectrum),
    ("haar-moment", _check_haar_moment),
]


def run_selftest(write=print) -> bool:
    """Run every check; print one PASS/FAIL line each; True iff all pass."""
    all_ok = True
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok

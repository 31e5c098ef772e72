"""Invariant registry behind the CLI `selftest` subcommand and the acceptance suite.

Each property is implemented once, as a measure ``measure(g, n) -> float``
returning the worst gap over ``n`` draws from ``g``; it holds no bound.
``CHECKS`` runs each measure at the selftest's seed, size and bound; the
acceptance tests call the same measures at their own.
"""
from __future__ import annotations

import math
import time

from .characteristic import (
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    regularity_report,
)
from .linalg import eig_hermitian3, unitarity_distance
from .parametrization import compose_core, compose_unitary, params_distance, recover_params
from .rotations import compose_rotation, extract_rotation_angles
from .sampling import SeededGenerator, generate_haar_unitary, random_params, random_psd_hermitian

# Middle ellipticity angles, regular to maximally nonregular, of regularity_spectrum.
REGULARITY_CHI_VALUES = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)


def _worst(gaps) -> float:
    """Largest of the gaps; NaN if any gap is NaN, so NaN never passes a bound."""
    import numpy as np

    return float(np.max(list(gaps)))


def composition_unitarity(g: SeededGenerator, n: int) -> float:
    """Unitarity distance of matrices composed from random parameters."""
    return _worst(unitarity_distance(compose_unitary(random_params(g))) for _ in range(n))


def haar_roundtrip(g: SeededGenerator, n: int) -> float:
    """Recomposition residual of the recovery of Haar unitaries."""
    return _worst(recover_params(generate_haar_unitary(g)).residual for _ in range(n))


def param_roundtrip(g: SeededGenerator, n: int) -> float:
    """Fieldwise gap of compose-then-recover on parameters 1e-3 inside the chart."""

    def gap():
        p = random_params(g, margin=1e-3)
        return params_distance(p, recover_params(compose_unitary(p)).params)

    return _worst(gap() for _ in range(n))


def rotation_roundtrip(g: SeededGenerator, n: int) -> float:
    """Frobenius gap of compose-extract-compose on the rotation triples of
    random_params."""
    import numpy as np

    def gap():
        q = compose_rotation(random_params(g).rotation)
        return np.linalg.norm(compose_rotation(extract_rotation_angles(q)[0]) - q)

    return _worst(gap() for _ in range(n))


def eigensolver_residual(g: SeededGenerator, n: int) -> float:
    """Frobenius norm of R V - V diag(values) on random PSD matrices."""
    import numpy as np

    def gap():
        r = random_psd_hermitian(g)
        e = eig_hermitian3(r)
        return np.linalg.norm(r @ e.vectors - e.vectors * e.values)

    return _worst(gap() for _ in range(n))


def characteristic_reconstruction(g: SeededGenerator, n: int) -> float:
    """Relative reconstruction gap of the characteristic decomposition and
    violation max(-P1, P1 - P2, P2 - 1) of 0 <= P1 <= P2 <= 1, on PSD draws."""
    import numpy as np

    def gaps():
        r = random_psd_hermitian(g)
        c = characteristic_decomposition(r)
        p = c.purity
        rel = np.linalg.norm(c.reconstruct() - r) / c.traceR
        return rel, -p.P1, p.P1 - p.P2, p.P2 - 1.0

    return _worst(gaps() for _ in range(n))


def middle_spectrum(g: SeededGenerator, n: int) -> float:
    """Gap of the middle component's spectrum from (1/2, 1/2, 0) on Haar unitaries."""
    import numpy as np

    target = np.array([0.5, 0.5, 0.0])
    return _worst(
        np.abs(eig_hermitian3(middle_component(generate_haar_unitary(g))).values - target)
        for _ in range(n)
    )


def chi_only_dependence(g: SeededGenerator, n: int) -> float:
    """Gap of middle_component(V1 with columns (v2, v3, n1)) from its chi-only
    form, over n draws of (mu, alpha2, alpha3, beta2) from random_params at
    chi = 0.1, -0.3, 0.7, with alpha1 = 0."""
    import numpy as np

    def gap(chi):
        p = random_params(g)
        u = compose_core(chi, p.mu, 0.0, p.alpha2, p.alpha3, p.beta2)[:, [1, 2, 0]]
        return np.linalg.norm(middle_component(u) - intrinsic_middle(chi))

    return _worst(gap(chi) for chi in (0.1, -0.3, 0.7) for _ in range(n))


def regularity_spectrum(g: SeededGenerator, n: int) -> float:
    """Gap of the Re(Rm_hat) spectrum from (1/2, cos^2 chi/2, sin^2 chi/2) at
    REGULARITY_CHI_VALUES; inf if a regular flag is wrong.  Ignores g and n."""
    import numpy as np

    gaps = []
    for chi in REGULARITY_CHI_VALUES:
        rep = regularity_report(intrinsic_middle(chi))
        if rep.regular != (chi == 0.0):
            return float("inf")
        want = (0.5, np.cos(chi) ** 2 / 2, np.sin(chi) ** 2 / 2)
        gaps.append(np.abs(np.subtract((rep.m1_hat, rep.m2_hat, rep.m3_hat), want)))
    return _worst(gaps)


def haar_moment(g: SeededGenerator, n: int) -> float:
    """|mean |u11|^2 - 1/3| over Haar unitaries (the exact mean is 1/3)."""
    return abs(sum(abs(generate_haar_unitary(g)[0, 0]) ** 2 for _ in range(n)) / n - 1.0 / 3.0)


def haar_trace(g: SeededGenerator, n: int) -> float:
    """|mean |tr U|^2 - 1| over Haar unitaries (the exact mean is 1,
    Diaconis and Shahshahani).  It sees the phases that haar_moment cannot:
    QR without Mezzadri's phase fix gives a mean of about 1.6."""

    def trace_sq():
        u = generate_haar_unitary(g)
        return abs(u[0, 0] + u[1, 1] + u[2, 2]) ** 2

    return abs(sum(trace_sq() for _ in range(n)) / n - 1.0)


def haar_coe(g: SeededGenerator, n: int) -> float:
    """|mean |tr U^T U|^2 - 3/2| over Haar unitaries: U^T U of a Haar U is
    in the circular orthogonal ensemble (Dyson), where the exact mean is
    3/2.  tr U^T U is the sum of the squared entries, so it sees right
    phases, which |tr U|^2 does not."""

    def coe_sq():
        u = generate_haar_unitary(g)
        return abs(sum(u[i, j] * u[i, j] for i in range(3) for j in range(3))) ** 2

    return abs(sum(coe_sq() for _ in range(n)) / n - 1.5)


# (name, measure, seed, sample size, bound)
CHECKS = [
    ("composition-unitarity", composition_unitarity, 101, 2000, 1e-13),
    ("haar-roundtrip", haar_roundtrip, 202, 2000, 1e-10),
    ("param-roundtrip", param_roundtrip, 303, 2000, 1e-9),
    ("rotation-roundtrip", rotation_roundtrip, 404, 2000, 1e-12),
    ("eigensolver-residual", eigensolver_residual, 505, 500, 1e-12),
    ("characteristic-reconstruction", characteristic_reconstruction, 606, 500, 1e-12),
    ("middle-spectrum", middle_spectrum, 707, 500, 1e-12),
    ("chi-only-dependence", chi_only_dependence, 808, 167, 1e-13),
    ("regularity-spectrum", regularity_spectrum, 0, 0, 1e-10),
    ("haar-moment", haar_moment, 909, 4000, 0.02),
    # About five standard errors: the standard deviations of |tr U|^2 and
    # |tr U^T U|^2 are about 1.0 and 1.46.
    ("haar-trace", haar_trace, 1010, 4000, 0.08),
    ("haar-coe", haar_coe, 1111, 4000, 0.12),
]


def run_selftest(write=print) -> bool:
    """Run every check and pass one PASS/FAIL line each to ``write``, print
    by default (a raise is a FAIL and the later checks still run); True iff
    all pass."""
    all_ok = True
    for name, measure, seed, n, bound in CHECKS:
        t0 = time.perf_counter()
        try:
            worst = measure(SeededGenerator(seed), n)
            ok, detail = worst <= bound, f"worst {worst:.2e} (bound {bound:g})"
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail} in {time.perf_counter() - t0:.2f}s")
    return all_ok

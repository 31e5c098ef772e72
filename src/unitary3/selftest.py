"""Invariant registry behind the CLI `selftest` subcommand and the acceptance suite.

Each property is implemented once, as a measure ``measure(g, n) -> float``
returning the worst gap over ``n`` draws from ``g``; it holds no bound.
``CHECKS`` runs each measure at the selftest's seed, size and bound; the
acceptance tests call the same measures at their own.

The measures read the rows of the kernels the CLI runs, not the public
arrays, and take their norms (_gap) and maxima (_worst) in Python floats.
README, Conventions: Imports and the array boundary.
"""
import math
import time

from .characteristic import _decompose, _middle, _regularity
from .linalg import _eig, _fsum_norm, _unitarity_distance
from .parametrization import (RECOVERY_TOL, _basis_rows, _core_rows, _recover_rows, _unitary_rows,
                              params_distance)
from .rotations import _rotation_angles, _rotation_rows
from .sampling import SeededGenerator, _haar_rows, _psd_rows, random_params

# Middle ellipticity angles, regular to maximally nonregular, of regularity_spectrum.
REGULARITY_CHI_VALUES = (0.0, math.pi / 12, math.pi / 6, math.pi / 4)


def _worst(gaps) -> float:
    """Largest of a flat iterable of gaps; NaN if any gap is NaN, so NaN
    never passes a bound (max alone keeps a NaN only in first place)."""
    gaps = list(gaps)
    return math.nan if any(map(math.isnan, gaps)) else float(max(gaps))


def _gap(a, b) -> float:
    """Frobenius norm of A - B, two 3x3 matrices as rows of Python scalars:
    _fsum_norm of the real and imaginary parts of each entry's difference,
    so a NaN part of either gives NaN."""
    d = [y - z for row_a, row_b in zip(a, b) for y, z in zip(row_a, row_b)]
    return _fsum_norm([x for z in d for x in (z.real, z.imag)])


def composition_unitarity(g: SeededGenerator, n: int) -> float:
    """Unitarity distance of matrices composed from random parameters."""
    return _worst(_unitarity_distance(_unitary_rows(random_params(g))) for _ in range(n))


def haar_roundtrip(g: SeededGenerator, n: int) -> float:
    """Recomposition residual of the recovery of Haar unitaries."""
    return _worst(_recover_rows(_haar_rows(g), RECOVERY_TOL).residual for _ in range(n))


def param_roundtrip(g: SeededGenerator, n: int) -> float:
    """Fieldwise gap of compose-then-recover on parameters 1e-3 inside the chart."""

    def gap():
        p = random_params(g, margin=1e-3)
        return params_distance(p, _recover_rows(_unitary_rows(p), RECOVERY_TOL).params)

    return _worst(gap() for _ in range(n))


def rotation_roundtrip(g: SeededGenerator, n: int) -> float:
    """Frobenius gap of compose-extract-compose on the rotation triples of
    random_params."""

    def gap():
        q = _rotation_rows(random_params(g).rotation)
        return _gap(_rotation_rows(_rotation_angles(q)[0]), q)

    return _worst(gap() for _ in range(n))


def eigensolver_residual(g: SeededGenerator, n: int) -> float:
    """Frobenius norm of R V - V diag(values) on random PSD matrices, each
    entry of R V summed left to right."""

    def gap():
        r = _psd_rows(g)
        e = _eig(r)
        rv = [[x * a + y * b + z * c for a, b, c in e.vectors] for x, y, z in r]
        return _gap(rv, [[z * v for z, v in zip(row, e.values)] for row in zip(*e.vectors)])

    return _worst(gap() for _ in range(n))


def characteristic_reconstruction(g: SeededGenerator, n: int) -> float:
    """Relative reconstruction gap of the characteristic decomposition and
    violation max(-P1, P1 - P2, P2 - 1) of 0 <= P1 <= P2 <= 1, on PSD draws."""

    def gaps():
        for _ in range(n):
            r = _psd_rows(g)
            t, rp, rm, ru, p, (c1, c2, c3), _ = _decompose(r)
            rec = [[t * (c1 * x + c2 * y + c3 * z) for x, y, z in zip(*rows)] for rows in zip(rp, rm, ru)]
            yield from (_gap(rec, r) / t, -p.P1, p.P1 - p.P2, p.P2 - 1.0)

    return _worst(gaps())


def middle_spectrum(g: SeededGenerator, n: int) -> float:
    """Gap of the middle component's spectrum from (1/2, 1/2, 0) on Haar unitaries."""

    def gaps():
        for _ in range(n):
            u1, u2, _ = zip(*_haar_rows(g))
            yield from (abs(v - t) for v, t in zip(_eig(_middle(u1, u2)).values, (0.5, 0.5, 0.0)))

    return _worst(gaps())


def chi_only_dependence(g: SeededGenerator, n: int) -> float:
    """Gap of the middle component of V1 with columns (v2, v3, n1) from its
    chi-only form, over n draws of (mu, alpha2, alpha3, beta2) from
    random_params at chi = 0.1, -0.3, 0.7, with alpha1 = 0."""

    def gap(chi):
        p = random_params(g)
        _, v2, v3 = zip(*_core_rows(chi, p.mu, 0.0, p.alpha2, p.alpha3, p.beta2))
        return _gap(_middle(v2, v3), _middle(*_basis_rows(chi)[1:]))

    return _worst(gap(chi) for chi in (0.1, -0.3, 0.7) for _ in range(n))


def regularity_spectrum(g: SeededGenerator, n: int) -> float:
    """Gap of the Re(Rm_hat) spectrum from (1/2, cos^2 chi/2, sin^2 chi/2) at
    REGULARITY_CHI_VALUES; inf if a regular flag is wrong.  Ignores g and n."""
    gaps = []
    for chi in REGULARITY_CHI_VALUES:
        rep = _regularity(_middle(*_basis_rows(chi)[1:]))
        if rep.regular != (chi == 0.0):
            return math.inf
        want = (0.5, math.cos(chi) ** 2 / 2, math.sin(chi) ** 2 / 2)
        gaps += (abs(m - w) for m, w in zip((rep.m1_hat, rep.m2_hat, rep.m3_hat), want))
    return _worst(gaps)


def _haar_mean_gap(g: SeededGenerator, n: int, statistic, exact: float) -> float:
    """|mean statistic(U) - exact| over n Haar unitaries drawn from g, as a
    Python float.  The sampler is this module's _haar_rows, looked up at
    each call."""
    return float(abs(sum(statistic(_haar_rows(g)) for _ in range(n)) / n - exact))


def haar_moment(g: SeededGenerator, n: int) -> float:
    """|mean |u11|^2 - 1/3| over Haar unitaries (the exact mean is 1/3)."""
    return _haar_mean_gap(g, n, lambda u: abs(u[0][0]) ** 2, 1.0 / 3.0)


def haar_trace(g: SeededGenerator, n: int) -> float:
    """|mean |tr U|^2 - 1| over Haar unitaries (the exact mean is 1,
    Diaconis and Shahshahani).  It sees the phases that haar_moment cannot:
    QR without Mezzadri's phase fix gives a mean of about 1.6."""
    return _haar_mean_gap(g, n, lambda u: abs(u[0][0] + u[1][1] + u[2][2]) ** 2, 1.0)


def haar_coe(g: SeededGenerator, n: int) -> float:
    """|mean |tr U^T U|^2 - 3/2| over Haar unitaries: U^T U of a Haar U is
    in the circular orthogonal ensemble (Dyson), where the exact mean is
    3/2.  tr U^T U is the sum of the squared entries, so it sees right
    phases, which |tr U|^2 does not."""
    return _haar_mean_gap(g, n, lambda u: abs(sum(z * z for row in u for z in row)) ** 2, 1.5)


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

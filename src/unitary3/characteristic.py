"""Characteristic decomposition of 3x3 coherency matrices and regularity.

A positive semidefinite Hermitian R with positive trace splits as

    R = tr(R) * (P1 * Rp_hat + (P2 - P1) * Rm_hat + (1 - P2) * Ru_hat)

where Rp_hat is the pure projector onto the top eigenvector, Rm_hat is the
half-projector onto the top-two eigenspace, Ru_hat = I/3, and the purity
indices are P1 = l1 - l2, P2 = l1 + l2 - 2*l3 in terms of the normalized
eigenvalues.  R is regular when Rm_hat is a real matrix, which happens
exactly when the ellipticity angle chi_m of its intrinsic form vanishes.

characteristic_decomposition diagonalizes R once, and regularity_report
reuses that solve and returns the components with its verdict.  The kernel
of Rm_hat is the third eigenvector of R, so chi_m is read off that
eigenvector, and the spectrum of Re(Rm_hat) follows in closed form as
(1/2, cos^2 chi_m / 2, sin^2 chi_m / 2), because Rm_hat =
Q intrinsic_middle(chi_m) Q^T with Q a real rotation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .linalg import (
    _TINY,
    EigenDecomposition,
    Unitary3Error,
    _check_unitary,
    _eig,
    _norm,
    _outer,
    as_matrix3,
)
from .parametrization import (
    _ellipticity,
    _normalize_global_phase,
    canonical_basis,
)

if TYPE_CHECKING:
    import numpy as np

REGULARITY_GATE = 1e-8
_PSD_TOL = 1e-10


@cache
def _ru_hat() -> np.ndarray:
    """The one read-only I/3 that every decomposition shares, built on first use."""
    import numpy as np

    ru = np.eye(3, dtype=complex) / 3.0
    ru.flags.writeable = False
    return ru


class ZeroTraceError(Unitary3Error, ValueError):
    """Coherency matrix has (numerically) zero trace: nothing to decompose."""


class NotPositiveSemidefiniteError(Unitary3Error, ValueError):
    """Coherency matrix has a significantly negative eigenvalue."""


@dataclass(frozen=True)
class PurityIndices:
    """Indices of polarimetric purity, 0 <= P1 <= P2 <= 1."""

    P1: float
    P2: float


@dataclass(frozen=True)
class CharacteristicComponents:
    """Trace-1 components of the characteristic decomposition.

    ``coefficients`` holds (P1, P2 - P1, 1 - P2); the convex combination of
    the three hatted components scaled by ``traceR`` reassembles the input.
    ``eigen`` is the eigendecomposition of the input the components are
    built from.
    """

    traceR: float
    Rp_hat: np.ndarray
    Rm_hat: np.ndarray
    Ru_hat: np.ndarray
    purity: PurityIndices
    coefficients: tuple[float, float, float]
    eigen: EigenDecomposition

    def reconstruct(self) -> np.ndarray:
        c1, c2, c3 = self.coefficients
        return self.traceR * (c1 * self.Rp_hat + c2 * self.Rm_hat + c3 * self.Ru_hat)


@dataclass(frozen=True)
class RegularityReport:
    """Spectrum of Re(Rm_hat), the middle ellipticity angle, the verdict, and
    the characteristic decomposition (``components``) they are read from."""

    m1_hat: float
    m2_hat: float
    m3_hat: float
    chi_m: float
    regular: bool
    im_norm: float
    components: CharacteristicComponents


def purity_indices(e: EigenDecomposition) -> PurityIndices:
    """P1 and P2 from a normalized, nonincreasing eigenvalue triple."""
    l1, l2, l3 = e.normalized.tolist()
    return PurityIndices(P1=l1 - l2, P2=l1 + l2 - 2.0 * l3)


def characteristic_decomposition(r) -> CharacteristicComponents:
    """Split a Hermitian PSD matrix into pure, middle and unpolarized parts.

    Raises NotHermitianError, ZeroTraceError or
    NotPositiveSemidefiniteError when the preconditions fail.  ``Ru_hat``
    is one shared read-only I/3.
    """
    return _decompose(as_matrix3(r))


def _decompose(r: np.ndarray) -> CharacteristicComponents:
    e = _eig(r)
    trace = e.trace
    if trace <= _TINY:
        raise ZeroTraceError(f"trace {trace:.3e} is not positive")
    smallest = e.values[2]
    if smallest < -_PSD_TOL * trace:
        raise NotPositiveSemidefiniteError(f"smallest eigenvalue {smallest:.3e} is negative")
    rp = _outer(e.vectors[:, 0].copy())
    rm = 0.5 * (rp + _outer(e.vectors[:, 1].copy()))
    p = purity_indices(e)
    return CharacteristicComponents(
        traceR=trace,
        Rp_hat=rp,
        Rm_hat=rm,
        Ru_hat=_ru_hat(),
        purity=p,
        coefficients=(p.P1, p.P2 - p.P1, 1.0 - p.P2),
        eigen=e,
    )


def middle_component(u) -> np.ndarray:
    """Half-projector onto the span of the first two columns of a unitary;
    raises NotUnitaryError where the input fails the unitarity gate."""
    u = as_matrix3(u)
    _check_unitary(u.tolist())
    return 0.5 * (_outer(u[:, 0].copy()) + _outer(u[:, 1].copy()))


def intrinsic_middle(chi: float) -> np.ndarray:
    """Middle component in the intrinsic frame, (n2 n2† + n3 n3†)/2 from
    canonical_basis(chi); it depends on chi alone.

    It equals middle_component of the core matrix with its columns ordered
    (v2, v3, n1), for every (mu, alpha2, alpha3, beta2), since
    v2 v2† + v3 v3† = I - n1 n1†.
    """
    _, n2, n3 = canonical_basis(chi).T
    return 0.5 * (_outer(n2.copy()) + _outer(n3.copy()))


def regularity_report(r) -> RegularityReport:
    """Regularity analysis of the middle component of a coherency matrix.

    The kernel of Rm_hat is the rotated intrinsic state (cos chi_m,
    i sin chi_m, 0), and it is the third eigenvector of R, so _ellipticity
    reads chi_m, sign included, straight off the decomposition's single
    eigensolve.  The spectrum of Re(Rm_hat) is its closed form
    (1/2, cos^2 chi_m / 2, sin^2 chi_m / 2), nonincreasing since
    |chi_m| <= pi/4.
    """
    return _regularity(as_matrix3(r))


def _regularity(r: np.ndarray) -> RegularityReport:
    import numpy as np

    c = _decompose(r)
    chi_m = _ellipticity(_normalize_global_phase(c.eigen.vectors[:, 2].tolist())[0])[0]
    return RegularityReport(
        m1_hat=0.5,
        m2_hat=float(np.cos(chi_m) ** 2 / 2),
        m3_hat=float(np.sin(chi_m) ** 2 / 2),
        chi_m=chi_m,
        regular=abs(chi_m) <= REGULARITY_GATE,
        im_norm=_norm(c.Rm_hat.imag),
        components=c,
    )

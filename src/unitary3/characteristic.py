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
import math
from collections import namedtuple

from .linalg import (
    _TINY,
    EigenDecomposition,
    Unitary3Error,
    _array,
    _check_finite,
    _check_unitary,
    _eig,
    _eigen,
    _fsum_norm,
    as_matrix3,
)
from .parametrization import _basis_rows, _ellipticity, _normalize_global_phase

REGULARITY_GATE = 1e-8
_PSD_TOL = 1e-10
_HALF = complex(0.5, 0.0)
# Rows of Ru_hat = I/3.
_RU_HAT = (
    (complex(1 / 3), 0j, 0j),
    (0j, complex(1 / 3), 0j),
    (0j, 0j, complex(1 / 3)),
)


class ZeroTraceError(Unitary3Error, ValueError):
    """Coherency matrix has (numerically) zero trace: nothing to decompose.

    A trace at or below 2**-1022, the smallest normal float, counts as zero
    and raises: its solve would run on subnormal floats.
    """


class NotPositiveSemidefiniteError(Unitary3Error, ValueError):
    """Coherency matrix has a significantly negative eigenvalue."""


class PurityIndices(namedtuple("PurityIndices", "P1 P2")):
    """Indices of polarimetric purity, 0 <= P1 <= P2 <= 1.

    P2 = 1 - 3 l3 exceeds 1 where the smallest normalized eigenvalue l3 is
    negative, which the PSD gate admits down to -_PSD_TOL: P2 - 1 is at
    most 3 * _PSD_TOL plus rounding.
    """

    __slots__ = ()


class CharacteristicComponents(namedtuple("CharacteristicComponents",
                                          "traceR Rp_hat Rm_hat Ru_hat purity coefficients eigen")):
    """Trace-1 components of the characteristic decomposition.

    ``Rp_hat``, ``Rm_hat`` and ``Ru_hat`` are complex 3x3 arrays and
    ``purity`` a PurityIndices.  ``coefficients`` is the tuple of three
    floats (P1, P2 - P1, 1 - P2); the convex combination of the three
    hatted components scaled by ``traceR`` reassembles the input.  It is
    convex up to the PSD gate: 1 - P2 may be negative, down to
    -3 * _PSD_TOL plus rounding (see PurityIndices).  ``eigen`` is the
    EigenDecomposition of the input the components are built from.
    """

    __slots__ = ()

    def reconstruct(self):
        """The decomposed matrix as a 3x3 complex array: traceR times the
        components summed with ``coefficients`` as weights."""
        c1, c2, c3 = self.coefficients
        return self.traceR * (c1 * self.Rp_hat + c2 * self.Rm_hat + c3 * self.Ru_hat)


class RegularityReport(namedtuple("RegularityReport",
                                  "m1_hat m2_hat m3_hat chi_m regular im_norm components")):
    """Spectrum of Re(Rm_hat), the middle ellipticity angle, the verdict
    (``regular``, a bool), and the characteristic decomposition
    (``components``, a CharacteristicComponents) they are read from."""

    __slots__ = ()


def purity_indices(e: EigenDecomposition) -> PurityIndices:
    """P1 and P2 from a normalized, nonincreasing eigenvalue triple."""
    return PurityIndices(*_purity(e.normalized.tolist()))


def _purity(normalized) -> tuple[float, float]:
    l1, l2, l3 = normalized
    return l1 - l2, l1 + l2 - 2.0 * l3


def _projector(x) -> list:
    """Rows of x x† for a column x of three Python complex.  Each entry
    above the diagonal is formed once and conjugated below it; complex
    multiplication makes each x_j conj(x_j) exactly real."""
    x0, x1, x2 = x
    c0, c1, c2 = x0.conjugate(), x1.conjugate(), x2.conjugate()
    p01, p02, p12 = x0 * c1, x0 * c2, x1 * c2
    return [
        [x0 * c0, p01, p02],
        [p01.conjugate(), x1 * c1, p12],
        [p02.conjugate(), p12.conjugate(), x2 * c2],
    ]


def _middle(x, y) -> list:
    """Rows of (x x† + y y†)/2 for two columns of Python complex, written
    out as _projector.  A product with complex(0.5, 0.0) halves each part
    exactly (a zero part may change sign), so (x_j/2) conj(x_k) +
    (y_j/2) conj(y_k) is the halved sum, rounded as its parts are."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    c0, c1, c2 = x0.conjugate(), x1.conjugate(), x2.conjugate()
    d0, d1, d2 = y0.conjugate(), y1.conjugate(), y2.conjugate()
    h0, h1, h2 = _HALF * x0, _HALF * x1, _HALF * x2
    k0, k1, k2 = _HALF * y0, _HALF * y1, _HALF * y2
    m01, m02, m12 = h0 * c1 + k0 * d1, h0 * c2 + k0 * d2, h1 * c2 + k1 * d2
    return [
        [h0 * c0 + k0 * d0, m01, m02],
        [m01.conjugate(), h1 * c1 + k1 * d1, m12],
        [m02.conjugate(), m12.conjugate(), h2 * c2 + k2 * d2],
    ]


def characteristic_decomposition(r) -> CharacteristicComponents:
    """Split a Hermitian PSD matrix into pure, middle and unpolarized parts.

    Raises NotHermitianError, ZeroTraceError or
    NotPositiveSemidefiniteError when the preconditions fail.
    """
    return _components(_decompose(as_matrix3(r)))


def _decompose(rows) -> CharacteristicComponents:
    """characteristic_decomposition on R given as rows of Python complex,
    as CharacteristicComponents of Python scalars: the three hatted
    components are rows of Python complex (``Ru_hat`` is _RU_HAT) and
    ``eigen`` is the _eig result."""
    e = _eig(rows)
    trace, vectors = e.trace, e.vectors
    if trace <= _TINY:
        raise ZeroTraceError(f"trace {trace:.3e} is not positive")
    smallest = e.values[2]
    if smallest < -_PSD_TOL * trace:
        raise NotPositiveSemidefiniteError(f"smallest eigenvalue {smallest:.3e} is negative")
    p1, p2 = _purity(e.normalized)
    return CharacteristicComponents(trace, _projector(vectors[0]), _middle(vectors[0], vectors[1]),
                                    _RU_HAT, PurityIndices(p1, p2), (p1, p2 - p1, 1.0 - p2), e)


def _components(c: CharacteristicComponents) -> CharacteristicComponents:
    """A _decompose result as a record of arrays, made by _eigen: the
    eigenvectors and the three hatted components are writeable views of
    one complex buffer, ``values`` and ``normalized`` of one float one."""
    eigen, arrays = _eigen(c.eigen, c.Rp_hat, c.Rm_hat, c.Ru_hat)
    return CharacteristicComponents(c.traceR, arrays[1], arrays[2], arrays[3], c.purity,
                                    c.coefficients, eigen)


def middle_component(u):
    """Half-projector onto the span of the first two columns of a unitary,
    as a 3x3 complex array; raises NotUnitaryError where the input fails
    the unitarity gate."""
    rows = as_matrix3(u)
    _check_unitary(rows)
    (u00, u01, _), (u10, u11, _), (u20, u21, _) = rows
    return _array(_middle((u00, u10, u20), (u01, u11, u21)))


def intrinsic_middle(chi: float):
    """Middle component in the intrinsic frame as a 3x3 complex array,
    (n2 n2† + n3 n3†)/2 from canonical_basis(chi); it depends on chi alone
    and raises NonFiniteError for a NaN or infinite chi.

    It equals middle_component of the core matrix with its columns ordered
    (v2, v3, n1), for every (mu, alpha2, alpha3, beta2), since
    v2 v2† + v3 v3† = I - n1 n1†.
    """
    _check_finite((chi,))
    _, n2, n3 = _basis_rows(chi)  # N(chi) is symmetric: its rows are its columns
    return _array(_middle(n2, n3))


def regularity_report(r) -> RegularityReport:
    """Regularity analysis of the middle component of a coherency matrix.

    The kernel of Rm_hat is the rotated intrinsic state (cos chi_m,
    i sin chi_m, 0), and it is the third eigenvector of R, so _ellipticity
    reads chi_m, sign included, straight off the decomposition's single
    eigensolve.  The spectrum of Re(Rm_hat) is its closed form
    (1/2, cos^2 chi_m / 2, sin^2 chi_m / 2), nonincreasing since
    |chi_m| <= pi/4.
    """
    m1, m2, m3, chi_m, regular, im_norm, c = _regularity(as_matrix3(r))
    return RegularityReport(m1, m2, m3, chi_m, regular, im_norm, _components(c))


def _regularity(rows) -> RegularityReport:
    """regularity_report on R given as rows of Python complex, with the
    _decompose result as its ``components``."""
    c = _decompose(rows)
    chi_m = _ellipticity(_normalize_global_phase(c.eigen.vectors[2])[0])[0]
    cm, sm = math.cos(chi_m), math.sin(chi_m)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = c.Rm_hat
    im_norm = _fsum_norm((m00.imag, m01.imag, m02.imag, m10.imag, m11.imag, m12.imag,
                          m20.imag, m21.imag, m22.imag))
    return RegularityReport(0.5, cm * cm / 2, sm * sm / 2, chi_m, abs(chi_m) <= REGULARITY_GATE,
                            im_norm, c)

"""Fixed-size complex linear algebra: 3x3 Hermitian eigensolver and helpers.

Public functions take and return plain numpy arrays (shape (3,) complex
vectors and (3, 3) complex matrices); the unitarity gate's kernels take a
matrix as rows of Python scalars.  All functions are pure; nothing here
mutates its inputs.  The eigensolver is LAPACK's (``numpy.linalg.eigh``)
behind a fixed contract: nonincreasing eigenvalues and a deterministic
eigenvector phase.

Validation rule of both pipelines: public operations validate once; stages
are private kernels.  Each public operation (recover_params,
regularity_report, characteristic_decomposition, middle_component,
eig_hermitian3, unitarity_distance; extract_rotation_angles on its real
input) checks its input once (as_matrix3: shape, complex dtype, finite
entries, C-contiguous copy) and runs private ``_kernels`` that trust it,
so one recovery or one coherency report validates its matrix once.
Kernels re-check nothing the operation's gate (such as the unitarity gate
_check_unitary) already holds; recovery's exit gate is its recomposition
residual.

Import rule: no module of the package imports numpy when it is imported.
Each function that builds or reads an array imports numpy itself, so
``import unitary3`` does not load it and the first such call does.  The
recovery CLI (``recover``, ``roundtrip``) stays on Python scalars from the
document to the output (documents._parse_rows, then
parametrization._recover_rows) and never loads numpy; ``compose``,
``chardecomp``, ``gen`` and ``selftest`` do.  Array methods and operators
(``.tolist()``, ``.copy()``, ``@``) need no import, so the kernels of the
coherency path import numpy only where they call it.

Arithmetic rule: recovery, composition (compose_core, compose_rotation,
compose_unitary) and the unitarity gate (_check_unitary,
unitarity_distance) run on Python floats and complex, one code path with
no numpy arithmetic, so their bytes do not depend on numpy's SIMD targets
or on the BLAS kernels of the host.  A matrix is read with one
``tolist()``; elementary functions are math's and cmath's (cos, sin,
atan2, phase); a modulus is math.hypot(re, im); a vector or Frobenius
norm squares each real and imaginary part, sums the squares with
math.fsum (exact, rounded once) and takes math.sqrt; every 3x3 product is
written out with each sum taken left to right.  A complex times a real or
a purely imaginary factor is written as two float products, so Python's
promotion of a float operand (which Python 3.14 no longer does) decides
no sign of zero.  One dependence remains: glibc picks an FMA variant of
atan2, sin, cos and exp by CPU, and those can differ in the last bit
between hosts; hypot, fsum, sqrt and + - * / cannot.

The coherency path keeps LAPACK's eigh and numpy arithmetic (outer
products, the norm of Im Rm_hat, the closed-form spectrum), so its bytes
stay bound to the host's numpy and BLAS.  Two details keep it
bit-identical on one host:

- numpy rounds a strided view differently from a contiguous one in its SIMD
  loops, so an eigenvector column is copied contiguous
  (``vectors[:, i].copy()``) before any arithmetic on it;
- the eigenvector phase conj(z)/|z| is numpy's complex-by-real division,
  Smith's algorithm with the divisor (|z|, 0): it multiplies by 1/|z|, and
  its ``+-x*0.0`` terms decide the signs of zeros (_unit_phase writes it
  out; a plain ``z.conjugate() / abs(z)`` rounds differently).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Gates shared by every module.  DEGENERACY_GATE only labels (the circular
# column, a3 = 0, b3 = 0) and folds nothing.  FOLD_GATE is the one gate of
# every fold: below it a quantity is rounding noise and a convention decides
# (linear column and pole, chi sign, rotation gimbal, mu = 0 and mu = pi/2).
UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12
DEGENERACY_GATE = 1e-10
FOLD_GATE = 1e-12

_TINY = sys.float_info.min
# Exponent above which the symmetrization R + R' or the largest eigenvalue
# (at most 3 max|R|) of a 3x3 Hermitian R could overflow.
_MAX_EXPONENT = 1022

class Unitary3Error(Exception):
    """Base of every library error: the CLI prints ``kind`` and exits with
    ``exit_code``.  Each subclass also keeps a ValueError or RuntimeError parent."""

    exit_code = 2
    kind = "precondition violated"


class NonFiniteError(Unitary3Error, ValueError):
    """Input has a NaN or infinite entry."""


class NotHermitianError(Unitary3Error, ValueError):
    """Input matrix is not Hermitian within tolerance."""


class FloatRangeError(Unitary3Error, ValueError):
    """A finite input whose trace, eigenvalue or entry modulus lies beyond
    the largest float."""


class NotUnitaryError(Unitary3Error, ValueError):
    """Matrix expected to pass the unitarity gate."""


def as_matrix3(m) -> np.ndarray:
    import numpy as np

    m = np.ascontiguousarray(m, dtype=complex).reshape(3, 3)
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    return m


def _norm(x: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a real or complex array, bit-identical
    to numpy.linalg.norm(x): its own arithmetic without its dispatch.

    The ravel matters: it copies a strided view such as ``eps.real``, and
    ``dot`` on the strided view rounds differently in the last bit.
    """
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _fsum_norm(parts) -> float:
    """Euclidean norm of real numbers (the real and imaginary parts of a
    complex vector or matrix): math.sqrt of the math.fsum of their squares,
    a sum that is exact and rounded once.  A square beyond the float range
    gives inf, a sum beyond it OverflowError."""
    return math.sqrt(math.fsum([x * x for x in parts]))


def unitarity_distance(m) -> float:
    """Frobenius norm of M†M - I; raises FloatRangeError where that
    overflows (entries of modulus above about 1e77)."""
    dist = _unitarity_distance(as_matrix3(m).tolist())
    if not math.isfinite(dist):
        raise FloatRangeError("unitarity distance is beyond the largest float")
    return dist


def _unitarity_distance(rows) -> float:
    """unitarity_distance of M given as rows of Python scalars; inf or NaN
    where it overflows.

    Entry (j, k) of M†M is conj(m0j) m0k + conj(m1j) m1k + conj(m2j) m2k.
    Formed so, it is exactly the conjugate of entry (k, j), and the diagonal
    exactly real, so each entry above the diagonal is formed once and
    counted twice.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    x0, y0, z0 = a0.conjugate(), b0.conjugate(), c0.conjugate()
    x1, y1, z1 = a1.conjugate(), b1.conjugate(), c1.conjugate()
    x2, y2, z2 = a2.conjugate(), b2.conjugate(), c2.conjugate()
    g01 = x0 * a1 + y0 * b1 + z0 * c1
    g02 = x0 * a2 + y0 * b2 + z0 * c2
    g12 = x1 * a2 + y1 * b2 + z1 * c2
    r01, i01, r02, i02, r12, i12 = g01.real, g01.imag, g02.real, g02.imag, g12.real, g12.imag
    try:
        return _fsum_norm((
            (x0 * a0 + y0 * b0 + z0 * c0).real - 1.0,
            (x1 * a1 + y1 * b1 + z1 * c1).real - 1.0,
            (x2 * a2 + y2 * b2 + z2 * c2).real - 1.0,
            r01, i01, r01, i01, r02, i02, r02, i02, r12, i12, r12, i12,
        ))
    except OverflowError:  # finite squares whose sum is beyond the float range
        return math.inf


def _check_unitary(rows) -> None:
    """The unitarity gate on M given as rows of Python scalars:
    NotUnitaryError for a unitarity distance above UNITARITY_TOL, named as
    an entry of modulus above 2 (every entry of a unitary has modulus at
    most 1) where there is one, since M†M may then have overflowed."""
    dist = _unitarity_distance(rows)
    if not dist <= UNITARITY_TOL:
        peak = max(math.hypot(z.real, z.imag) for row in rows for z in row)
        if peak > 2.0:
            raise NotUnitaryError(f"entry modulus {peak:.3e} exceeds 2")
        raise NotUnitaryError(f"unitarity distance {dist:.3e} exceeds {UNITARITY_TOL}")


def _outer(v: np.ndarray) -> np.ndarray:
    """Conjugate outer product v v†, a Hermitian PSD matrix of rank <= 1:
    the one multiply that numpy.outer(v, v.conj()) runs."""
    return v[:, None] * v.conj()[None, :]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (nonincreasing) and matching orthonormal eigenvectors.

    ``values[i]`` pairs with column ``vectors[:, i]``.  ``trace`` is the
    input's trace (its real diagonal summed in order) and ``normalized``
    holds values divided by it (all-zero for a zero-trace input).
    """

    values: np.ndarray
    normalized: np.ndarray
    vectors: np.ndarray
    trace: float


def _unit_phase(z: complex) -> complex:
    """conj(z)/|z| exactly as numpy divides a complex by a real: Smith's
    algorithm with the divisor (|z|, 0)."""
    s = 1.0 / abs(z)
    return complex((z.real - z.imag * 0.0) * s, (-z.imag - z.real * 0.0) * s)


def eig_hermitian3(r) -> EigenDecomposition:
    """Diagonalize a 3x3 Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come out sorted nonincreasing; eigenvectors are orthonormal
    with a deterministic phase (largest component real positive).

    Raises NotHermitianError if max|R - R†| exceeds HERMITICITY_TOL times
    max|R|, a gate that holds at any scale (moduli are hypot, so no square
    overflows).  Entries of 2**1022 or more are divided by a power of two
    before the solve, and the eigenvalues multiplied back, so no finite
    input overflows inside; a trace or eigenvalue beyond the largest float
    raises FloatRangeError.  No finite Hermitian input is known to make
    LAPACK fail to converge; if one did, ``numpy.linalg.LinAlgError`` would
    propagate untyped, and the CLI reports it as a bug with its traceback.
    """
    return _eig(as_matrix3(r))


def _eig(r: np.ndarray) -> EigenDecomposition:
    import numpy as np

    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    try:
        scale = max(map(abs, (r00, r01, r02, r10, r11, r12, r20, r21, r22)))
        skew = max(
            abs(r00 - r00.conjugate()), abs(r01 - r10.conjugate()), abs(r02 - r20.conjugate()),
            abs(r11 - r11.conjugate()), abs(r12 - r21.conjugate()), abs(r22 - r22.conjugate()),
        )
    except OverflowError:
        raise FloatRangeError("an entry of R or R - R' has a modulus beyond the largest float") from None
    if skew > HERMITICITY_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max|R - R'| = {skew:.3e}, max|R| = {scale:.3e}"
        )
    trace = r00.real + r11.real + r22.real
    if math.isinf(trace):
        raise FloatRangeError("trace is beyond the largest float")
    # Only entries of 2**1022 or more are divided by a power of two, which is
    # exact.  eigh is not scale-equivariant beyond about 1e+-120, where
    # LAPACK's own thresholds switch, so rescaling every matrix would move
    # the last bits that the solve on R itself gives.
    k = max(math.frexp(scale)[1] - _MAX_EXPONENT, 0)
    if k:
        r = np.ldexp(r.view(float), -k).view(complex)
    w, vec = np.linalg.eigh(0.5 * (r + r.conj().T))
    try:
        values = [math.ldexp(x, k) for x in reversed(w.tolist())]
    except OverflowError:
        raise FloatRangeError("an eigenvalue is beyond the largest float") from None
    if abs(trace) > _TINY:
        normalized = [x / trace for x in values]
    else:
        normalized = [0.0, 0.0, 0.0]
    # Each column's largest-magnitude component (the first of equal ones)
    # is made real and positive; a unit column has a nonzero one.
    vec = vec[:, ::-1]
    phases = [_unit_phase(max(col, key=abs)) for col in vec.T.tolist()]
    return EigenDecomposition(
        values=np.array(values),
        normalized=np.array(normalized),
        vectors=vec * np.array(phases),
        trace=trace,
    )

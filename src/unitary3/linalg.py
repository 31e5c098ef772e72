"""Fixed-size complex linear algebra: 3x3 Hermitian eigensolver and helpers.

Everything operates on plain numpy arrays (shape (3,) complex vectors and
(3, 3) complex matrices). All functions are pure; nothing here mutates its
inputs.  The eigensolver is LAPACK's (``numpy.linalg.eigh``) behind a fixed
contract: nonincreasing eigenvalues and a deterministic eigenvector phase.

Validation rule of both pipelines: public functions validate, ``_kernels``
trust.  Each public stage function checks its input once (as_vector3,
as_matrix3: shape, complex dtype, finite entries, C-contiguous copy) and
calls its private kernel; pipelines call the kernels directly, so one
recovery or one coherency report validates its matrix once.

Arithmetic rule of both pipelines: Python scalars for 3x3 reads; numpy for
arctan2, hypot, complex products and dot norms, because their rounding is
part of the output.  Kernels read the entries they need with one
``tolist()``: numpy's per-call overhead on such small arrays costs more
than their arithmetic.  But math.atan2, math.hypot, Python's complex
product and a Python-summed norm each differ from numpy's arctan2, hypot,
complex multiply (``(u * u).sum()``, ``np.outer``, a column times its phase)
and ``dot`` in the last bit on a share of inputs, so those stay numpy and
no output drifts.  Two more details keep the coherency path bit-identical:

- numpy rounds a strided view differently from a contiguous one in its SIMD
  loops, so an eigenvector column is copied contiguous
  (``np.ascontiguousarray(vectors[:, i])``) before any arithmetic on it;
- the eigenvector phase conj(z)/|z| is numpy's complex-by-real division,
  Smith's algorithm with the divisor (|z|, 0): it multiplies by 1/|z|, and
  its ``+-x*0.0`` terms decide the signs of zeros (_unit_phase writes it
  out; a plain ``z.conjugate() / abs(z)`` rounds differently).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


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


def as_vector3(v) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=complex).reshape(3)
    if not np.isfinite(v).all():
        raise NonFiniteError("vector has non-finite entries")
    return v


def as_matrix3(m) -> np.ndarray:
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


def unitarity_distance(m) -> float:
    """Frobenius norm of M†M - I; raises FloatRangeError where that
    overflows (entries of modulus above about 1e77)."""
    m = as_matrix3(m)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _unitarity_distance(m)
    except FloatingPointError:
        raise FloatRangeError("unitarity distance is beyond the largest float") from None


def _unitarity_distance(m: np.ndarray) -> float:
    return _norm(m.conj().T @ m - _EYE3)


def _check_unitary(m: np.ndarray) -> None:
    """The unitarity gate: NotUnitaryError for an entry of modulus above 2
    (every entry of a unitary has modulus at most 1), checked before M†M
    could overflow, or for a unitarity distance above UNITARITY_TOL."""
    peak = max(math.hypot(z.real, z.imag) for z in m.ravel().tolist())
    if peak > 2.0:
        raise NotUnitaryError(f"entry modulus {peak:.3e} exceeds 2")
    dist = _unitarity_distance(m)
    if not dist <= UNITARITY_TOL:
        raise NotUnitaryError(f"unitarity distance {dist:.3e} exceeds {UNITARITY_TOL}")


def outer_product(v) -> np.ndarray:
    """Conjugate outer product v v†, a Hermitian PSD matrix of rank <= 1."""
    return _outer(as_vector3(v))


def _outer(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


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


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component (the first of equal
    ones) real and positive.  Columns are unit vectors, so it is nonzero."""
    phases = [_unit_phase(max(col, key=abs)) for col in vectors.T.tolist()]
    return vectors * np.array(phases)


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
    return EigenDecomposition(
        values=np.array(values),
        normalized=np.array(normalized),
        vectors=_fix_column_phases(vec[:, ::-1]),
        trace=trace,
    )

"""Fixed-size complex linear algebra: 3x3 Hermitian eigensolver and helpers.

Everything operates on plain numpy arrays (shape (3,) complex vectors and
(3, 3) complex matrices). All functions are pure; nothing here mutates its
inputs.  The eigensolver is LAPACK's (``numpy.linalg.eigh``) behind a fixed
contract: nonincreasing eigenvalues and a deterministic eigenvector phase.

Arithmetic rule of the recovery path: Python scalars for 3x3 reads; numpy
for arctan2, hypot, complex products and dot norms, because their rounding
is part of the output.  Each function validates its 3-vector or 3x3 input
once (as_vector3, as_matrix3) and reads the entries it needs with one
``tolist()``: numpy's per-call overhead on such small arrays costs more than
their arithmetic.  But math.atan2, math.hypot, Python's complex product and
a Python-summed norm each differ from numpy's arctan2, hypot,
``(u * u).sum()`` and ``dot`` in the last bit on a share of inputs, so those
four stay numpy and recovered parameters do not drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gates shared by every module.  DEGENERACY_GATE only labels branches (the
# circular column, a3 = 0, b3 = 0).  FOLD_GATE is the one gate of every fold:
# below it a quantity is rounding noise and a convention decides (linear
# column and pole, chi sign, rotation gimbal, mu = 0 and mu = pi/2).
UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12
DEGENERACY_GATE = 1e-10
FOLD_GATE = 1e-12


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
    """Frobenius norm of M†M - I."""
    m = as_matrix3(m)
    return _norm(m.conj().T @ m - _EYE3)


def is_unitary(m) -> bool:
    return unitarity_distance(m) <= UNITARITY_TOL


def outer_product(v) -> np.ndarray:
    """Conjugate outer product v v†, a Hermitian PSD matrix of rank <= 1."""
    v = as_vector3(v)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (nonincreasing) and matching orthonormal eigenvectors.

    ``values[i]`` pairs with column ``vectors[:, i]``.  ``normalized`` holds
    values divided by the input trace (all-zero for a zero-trace input).
    """

    values: np.ndarray
    normalized: np.ndarray
    vectors: np.ndarray


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real and positive."""
    out = vectors.copy()
    for i in range(3):
        col = out[:, i]
        k = int(np.argmax(np.abs(col)))
        z = col[k]
        if abs(z) > 0.0:
            out[:, i] = col * (np.conj(z) / abs(z))
    return out


def eig_hermitian3(r) -> EigenDecomposition:
    """Diagonalize a 3x3 Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come out sorted nonincreasing; eigenvectors are orthonormal
    with a deterministic phase (largest component real positive).

    Raises NotHermitianError if max|R - R†| exceeds HERMITICITY_TOL times
    max|R|, a gate that holds at any scale (moduli are hypot, so nothing
    overflows).  No finite Hermitian input is known to make LAPACK fail to
    converge; if one did, ``numpy.linalg.LinAlgError`` would propagate
    untyped, and the CLI reports it as a bug with its traceback.
    """
    r = as_matrix3(r)
    skew = float(np.abs(r - r.conj().T).max())
    scale = float(np.abs(r).max())
    if skew > HERMITICITY_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max|R - R'| = {skew:.3e}, max|R| = {scale:.3e}"
        )
    values, vec = np.linalg.eigh(0.5 * (r + r.conj().T))
    values = values[::-1]
    vec = _fix_column_phases(vec[:, ::-1])
    trace = float(np.trace(r).real)
    if abs(trace) > np.finfo(float).tiny:
        normalized = values / trace
    else:
        normalized = np.zeros(3)
    return EigenDecomposition(values=values, normalized=normalized, vectors=vec)

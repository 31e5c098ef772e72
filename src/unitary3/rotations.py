"""Proper orthogonal matrices of the composed frame rotation.

The composed rotation Q(phi, theta, varphi) is defined by its closed-form
entries (the form every downstream trigonometric identity assumes):

    Q = [[ cf ct cv + sf sv,  -cf ct sv + sf cv,  st cf ],
         [ -sf ct cv + cf sv,  sf ct sv + cf cv,  -sf st ],
         [ -st cv,             st sv,              ct   ]]

with cf = cos(phi), st = sin(theta), cv = cos(varphi) and so on.  In terms
of elementary factors this equals a rotation about Z by -phi, times a
rotation about Y by -theta (with -sin in the (1,3) slot), times a rotation
about Z by varphi; note the sign flips on the two leftmost factors relative
to the naive product reading.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .linalg import (FOLD_GATE, NotUnitaryError, Unitary3Error, _array, _check_finite, _check_unitary,
                     as_matrix3)

_TWO_PI = 2.0 * math.pi


class NotOrthogonalError(Unitary3Error, ValueError):
    """Input is not a proper orthogonal matrix within tolerance."""


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]: math.remainder(x, 2 pi), which is exact
    and the identity on (-pi, pi], with -pi folded to pi (math.atan2 gives
    -pi for a negative real with a -0.0 imaginary part).  An infinite x
    raises ValueError, as math.remainder does."""
    x = math.remainder(x, _TWO_PI)
    return math.pi if x == -math.pi else x


class RotationAngles(namedtuple("RotationAngles", "phi theta varphi")):
    """Rotation triple (phi, theta, varphi), all radians.

    Canonical ranges are phi in (-pi, pi], theta in [-pi/2, pi/2] and
    varphi in [0, pi); parametrization._RANGES is the one home of theta's
    and varphi's.  The chart with those ranges reaches exactly the
    rotations with Q[2,2] >= 0; extraction from an arbitrary proper
    orthogonal matrix may therefore report |theta| > pi/2.
    """

    __slots__ = ()

    def canonical(self) -> "RotationAngles":
        """Wrap into canonical ranges, using the Q-preserving equivalence
        (varphi, theta, phi) -> (varphi - pi, -theta, phi + pi); raises
        NonFiniteError for a NaN or infinite angle."""
        _check_finite(self)
        return _canonical(self.phi, self.theta, self.varphi)


def _canonical(phi: float, theta: float, varphi: float) -> RotationAngles:
    varphi = varphi % _TWO_PI
    # Twice when % rounds a tiny negative varphi up to 2 pi itself, so that
    # varphi = pi never comes out; two folds cancel, so phi and theta move
    # only for an odd count.
    folds = 0
    while varphi >= math.pi:
        varphi -= math.pi
        folds += 1
    if folds % 2:
        theta = -theta
        phi = phi + math.pi
    return RotationAngles(wrap_angle(phi), float(theta), float(varphi))


def compose_rotation(angles: RotationAngles) -> np.ndarray:
    """Composed rotation Q from the closed-form entries above; raises
    NonFiniteError for a NaN or infinite angle."""
    _check_finite(angles)
    return _array(_rotation_rows(angles))


def _rotation_rows(angles: RotationAngles) -> list:
    """Rows of Q as Python floats: math's cos and sin, each entry's products
    and sums left to right as written above."""
    cf, sf = math.cos(angles.phi), math.sin(angles.phi)
    ct, st = math.cos(angles.theta), math.sin(angles.theta)
    cv, sv = math.cos(angles.varphi), math.sin(angles.varphi)
    return [
        [cf * ct * cv + sf * sv, -cf * ct * sv + sf * cv, st * cf],
        [-sf * ct * cv + cf * sv, sf * ct * sv + cf * cv, -sf * st],
        [-st * cv, st * sv, ct],
    ]


def extract_rotation_angles(q) -> tuple[RotationAngles, bool]:
    """Invert compose_rotation.

    Returns (angles, gimbal_degenerate).  theta is read from Q[2,2],
    varphi from row 3 and phi from column 3.  At gimbal lock
    (|sin theta| <= FOLD_GATE) the in-plane rotation is absorbed into phi
    and varphi is set to 0; the flag reports that convention fired.

    The input is read into rows of Python complex as every public
    operation reads it (as_matrix3); an entry with a nonzero imaginary part
    raises NotOrthogonalError.  A real matrix is orthogonal exactly when it
    is unitary, so the real parts pass linalg's unitarity gate;
    NotOrthogonalError carries the gate's message.
    """
    rows = as_matrix3(q)
    if any(z.imag for row in rows for z in row):
        raise NotOrthogonalError("matrix has an entry with a nonzero imaginary part")
    rows = [[z.real for z in row] for row in rows]
    try:
        _check_unitary(rows)
    except NotUnitaryError as exc:
        raise NotOrthogonalError(f"matrix is not orthogonal: {exc}") from None
    (q00, q01, q02), (q10, q11, q12), (q20, q21, ct) = rows
    # Once Q^T Q = I, det Q = +-1: its sign, expanded along row 1, decides properness.
    det = (
        q00 * (q11 * ct - q12 * q21)
        - q01 * (q10 * ct - q12 * q20)
        + q02 * (q10 * q21 - q11 * q20)
    )
    if det < 0.0:
        raise NotOrthogonalError("matrix is orthogonal but not proper (det < 0)")
    return _rotation_angles(rows)


def _rotation_angles(rows) -> tuple[RotationAngles, bool]:
    """extract_rotation_angles on the rows of a proper orthogonal matrix,
    already read into Python floats."""
    (q00, q01, q02), (_, _, q12), (q20, q21, ct) = rows
    st = math.hypot(q02, q12)
    gimbal = st <= FOLD_GATE
    if not gimbal:
        theta = math.atan2(st, ct)
        phi = math.atan2(-q12, q02)
        varphi = math.atan2(q21, -q20)
    else:
        varphi = 0.0
        if ct >= 0.0:
            theta = 0.0
            phi = math.atan2(q01, q00)
        else:
            theta = math.pi
            phi = math.atan2(q01, -q00)
    return _canonical(phi, theta, varphi), gimbal

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
README, Conventions: Angle ranges.
"""
import math
from collections import namedtuple

from .linalg import (FOLD_GATE, NonFiniteError, NotUnitaryError, Unitary3Error, _array, _check_finite,
                     _check_unitary, _new, as_matrix3)

_TWO_PI = 2.0 * math.pi


class NotOrthogonalError(Unitary3Error, ValueError):
    """Input is not a proper orthogonal matrix within tolerance."""


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi], exactly: README, Conventions: Angle ranges.
    A NaN or infinite x raises NonFiniteError, which is a ValueError."""
    try:
        r = math.remainder(x, _TWO_PI)
    except ValueError:  # x is infinite
        r = math.nan
    if r > -math.pi:  # the one comparison a finite angle takes
        return r
    if r == -math.pi:
        return math.pi
    raise NonFiniteError(f"angle {x} is not finite")


class RotationAngles(namedtuple("RotationAngles", "phi theta varphi")):
    """Rotation triple (phi, theta, varphi), all radians.
    README, Conventions: Angle ranges.
    """

    __slots__ = ()

    def canonical(self) -> "RotationAngles":
        """Wrap into canonical ranges, using the Q-preserving equivalence
        (varphi, theta, phi) -> (varphi - pi, -theta, phi + pi); raises
        NonFiniteError for a NaN or infinite angle.  phi and varphi are
        wrapped; theta is only negated by the fold, never wrapped, so a theta
        outside [-pi/2, pi/2] stays outside it:
        RotationAngles(1e300, 1e300, 1e300).canonical() has theta = -1e300.
        Each angle is read with float() first, so the fold runs on Python
        floats whatever the angles' type (a numpy float32 included) and the
        result holds three Python floats."""
        _check_finite(self)
        phi, theta, varphi = self
        return _canonical(float(phi), float(theta), float(varphi))


def _canonical(phi: float, theta: float, varphi: float) -> RotationAngles:
    """RotationAngles.canonical on three finite Python floats."""
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
    return _new(RotationAngles, (wrap_angle(phi), theta, varphi))


def compose_rotation(angles: RotationAngles):
    """Composed rotation Q as a 3x3 real array, from the closed-form
    entries above; raises TypeError unless ``angles`` is a RotationAngles,
    and NonFiniteError for a NaN or infinite angle."""
    if not isinstance(angles, RotationAngles):
        raise TypeError(f"compose_rotation takes a RotationAngles, not {type(angles).__name__}")
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
    varphi from row 3 and phi from column 3.  gimbal_degenerate is true at
    the gimbal, |sin theta| <= FOLD_GATE, whose fold is
    README, Conventions: Degenerate folds.

    Raises NotOrthogonalError for an entry with a nonzero imaginary part,
    for a matrix that fails linalg's unitarity gate (a real matrix is
    orthogonal exactly when it is unitary; the error carries the gate's
    message), and for det < 0.
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

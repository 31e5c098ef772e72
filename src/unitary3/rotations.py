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

from dataclasses import dataclass

import numpy as np

from .linalg import FOLD_GATE, NonFiniteError, NotUnitaryError, Unitary3Error, _check_unitary


class NotOrthogonalError(Unitary3Error, ValueError):
    """Input is not a proper orthogonal matrix within tolerance."""


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return float(-((np.pi - x) % (2.0 * np.pi) - np.pi))


@dataclass(frozen=True)
class RotationAngles:
    """Rotation triple (phi, theta, varphi), all radians.

    Canonical ranges are phi in (-pi, pi], theta in [-pi/2, pi/2] and
    varphi in [0, pi).  The chart with those ranges reaches exactly the
    rotations with Q[2,2] >= 0; extraction from an arbitrary proper
    orthogonal matrix may therefore report |theta| > pi/2.
    """

    phi: float
    theta: float
    varphi: float

    def canonical(self) -> "RotationAngles":
        """Wrap into canonical ranges, using the Q-preserving equivalence
        (varphi, theta, phi) -> (varphi - pi, -theta, phi + pi)."""
        phi, theta, varphi = self.phi, self.theta, self.varphi
        varphi = varphi % (2.0 * np.pi)
        if varphi >= np.pi:
            varphi -= np.pi
            theta = -theta
            phi = phi + np.pi
        return RotationAngles(wrap_angle(phi), float(theta), float(varphi))


def compose_rotation(angles: RotationAngles) -> np.ndarray:
    """Composed rotation Q from the closed-form entries above: numpy's
    cos and sin, products and sums in Python floats."""
    cf, sf = float(np.cos(angles.phi)), float(np.sin(angles.phi))
    ct, st = float(np.cos(angles.theta)), float(np.sin(angles.theta))
    cv, sv = float(np.cos(angles.varphi)), float(np.sin(angles.varphi))
    return np.array(
        [
            cf * ct * cv + sf * sv, -cf * ct * sv + sf * cv, st * cf,
            -sf * ct * cv + cf * sv, sf * ct * sv + cf * cv, -sf * st,
            -st * cv, st * sv, ct,
        ]
    ).reshape(3, 3)


def extract_rotation_angles(q) -> tuple[RotationAngles, bool]:
    """Invert compose_rotation.

    Returns (angles, gimbal_degenerate).  theta is read from Q[2,2],
    varphi from row 3 and phi from column 3.  At gimbal lock
    (|sin theta| <= FOLD_GATE) the in-plane rotation is absorbed into phi
    and varphi is set to 0; the flag reports that convention fired.

    A real matrix is orthogonal exactly when it is unitary, so the input
    passes linalg's unitarity gate, whose entry-modulus check runs before
    Q^T Q could overflow; NotOrthogonalError carries the gate's message.
    """
    q = np.asarray(q, dtype=float).reshape(3, 3)
    if not np.isfinite(q).all():
        raise NonFiniteError("matrix has non-finite entries")
    try:
        _check_unitary(q)
    except NotUnitaryError as exc:
        raise NotOrthogonalError(f"matrix is not orthogonal: {exc}") from None
    rows = q.tolist()
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
    st = float(np.hypot(q02, q12))
    gimbal = st <= FOLD_GATE
    if not gimbal:
        theta = float(np.arctan2(st, ct))
        phi = float(np.arctan2(-q12, q02))
        varphi = float(np.arctan2(q21, -q20))
    else:
        varphi = 0.0
        if ct >= 0.0:
            theta = 0.0
            phi = float(np.arctan2(q01, q00))
        else:
            theta = np.pi
            phi = float(np.arctan2(q01, -q00))
    return RotationAngles(phi, theta, varphi).canonical(), gimbal

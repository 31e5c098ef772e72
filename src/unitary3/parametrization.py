"""Nine-parameter chart on U(3) built from orthonormal Jones-vector triples.

Composition: canonical_basis(chi) is the unitary N(chi) whose columns are
the paper's orthonormal Jones vectors in the intrinsic frame of the first:
n1 = (cos chi, i sin chi, 0) the intrinsic state, n2 = (i sin chi,
cos chi, 0) the coplanar state of opposite ellipticity and n3 = (0, 0, 1)
linear along the normal of the polarization plane.  The core matrix is

    V1 = N(chi) diag(e^{i a1}, W),  W = [[ cm e^{i a2},  sm e^{i a3} ],
                                         [ sm e^{i b2}, -cm e^{i d}  ]]

with cm = cos mu, sm = sin mu, d = beta2 - alpha2 + alpha3: its columns
are e^{i a1} n1 and the two combinations of n2 and n3 that W sets.

A general unitary is obtained by re-expressing those three column vectors
in an arbitrary frame through the composed rotation Q(phi, theta, varphi):

    U = Q @ V1

(each column of U is Q applied to the matching column of V1, so the first
column of U is the rotated intrinsic state and the recovery below inverts
that relation; see the conventions note in the README).  Five sibling
parametrizations exist by reordering the columns of V1; only this ordering
is implemented.

Recovery: the first column u1 determines alpha1, chi and the rotation; the
core parameters then come from the entries of V1 = Q.T @ U.  _ellipticity
holds every convention of chi: its magnitude, its sign (fixed by the
requirement that the rotation stays inside the chart, Q[2,2] = cos theta
>= 0, which reduces to sign(a1*b2 - a2*b1) on the real and imaginary parts
of the phase-normalized first column) and the zero-pattern branch (a, b1,
b2, c, d1, d2) reported alongside.  Each stage has one rule and every fold
one gate, linalg.FOLD_GATE: below it chi is 0 (linear column, whose frame
takes varphi = 0), the chi sign and the rotation gimbal take their
conventions, and alpha2 (mu = pi/2) or alpha3 (mu = 0) is 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# NotUnitaryError stays importable from here, the module whose recovery raises it.
from .linalg import (DEGENERACY_GATE, FOLD_GATE, NotUnitaryError, Unitary3Error, _check_unitary,
                     _norm, as_matrix3)
from .rotations import RotationAngles, _rotation_angles, compose_rotation, wrap_angle

RECOVERY_TOL = 1e-10


class ParameterRangeError(Unitary3Error, ValueError):
    """A parameter lies outside its chart range (mu outside [0, pi/2])."""


class RecoveryToleranceError(Unitary3Error, RuntimeError):
    """Recomposed matrix misses the input beyond the recovery tolerance."""

    exit_code = 3
    kind = "tolerance failure"


@dataclass(frozen=True)
class UnitaryParams:
    """The full nine-parameter record: rotation triple, two angles, four phases."""

    rotation: RotationAngles
    chi: float
    mu: float
    alpha1: float
    alpha2: float
    alpha3: float
    beta2: float

    def as_dict(self) -> dict:
        return {
            "phi": self.rotation.phi,
            "theta": self.rotation.theta,
            "varphi": self.rotation.varphi,
            "chi": self.chi,
            "mu": self.mu,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "beta2": self.beta2,
        }


@dataclass(frozen=True)
class RecoveryReport:
    params: UnitaryParams
    residual: float
    branch: str
    global_phase_alpha1_degenerate: bool


def _phase(z: complex) -> float:
    """Argument of z, exactly as numpy.angle computes it."""
    return float(np.arctan2(z.imag, z.real))


def _jones_columns(chi: float) -> tuple:
    """Columns (n1, n2, n3) of N(chi) as Python complex scalars; every entry
    is a complex, as linalg's arithmetic rule asks of a factor."""
    c, i_s = complex(np.cos(chi)), 1j * float(np.sin(chi))
    return (c, i_s, 0j), (i_s, c, 0j), (0j, 0j, 1 + 0j)


def canonical_basis(chi: float) -> np.ndarray:
    """Unitary N(chi) with the orthonormal Jones vectors (n1, n2, n3) as columns."""
    # N(chi) is symmetric: its columns are also its rows.
    return np.array(_jones_columns(chi))


def compose_core(
    chi: float,
    mu: float,
    alpha1: float,
    alpha2: float,
    alpha3: float,
    beta2: float,
) -> np.ndarray:
    """Core matrix V1 = N(chi) diag(e^{i alpha1}, W); raises
    ParameterRangeError for mu outside [0, pi/2].

    cos, sin and e^{ix} are numpy's; the products and sums are Python
    complex, entry by entry as numpy forms the columns e^{i a1} n1,
    W11 n2 + W21 n3 and W12 n2 + W22 n3.  Each product has a factor with an
    exactly zero real or imaginary part, so it rounds as numpy's does
    (linalg's arithmetic rule).
    """
    if not -FOLD_GATE <= mu <= np.pi / 2 + FOLD_GATE:
        raise ParameterRangeError("mu must lie in [0, pi/2]")
    n1, n2, n3 = _jones_columns(chi)
    cm, sm = complex(np.cos(mu)), complex(np.sin(mu))
    delta = beta2 - alpha2 + alpha3
    e1 = complex(np.exp(1j * alpha1))
    w11, w21 = cm * complex(np.exp(1j * alpha2)), sm * complex(np.exp(1j * beta2))
    # W22 = -cm e^{i delta} enters as a subtraction, as in numpy's column.
    w12, cm_ed = sm * complex(np.exp(1j * alpha3)), cm * complex(np.exp(1j * delta))
    return np.array(
        [[e1 * x1, w11 * x2 + w21 * x3, w12 * x2 - cm_ed * x3] for x1, x2, x3 in zip(n1, n2, n3)]
    )


def compose_unitary(p: UnitaryParams) -> np.ndarray:
    """Unitary matrix with columns Q n1, Q v2, Q v3."""
    q = compose_rotation(p.rotation)
    return q @ compose_core(p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2)


def _normalize_global_phase(u1: np.ndarray) -> tuple[np.ndarray, bool]:
    """Phase-normalize a unit column: eps = e^{-i alpha1} u1.

    alpha1 is half the argument of the unconjugated self-product u1.u1,
    which is invariant under frame rotations and equals e^{2i alpha1}
    cos(2 chi).  The residual pi ambiguity is resolved by making the first
    significant component of the normalized column nonnegative.  The flag
    is True when |u1.u1| < DEGENERACY_GATE (circular, chi = +-pi/4); it
    labels the column only.  The column must be unit: recover_params and
    regularity_report pass columns that are unit by their own gates.
    Recovery reads alpha1 itself off V1[0, 0], so only eps is returned.
    """
    w = complex((u1 * u1).sum())
    alpha1 = 0.5 * _phase(w)
    eps = np.exp(-1j * alpha1) * u1
    for x in eps.real.tolist() + eps.imag.tolist():
        if abs(x) > 1e-9:
            if x < 0.0:
                eps = -eps
            break
    return eps, abs(w) < DEGENERACY_GATE


def _ellipticity(eps: np.ndarray) -> tuple[float, str, float, float]:
    """Ellipticity angle chi, zero-pattern branch and the norms |a|, |b| of
    a normalized column.

    Takes the phase-normalized column eps = a + i b, which is
    cos(chi) q1 + i sin(chi) q2 with q1, q2 real orthonormal, so
    |chi| = arctan2(|b|, |a|); _recover_first_column reuses the two norms
    for q1 and q2.  Like every kernel it trusts the operation's gate and
    re-checks nothing: recover_params passes the first column of a matrix
    that passed the unitarity gate, _regularity a LAPACK eigenvector, and
    the recomposition residual is recovery's exit gate.  Every convention
    of chi lives here:

    - Linear polarization, |b| <= FOLD_GATE: chi = 0, branch b1 when
      a3 = 0, else d1.
    - Otherwise the branch is a, b2 (a3 = b3 = 0), c (a3 = 0) or d2
      (b3 = 0), and the sign of chi is the sign of the invariant
      a1*b2 - a2*b1 = cos(chi) sin(chi) cos(theta) everywhere inside the
      chart.  At or below FOLD_GATE (gimbal orientations) a convention
      decides: in branch a the (a3, b3) signs, opposite meaning positive
      chi; in branches b2, c and d2 always +1.

    Why a constant in b2, c and d2: there |a3*b3| <= DEGENERACY_GATE, and
    the normalized column has |a.b| at rounding level
    (_normalize_global_phase leaves eps.eps real; measured <= 2.1e-16), so
    AM-GM on a1*a2*b1*b2 = (a1*b1)*(a2*b2) bounds |a1*b2| and |a2*b1| by
    (|a.b| + |a3*b3|)/2 + |a1*b2 - a2*b1| <= 0.51e-10 at a gimbal: no
    product of entries is left above DEGENERACY_GATE to carry a sign.
    """
    a, b = eps.real, eps.imag
    ca = _norm(a)
    sb = _norm(b)
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    a3_zero = abs(a3) <= DEGENERACY_GATE
    if sb <= FOLD_GATE:
        return 0.0, "b1" if a3_zero else "d1", ca, sb
    b3_zero = abs(b3) <= DEGENERACY_GATE
    if a3_zero and b3_zero:
        branch = "b2"
    elif a3_zero:
        branch = "c"
    elif b3_zero:
        branch = "d2"
    else:
        branch = "a"
    cross = a1 * b2 - a2 * b1
    if abs(cross) > FOLD_GATE:
        sign = 1.0 if cross > 0.0 else -1.0
    elif branch == "a":
        sign = 1.0 if a3 * b3 < 0.0 else -1.0
    else:
        sign = 1.0
    return sign * float(np.arctan2(sb, ca)), branch, ca, sb


def _recover_first_column(eps: np.ndarray) -> tuple[float, RotationAngles, str]:
    """Recover (chi, rotation, branch) from a phase-normalized unit column.

    chi and the branch come from _ellipticity; the rotation has columns
    q1 = a/|a|, q2 = sign(chi) b/|b| and q3 = q1 x q2.  A linear column
    (chi = 0) fixes q1 only; the frame takes the varphi = 0 representative
    q2 = e_z x q1 / |e_z x q1|, or e_y projected off q1 where that norm is
    below FOLD_GATE (the poles q1 = +-e_z).
    """
    chi, branch, ca, sb = _ellipticity(eps)
    a, b = eps.real, eps.imag
    q1 = a / ca
    if chi == 0.0:
        q2 = np.array([-q1[1], q1[0], 0.0])
        if _norm(q2) < FOLD_GATE:
            q2 = np.array([0.0, 1.0, 0.0]) - q1[1] * q1
    else:
        q2 = math.copysign(1.0, chi) * b / sb
        q2 = q2 - (q1 @ q2) * q1
    q2 = q2 / _norm(q2)
    x1, y1, z1 = q1.tolist()
    x2, y2, z2 = q2.tolist()
    # Rows of the rotation with columns q1, q2 and q3 = q1 x q2.
    rot, _ = _rotation_angles(
        (
            (x1, x2, y1 * z2 - z1 * y2),
            (y1, y2, z1 * x2 - x1 * z2),
            (z1, z2, x1 * y2 - y1 * x2),
        )
    )
    return chi, rot, branch


def _extract_core_params(v1: np.ndarray) -> tuple[float, float, float, float, float]:
    """Read (mu, alpha1, alpha2, alpha3, beta2) off the core matrix entries.

    alpha2 is the phase of v22 and alpha3 that of v23, each folded to 0
    when that entry's modulus is below FOLD_GATE (mu = pi/2 and mu = 0).
    beta2 is read from the larger of the two entries that carry it: v32
    when sin mu >= cos mu, else -v33 = cos mu e^{i delta}, as
    delta + alpha2 - alpha3, so the (3,3) entry is reproduced exactly.
    The structure of V1 (the zero at (3,1), |v23| = sin mu cos chi) is not
    re-checked here: compose_core puts an exact zero at (3,1), so the
    recomposition residual in recover_params bounds |v31| and every other
    departure from that structure.
    """
    (v11, _, _), (_, v22, v23), (_, v32, v33) = v1.tolist()
    alpha1 = _phase(v11)
    sm = abs(v32)
    cm = abs(v33)
    mu = float(np.arctan2(sm, cm))
    alpha2 = _phase(v22) if abs(v22) >= FOLD_GATE else 0.0
    alpha3 = _phase(v23) if abs(v23) >= FOLD_GATE else 0.0
    if sm >= cm:
        beta2 = _phase(v32)
    else:
        beta2 = wrap_angle(_phase(-v33) + alpha2 - alpha3)
    return mu, alpha1, alpha2, alpha3, beta2


def recover_params(u, tolerance: float = RECOVERY_TOL) -> RecoveryReport:
    """Recover the nine parameters of a unitary matrix.

    Pipeline: phase-normalize the first column, recover (chi, rotation),
    form V1 = Q.T @ U and read the core parameters off its entries.  The
    report carries the Frobenius residual of the recomposition and the
    sign-determination branch that fired.

    Raises NotUnitaryError where the input fails linalg's unitarity gate.
    """
    u = as_matrix3(u)
    _check_unitary(u)
    eps, circular = _normalize_global_phase(np.ascontiguousarray(u[:, 0]))
    chi, rot, branch = _recover_first_column(eps)
    if circular:
        branch = "circular-fallback"
    q = compose_rotation(rot)
    v1 = q.T @ u
    mu, alpha1, alpha2, alpha3, beta2 = _extract_core_params(v1)
    params = UnitaryParams(
        rotation=rot,
        chi=chi,
        mu=mu,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        beta2=beta2,
    )
    residual = _norm(q @ compose_core(chi, mu, alpha1, alpha2, alpha3, beta2) - u)
    if not residual <= tolerance:
        raise RecoveryToleranceError(
            f"recomposition residual {residual:.3e} exceeds {tolerance} "
            f"(branch {branch})"
        )
    return RecoveryReport(
        params=params,
        residual=residual,
        branch=branch,
        global_phase_alpha1_degenerate=circular,
    )


def flip_equivalent(p: UnitaryParams) -> UnitaryParams:
    """The other parameter tuple composing to the same unitary.

    Negating the first two rotation columns (Q -> Q diag(-1, -1, 1)) is
    undone by advancing alpha1, alpha2, alpha3 by pi, so each generic
    unitary has exactly two representatives; recovery always returns the
    one whose phase-normalized first column leads with a nonnegative
    component.
    """
    return UnitaryParams(
        rotation=RotationAngles(
            wrap_angle(p.rotation.phi + np.pi), -p.rotation.theta, p.rotation.varphi
        ),
        chi=p.chi,
        mu=p.mu,
        alpha1=wrap_angle(p.alpha1 + np.pi),
        alpha2=wrap_angle(p.alpha2 + np.pi),
        alpha3=wrap_angle(p.alpha3 + np.pi),
        beta2=p.beta2,
    )


_PHASE_FIELDS = ("phi", "varphi", "alpha1", "alpha2", "alpha3", "beta2")


def params_distance(p: UnitaryParams, q: UnitaryParams) -> float:
    """Max fieldwise gap between two tuples, modulo the flip equivalence.

    Phase-like fields are compared on the circle; theta, chi and mu
    directly.  Zero (up to float noise) iff the tuples compose to the same
    unitary through the same branch conventions; NaN if any field is NaN,
    so a NaN never passes a bound.
    """

    def gap(x: UnitaryParams, y: UnitaryParams) -> float:
        dx, dy = x.as_dict(), y.as_dict()
        return np.max(
            [abs(wrap_angle(dx[k] - dy[k]) if k in _PHASE_FIELDS else dx[k] - dy[k]) for k in dx]
        )

    return float(np.min([gap(p, q), gap(flip_equivalent(p), q)]))

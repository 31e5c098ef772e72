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
core parameters then come from the entries of V1 = Q.T @ U.  ellipticity
holds every convention of chi: its magnitude, its sign (fixed by the
requirement that the rotation stays inside the chart, Q[2,2] = cos theta
>= 0, which reduces to sign(a1*b2 - a2*b1) on the real and imaginary parts
of the phase-normalized first column) and the zero-pattern branch (a, b1,
b2, c, d1, d2) reported alongside.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEGENERACY_GATE, UNITARITY_TOL, as_matrix3, as_vector3, unitarity_distance
from .rotations import RotationAngles, compose_rotation, extract_rotation_angles, wrap_angle

RECOVERY_TOL = 1e-10

# Gate below which the imaginary part of the normalized first column is
# treated as zero (linear polarization, chi = 0); ellipticity is the one
# place that decides it.
_LINEAR_GATE = 1e-12
# Gate on the chart-orientation invariant a1*b2 - a2*b1 = cos(chi) sin(chi)
# cos(theta); below it the gimbal sign conventions apply.
_SIGN_GATE = 1e-12
_STRUCTURE_TOL = 1e-8


class NotUnitError(ValueError):
    """Vector expected to have unit Euclidean norm."""


class NotUnitaryError(ValueError):
    """Matrix expected to pass the unitarity gate."""


class InconsistentColumnError(ValueError):
    """The two ellipticity magnitudes disagree: input was not a
    phase-normalized unit column."""


class StructureViolationError(ValueError):
    """Core matrix lacks the structural zero at (3,1): rotation recovery
    failed upstream."""


class RecoveryToleranceError(RuntimeError):
    """Recomposed matrix misses the input beyond the recovery tolerance."""


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


def canonical_basis(chi: float) -> np.ndarray:
    """Unitary N(chi) with the orthonormal Jones vectors (n1, n2, n3) as columns."""
    c, s = np.cos(chi), np.sin(chi)
    return np.array([[c, 1j * s, 0.0], [1j * s, c, 0.0], [0.0, 0.0, 1.0]])


def compose_core(
    chi: float,
    mu: float,
    alpha1: float,
    alpha2: float,
    alpha3: float,
    beta2: float,
) -> np.ndarray:
    """Core matrix V1 = N(chi) diag(e^{i alpha1}, W); raises ValueError for mu
    outside [0, pi/2]."""
    if not -1e-12 <= mu <= np.pi / 2 + 1e-12:
        raise ValueError("mu must lie in [0, pi/2]")
    n1, n2, n3 = canonical_basis(chi).T
    cm, sm = np.cos(mu), np.sin(mu)
    delta = beta2 - alpha2 + alpha3
    return np.column_stack(
        [
            np.exp(1j * alpha1) * n1,
            cm * np.exp(1j * alpha2) * n2 + sm * np.exp(1j * beta2) * n3,
            sm * np.exp(1j * alpha3) * n2 - cm * np.exp(1j * delta) * n3,
        ]
    )


def compose_unitary(p: UnitaryParams) -> np.ndarray:
    """Unitary matrix with columns Q n1, Q v2, Q v3."""
    q = compose_rotation(p.rotation)
    return q @ compose_core(p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2)


def normalize_global_phase(u1) -> tuple[float, np.ndarray, bool]:
    """Split a unit column into global phase alpha1 and a normalized column.

    alpha1 is half the argument of the unconjugated self-product u1.u1,
    which is invariant under frame rotations and equals e^{2i alpha1}
    cos(2 chi).  The residual pi ambiguity is resolved by making the first
    significant component of the normalized column nonnegative.

    For circular states (|u1.u1| < DEGENERACY_GATE, chi = +-pi/4) the
    self-product vanishes and alpha1 is fixed by making the first
    significant component real and nonnegative instead; the returned flag
    is then True.
    """
    u1 = as_vector3(u1)
    norm = float(np.linalg.norm(u1))
    if abs(norm - 1.0) > RECOVERY_TOL:
        raise NotUnitError(f"column norm {norm} is not 1 within {RECOVERY_TOL}")
    w = complex(np.sum(u1 * u1))
    circular = abs(w) < DEGENERACY_GATE
    if circular:
        k = next(i for i in range(3) if abs(u1[i]) > 1e-9)
        alpha1 = float(np.angle(u1[k]))
    else:
        alpha1 = 0.5 * float(np.angle(w))
    eps = np.exp(-1j * alpha1) * u1
    if not circular:
        for x in np.concatenate([eps.real, eps.imag]):
            if abs(x) > 1e-9:
                if x < 0.0:
                    alpha1 = wrap_angle(alpha1 + np.pi)
                    eps = -eps
                break
    return alpha1, eps, circular


def ellipticity(eps) -> tuple[float, str]:
    """Ellipticity angle chi and zero-pattern branch of a normalized column.

    Takes the phase-normalized column eps = a + i b, which is
    cos(chi) q1 + i sin(chi) q2 with q1, q2 real orthonormal, so
    |chi| = arctan2(|b|, |a|).  Raises InconsistentColumnError when the
    cos^2 + sin^2 = 1 or orthogonality checks fail (input was not unit or
    not phase-normalized).  Every convention of chi lives here:

    - Linear polarization, |b| <= _LINEAR_GATE: chi = 0, branch b1 when
      a3 = 0, else d1.
    - Otherwise the branch is a, b2 (a3 = b3 = 0), c (a3 = 0) or d2
      (b3 = 0), and the sign of chi is the sign of the invariant
      a1*b2 - a2*b1 = cos(chi) sin(chi) cos(theta) everywhere inside the
      chart.  When it vanishes (gimbal orientations) a convention decides:
      in branch a the (a3, b3) signs, opposite meaning positive chi; in
      branches b2, c and d2 always +1.

    Why a constant in b2, c and d2: there |a3*b3| <= DEGENERACY_GATE, and
    the normalized column has |a.b| <= 5e-11 (normalize_global_phase
    leaves eps.eps real, or below the circular gate), so AM-GM on
    a1*a2*b1*b2 = (a1*b1)*(a2*b2) bounds |a1*b2| and |a2*b1| by
    (|a.b| + |a3*b3|)/2 + |a1*b2 - a2*b1| <= 0.77e-10 at a gimbal: no
    product of entries is left above DEGENERACY_GATE to carry a sign.
    """
    eps = as_vector3(eps)
    a, b = eps.real, eps.imag
    ca = float(np.linalg.norm(a))
    sb = float(np.linalg.norm(b))
    if abs(ca * ca + sb * sb - 1.0) > RECOVERY_TOL or abs(a @ b) > RECOVERY_TOL:
        raise InconsistentColumnError(
            "column is not a phase-normalized unit vector"
        )
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    a3_zero = abs(a3) <= DEGENERACY_GATE
    if sb <= _LINEAR_GATE:
        return 0.0, "b1" if a3_zero else "d1"
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
    if abs(cross) > _SIGN_GATE:
        sign = 1.0 if cross > 0.0 else -1.0
    elif branch == "a":
        sign = 1.0 if a3 * b3 < 0.0 else -1.0
    else:
        sign = 1.0
    return sign * float(np.arctan2(sb, ca)), branch


def recover_first_column(eps) -> tuple[float, RotationAngles, str]:
    """Recover (chi, rotation, branch) from a phase-normalized unit column.

    chi and the branch come from ellipticity; the rotation has columns
    q1 = a/|a|, q2 = sign(chi) b/|b| and q3 = q1 x q2.
    """
    eps = as_vector3(eps)
    chi, branch = ellipticity(eps)
    a, b = eps.real, eps.imag
    q1 = a / np.linalg.norm(a)
    if chi == 0.0:
        # Linear polarization, the only case ellipticity returns exactly 0
        # for: only the first rotation column is fixed; take the varphi = 0
        # representative.
        st = float(np.clip(-q1[2], -1.0, 1.0))
        ct = float(np.sqrt(max(0.0, 1.0 - st * st)))
        phi = float(np.arctan2(-q1[1], q1[0])) if ct > DEGENERACY_GATE else 0.0
        rot = RotationAngles(phi, float(np.arcsin(st)), 0.0).canonical()
        return chi, rot, branch
    q2 = np.copysign(1.0, chi) * b / np.linalg.norm(b)
    q2 = q2 - (q1 @ q2) * q1
    q2 = q2 / np.linalg.norm(q2)
    q3 = np.cross(q1, q2)
    rot, _ = extract_rotation_angles(np.column_stack([q1, q2, q3]))
    return chi, rot, branch


def extract_core_params(v1, chi: float) -> tuple[float, float, float, float, float]:
    """Read (mu, alpha1, alpha2, alpha3, beta2) off the core matrix entries.

    Degenerate parameters take canonical zeros: alpha3 = 0 when mu = 0
    (with beta2 carrying the surviving combination so the (3,3) entry is
    reproduced exactly) and alpha2 = 0 when mu = pi/2.
    """
    v1 = as_matrix3(v1)
    if abs(v1[2, 0]) > _STRUCTURE_TOL:
        raise StructureViolationError(
            f"expected structural zero at (3,1), got |v31| = {abs(v1[2, 0]):.3e}"
        )
    cx = np.cos(chi)
    alpha1 = float(np.angle(v1[0, 0]))
    sm = abs(v1[2, 1])
    cm = abs(v1[2, 2])
    if abs(np.hypot(sm, cm) - 1.0) > _STRUCTURE_TOL:
        raise StructureViolationError("third-row moduli do not form a unit pair")
    if abs(abs(v1[1, 2]) - sm * cx) > _STRUCTURE_TOL:
        raise StructureViolationError("|v23| disagrees with sin(mu) cos(chi)")
    mu = float(np.arctan2(sm, cm))
    alpha2 = float(np.angle(v1[1, 1])) if cm > DEGENERACY_GATE else 0.0
    if sm > DEGENERACY_GATE:
        alpha3 = float(np.angle(v1[1, 2]))
        beta2 = float(np.angle(v1[2, 1]))
    else:
        alpha3 = 0.0
        beta2 = wrap_angle(float(np.angle(-v1[2, 2])) + alpha2)
    return mu, alpha1, alpha2, alpha3, beta2


def recover_params(u, tolerance: float = RECOVERY_TOL) -> RecoveryReport:
    """Recover the nine parameters of a unitary matrix.

    Pipeline: phase-normalize the first column, recover (chi, rotation),
    form V1 = Q.T @ U and read the core parameters off its entries.  The
    report carries the Frobenius residual of the recomposition and the
    sign-determination branch that fired.
    """
    u = as_matrix3(u)
    dist = unitarity_distance(u)
    if dist > UNITARITY_TOL:
        raise NotUnitaryError(f"unitarity distance {dist:.3e} exceeds {UNITARITY_TOL}")
    _, eps, circular = normalize_global_phase(u[:, 0])
    chi, rot, branch = recover_first_column(eps)
    if circular:
        branch = "circular-fallback"
    q = compose_rotation(rot)
    v1 = q.T @ u
    mu, alpha1, alpha2, alpha3, beta2 = extract_core_params(v1, chi)
    params = UnitaryParams(
        rotation=rot,
        chi=chi,
        mu=mu,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        beta2=beta2,
    )
    residual = float(np.linalg.norm(compose_unitary(params) - u))
    if residual > tolerance:
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


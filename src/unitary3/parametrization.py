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
core parameters then come from five entries of V1 = Q.T @ U.  _ellipticity
holds every rule of chi: its magnitude and its sign.  The sign has one rule
and no convention, at the gimbal too: the rotation stays inside the chart,
Q[2,2] = cos theta >= 0, which is sign(a1*b2 - a2*b1) >= 0 on the real and
imaginary parts of the phase-normalized first column.  _branch holds every
rule of the reported label, the paper's zero-pattern branches (a, b1, b2,
c, d1, d2) in one table and circular-fallback, and the label decides
nothing.  Each stage has one rule and every fold one gate,
linalg.FOLD_GATE: below it chi is 0 (linear column, whose frame takes
varphi = 0), the rotation gimbal takes its convention, and alpha2
(mu = pi/2) or alpha3 (mu = 0) is 0.  Every
recovered angle lies in the chart's ranges: _RANGES, the one home of the
bounded ones (theta, varphi, chi, mu), and the phases in (-pi, pi]
(rotations.wrap_angle); _ellipticity caps |chi| at chi's end.
"""
import math
from collections import namedtuple

# NotUnitaryError stays importable from here, the module whose recovery raises it.
from .linalg import (FOLD_GATE, NotUnitaryError, Unitary3Error, _array, _check_finite, _check_unitary,
                     _fsum_norm, as_matrix3)
from .rotations import RotationAngles, _rotation_angles, _rotation_rows, wrap_angle

RECOVERY_TOL = 1e-10
# The nine parameter names in their one order: the rotation triple, then
# the core.  UnitaryParams.as_dict and every ParamsDocument use it.
PARAM_FIELDS = ("phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")
# The chart's range [low, high] of each bounded field, the one place each
# is written; every other field is a phase on the whole circle
# (rotations.wrap_angle).  varphi's high end is open (rotations._canonical
# folds it).  random_params draws from it; recovery reads the two
# constants bound from it below.
_RANGES = {"theta": (-math.pi / 2, math.pi / 2), "varphi": (0.0, math.pi),
           "chi": (-math.pi / 4, math.pi / 4), "mu": (0.0, math.pi / 2)}
# _ellipticity's cap on |chi| and _core_parts' gate on mu.
_CHI_CAP = _RANGES["chi"][1]
_MU_LOW, _MU_HIGH = _RANGES["mu"][0] - FOLD_GATE, _RANGES["mu"][1] + FOLD_GATE
# The one atan2 result outside (-pi, pi]; _extract_core_params folds it to pi.
_MINUS_PI = -math.pi


class ParameterRangeError(Unitary3Error, ValueError):
    """A parameter lies outside its chart range (mu outside [0, pi/2]), or
    the phases are too large to compose (|alpha2|, |alpha3| or |beta2|
    above 2**8)."""


class RecoveryToleranceError(Unitary3Error, RuntimeError):
    """Recomposed matrix misses the input beyond the recovery tolerance."""

    exit_code = 3
    kind = "tolerance failure"


class UnitaryParams(namedtuple("UnitaryParams", "rotation chi mu alpha1 alpha2 alpha3 beta2")):
    """The full nine-parameter record: rotation triple (a RotationAngles),
    two angles, four phases."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return dict(zip(PARAM_FIELDS, _values(self)))


def _values(p: UnitaryParams) -> tuple:
    """The nine fields of ``p`` in PARAM_FIELDS order."""
    return (*p.rotation, *p[1:])


class RecoveryReport(namedtuple("RecoveryReport", "params residual branch global_phase_alpha1_degenerate")):
    """What recover_params returns: the recovered UnitaryParams, the
    Frobenius residual of their recomposition, the branch label (a str)
    and global_phase_alpha1_degenerate, true exactly for the
    circular-fallback branch."""

    __slots__ = ()


def canonical_basis(chi: float):
    """Unitary N(chi) as a 3x3 complex array, with the orthonormal Jones
    vectors (n1, n2, n3) as columns; raises NonFiniteError for a NaN or
    infinite chi."""
    _check_finite((chi,))
    return _array(_basis_rows(chi))


def _basis_rows(chi: float) -> list:
    """Rows of N(chi) as Python complex; N(chi) is symmetric, so they are
    also its columns n1, n2, n3."""
    c, i_s = complex(math.cos(chi)), complex(0.0, math.sin(chi))
    return [[c, i_s, 0j], [i_s, c, 0j], [0j, 0j, 1 + 0j]]


def compose_core(
    chi: float,
    mu: float,
    alpha1: float,
    alpha2: float,
    alpha3: float,
    beta2: float,
):
    """Core matrix V1 = N(chi) diag(e^{i alpha1}, W) as a 3x3 complex
    array; raises NonFiniteError for a NaN or infinite parameter and
    ParameterRangeError for mu outside [0, pi/2] or |alpha2|, |alpha3| or
    |beta2| above 2**8."""
    _check_finite((chi, mu, alpha1, alpha2, alpha3, beta2))
    return _array(_core_rows(chi, mu, alpha1, alpha2, alpha3, beta2))


def _core_rows(chi, mu, alpha1, alpha2, alpha3, beta2) -> list:
    """Rows of V1 as Python complex, for compose_core, the CLI's compose
    --core-only and the selftest: the pairs of _core_parts, so V1's
    arithmetic and range checks are written once."""
    r00, i00, r01, i01, r02, i02, r10, i10, r11, i11, r12, i12, r20, i20, r21, i21, r22, i22 = _core_parts(
        chi, mu, alpha1, alpha2, alpha3, beta2)
    return [
        [complex(r00, i00), complex(r01, i01), complex(r02, i02)],
        [complex(r10, i10), complex(r11, i11), complex(r12, i12)],
        [complex(r20, i20), complex(r21, i21), complex(r22, i22)],
    ]


def _core_parts(chi, mu, alpha1, alpha2, alpha3, beta2) -> tuple:
    """The 18 real and imaginary parts of V1, row by row, each entry's real
    part before its imaginary part, in linalg's arithmetic.

    Its columns are e^{i a1} n1, W11 n2 + W21 n3 and W12 n2 + W22 n3; each
    entry is one factor of W (or e^{i a1}) times cos chi, i sin chi, 1 or
    exactly 0, so it is written as two float products.  The parameters
    must be finite.  delta = beta2 - alpha2 + alpha3 is rounded, and its
    rounding error, which grows with the phases, puts V1 off unitary by as
    much; so a phase of modulus above 2**8 is rejected.  Up to that bound V1
    stays within 1e-13 of unitary (the selftest's composition bound); the
    chart's phase range (-pi, pi] lies well inside it.
    """
    if not _MU_LOW <= mu <= _MU_HIGH:
        raise ParameterRangeError("mu must lie in [0, pi/2]")
    if max(abs(alpha2), abs(alpha3), abs(beta2)) > 2.0**8:
        raise ParameterRangeError("alpha2, alpha3 and beta2 must lie in [-2**8, 2**8]")
    delta = beta2 - alpha2 + alpha3
    c, s = math.cos(chi), math.sin(chi)
    cm, sm = math.cos(mu), math.sin(mu)
    x1, y1 = math.cos(alpha1), math.sin(alpha1)
    x2, y2 = cm * math.cos(alpha2), cm * math.sin(alpha2)
    x3, y3 = sm * math.cos(alpha3), sm * math.sin(alpha3)
    return (x1 * c, y1 * c, -y2 * s, x2 * s, -y3 * s, x3 * s,
            -y1 * s, x1 * s, x2 * c, y2 * c, x3 * c, y3 * c,
            0.0, 0.0, sm * math.cos(beta2), sm * math.sin(beta2), -cm * math.cos(delta), -cm * math.sin(delta))


def _rotate(q, v) -> list:
    """Rows of Q V as Python complex, for a real Q given as rows of floats
    and a complex V as its 18 parts in _core_parts' order: the real and the
    imaginary part of each entry summed left to right in floats."""
    a0, d0, a1, d1, a2, d2, b0, e0, b1, e1, b2, e2, c0, f0, c1, f1, c2, f2 = v
    return [
        [complex(x * a0 + y * b0 + z * c0, x * d0 + y * e0 + z * f0),
         complex(x * a1 + y * b1 + z * c1, x * d1 + y * e1 + z * f1),
         complex(x * a2 + y * b2 + z * c2, x * d2 + y * e2 + z * f2)]
        for x, y, z in q
    ]


def _unitary_rows(p: UnitaryParams) -> list:
    """Rows of U = Q V1 as Python complex: the one composition order, for
    compose_unitary and the CLI's compose."""
    return _rotate(_rotation_rows(p.rotation), _core_parts(*p[1:]))


def compose_unitary(p: UnitaryParams):
    """Unitary U = Q V1 as a 3x3 complex array, with columns Q n1, Q v2,
    Q v3; raises NonFiniteError for a NaN or infinite field, else as
    compose_core."""
    _check_finite(_values(p))
    return _array(_unitary_rows(p))


def _normalize_global_phase(u1) -> tuple[tuple, complex]:
    """Phase-normalize a unit column, three Python complex: eps = e^{-i alpha1} u1.

    alpha1 is half the argument of the unconjugated self-product u1.u1,
    which is invariant under frame rotations and equals e^{2i alpha1}
    cos(2 chi).  That product fixes alpha1 only modulo pi; the range of
    math.atan2 picks the representative, alpha1 in [-pi/2, pi/2] (-pi/2
    only when u1.u1 is a negative real with a -0.0 imaginary part), and
    flip_equivalent gives the other.  Returns eps and u1.u1, which _branch
    reads for the circular label; no gate applies here.  The column must
    be unit: recover_params and regularity_report pass columns that are
    unit by their own gates.  Recovery reads alpha1 itself off V1[0, 0],
    so alpha1 is not returned.
    """
    x, y, z = u1
    w = x * x + y * y + z * z
    alpha1 = 0.5 * math.atan2(w.imag, w.real)
    e = complex(math.cos(alpha1), -math.sin(alpha1))
    return (e * x, e * y, e * z), w


def _ellipticity(eps) -> tuple[float, float, float]:
    """Ellipticity angle chi and the norms |a|, |b| of a normalized column.

    Takes the phase-normalized column eps = a + i b (three Python complex),
    which is cos(chi) q1 + i sin(chi) q2 with q1, q2 real orthonormal, so
    |chi| = arctan2(|b|, |a|), capped at pi/4, the high end of chi's
    range in _RANGES (on a circular column rounding can leave |b| above
    |a|, and arctan2 an ulp above pi/4);
    _recover_first_column reuses the two norms for q1 and q2.  Like every
    kernel it trusts the operation's gate and re-checks nothing:
    recover_params passes the first column of a matrix that passed the
    unitarity gate, _regularity a Jacobi eigenvector, and the recomposition
    residual is recovery's exit gate.  Every rule of chi lives here:

    - Linear polarization, |b| <= FOLD_GATE: chi = 0.
    - Otherwise chi takes the sign of the invariant
      a1*b2 - a2*b1 = cos(chi) sin(chi) cos(theta), + when it is 0.  That
      is the chart's own condition Q[2,2] = cos(theta) >= 0: the third
      rotation column q1 x q2 has z component
      sign(chi) (a1*b2 - a2*b1)/(|a| |b|), so no gate or table is needed
      at the gimbal.
    """
    e1, e2, e3 = eps
    a1, a2, b1, b2 = e1.real, e2.real, e1.imag, e2.imag
    ca = _fsum_norm((a1, a2, e3.real))
    sb = _fsum_norm((b1, b2, e3.imag))
    if sb <= FOLD_GATE:
        return 0.0, ca, sb
    chi = math.atan2(sb, ca)
    if chi > _CHI_CAP:
        chi = _CHI_CAP
    return (chi if a1 * b2 - a2 * b1 >= 0.0 else -chi), ca, sb


# The gate and the table of _branch, which states their rules.
DEGENERACY_GATE = 1e-10
_BRANCHES = {(True, True, True): "b1", (True, False, True): "d1", (False, True, True): "b2",
             (False, True, False): "c", (False, False, True): "d2", (False, False, False): "a"}


def _branch(eps, w, chi: float) -> str:
    """The sign-determination branch recovery reports for its first column.

    Takes the phase-normalized column eps = a + i b, its self-product
    w = u1.u1 and its chi, as the stages above return them.  Every label
    rule lives here, and no label decides anything; DEGENERACY_GATE only
    labels and folds nothing:

    - circular-fallback when |w| = cos(2 chi) < DEGENERACY_GATE
      (chi = +-pi/4, where any alpha1 is valid); the report's
      global_phase_alpha1_degenerate is this label.
    - Otherwise the paper's zero-pattern branch, _BRANCHES keyed by
      (linear, a3 = 0, b3 = 0): linear is chi = 0 (|b| <= FOLD_GATE on a
      unit column), and a3 = 0 and b3 = 0 each mean a modulus at most
      DEGENERACY_GATE.  A linear column has |b3| <= |b| <= FOLD_GATE, so
      its b3 is 0 and six keys cover every column: b1 (linear, a3 = 0), d1
      (linear), b2 (a3 = b3 = 0), c (a3 = 0), d2 (b3 = 0) and a.
    """
    if math.hypot(w.real, w.imag) < DEGENERACY_GATE:
        return "circular-fallback"
    e3 = eps[2]
    return _BRANCHES[chi == 0.0, abs(e3.real) <= DEGENERACY_GATE, abs(e3.imag) <= DEGENERACY_GATE]


def _recover_first_column(eps) -> tuple[float, RotationAngles]:
    """Recover (chi, rotation) from a phase-normalized unit column.

    chi comes from _ellipticity; the rotation has columns
    q1 = a/|a|, q2 = sign(chi) b/|b| and q3 = q1 x q2.  A linear column
    (chi = 0) fixes q1 only; the frame takes the varphi = 0 representative
    q2 = e_z x q1 / |e_z x q1|, or where that norm is below FOLD_GATE (the
    poles q1 = +-e_z) e_y projected off q1, negated where x1 < 0.  Every
    column so gets a rotation inside the chart, cos(theta) = q3_z >= 0:
    off the poles q3_z = |e_z x q1|, at them |x1|, and with chi nonzero
    _ellipticity's sign rule holds it.
    """
    chi, ca, sb = _ellipticity(eps)
    e1, e2, e3 = eps
    x1, y1, z1 = e1.real / ca, e2.real / ca, e3.real / ca
    if chi == 0.0:
        x2, y2, z2 = -y1, x1, 0.0
        if _fsum_norm((x2, y2, z2)) < FOLD_GATE:
            x2, y2, z2 = 0.0 - y1 * x1, 1.0 - y1 * y1, 0.0 - y1 * z1
            if x1 < 0.0:  # then q3 = q1 x q2 has z component |x1| >= 0
                x2, y2, z2 = -x2, -y2, -z2
    else:
        s = math.copysign(1.0, chi)
        x2, y2, z2 = s * e1.imag / sb, s * e2.imag / sb, s * e3.imag / sb
        d = x1 * x2 + y1 * y2 + z1 * z2
        x2, y2, z2 = x2 - d * x1, y2 - d * y1, z2 - d * z1
    n = _fsum_norm((x2, y2, z2))
    x2, y2, z2 = x2 / n, y2 / n, z2 / n
    # Rows of the rotation with columns q1, q2 and q3 = q1 x q2.
    rot, _ = _rotation_angles(
        (
            (x1, x2, y1 * z2 - z1 * y2),
            (y1, y2, z1 * x2 - x1 * z2),
            (z1, z2, x1 * y2 - y1 * x2),
        )
    )
    return chi, rot


def _extract_core_params(q, u) -> tuple[float, float, float, float, float]:
    """Read (mu, alpha1, alpha2, alpha3, beta2) off the core matrix
    V1 = Q.T U, for Q and U given as rows of Python scalars.

    Only the five entries read here are formed (v11, v22, v23, v32, v33),
    each as a float pair summed left to right as _rotate sums Q.T U, and
    the phase of each is math.atan2(im, re).  alpha2 is the phase of v22
    and alpha3 that of v23, each folded to 0 when that entry's modulus is
    below FOLD_GATE (mu = pi/2 and mu = 0).  beta2 is read from the larger
    of the two entries that carry it: v32 when sin mu >= cos mu, else
    -v33 = cos mu e^{i delta}, as delta + alpha2 - alpha3, so the (3,3)
    entry is reproduced exactly.  Every phase but alpha1 lies in (-pi, pi]:
    alpha2, alpha3 and beta2 read off v32 are atan2 results in [-pi, pi],
    whose -pi is folded to pi here, the float wrap_angle gives; beta2 read
    off -v33 is a sum, and wrap_angle wraps it.  The structure of V1 (the
    zero at (3,1), |v23| = sin mu cos chi) is not re-checked here:
    compose_core puts an exact zero at (3,1), so the recomposition
    residual in recover_params bounds |v31| and every other departure from
    that structure.
    """
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = q
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = u
    # Entry (i, j) of Q.T U is column i of Q, (xi, yi, zi), dotted with column j of U.
    r11 = x0 * u00.real + y0 * u10.real + z0 * u20.real
    i11 = x0 * u00.imag + y0 * u10.imag + z0 * u20.imag
    r22 = x1 * u01.real + y1 * u11.real + z1 * u21.real
    i22 = x1 * u01.imag + y1 * u11.imag + z1 * u21.imag
    r23 = x1 * u02.real + y1 * u12.real + z1 * u22.real
    i23 = x1 * u02.imag + y1 * u12.imag + z1 * u22.imag
    r32 = x2 * u01.real + y2 * u11.real + z2 * u21.real
    i32 = x2 * u01.imag + y2 * u11.imag + z2 * u21.imag
    r33 = x2 * u02.real + y2 * u12.real + z2 * u22.real
    i33 = x2 * u02.imag + y2 * u12.imag + z2 * u22.imag
    alpha1 = math.atan2(i11, r11)
    sm = math.hypot(r32, i32)
    cm = math.hypot(r33, i33)
    mu = math.atan2(sm, cm)
    alpha2 = math.atan2(i22, r22) if math.hypot(r22, i22) >= FOLD_GATE else 0.0
    if alpha2 == _MINUS_PI:
        alpha2 = math.pi
    alpha3 = math.atan2(i23, r23) if math.hypot(r23, i23) >= FOLD_GATE else 0.0
    if alpha3 == _MINUS_PI:
        alpha3 = math.pi
    if sm >= cm:
        beta2 = math.atan2(i32, r32)
        if beta2 == _MINUS_PI:
            beta2 = math.pi
    else:
        beta2 = wrap_angle(math.atan2(-i33, -r33) + alpha2 - alpha3)
    return mu, alpha1, alpha2, alpha3, beta2


def _residual(q, v, u) -> float:
    """Frobenius norm of Q V - U, for Q and U given as rows of Python
    scalars and V as its 18 parts in _core_parts' order: the _fsum_norm of
    the 18 real and imaginary parts of Q V - U, each entry of Q V summed
    left to right as _rotate sums it, so no complex entry is built."""
    a0, d0, a1, d1, a2, d2, b0, e0, b1, e1, b2, e2, c0, f0, c1, f1, c2, f2 = v
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = q
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = u
    return _fsum_norm((
        x0 * a0 + x1 * b0 + x2 * c0 - u00.real, x0 * d0 + x1 * e0 + x2 * f0 - u00.imag,
        x0 * a1 + x1 * b1 + x2 * c1 - u01.real, x0 * d1 + x1 * e1 + x2 * f1 - u01.imag,
        x0 * a2 + x1 * b2 + x2 * c2 - u02.real, x0 * d2 + x1 * e2 + x2 * f2 - u02.imag,
        y0 * a0 + y1 * b0 + y2 * c0 - u10.real, y0 * d0 + y1 * e0 + y2 * f0 - u10.imag,
        y0 * a1 + y1 * b1 + y2 * c1 - u11.real, y0 * d1 + y1 * e1 + y2 * f1 - u11.imag,
        y0 * a2 + y1 * b2 + y2 * c2 - u12.real, y0 * d2 + y1 * e2 + y2 * f2 - u12.imag,
        z0 * a0 + z1 * b0 + z2 * c0 - u20.real, z0 * d0 + z1 * e0 + z2 * f0 - u20.imag,
        z0 * a1 + z1 * b1 + z2 * c1 - u21.real, z0 * d1 + z1 * e1 + z2 * f1 - u21.imag,
        z0 * a2 + z1 * b2 + z2 * c2 - u22.real, z0 * d2 + z1 * e2 + z2 * f2 - u22.imag,
    ))


def recover_params(u, tolerance: float = RECOVERY_TOL) -> RecoveryReport:
    """Recover the nine parameters of a unitary matrix.

    Pipeline: phase-normalize the first column, recover (chi, rotation),
    read the core parameters off the entries of V1 = Q.T @ U and recompose.
    The report carries the Frobenius residual of the recomposition and the
    sign-determination branch that fired.

    Raises NotUnitaryError where the input fails linalg's unitarity gate.
    """
    return _recover_rows(as_matrix3(u), tolerance)


def _recover_rows(rows, tolerance: float) -> RecoveryReport:
    """recover_params on a finite matrix given as rows of Python complex.

    Neither V1 nor the recomposition Q V1' is built as complex entries:
    _extract_core_params forms the five entries of V1 it reads, and
    _residual the parts of Q V1' - U from V1' as the 18 floats of
    _core_parts, both in floats, each sum as _rotate, the product of
    composition, takes it."""
    _check_unitary(rows)
    (u0, _, _), (u1, _, _), (u2, _, _) = rows
    eps, w = _normalize_global_phase((u0, u1, u2))
    chi, rot = _recover_first_column(eps)
    branch = _branch(eps, w, chi)
    q = _rotation_rows(rot)
    mu, alpha1, alpha2, alpha3, beta2 = _extract_core_params(q, rows)
    residual = _residual(q, _core_parts(chi, mu, alpha1, alpha2, alpha3, beta2), rows)
    if not residual <= tolerance:
        raise RecoveryToleranceError(
            f"recomposition residual {residual:.3e} exceeds {tolerance} "
            f"(branch {branch})"
        )
    params = UnitaryParams(rot, chi, mu, alpha1, alpha2, alpha3, beta2)
    return RecoveryReport(params, residual, branch, branch == "circular-fallback")


def flip_equivalent(p: UnitaryParams) -> UnitaryParams:
    """The other parameter tuple composing to the same unitary.

    Negating the first two rotation columns (Q -> Q diag(-1, -1, 1)) is
    undone by advancing alpha1, alpha2, alpha3 by pi, so each generic
    unitary has exactly two representatives; recovery returns the one
    with alpha1 in [-pi/2, pi/2] (see _normalize_global_phase).  Each
    advanced phase is correctly rounded (_half_turn), so flipping twice
    gives the wrapped tuple back wherever a -+ pi is exact, as it is for
    |a| >= pi/2.  Raises NonFiniteError for a NaN or infinite field.
    """
    _check_finite(_values(p))
    return UnitaryParams(
        rotation=RotationAngles(_half_turn(p.rotation.phi), -p.rotation.theta, p.rotation.varphi),
        chi=p.chi,
        mu=p.mu,
        alpha1=_half_turn(p.alpha1),
        alpha2=_half_turn(p.alpha2),
        alpha3=_half_turn(p.alpha3),
        beta2=p.beta2,
    )


def _half_turn(a: float) -> float:
    """The phase a advanced by pi, in (-pi, pi]: with a wrapped first,
    a - pi for a > 0, else a + pi.  wrap_angle is exact, so this is one
    rounding, and its result needs no second wrap; wrap_angle(a + pi)
    would round a + pi on the coarser grid of [pi, 2 pi) first."""
    a = wrap_angle(a)
    return a - math.pi if a > 0.0 else a + math.pi


# Per field of PARAM_FIELDS: True for the six phases, compared on the
# circle, False for theta, chi and mu.  varphi is on the circle though
# _RANGES bounds it: a 2 pi shift leaves its rotation unchanged, so this
# set is not "the fields without a range".
_ON_CIRCLE = (True, False, True, False, False, True, True, True, True)


def params_distance(p: UnitaryParams, q: UnitaryParams) -> float:
    """Max fieldwise gap between two tuples, modulo the flip equivalence.

    Phase-like fields are compared on the circle, each wrapped before the
    difference so that no finite pair overflows; theta, chi and mu
    directly.  Zero (up to float noise) iff the tuples compose to the same
    unitary through the same branch conventions; NaN if any field of either
    is NaN or infinite, so such a tuple never passes a bound.
    """
    if not all(map(math.isfinite, _values(p) + _values(q))):
        return math.nan

    def gaps(x: UnitaryParams) -> list:
        return [abs(wrap_angle(wrap_angle(a) - wrap_angle(b)) if circle else a - b)
                for a, b, circle in zip(_values(x), _values(q), _ON_CIRCLE)]

    return min(max(gaps(p)), max(gaps(flip_equivalent(p))))

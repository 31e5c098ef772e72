"""Nine-parameter chart on U(3) built from orthonormal Jones-vector triples.

Composition: canonical_basis(chi) is the unitary N(chi) whose columns are
the paper's orthonormal Jones vectors in the intrinsic frame of the first:
n1 = (cos chi, i sin chi, 0) the intrinsic state, n2 = (i sin chi,
cos chi, 0) the coplanar state of opposite ellipticity and n3 = (0, 0, 1)
linear along the normal of the polarization plane.  compose_core builds
the core matrix V1 from them, and compose_unitary U = Q V1.
README, Conventions: Composition order.

Recovery (recover_params): the first column u1 determines alpha1, chi and
the rotation; the core parameters then come from five entries of
V1 = Q.T @ U, and the recomposition residual is the exit gate.  Each stage
is a private kernel with one rule, and every fold has one gate.
README, Conventions: Angle ranges.
README, Conventions: Two representatives.
README, Conventions: Degenerate folds.
README, Conventions: Chi, its sign and the branch.
"""
import math
from collections import namedtuple

# NotUnitaryError stays importable from here, the module whose recovery raises it.
from .linalg import (FOLD_GATE, NotUnitaryError, Unitary3Error, _array, _check_finite, _check_unitary,
                     _fsum_norm, _new, as_matrix3)
from .rotations import RotationAngles, _rotation_angles, _rotation_rows, wrap_angle

RECOVERY_TOL = 1e-10
# The nine parameter names in their one order: the rotation triple, then
# the core.  UnitaryParams.as_dict and every ParamsDocument use it.
PARAM_FIELDS = ("phi", "theta", "varphi", "chi", "mu", "alpha1", "alpha2", "alpha3", "beta2")
# The chart's range [low, high] of each bounded field; varphi's high end
# is open (rotations._canonical folds it).  README, Conventions: Angle ranges.
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


def _check_params(p, caller: str) -> tuple:
    """The nine fields of ``p`` in PARAM_FIELDS order; raises TypeError
    naming ``caller`` unless ``p`` is a UnitaryParams whose rotation is a
    RotationAngles.  README, Conventions: Validation."""
    if not isinstance(p, UnitaryParams):
        raise TypeError(f"{caller} takes a UnitaryParams, not {type(p).__name__}")
    if not isinstance(p.rotation, RotationAngles):
        raise TypeError(f"{caller} takes a RotationAngles rotation, not {type(p.rotation).__name__}")
    return _values(p)


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
    part before its imaginary part, from finite parameters.

    Its columns are e^{i a1} n1, W11 n2 + W21 n3 and W12 n2 + W22 n3; each
    entry is one factor of W (or e^{i a1}) times cos chi, i sin chi, 1 or
    exactly 0, so it is written as two float products.  Raises
    ParameterRangeError for mu outside [0, pi/2] or a phase of modulus
    above 2**8, whose rounding in delta would put V1 off unitary:
    README, Conventions: Validation.
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
    Q v3; raises TypeError unless ``p`` is a UnitaryParams whose rotation
    is a RotationAngles, NonFiniteError for a NaN or infinite field, else
    as compose_core."""
    _check_finite(_check_params(p, "compose_unitary"))
    return _array(_unitary_rows(p))


def _normalize_global_phase(u1) -> tuple[tuple, complex]:
    """Phase-normalize a unit column, three Python complex: eps = e^{-i alpha1} u1.

    alpha1 is half the argument of the unconjugated self-product u1.u1,
    in [-pi/2, pi/2]: README, Conventions: Two representatives.
    Returns eps and u1.u1, which _branch reads for the circular label; no
    gate applies here.  The column must be unit: recover_params and
    regularity_report pass columns that are unit by their own gates.
    Recovery reads alpha1 itself off V1[0, 0], so alpha1 is not returned.
    """
    x, y, z = u1
    w = x * x + y * y + z * z
    alpha1 = 0.5 * math.atan2(w.imag, w.real)
    e = complex(math.cos(alpha1), -math.sin(alpha1))
    return (e * x, e * y, e * z), w


def _ellipticity(eps) -> tuple[float, float, float]:
    """Ellipticity angle chi and the norms |a|, |b| of the phase-normalized
    column eps = a + i b, three Python complex; _recover_first_column
    reuses the two norms for q1 and q2.  It trusts the operation's gate:
    recover_params passes the first column of a matrix that passed the
    unitarity gate, _regularity a Jacobi eigenvector.
    README, Conventions: Chi, its sign and the branch.
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


# The gate and the table of _branch: README, Conventions: Chi, its sign and the branch.
DEGENERACY_GATE = 1e-10
_BRANCHES = {(True, True, True): "b1", (True, False, True): "d1", (False, True, True): "b2",
             (False, True, False): "c", (False, False, True): "d2", (False, False, False): "a"}


def _branch(eps, w, chi: float) -> str:
    """The sign-determination branch recovery reports for its first column,
    from the phase-normalized column eps = a + i b, its self-product
    w = u1.u1 and its chi, as the stages above return them.
    README, Conventions: Chi, its sign and the branch.
    """
    if math.hypot(w.real, w.imag) < DEGENERACY_GATE:
        return "circular-fallback"
    e3 = eps[2]
    return _BRANCHES[chi == 0.0, abs(e3.real) <= DEGENERACY_GATE, abs(e3.imag) <= DEGENERACY_GATE]


def _recover_first_column(eps) -> tuple[float, RotationAngles]:
    """Recover (chi, rotation) from a phase-normalized unit column.

    chi comes from _ellipticity; the rotation has columns
    q1 = a/|a|, q2 = sign(chi) b/|b| and q3 = q1 x q2, and on a linear
    column the frame of README, Conventions: Degenerate folds.
    Every column so gets a rotation inside the chart, cos(theta) = q3_z >= 0:
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
    V1 = Q.T U, for Q given as rows of floats and U as its 18 parts in
    _core_parts' order (row by row, real part before imaginary).

    Only the five entries read here are formed (v11, v22, v23, v32, v33),
    each as a float pair summed left to right as _rotate sums Q.T U.  The
    structure of V1 (the zero at (3,1), |v23| = sin mu cos chi) is not
    re-checked: the recomposition residual bounds it.
    README, Conventions: Degenerate folds.
    README, Conventions: Angle ranges.
    """
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = q
    a0, d0, a1, d1, a2, d2, b0, e0, b1, e1, b2, e2, c0, f0, c1, f1, c2, f2 = u
    # Entry (i, j) of Q.T U is column i of Q, (xi, yi, zi), dotted with
    # column j of U, whose real parts are (aj, bj, cj) and imaginary (dj, ej, fj).
    r11 = x0 * a0 + y0 * b0 + z0 * c0
    i11 = x0 * d0 + y0 * e0 + z0 * f0
    r22 = x1 * a1 + y1 * b1 + z1 * c1
    i22 = x1 * d1 + y1 * e1 + z1 * f1
    r23 = x1 * a2 + y1 * b2 + z1 * c2
    i23 = x1 * d2 + y1 * e2 + z1 * f2
    r32 = x2 * a1 + y2 * b1 + z2 * c1
    i32 = x2 * d1 + y2 * e1 + z2 * f1
    r33 = x2 * a2 + y2 * b2 + z2 * c2
    i33 = x2 * d2 + y2 * e2 + z2 * f2
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
    """Frobenius norm of Q V - U, for Q given as rows of floats and V and
    U each as its 18 parts in _core_parts' order: the _fsum_norm of the 18
    real and imaginary parts of Q V - U, each entry of Q V summed left to
    right as _rotate sums it, so no complex entry is built."""
    a0, d0, a1, d1, a2, d2, b0, e0, b1, e1, b2, e2, c0, f0, c1, f1, c2, f2 = v
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = q
    r00, i00, r01, i01, r02, i02, r10, i10, r11, i11, r12, i12, r20, i20, r21, i21, r22, i22 = u
    return _fsum_norm((
        x0 * a0 + x1 * b0 + x2 * c0 - r00, x0 * d0 + x1 * e0 + x2 * f0 - i00,
        x0 * a1 + x1 * b1 + x2 * c1 - r01, x0 * d1 + x1 * e1 + x2 * f1 - i01,
        x0 * a2 + x1 * b2 + x2 * c2 - r02, x0 * d2 + x1 * e2 + x2 * f2 - i02,
        y0 * a0 + y1 * b0 + y2 * c0 - r10, y0 * d0 + y1 * e0 + y2 * f0 - i10,
        y0 * a1 + y1 * b1 + y2 * c1 - r11, y0 * d1 + y1 * e1 + y2 * f1 - i11,
        y0 * a2 + y1 * b2 + y2 * c2 - r12, y0 * d2 + y1 * e2 + y2 * f2 - i12,
        z0 * a0 + z1 * b0 + z2 * c0 - r20, z0 * d0 + z1 * e0 + z2 * f0 - i20,
        z0 * a1 + z1 * b1 + z2 * c1 - r21, z0 * d1 + z1 * e1 + z2 * f1 - i21,
        z0 * a2 + z1 * b2 + z2 * c2 - r22, z0 * d2 + z1 * e2 + z2 * f2 - i22,
    ))


def recover_params(u, tolerance: float = RECOVERY_TOL) -> RecoveryReport:
    """Recover the nine parameters of a unitary matrix.

    Pipeline: phase-normalize the first column, recover (chi, rotation),
    read the core parameters off the entries of V1 = Q.T @ U and recompose.
    The report carries the Frobenius residual of the recomposition and the
    sign-determination branch that fired.

    Raises NotUnitaryError where the input fails linalg's unitarity gate,
    and RecoveryToleranceError where the residual exceeds ``tolerance``.
    """
    return _recover_rows(as_matrix3(u), tolerance)


def _recover_rows(rows, tolerance: float) -> RecoveryReport:
    """recover_params on a finite matrix given as rows of Python complex.

    Once the unitarity gate has passed, U's 18 real and imaginary parts are
    read once, in _core_parts' order, for both float products
    (_extract_core_params and _residual), so neither V1 nor the
    recomposition Q V1' is built as complex entries.  The records are built
    with linalg._new."""
    _check_unitary(rows)
    (u00, u01, u02), (u10, u11, u12), (u20, u21, u22) = rows
    u = (u00.real, u00.imag, u01.real, u01.imag, u02.real, u02.imag,
         u10.real, u10.imag, u11.real, u11.imag, u12.real, u12.imag,
         u20.real, u20.imag, u21.real, u21.imag, u22.real, u22.imag)
    eps, w = _normalize_global_phase((u00, u10, u20))
    chi, rot = _recover_first_column(eps)
    branch = _branch(eps, w, chi)
    q = _rotation_rows(rot)
    mu, alpha1, alpha2, alpha3, beta2 = _extract_core_params(q, u)
    residual = _residual(q, _core_parts(chi, mu, alpha1, alpha2, alpha3, beta2), u)
    if not residual <= tolerance:
        raise RecoveryToleranceError(
            f"recomposition residual {residual:.3e} exceeds {tolerance} "
            f"(branch {branch})"
        )
    params = _new(UnitaryParams, (rot, chi, mu, alpha1, alpha2, alpha3, beta2))
    return _new(RecoveryReport, (params, residual, branch, branch == "circular-fallback"))


def flip_equivalent(p: UnitaryParams) -> UnitaryParams:
    """The flip of ``p``: the tuple with Q diag(-1, -1, 1) and alpha1,
    alpha2, alpha3 advanced by pi, which composes to the same unitary.

    README, Conventions: Two representatives.
    Each advanced phase is correctly rounded (_half_turn), so flipping twice
    gives the wrapped tuple back wherever a -+ pi is exact, as it is for
    |a| >= pi/2.  Raises TypeError unless ``p`` is a UnitaryParams whose
    rotation is a RotationAngles, and NonFiniteError for a NaN or infinite
    field.
    """
    _check_finite(_check_params(p, "flip_equivalent"))
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
    is NaN or infinite, so such a tuple never passes a bound.  Raises
    TypeError unless each is a UnitaryParams whose rotation is a
    RotationAngles.
    """
    if not all(map(math.isfinite, _check_params(p, "params_distance") + _check_params(q, "params_distance"))):
        return math.nan

    def gaps(x: UnitaryParams) -> list:
        return [abs(wrap_angle(wrap_angle(a) - wrap_angle(b)) if circle else a - b)
                for a, b, circle in zip(_values(x), _values(q), _ON_CIRCLE)]

    return min(max(gaps(p)), max(gaps(flip_equivalent(p))))

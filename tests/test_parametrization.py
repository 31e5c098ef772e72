import cmath
import math
import random
import struct

import numpy as np
import pytest

from unitary3.documents import _parse_rows
from unitary3.linalg import FOLD_GATE, FloatRangeError, NonFiniteError, _fsum_norm, unitarity_distance
from unitary3.parametrization import (
    DEGENERACY_GATE,
    PARAM_FIELDS,
    RECOVERY_TOL,
    NotUnitaryError,
    ParameterRangeError,
    UnitaryParams,
    _branch,
    _core_parts,
    _ellipticity,
    _extract_core_params,
    _normalize_global_phase,
    _recover_first_column,
    _recover_rows,
    _rotate,
    _unitary_rows,
    canonical_basis,
    compose_core,
    compose_unitary,
    flip_equivalent,
    params_distance,
    recover_params,
)
from unitary3.characteristic import intrinsic_middle, middle_component
from unitary3.rotations import (NotOrthogonalError, RotationAngles, _rotation_rows, compose_rotation,
                               extract_rotation_angles, wrap_angle)
from unitary3.sampling import SeededGenerator, _haar_rows, generate_haar_unitary, random_params
from unitary3.selftest import haar_roundtrip, param_roundtrip

from oracles import BRANCH_CASES, first_column_oracle


def make_params(phi=0.0, theta=0.0, varphi=0.0, chi=0.0, mu=0.0, alpha1=0.0,
                alpha2=0.0, alpha3=0.0, beta2=np.pi):
    return UnitaryParams(
        rotation=RotationAngles(phi, theta, varphi),
        chi=chi, mu=mu, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3, beta2=beta2,
    )


def test_compose_core_identity():
    assert np.allclose(compose_core(0.0, 0.0, 0.0, 0.0, 0.0, np.pi), np.eye(3))


def test_compose_core_circular_example():
    v = compose_core(np.pi / 4, 0.0, 0.0, 0.0, 0.0, np.pi)
    s = np.sqrt(0.5)
    want = np.array([[s, 1j * s, 0], [1j * s, s, 0], [0, 0, 1]])
    assert np.allclose(v, want)


def test_compose_core_unitary():
    g = SeededGenerator(41)
    for _ in range(300):
        p = random_params(g)
        v = compose_core(p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2)
        assert unitarity_distance(v) < 1e-14
        assert v[2, 0] == 0.0


def test_compose_unitary_identity_rotation():
    p = make_params(chi=0.2, mu=0.7, alpha1=0.3, beta2=1.1)
    core = compose_core(0.2, 0.7, 0.3, 0.0, 0.0, 1.1)
    assert np.allclose(compose_unitary(p), core)


def test_compose_unitary_all_zero():
    assert np.allclose(compose_unitary(make_params()), np.eye(3))


def column(v) -> list:
    """A stage kernel's input: Python complex entries, as the pipelines pass it."""
    return np.asarray(v, dtype=complex).tolist()


def first_column_stages(u1) -> tuple:
    """(chi, rotation, branch) of a unit first column u1, through
    recovery's stages: phase, first column, label."""
    eps, w = _normalize_global_phase(u1)
    chi, rot = _recover_first_column(eps)
    return chi, rot, _branch(eps, w, chi)


def test_normalize_global_phase_trivial():
    u1 = column([1.0, 0.0, 0.0])
    eps, w = _normalize_global_phase(u1)
    assert np.array_equal(eps, u1)  # alpha1 = 0
    assert w == 1.0
    assert first_column_stages(u1)[2] != "circular-fallback"
    assert np.allclose(eps, [1.0, 0.0, 0.0])


def test_normalize_global_phase_generic():
    u1 = np.exp(1j * np.pi / 3) * np.array([np.cos(0.2), 1j * np.sin(0.2), 0.0])
    eps, w = _normalize_global_phase(column(u1))
    assert first_column_stages(column(u1))[2] != "circular-fallback"
    assert np.linalg.norm(u1 - np.exp(1j * np.pi / 3) * np.array(eps)) <= 1e-15  # alpha1 = pi/3
    assert np.allclose(eps, [np.cos(0.2), 1j * np.sin(0.2), 0.0])
    assert abs(w - np.exp(2j * np.pi / 3) * np.cos(0.4)) <= 1e-15  # u1.u1 = e^{2i alpha1} cos(2 chi)


def test_normalize_global_phase_circular_flag():
    s = np.sqrt(0.5)
    assert first_column_stages(column([s, 1j * s, 0.0]))[2] == "circular-fallback"
    # phased, rotated columns at and near chi = pi/4: labelled circular,
    # and still phase-normalized (a.b = 0) by the one alpha1 rule
    for chi in (np.pi / 4 - 1e-11, np.pi / 4 - 1e-12, np.pi / 4):
        for phase, angles in ((0.5, (0.4, -0.3, 1.0)), (-2.0, (2.1, 0.7, -1.3))):
            q = compose_rotation(RotationAngles(*angles))
            u1 = np.exp(1j * phase) * (q @ [np.cos(chi), 1j * np.sin(chi), 0.0])
            assert first_column_stages(column(u1))[2] == "circular-fallback"
            eps, _ = _normalize_global_phase(column(u1))
            eps = np.array(eps)
            assert abs(eps.real @ eps.imag) <= 1e-15, (chi, phase)


def test_recover_first_column_trivial():
    chi, rot = _recover_first_column(column([1.0, 0.0, 0.0]))
    assert chi == 0.0
    assert (rot.phi, rot.theta, rot.varphi) == (0.0, 0.0, 0.0)


def test_recover_first_column_pole():
    # a linear column fixes q1 only: recovery takes the varphi = 0
    # representative, at the poles +-e_z and everywhere else
    g = SeededGenerator(48)
    columns = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for _ in range(500):
        a = np.array([g.gauss(), g.gauss(), g.gauss()])
        columns.append(a / np.linalg.norm(a))
    for a in columns:
        chi, rot = _recover_first_column(column(a))
        assert chi == 0.0
        assert rot.varphi == 0.0
        assert np.linalg.norm(compose_rotation(rot)[:, 0] - a) <= 1e-14


def test_recover_first_column_near_pole():
    # Within 1e-13 of the poles the frame is completed from e_y projected
    # off q1: q2 = (e_y - y1 q1) / |e_y - y1 q1|, negated where x1 < 0.  The
    # rotation has the columns q1 and q2 to rounding, and so does the
    # unitary with first column q1 recover to rounding (a completion off
    # orthogonal by 1e-13 would stay under the residual gate).
    for z in (1.0, -1.0):
        for x, y in ((3e-14, 8e-14), (-3e-14, 8e-14), (3e-14, -8e-14), (-6e-14, -8e-14), (0.0, 1e-13)):
            q1 = np.array([x, y, z * math.sqrt(1.0 - x * x - y * y)])
            q2 = np.array([0.0, 1.0, 0.0]) - y * q1
            q2 = math.copysign(1.0, x) * q2 / np.linalg.norm(q2)
            chi, rot = _recover_first_column(column(q1))
            assert chi == 0.0
            q = compose_rotation(rot)
            assert np.linalg.norm(q[:, :2] - np.column_stack([q1, q2])) <= 1e-14, (x, y, z)
            rep = recover_params(np.column_stack([q1, q2, np.cross(q1, q2)]))
            assert rep.residual <= 1e-14, (x, y, z)


def test_recover_first_column_near_pole_phi_exact():
    # The completion from e_y has third column q1 x q2 = +-(q1 x e_y) =
    # +-(-z1, 0, x1), whose y component is exactly 0, so phi is exactly 0
    # or pi (a completion whose x component had the wrong sign read phi
    # 1e-27 off)
    for z in (1.0, -1.0):
        for x, y in ((3e-14, 8e-14), (-3e-14, 8e-14), (3e-14, -8e-14), (-6e-14, -8e-14)):
            _, rot = _recover_first_column(column([x, y, z * math.sqrt(1.0 - x * x - y * y)]))
            assert rot.phi in (0.0, math.pi), (x, y, z)


def test_recover_first_column_pole_gate_is_strict():
    # q1 = (0, FOLD_GATE, 1): |e_z x q1| is exactly FOLD_GATE, not below it,
    # so the frame is e_z x q1 normalized, q2 = (-1, 0, 0); one float
    # closer to the pole it is e_y projected off q1
    below = math.nextafter(FOLD_GATE, 0.0)
    for y, q2 in ((FOLD_GATE, (-1.0, 0.0, 0.0)), (below, (0.0, 1.0, -below))):
        chi, rot = _recover_first_column(column([0.0, y, 1.0]))
        assert chi == 0.0
        assert np.linalg.norm(compose_rotation(rot)[:, 1] - q2) <= 1e-15, y


def test_recover_first_column_roundtrip():
    g = SeededGenerator(42)
    for _ in range(500):
        chi0 = -np.pi / 4 + 1e-3 + (np.pi / 2 - 2e-3) * g.uniform()
        phi0 = -np.pi + 2 * np.pi * g.uniform()
        theta0 = -np.pi / 2 + np.pi * g.uniform()
        varphi0 = np.pi * g.uniform()
        eps = first_column_oracle(chi0, phi0, theta0, varphi0)
        chi, rot = _recover_first_column(column(eps))
        q = compose_rotation(rot)
        back = np.cos(chi) * q[:, 0] + 1j * np.sin(chi) * q[:, 1]
        assert np.linalg.norm(back - eps) < 1e-11


def test_ellipticity_sign_generic_columns():
    for chi0, theta in ((0.3, 0.5), (-0.3, 0.5), (0.3, -0.5), (-0.3, -0.5)):
        eps = first_column_oracle(chi0, 0.7, theta, 0.6)
        chi, _, _ = _ellipticity(column(eps))
        assert first_column_stages(column(eps))[2] == "a"
        assert np.sign(chi) == np.sign(chi0)


def test_ellipticity_gate_and_sign_at_their_edges():
    # |b| = FOLD_GATE is linear (the gate is inclusive) and one float above
    # it is not; where the invariant a1*b2 - a2*b1 is exactly 0, chi is +
    assert _ellipticity(column([1.0 + FOLD_GATE * 1j, 0.0, 0.0]))[0] == 0.0
    assert _ellipticity(column([1.0 + math.nextafter(FOLD_GATE, 1.0) * 1j, 0.0, 0.0]))[0] > 0.0
    # |b| at 0.7 and 1.5 times the gate's value, 1e-12, written out, so that
    # a changed FOLD_GATE fails
    assert _ellipticity(column([complex(1.0, 0.7e-12), 0.0, 0.0]))[0] == 0.0
    assert _ellipticity(column([complex(1.0, 1.5e-12), 0.0, 0.0]))[0] > 0.0
    for col in ([math.cos(0.3), 0.0, math.sin(0.3) * 1j], [math.sin(0.3) * 1j, 0.0, math.cos(0.3)]):
        chi, _, _ = _ellipticity(column(col))
        assert chi == pytest.approx(0.3, abs=1e-15), col


def test_branch_gates_at_their_edges():
    # circular-fallback where |u1.u1| is below DEGENERACY_GATE, not at it;
    # a3 = 0 and b3 = 0 each where the modulus is at most the gate
    gate, above = DEGENERACY_GATE, math.nextafter(DEGENERACY_GATE, 1.0)

    def label(e3, w=0.5 + 0j):
        return _branch([0.6 + 0.1j, 0.2 + 0.3j, e3], w, 0.3)

    assert label(0.5 + 0.5j, complex(gate, 0.0)) == "a"
    assert label(0.5 + 0.5j, complex(math.nextafter(gate, 0.0), 0.0)) == "circular-fallback"
    assert label(complex(gate, gate)) == "b2"
    assert label(complex(gate, 0.5)) == "c" and label(complex(above, 0.5)) == "a"
    assert label(complex(0.5, gate)) == "d2" and label(complex(0.5, above)) == "a"
    # |u1.u1|, |a3| and |b3| at 0.7 and 1.5 times the gate's value, 1e-10,
    # written out, so that a changed DEGENERACY_GATE fails
    assert label(0.5 + 0.5j, 0.7e-10 + 0j) == "circular-fallback" and label(0.5 + 0.5j, 1.5e-10 + 0j) == "a"
    assert label(complex(0.7e-10, 0.5)) == "c" and label(complex(1.5e-10, 0.5)) == "a"
    assert label(complex(0.5, 0.7e-10)) == "d2" and label(complex(0.5, 1.5e-10)) == "a"


# Largest |theta| a recovery may report: pi/2 plus one rounding of the
# chart condition Q[2,2] = cos(theta) >= 0 at the gimbal.
THETA_MAX = math.nextafter(math.pi / 2, 4)


def test_ellipticity_sign_gimbal_in_chart():
    # At theta = +-pi/2 the invariant a1*b2 - a2*b1 vanishes; chi still takes
    # its sign, so the recovered rotation stays inside the chart, in branch
    # a and in branches c (varphi = pi/2) and d2 (varphi = 0), whatever the
    # composing signs of chi and theta, and the recovery reports the
    # zero-pattern branch
    eps = first_column_oracle(0.3, 0.7, np.pi / 2, 0.6)
    chi, rot, branch = first_column_stages(column(eps))
    assert branch == "a"
    assert abs(chi) == pytest.approx(0.3) and abs(rot.theta) <= THETA_MAX
    for chi in (0.3, -0.3):
        for theta in (np.pi / 2, -np.pi / 2):
            for varphi, want in ((np.pi / 2, "c"), (0.0, "d2")):
                eps = first_column_oracle(chi, 0.7, theta, varphi)
                _, rot, branch = first_column_stages(column(eps))
                assert branch == want
                assert abs(rot.theta) <= THETA_MAX
                p = make_params(phi=0.7, theta=theta, varphi=varphi, chi=chi,
                                mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
                rep = recover_params(compose_unitary(p))
                assert rep.branch == want
                assert rep.residual <= 1e-10
                assert abs(rep.params.rotation.theta) <= THETA_MAX


def test_recover_params_gimbal_small_chi_in_chart():
    # |a1*b2 - a2*b1| = cos(chi) sin(chi) cos(theta) is 1e-16 here, far below
    # FOLD_GATE; a gated sign put theta at -pi/2 - 1e-8, outside the chart
    p = make_params(theta=np.pi / 2 - 1e-8, varphi=2.0, chi=1e-8, mu=0.3, beta2=0.0)
    rep = recover_params(compose_unitary(p))
    assert rep.residual <= 1e-10
    assert abs(rep.params.rotation.theta) <= THETA_MAX
    assert params_distance(rep.params, p) <= 1e-7


def test_recover_params_gimbal_probe():
    # theta within 1e-6 of +-pi/2 and |chi| from 0 to 0.3, under a random
    # global phase: every recovery lies inside the chart
    rng = random.Random(1)
    for _ in range(4000):
        theta = rng.choice((1, -1)) * (math.pi / 2 - rng.choice((0.0, 1e-16, 1e-12, 1e-8, 1e-6)))
        chi = rng.choice((1, -1)) * rng.choice((0.0, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.3))
        p = make_params(phi=rng.uniform(-math.pi, math.pi), theta=theta,
                        varphi=rng.uniform(0.0, math.pi), chi=chi, mu=rng.uniform(0.0, math.pi / 2),
                        alpha1=rng.uniform(-math.pi, math.pi), alpha2=rng.uniform(-math.pi, math.pi),
                        alpha3=rng.uniform(-math.pi, math.pi), beta2=rng.uniform(-math.pi, math.pi))
        u = compose_unitary(p) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rep = recover_params(u)
        assert rep.residual <= 1e-10, p
        assert abs(rep.params.rotation.theta) <= THETA_MAX, p


def test_compose_rejects_non_finite():
    # A NaN or infinite parameter raises NonFiniteError at every public
    # composition, instead of math's ValueError or a NaN matrix.
    for bad in (math.nan, math.inf, -math.inf):
        for fn in (canonical_basis, intrinsic_middle):
            with pytest.raises(NonFiniteError, match="non-finite"):
                fn(bad)
        for i in range(6):
            core = [0.1, 0.3, 0.0, 0.0, 0.0, 0.0]
            core[i] = bad
            with pytest.raises(NonFiniteError, match="non-finite"):
                compose_core(*core)
        for field in PARAM_FIELDS:
            with pytest.raises(NonFiniteError, match="non-finite"):
                compose_unitary(make_params(**{"chi": 0.1, "mu": 0.3, field: bad}))
        for i in range(3):
            angles = [0.1, 0.2, 0.3]
            angles[i] = bad
            with pytest.raises(NonFiniteError, match="non-finite"):
                compose_rotation(RotationAngles(*angles))


def test_compose_delta_overflow():
    # A phase of modulus above 2**8 raises ParameterRangeError: finite phases
    # whose delta = beta2 - alpha2 + alpha3 leaves the float range, and a
    # finite delta whose rounding would leave the matrix far from unitary.
    # 2**8 itself composes.
    over = math.nextafter(2.0**8, math.inf)
    for alpha2, alpha3, beta2 in ((-1e308, 0.0, 1e308), (0.0, -1e308, -1e308), (1e308, 1e308, -1e308),
                                  (-1e308, 0.0, 7e307), (over, 0.0, 0.0), (0.0, -over, 0.0),
                                  (0.0, 0.0, over)):
        p = make_params(chi=0.1, mu=0.3, alpha2=alpha2, alpha3=alpha3, beta2=beta2)
        with pytest.raises(ParameterRangeError, match=r"must lie in \[-2\*\*8, 2\*\*8\]"):
            compose_unitary(p)
        with pytest.raises(ParameterRangeError, match=r"must lie in \[-2\*\*8, 2\*\*8\]"):
            compose_core(p.chi, p.mu, p.alpha1, alpha2, alpha3, beta2)
    p = make_params(chi=0.1, mu=0.3, alpha2=-2.0**8, alpha3=2.0**8, beta2=2.0**8)
    assert unitarity_distance(compose_unitary(p)) <= 1e-13


def test_compose_core_mu_gate_edges():
    # mu is admitted up to FOLD_GATE beyond each end of [0, pi/2], the
    # fold's own reach, and one float further it is not
    for edge, outward in ((-FOLD_GATE, -math.inf), (math.pi / 2 + FOLD_GATE, math.inf)):
        assert unitarity_distance(compose_core(0.3, edge, 0.1, 0.2, 0.3, 0.4)) <= 1e-15
        with pytest.raises(ParameterRangeError, match=r"mu must lie in \[0, pi/2\]"):
            compose_core(0.3, math.nextafter(edge, outward), 0.1, 0.2, 0.3, 0.4)


def _read_core(v1) -> tuple:
    """The core read on the full V1, rows of Python complex, with
    cmath.phase: the reference for _extract_core_params."""
    (v11, _, _), (_, v22, v23), (_, v32, v33) = v1
    # math.hypot, not abs: complex abs is libm's hypot, which can differ in the last bit.
    sm, cm = math.hypot(v32.real, v32.imag), math.hypot(v33.real, v33.imag)
    alpha2 = wrap_angle(cmath.phase(v22)) if math.hypot(v22.real, v22.imag) >= FOLD_GATE else 0.0
    alpha3 = wrap_angle(cmath.phase(v23)) if math.hypot(v23.real, v23.imag) >= FOLD_GATE else 0.0
    if sm >= cm:
        beta2 = wrap_angle(cmath.phase(v32))
    else:
        beta2 = wrap_angle(cmath.phase(-v33) + alpha2 - alpha3)
    return math.atan2(sm, cm), cmath.phase(v11), alpha2, alpha3, beta2


_IDENTITY = np.eye(3).tolist()


def test_extract_core_params_identity():
    assert _extract_core_params(_IDENTITY, column(np.eye(3))) == (0.0, 0.0, 0.0, 0.0, math.pi)


def test_extract_core_params_gates_at_their_edges():
    # alpha2 and alpha3 fold to 0 where their entry's modulus is below
    # FOLD_GATE, not at it; beta2 is read off v32 where |v32| = |v33| (the
    # -v33 reading of these entries would give -pi/2)
    below = math.nextafter(FOLD_GATE, 0.0)

    def core(v22, v23, v32=0.6 + 0j, v33=-0.8 + 0j):
        return _extract_core_params(_IDENTITY, [[1 + 0j, 0j, 0j], [0j, v22, v23], [0j, v32, v33]])

    assert core(FOLD_GATE * 1j, 1 + 0j)[2] == math.pi / 2
    assert core(below * 1j, 1 + 0j)[2] == 0.0
    assert core(1 + 0j, FOLD_GATE * 1j)[3] == math.pi / 2
    assert core(1 + 0j, below * 1j)[3] == 0.0
    assert core(1 + 0j, 1 + 0j, 0.5 + 0j, 0.5j)[4] == 0.0


def test_extract_core_params_folds_minus_pi():
    # alpha2, alpha3 and beta2 read off v32 (sin mu >= cos mu) are atan2
    # results, -pi for a negative real entry with a -0.0 imaginary part;
    # each is folded to pi, the float wrap_angle gives.  Every other entry
    # is complex(0.0, -0.0), so the sums over Q = I keep the -0.0.
    neg, zero = complex(-1.0, -0.0), complex(0.0, -0.0)

    def core(v22=zero, v23=zero, v32=zero):
        return _extract_core_params(_IDENTITY, [[1 + 0j, zero, zero], [zero, v22, v23], [zero, v32, zero]])

    assert core(v22=neg)[2] == math.pi
    assert core(v23=neg)[3] == math.pi
    assert core(v32=neg)[4] == math.pi
    assert wrap_angle(math.atan2(-0.0, -1.0)) == math.pi


def test_extract_core_params_roundtrip():
    # With Q = I the core read is _read_core of V1 itself, and within
    # rounding of the composed parameters.
    v = compose_core(0.2, 0.8, 0.1, -0.4, 0.9, 1.3).tolist()
    got = _extract_core_params(_IDENTITY, v)
    assert got == _read_core(v)
    assert got == pytest.approx((0.8, 0.1, -0.4, 0.9, 1.3), abs=1e-15)


def test_fused_kernels_match_composition():
    # Recovery reads V1 = Q.T U and forms Q V1' - U in floats, without
    # complex temporaries; on Haar, flipped and face inputs both give the
    # bits of the complex products that composition uses (_rotate).  On
    # 1,000 Haar unitaries and on random_params draws placed 1e-2, 1e-6 and
    # 1e-12 from each chart face, the residual is composition's bit for
    # bit, and compose_core is the complex pairs of _core_parts.
    from test_host_independence import documents

    for text in documents()[0]:
        u = _parse_rows(text)
        rep = _recover_rows(u, RECOVERY_TOL)
        assert rep.residual == _composition_residual(rep.params, u), text
        q = _rotation_rows(rep.params.rotation)
        u_parts = [x for row in u for z in row for x in (z.real, z.imag)]
        got, want = _extract_core_params(q, u), _read_core(_rotate(zip(*q), u_parts))
        assert struct.pack("5d", *got) == struct.pack("5d", *want), text
    g = SeededGenerator(44)
    inputs = [_haar_rows(g) for _ in range(1000)]
    for margin in (1e-2, 1e-6, 1e-12):
        for i in range(6):
            inputs += [_unitary_rows(place(random_params(g, margin), (-1) ** i, margin)) for place in _FACES.values()]
    for u in inputs:
        rep = _recover_rows(u, RECOVERY_TOL)
        assert struct.pack("d", rep.residual) == struct.pack("d", _composition_residual(rep.params, u)), u
        parts = _core_parts(*rep.params[1:])
        pairs = [complex(parts[k], parts[k + 1]) for k in range(0, 18, 2)]
        assert compose_core(*rep.params[1:]).ravel().tobytes() == np.array(pairs).tobytes(), rep.params


def _composition_residual(p: UnitaryParams, u) -> float:
    """Frobenius norm of the composed rows of p minus u, through complex
    entries: the reference for _residual."""
    d = [x - y for w_row, u_row in zip(_unitary_rows(p), u) for x, y in zip(w_row, u_row)]
    return _fsum_norm([z.real for z in d] + [z.imag for z in d])


def test_recover_params_identity():
    rep = recover_params(np.eye(3))
    p = rep.params
    assert rep.residual < 1e-14
    assert (p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert p.beta2 == pytest.approx(np.pi)


def test_recover_params_tolerance_is_inclusive():
    # A residual equal to the tolerance passes the gate.
    u = generate_haar_unitary(SeededGenerator(31))
    r = recover_params(u).residual
    assert r > 0.0
    assert recover_params(u, tolerance=r).residual == r


def test_recover_params_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        recover_params(np.eye(3) * 1.5)


def test_recover_params_rejects_nan_unitarity_distance():
    # Entries of 1e200 overflow M^H M to inf - inf = NaN: unitarity_distance
    # raises FloatRangeError instead, and recovery rejects any entry of
    # modulus above 2 before forming that product; neither warns (a warning
    # is an error under the test configuration).
    u = np.eye(3, dtype=complex)
    u[1, 1] = u[2, 1] = u[1, 2] = 1e200
    u[2, 2] = -1e200
    with pytest.raises(FloatRangeError):
        unitarity_distance(u)
    with pytest.raises(NotUnitaryError, match="entry modulus 1.000e[+]200 exceeds 2"):
        recover_params(u)


def test_unitarity_distance_sum_overflow():
    # Entries of 1e77: each square in the Frobenius norm is finite (1e308)
    # but their sum is not, so math.fsum raises OverflowError, which
    # _unitarity_distance turns into inf.  unitarity_distance reports it as
    # FloatRangeError, and every unitarity gate names the large entry.
    u = 1e77 * np.eye(3)
    with pytest.raises(FloatRangeError, match="beyond the largest float"):
        unitarity_distance(u)
    message = "entry modulus 1.000e[+]77 exceeds 2"
    for gate in (recover_params, middle_component):
        with pytest.raises(NotUnitaryError, match=message):
            gate(u)
    with pytest.raises(NotOrthogonalError, match=message):
        extract_rotation_angles(u)


def test_recover_params_haar():
    assert haar_roundtrip(SeededGenerator(43), 1000) <= 1e-10


def test_recover_params_interior_roundtrip():
    assert param_roundtrip(SeededGenerator(44), 1000) <= 1e-9


def test_recover_params_degenerate_mu_zero():
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=0.2,
                    mu=0.0, alpha1=0.5, alpha2=0.1, alpha3=0.7, beta2=0.2)
    u = compose_unitary(p)
    rep = recover_params(u)
    assert rep.residual <= 1e-12
    assert rep.params.alpha3 == 0.0  # canonical fold


def test_recover_params_degenerate_mu_half_pi():
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=0.2,
                    mu=np.pi / 2, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
    rep = recover_params(compose_unitary(p))
    assert rep.residual <= 1e-12
    assert rep.params.alpha2 == 0.0


def test_recover_params_circular_first_column():
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=np.pi / 4,
                    mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
    rep = recover_params(compose_unitary(p))
    assert rep.residual <= 1e-10
    assert rep.global_phase_alpha1_degenerate
    assert rep.branch == "circular-fallback"


def test_recover_params_every_branch_label():
    # recover_params of a composed unitary reaches each of the seven labels:
    # criterion 4's columns, the gimbal columns of branches c and d2, and a
    # circular column; only circular-fallback flags alpha1 as degenerate
    cases = list(BRANCH_CASES)
    for chi in (0.3, -0.3):
        for theta in (np.pi / 2, -np.pi / 2):
            cases += [(chi, 0.7, theta, np.pi / 2, "c"), (chi, 0.7, theta, 0.0, "d2")]
    cases.append((np.pi / 4, 0.4, -0.3, 1.0, "circular-fallback"))
    seen = set()
    for chi, phi, theta, varphi, want in cases:
        p = make_params(phi=phi, theta=theta, varphi=varphi, chi=chi,
                        mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
        rep = recover_params(compose_unitary(p))
        assert rep.branch == want, (want, chi, phi, theta, varphi)
        assert rep.global_phase_alpha1_degenerate == (want == "circular-fallback")
        assert rep.residual <= 1e-10
        seen.add(rep.branch)
    assert seen == {"a", "b1", "b2", "c", "d1", "d2", "circular-fallback"}


def test_recover_params_linear_first_column():
    # the second puts the column within 1e-12 of the pole -e_z, where the
    # frame is completed from e_y
    for phi, theta in ((0.4, -0.3), (np.pi / 2, np.pi / 2 - 8e-13)):
        p = make_params(phi=phi, theta=theta, varphi=0.0, chi=0.0,
                        mu=0.6, alpha1=0.0, alpha2=0.8, alpha3=0.7, beta2=0.2)
        rep = recover_params(compose_unitary(p))
        assert rep.residual <= 1e-10
        assert rep.params.chi == 0.0


def _tilt(p, theta):
    return p._replace(rotation=p.rotation._replace(theta=theta))


# Each chart face as a map (params, sign, offset) -> params that sits
# offset away from it; sign alternates the side of the two-sided faces.
_FACES = {
    "chi@0": lambda p, s, d: p._replace(chi=s * d),
    "chi@+pi/4": lambda p, s, d: p._replace(chi=np.pi / 4 - d),
    "chi@-pi/4": lambda p, s, d: p._replace(chi=-np.pi / 4 + d),
    "mu@0": lambda p, s, d: p._replace(mu=d),
    "mu@pi/2": lambda p, s, d: p._replace(mu=np.pi / 2 - d),
    "theta@0": lambda p, s, d: _tilt(p, s * d),
    "theta@+pi/2": lambda p, s, d: _tilt(p, np.pi / 2 - d),
    "theta@-pi/2": lambda p, s, d: _tilt(p, -np.pi / 2 + d),
}


def test_recover_params_faces():
    # within 1e-4 ... 1e-13 of each chart face, and on it, with every other
    # parameter drawn 0.05 clear of its faces: no raise, residual <= 1e-10,
    # and <= 1e-14 on the circular faces, where alpha1 has no fold
    g = SeededGenerator(47)
    for face, place in _FACES.items():
        for offset in [10.0 ** -k for k in range(4, 14)] + [0.0]:
            residuals = []
            for i in range(30):
                p = place(random_params(g, margin=0.05), (-1) ** i, offset)
                residuals.append(recover_params(compose_unitary(p), tolerance=1.0).residual)
            assert np.max(residuals) <= (1e-14 if "pi/4" in face else 1e-10), (face, offset)


def test_recover_params_gate_edge():
    # The stages trust the unitarity gate and re-check nothing, so inputs
    # that only just pass it must still recover within the residual bound:
    # U (I + tH), H Hermitian of unit norm, has U^H U - I = 2tH + t^2 H^2,
    # a unitarity distance of about 2t just under the gate's 1e-12.
    g = SeededGenerator(48)

    def edge(u):
        h = g.complex_gauss_matrix()
        h = h + h.conj().T
        w = u @ (np.eye(3) + 0.49e-12 * h / np.linalg.norm(h))
        assert 0.95e-12 < unitarity_distance(w) < 1e-12
        return w

    unitaries = [generate_haar_unitary(g) for _ in range(300)]
    for place in _FACES.values():
        for offset in (1e-4, 1e-8, 1e-12, 1e-13, 0.0):
            unitaries += [compose_unitary(place(random_params(g, margin=0.05), (-1) ** i, offset))
                          for i in range(20)]
    assert max(recover_params(edge(u)).residual for u in unitaries) <= 1e-10


def test_flip_equivalent_composes_same_matrix():
    g = SeededGenerator(45)
    for _ in range(200):
        p = random_params(g)
        q = flip_equivalent(p)
        assert np.linalg.norm(compose_unitary(p) - compose_unitary(q)) < 1e-13


def test_flip_equivalent_one_rule_for_the_four_phases():
    # phi, alpha1, alpha2 and alpha3 each advance by pi through one
    # rounding rule, so four equal phases stay equal bit for bit (for
    # about a fifth of phases, a + pi and a - pi wrap to floats an ulp apart)
    g = SeededGenerator(47)
    for _ in range(200):
        a = -math.pi + 2.0 * math.pi * g.uniform()
        q = flip_equivalent(make_params(phi=a, varphi=1.0, chi=0.2, mu=0.6,
                                        alpha1=a, alpha2=a, alpha3=a, beta2=a))
        assert q.rotation.phi == q.alpha1 == q.alpha2 == q.alpha3, a
        assert q.beta2 == a and q.rotation.theta == 0.0


def test_flip_equivalent_correctly_rounded():
    # Each advanced phase is a -+ pi rounded once, against mpmath's exact
    # sum; wrap_angle(a + pi) rounded a + pi first and missed by an ulp on
    # about a fifth of the phases +-pi u.
    import mpmath

    g = SeededGenerator(48)
    for _ in range(2000):
        a = math.pi * g.uniform() * (1.0 if g.uniform() < 0.5 else -1.0)
        q = flip_equivalent(make_params(phi=a, alpha1=a, alpha2=a, alpha3=a))
        with mpmath.workprec(200):
            want = float(mpmath.mpf(a) + (-math.pi if a > 0.0 else math.pi))
        assert q.rotation.phi == q.alpha1 == q.alpha2 == q.alpha3 == want, a


def test_flip_equivalent_is_an_involution():
    # Bit for bit on random_params draws and on phases with |a| >= pi/2,
    # where a -+ pi is exact (Sterbenz); -0.0 alone comes back as 0.0.
    g = SeededGenerator(49)
    tuples = [random_params(g) for _ in range(2000)]
    for _ in range(2000):
        a = math.pi / 2 * (1.0 + g.uniform())
        tuples.append(make_params(phi=a, alpha1=-a, alpha2=a, alpha3=-a))
    tuples.append(make_params(phi=math.pi, alpha1=-math.pi / 2, alpha2=math.pi / 2, alpha3=0.0))
    for p in tuples:
        assert repr(flip_equivalent(flip_equivalent(p))) == repr(p)
    assert repr(flip_equivalent(flip_equivalent(make_params(alpha1=-0.0))).alpha1) == "0.0"


def ks_uniform(xs, lo, hi) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [lo, hi]."""
    xs = sorted(xs)
    n = len(xs)
    cdf = [(x - lo) / (hi - lo) for x in xs]
    return max(max((i + 1) / n - f, f - i / n) for i, f in enumerate(cdf))


def test_representative_is_haar_uniform_in_phi_and_alpha1():
    # Under Haar measure phi is uniform on (-pi, pi] and alpha1 on
    # [-pi/2, pi/2] when the representative is picked by alpha1's range; a
    # rule that reads the sign of a component skews both.  Bound: the 0.1 %
    # critical value of the KS statistic, 1.95/sqrt(n).
    g = SeededGenerator(3)
    n = 2000
    params = [recover_params(generate_haar_unitary(g)).params for _ in range(n)]
    bound = 1.95 / np.sqrt(n)
    assert ks_uniform([p.rotation.phi for p in params], -np.pi, np.pi) < bound
    assert ks_uniform([p.alpha1 for p in params], -np.pi / 2, np.pi / 2) < bound


def test_params_distance_propagates_nan():
    # a NaN field must fail every bound the distance is held to
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=0.2,
                    mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
    assert np.isnan(params_distance(p, p._replace(chi=np.nan)))
    assert np.isnan(params_distance(p, p._replace(alpha2=np.nan)))
    assert np.isnan(params_distance(p._replace(rotation=RotationAngles(0.4, np.nan, 1.0)), p))


def test_params_distance_huge_phases():
    # alpha2 = 1e308 against -1e308: the difference overflows, and once
    # raised math's untyped ValueError from math.remainder(inf, 2 pi)
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=0.2,
                    mu=0.6, alpha1=0.5, alpha2=1e308, alpha3=0.7, beta2=0.2)
    q = p._replace(alpha2=-1e308)
    assert math.isfinite(params_distance(p, q))
    for big in (1e308, -1e308):
        r = make_params(phi=big, varphi=1.0, chi=0.2, mu=0.6, alpha1=big, alpha2=big,
                        alpha3=big, beta2=big)
        assert params_distance(r, r) == 0.0


@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_params_distance_circle_set(field):
    # The six phases, varphi among them though the chart bounds it, are
    # compared on the circle, so a 2 pi shift is no gap; theta, chi and mu
    # are compared directly, so a 1e-3 step is a gap of 1e-3.
    values = dict(zip(PARAM_FIELDS, (0.4, -0.3, 1.0, 0.2, 0.6, 0.5, 0.8, 0.7, 0.2)))
    p = make_params(**values)
    if field in ("theta", "chi", "mu"):
        q = make_params(**{**values, field: values[field] + 1e-3})
        assert params_distance(p, q) == pytest.approx(1e-3, abs=1e-15)
    else:
        q = make_params(**{**values, field: values[field] + 2.0 * math.pi})
        assert params_distance(p, q) <= 1e-15


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_tuple_helpers_non_finite(field, bad):
    # A NaN or infinite field: flip_equivalent raises NonFiniteError (an
    # infinite phase once raised math's untyped ValueError) and
    # params_distance is NaN on either side, so no bound passes.
    values = dict(zip(PARAM_FIELDS, (0.4, -0.3, 1.0, 0.2, 0.6, 0.5, 0.8, 0.7, 0.2)))
    p, q = make_params(**values), make_params(**{**values, field: bad})
    with pytest.raises(NonFiniteError, match="non-finite"):
        flip_equivalent(q)
    assert math.isnan(params_distance(p, q))
    assert math.isnan(params_distance(q, p))


def test_canonicalize_idempotent():
    g = SeededGenerator(46)
    for _ in range(200):
        p = random_params(g, margin=1e-3)
        c = recover_params(compose_unitary(p), tolerance=1e-8).params
        c2 = recover_params(compose_unitary(c), tolerance=1e-8).params
        assert params_distance(c, c2) < 1e-11
        assert np.linalg.norm(compose_unitary(c) - compose_unitary(p)) < 1e-12


def test_canonicalize_folds_mu_zero():
    p = make_params(mu=0.0, alpha3=0.7, beta2=0.2, alpha2=0.1, chi=0.1)
    c = recover_params(compose_unitary(p), tolerance=1e-8).params
    assert c.alpha3 == 0.0
    assert np.linalg.norm(compose_unitary(c) - compose_unitary(p)) < 1e-13

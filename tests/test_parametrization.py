from dataclasses import replace

import numpy as np
import pytest

from unitary3.linalg import FloatRangeError, unitarity_distance
from unitary3.parametrization import (
    InconsistentColumnError,
    NotUnitError,
    NotUnitaryError,
    StructureViolationError,
    UnitaryParams,
    compose_core,
    compose_unitary,
    ellipticity,
    extract_core_params,
    flip_equivalent,
    normalize_global_phase,
    params_distance,
    recover_first_column,
    recover_params,
)
from unitary3.rotations import RotationAngles, compose_rotation
from unitary3.sampling import SeededGenerator, random_params
from unitary3.selftest import haar_roundtrip, param_roundtrip

from oracles import first_column_oracle


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


def test_normalize_global_phase_trivial():
    alpha1, eps, circular = normalize_global_phase([1.0, 0.0, 0.0])
    assert alpha1 == 0.0
    assert not circular
    assert np.allclose(eps, [1.0, 0.0, 0.0])


def test_normalize_global_phase_generic():
    u1 = np.exp(1j * np.pi / 3) * np.array([np.cos(0.2), 1j * np.sin(0.2), 0.0])
    alpha1, eps, circular = normalize_global_phase(u1)
    assert not circular
    assert alpha1 == pytest.approx(np.pi / 3)
    assert np.allclose(eps, [np.cos(0.2), 1j * np.sin(0.2), 0.0])


def test_normalize_global_phase_circular_flag():
    s = np.sqrt(0.5)
    _, _, circular = normalize_global_phase([s, 1j * s, 0.0])
    assert circular
    # phased, rotated columns at and near chi = pi/4: flagged, and still
    # phase-normalized (a.b = 0) by the one alpha1 rule
    for chi in (np.pi / 4 - 1e-11, np.pi / 4 - 1e-12, np.pi / 4):
        for phase, angles in ((0.5, (0.4, -0.3, 1.0)), (-2.0, (2.1, 0.7, -1.3))):
            q = compose_rotation(RotationAngles(*angles))
            u1 = np.exp(1j * phase) * (q @ [np.cos(chi), 1j * np.sin(chi), 0.0])
            _, eps, circular = normalize_global_phase(u1)
            assert circular
            assert abs(eps.real @ eps.imag) <= 1e-15, (chi, phase)


def test_normalize_global_phase_rejects_non_unit():
    with pytest.raises(NotUnitError):
        normalize_global_phase([1.0, 1.0, 0.0])


def test_recover_first_column_trivial():
    chi, rot, _ = recover_first_column(np.array([1.0, 0.0, 0.0]))
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
        chi, rot, _ = recover_first_column(a)
        assert chi == 0.0
        assert rot.varphi == 0.0
        assert np.linalg.norm(compose_rotation(rot)[:, 0] - a) <= 1e-14


def test_recover_first_column_roundtrip():
    g = SeededGenerator(42)
    for _ in range(500):
        chi0 = -np.pi / 4 + 1e-3 + (np.pi / 2 - 2e-3) * g.uniform()
        phi0 = -np.pi + 2 * np.pi * g.uniform()
        theta0 = -np.pi / 2 + np.pi * g.uniform()
        varphi0 = np.pi * g.uniform()
        eps = first_column_oracle(chi0, phi0, theta0, varphi0)
        chi, rot, _ = recover_first_column(eps)
        q = compose_rotation(rot)
        back = np.cos(chi) * q[:, 0] + 1j * np.sin(chi) * q[:, 1]
        assert np.linalg.norm(back - eps) < 1e-11


def test_recover_first_column_rejects_garbage():
    with pytest.raises(InconsistentColumnError):
        recover_first_column(np.array([0.8, 0.1 + 0.2j, 0.0]))


def test_sign_of_chi_generic_columns():
    for chi0, theta in ((0.3, 0.5), (-0.3, 0.5), (0.3, -0.5), (-0.3, -0.5)):
        eps = first_column_oracle(chi0, 0.7, theta, 0.6)
        chi, branch = ellipticity(eps)
        assert branch == "a"
        assert np.sign(chi) == np.sign(chi0)


def test_sign_of_chi_gimbal_fallback():
    # cross-term invariant vanishes at theta = pi/2; the (a3, b3) sign
    # table decides: opposite signs mean positive chi
    eps = first_column_oracle(0.3, 0.7, np.pi / 2, 0.6)
    chi, branch = ellipticity(eps)
    assert branch == "a"
    assert np.sign(chi) == 1.0
    # in branches c (varphi = pi/2) and d2 (varphi = 0) the convention is
    # +1 whatever the composing signs of chi and theta, and the recovery
    # reports the same branch
    for chi in (0.3, -0.3):
        for theta in (np.pi / 2, -np.pi / 2):
            for varphi, want in ((np.pi / 2, "c"), (0.0, "d2")):
                eps = first_column_oracle(chi, 0.7, theta, varphi)
                got, branch = ellipticity(eps)
                assert (np.sign(got), branch) == (1.0, want)
                p = make_params(phi=0.7, theta=theta, varphi=varphi, chi=chi,
                                mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
                rep = recover_params(compose_unitary(p))
                assert rep.branch == want
                assert rep.residual <= 1e-10


def test_extract_core_params_identity():
    mu, a1, a2, a3, b2 = extract_core_params(np.eye(3), 0.0)
    assert (mu, a1, a2, a3) == (0.0, 0.0, 0.0, 0.0)
    assert b2 == pytest.approx(np.pi)


def test_extract_core_params_roundtrip():
    v = compose_core(0.2, 0.8, 0.1, -0.4, 0.9, 1.3)
    mu, a1, a2, a3, b2 = extract_core_params(v, 0.2)
    assert (mu, a1, a2, a3, b2) == pytest.approx((0.8, 0.1, -0.4, 0.9, 1.3))


def test_extract_core_params_structure_violation():
    bad = compose_rotation(RotationAngles(0.0, 0.9, 0.0)).astype(complex)
    with pytest.raises(StructureViolationError, match="structural zero"):
        extract_core_params(bad, 0.0)
    # (3,1) zero kept, but the third-row moduli are not (sin mu, cos mu)
    v = compose_core(0.2, 0.8, 0.1, -0.4, 0.9, 1.3)
    v[2, 1:] *= 1.1
    with pytest.raises(StructureViolationError, match="unit pair"):
        extract_core_params(v, 0.2)
    # a consistent core matrix read with the wrong chi: |v23| != sin(mu) cos(chi)
    v = compose_core(0.2, 0.8, 0.1, -0.4, 0.9, 1.3)
    with pytest.raises(StructureViolationError, match="disagrees"):
        extract_core_params(v, 0.5)


def test_recover_params_identity():
    rep = recover_params(np.eye(3))
    p = rep.params
    assert rep.residual < 1e-14
    assert (p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert p.beta2 == pytest.approx(np.pi)


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
    return replace(p, rotation=replace(p.rotation, theta=theta))


# Each chart face as a map (params, sign, offset) -> params that sits
# offset away from it; sign alternates the side of the two-sided faces.
_FACES = {
    "chi@0": lambda p, s, d: replace(p, chi=s * d),
    "chi@+pi/4": lambda p, s, d: replace(p, chi=np.pi / 4 - d),
    "chi@-pi/4": lambda p, s, d: replace(p, chi=-np.pi / 4 + d),
    "mu@0": lambda p, s, d: replace(p, mu=d),
    "mu@pi/2": lambda p, s, d: replace(p, mu=np.pi / 2 - d),
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


def test_flip_equivalent_composes_same_matrix():
    g = SeededGenerator(45)
    for _ in range(200):
        p = random_params(g)
        q = flip_equivalent(p)
        assert np.linalg.norm(compose_unitary(p) - compose_unitary(q)) < 1e-13


def test_params_distance_propagates_nan():
    # a NaN field must fail every bound the distance is held to
    p = make_params(phi=0.4, theta=-0.3, varphi=1.0, chi=0.2,
                    mu=0.6, alpha1=0.5, alpha2=0.8, alpha3=0.7, beta2=0.2)
    assert np.isnan(params_distance(p, replace(p, chi=np.nan)))
    assert np.isnan(params_distance(p, replace(p, alpha2=np.nan)))
    assert np.isnan(params_distance(replace(p, rotation=RotationAngles(0.4, np.nan, 1.0)), p))


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

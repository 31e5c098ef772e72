from dataclasses import replace

import numpy as np
import pytest

from unitary3.characteristic import (
    REGULARITY_GATE,
    NotPositiveSemidefiniteError,
    ZeroTraceError,
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    purity_indices,
    regularity_report,
)
from unitary3.linalg import FloatRangeError, eig_hermitian3
from unitary3.parametrization import NotUnitaryError, compose_core, compose_unitary
from unitary3.rotations import RotationAngles, compose_rotation
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_params, random_psd_hermitian
from unitary3.selftest import middle_spectrum

from oracles import lapack_eigenvalues


def test_purity_indices_pure():
    e = eig_hermitian3(np.diag([1.0, 0.0, 0.0]))
    p = purity_indices(e)
    assert (p.P1, p.P2) == (1.0, 1.0)


def test_purity_indices_unpolarized():
    p = purity_indices(eig_hermitian3(np.eye(3)))
    assert p.P1 == pytest.approx(0.0)
    assert p.P2 == pytest.approx(0.0)


def test_purity_indices_middle():
    p = purity_indices(eig_hermitian3(np.diag([0.5, 0.5, 0.0])))
    assert p.P1 == pytest.approx(0.0)
    assert p.P2 == pytest.approx(1.0)


def test_decomposition_pure_input():
    c = characteristic_decomposition(np.diag([2.0, 0.0, 0.0]))
    assert c.purity.P1 == pytest.approx(1.0)
    assert np.allclose(c.reconstruct(), np.diag([2.0, 0.0, 0.0]), atol=1e-13)


def test_decomposition_identity_input():
    c = characteristic_decomposition(np.eye(3))
    assert c.coefficients == pytest.approx((0.0, 0.0, 1.0))
    assert np.allclose(c.Ru_hat, np.eye(3) / 3.0)


def test_decomposition_sampled_spectrum():
    g = SeededGenerator(51)
    u = generate_haar_unitary(g)
    r = u @ np.diag([0.6, 0.3, 0.1]) @ u.conj().T
    c = characteristic_decomposition(r)
    assert c.coefficients == pytest.approx((0.3, 0.4, 0.3), abs=1e-12)
    assert np.linalg.norm(c.reconstruct() - r) <= 1e-12 * c.traceR


def test_decomposition_random_reconstruction():
    g = SeededGenerator(52)
    for _ in range(300):
        r = random_psd_hermitian(g)
        c = characteristic_decomposition(r)
        assert np.linalg.norm(c.reconstruct() - r) <= 1e-12 * c.traceR
        assert -1e-12 <= c.purity.P1 <= c.purity.P2 <= 1.0 + 1e-12


def test_purity_small_scale_invariance():
    # P1 and P2 depend on the normalized spectrum only, so scaling R down
    # toward underflow or up toward overflow must not move them.
    g = SeededGenerator(32)
    for _ in range(50):
        r = random_psd_hermitian(g)
        p = characteristic_decomposition(r).purity
        for scale in (1e-250, 1e-200, 1e-100, 1e-10, 1e3, 1e6, 1e100, 1e250):
            q = characteristic_decomposition(r * scale).purity
            assert abs(q.P1 - p.P1) <= 1e-12
            assert abs(q.P2 - p.P2) <= 1e-12


def test_decomposition_near_float_max():
    # Entries up to the largest float: the solve runs on R divided by a
    # power of two, so nothing overflows and no warning is raised
    # (RuntimeWarnings are errors under the test configuration).
    for d in ([1.5e308, 1.0, 1.0], [1e308, 5e307, 1e307]):
        rep = regularity_report(np.diag(d))
        c = rep.components
        assert c.eigen.values.tolist() == pytest.approx(d, rel=1e-15)
        assert c.traceR == sum(d)
        assert c.purity.P1 == pytest.approx((d[0] - d[1]) / sum(d), rel=1e-15)
        assert c.purity.P2 == pytest.approx((d[0] + d[1] - 2.0 * d[2]) / sum(d), rel=1e-15)
        for m in (c.Rp_hat, c.Rm_hat, c.eigen.vectors, c.eigen.normalized):
            assert np.isfinite(m).all()
        assert (rep.chi_m, rep.regular) == (0.0, True)


def test_float_range_rejected():
    # A finite input whose trace, eigenvalue or entry modulus lies beyond the
    # largest float raises the typed error instead of returning NaN.
    a = 1e308
    indefinite = np.array([[0.0, a, a], [a, 0.0, a], [a, a, 0.0]])  # eigenvalue 2e308
    huge_entry = np.diag([1.0, 1.0, 1.0]).astype(complex)
    huge_entry[0, 1] = complex(1.5e308, 1.5e308)
    huge_entry[1, 0] = huge_entry[0, 1].conjugate()
    for r, fns in ((np.diag([1e308, 1e308, 1.0]), (eig_hermitian3, characteristic_decomposition,
                                                   regularity_report)),
                   (indefinite, (eig_hermitian3,)), (huge_entry, (eig_hermitian3,))):
        for fn in fns:
            with pytest.raises(FloatRangeError, match="beyond the largest float"):
                fn(r)


def test_decomposition_rejects_zero_trace():
    with pytest.raises(ZeroTraceError):
        characteristic_decomposition(np.zeros((3, 3)))


def test_decomposition_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        characteristic_decomposition(np.diag([2.0, 1.0, -1.0]))


def test_middle_component_identity():
    m = middle_component(np.eye(3))
    assert np.allclose(m, np.diag([0.5, 0.5, 0.0]))


def test_middle_component_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        middle_component(np.eye(3) * 2.0)
    # entries whose M^H M or its norm overflow: the same error, no warning
    for big in (1e100, 1e200):
        u = np.eye(3, dtype=complex)
        u[1, 1] = u[2, 1] = u[1, 2] = big
        u[2, 2] = -big
        with pytest.raises(NotUnitaryError):
            middle_component(u)


def test_middle_component_spectrum():
    assert middle_spectrum(SeededGenerator(53), 300) <= 1e-13


def test_intrinsic_middle_values():
    assert np.allclose(intrinsic_middle(0.0), np.diag([0.0, 0.5, 0.5]))
    m = intrinsic_middle(np.pi / 4)
    want = np.array([[0.25, 0.25j, 0], [-0.25j, 0.25, 0], [0, 0, 0.5]])
    assert np.allclose(m, want)


def test_u3_form_middle_is_intrinsic():
    g = SeededGenerator(54)
    for _ in range(300):
        chi = -np.pi / 4 + np.pi / 2 * g.uniform()
        u = compose_core(
            chi,
            mu=np.pi / 2 * g.uniform(),
            alpha1=-np.pi + 2 * np.pi * g.uniform(),
            alpha2=-np.pi + 2 * np.pi * g.uniform(),
            alpha3=-np.pi + 2 * np.pi * g.uniform(),
            beta2=-np.pi + 2 * np.pi * g.uniform(),
        )[:, [1, 2, 0]]
        assert np.linalg.norm(middle_component(u) - intrinsic_middle(chi)) <= 1e-13


def test_rotation_covariance():
    g = SeededGenerator(55)
    for _ in range(100):
        chi = -np.pi / 4 + np.pi / 2 * g.uniform()
        q = compose_rotation(
            RotationAngles(
                -np.pi + 2 * np.pi * g.uniform(),
                -np.pi / 2 + np.pi * g.uniform(),
                np.pi * g.uniform(),
            )
        )
        u = q @ compose_core(chi, np.pi / 2 * g.uniform(), 0.0, 0.0, 0.0, 0.0)[:, [1, 2, 0]]
        want = q @ intrinsic_middle(chi) @ q.T
        assert np.linalg.norm(middle_component(u) - want) <= 1e-12


def test_basis_invariance_of_middle():
    # Rm_hat is the half-projector onto the top-two eigenspace: mixing the
    # top two eigenvectors by any unitary leaves it unchanged.
    g = SeededGenerator(56)
    u = generate_haar_unitary(g)
    r = u @ np.diag([0.5, 0.5, 0.1]) @ u.conj().T
    c1 = characteristic_decomposition(r)
    w = np.eye(3, dtype=complex)
    w[:2, :2] = np.array([[0.6, 0.8], [-0.8, 0.6]])
    u2 = u @ w
    rm2 = middle_component(u2)
    assert np.linalg.norm(c1.Rm_hat - rm2) <= 1e-12


def test_regularity_report_regular():
    rep = regularity_report(np.diag([0.4, 0.4, 0.2]))
    assert rep.regular
    assert rep.m1_hat == pytest.approx(0.5, abs=1e-12)
    assert rep.chi_m == pytest.approx(0.0, abs=1e-10)


def test_regularity_report_chi_values():
    for chi in (0.0, np.pi / 12, np.pi / 6, np.pi / 4):
        rep = regularity_report(intrinsic_middle(chi))
        assert rep.m1_hat == pytest.approx(0.5, abs=1e-10)
        assert rep.m2_hat == pytest.approx(np.cos(chi) ** 2 / 2, abs=1e-10)
        assert rep.m3_hat == pytest.approx(np.sin(chi) ** 2 / 2, abs=1e-10)
        oracle = lapack_eigenvalues(characteristic_decomposition(intrinsic_middle(chi)).Rm_hat.real)
        assert np.max(np.abs(np.array([rep.m1_hat, rep.m2_hat, rep.m3_hat]) - oracle)) <= 1e-10
        assert abs(rep.chi_m) == pytest.approx(chi, abs=1e-8)
        assert rep.regular == (chi == 0.0)
    assert rep.m2_hat == pytest.approx(0.25)  # maximal nonregularity


def test_regularity_verdict_at_gate():
    # third eigenvector e^{i alpha1} Q (cos chi_m, i sin chi_m, 0), with
    # |chi_m| on both sides of REGULARITY_GATE
    g = SeededGenerator(59)
    for chi_m in (3e-9, 5e-9, 8e-9, 9.5e-9, 1.05e-8, 1.2e-8, 2e-8):
        for i in range(50):
            p = replace(random_params(g), chi=(-1) ** i * chi_m)
            u = compose_unitary(p)[:, [1, 2, 0]]
            rep = regularity_report(u @ np.diag([0.6, 0.3, 0.1]) @ u.conj().T)
            assert rep.regular == (chi_m <= REGULARITY_GATE)
            assert abs(abs(rep.chi_m) - chi_m) <= 1e-6 * chi_m


def test_regularity_spectrum_sums():
    g = SeededGenerator(57)
    for _ in range(100):
        rep = regularity_report(random_psd_hermitian(g))
        assert rep.m1_hat + rep.m2_hat + rep.m3_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.m1_hat == pytest.approx(0.5, abs=1e-12)
        assert abs(rep.chi_m) <= np.pi / 4 + 1e-12

import math

import numpy as np
import pytest

import unitary3.characteristic
from unitary3.characteristic import (
    _PSD_TOL,
    REGULARITY_GATE,
    NotPositiveSemidefiniteError,
    ZeroTraceError,
    _decompose,
    _middle,
    _regularity,
    characteristic_decomposition,
    intrinsic_middle,
    middle_component,
    purity_indices,
    regularity_report,
)
from unitary3.linalg import (FloatRangeError, _eig, _unitarity_distance, as_matrix3, eig_hermitian3,
                             unitarity_distance)
from unitary3.parametrization import (RECOVERY_TOL, NotUnitaryError, _basis_rows, _core_rows, _recover_rows,
                                      _unitary_rows, compose_core, compose_unitary, recover_params)
from unitary3.rotations import (RotationAngles, _rotation_angles, _rotation_rows, compose_rotation,
                                extract_rotation_angles)
from unitary3.sampling import (SeededGenerator, _haar_rows, _psd_rows, generate_haar_unitary, random_params,
                               random_psd_hermitian)
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
    # a trace at or below the smallest normal float, 2**-1022, counts as zero
    for d in ([0.0, 0.0, 0.0], [2.0 ** -1022, 0.0, 0.0], [5e-324, 5e-324, 0.0]):
        with pytest.raises(ZeroTraceError):
            characteristic_decomposition(np.diag(d))


def test_decomposition_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        characteristic_decomposition(np.diag([2.0, 1.0, -1.0]))


def test_psd_gate_is_inclusive():
    # Here the smallest eigenvalue is exactly -_PSD_TOL * trace: the gate
    # admits it, and one float lower it raises.
    c = -9.999999999e-11
    e = characteristic_decomposition(np.diag([0.6, 0.4, c])).eigen
    assert e.values[2] == c == -_PSD_TOL * e.trace
    with pytest.raises(NotPositiveSemidefiniteError):
        characteristic_decomposition(np.diag([0.6, 0.4, math.nextafter(c, -1.0)]))


def test_purity_bound_at_psd_gate():
    # The gate admits a smallest eigenvalue down to -_PSD_TOL * trace, so
    # P2 = 1 - 3 l3 may exceed 1, by at most 3 * _PSD_TOL plus rounding.
    c = characteristic_decomposition(np.diag([0.6, 0.4, -0.99e-10]))
    assert 1.0 < c.purity.P2 <= 1.0 + 3 * _PSD_TOL
    assert -3 * _PSD_TOL <= c.coefficients[2] < 0.0
    with pytest.raises(NotPositiveSemidefiniteError):
        characteristic_decomposition(np.diag([0.6, 0.4, -1.01e-10]))


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
            p = random_params(g)._replace(chi=(-1) ** i * chi_m)
            u = compose_unitary(p)[:, [1, 2, 0]]
            rep = regularity_report(u @ np.diag([0.6, 0.3, 0.1]) @ u.conj().T)
            assert rep.regular == (chi_m <= REGULARITY_GATE)
            assert abs(abs(rep.chi_m) - chi_m) <= 1e-6 * chi_m


def test_regularity_gate_pinned():
    # R = 0.6 Q M(chi) Q^T + 0.1 I, M = intrinsic_middle, has chi_m = chi;
    # at 0.7 and 1.5 times the gate's value, 1e-8 (written out, so that a
    # changed REGULARITY_GATE fails), it is regular and then not.
    q = compose_rotation(RotationAngles(0.3, 0.5, -0.7))
    for factor, regular in ((0.7, True), (1.5, False)):
        chi = factor * 1e-8
        rep = regularity_report(0.6 * q @ intrinsic_middle(chi) @ q.T + 0.1 * np.eye(3))
        assert rep.regular is regular, factor
        assert abs(rep.chi_m - chi) <= 1e-15 * chi, (factor, rep.chi_m)


def test_regularity_gate_is_inclusive(monkeypatch):
    # A matrix whose |chi_m| equals REGULARITY_GATE is regular, and it is
    # not one float below.
    u = compose_unitary(random_params(SeededGenerator(59))._replace(chi=5e-9))[:, [1, 2, 0]]
    r = u @ np.diag([0.6, 0.3, 0.1]) @ u.conj().T
    chi_m = abs(regularity_report(r).chi_m)
    monkeypatch.setattr(unitary3.characteristic, "REGULARITY_GATE", chi_m)
    assert regularity_report(r).regular
    monkeypatch.setattr(unitary3.characteristic, "REGULARITY_GATE", math.nextafter(chi_m, 0.0))
    assert not regularity_report(r).regular


def test_regularity_spectrum_sums():
    g = SeededGenerator(57)
    for _ in range(100):
        rep = regularity_report(random_psd_hermitian(g))
        assert rep.m1_hat + rep.m2_hat + rep.m3_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.m1_hat == pytest.approx(0.5, abs=1e-12)
        assert abs(rep.chi_m) <= np.pi / 4 + 1e-12


_FLOAT_FIELDS = ("values", "normalized")
_COMPLEX_FIELDS = ("vectors", "Rp_hat", "Rm_hat", "Ru_hat")


def _array_fields(rec):
    """(name, array) of every array field of a coherency record, the
    records it holds included."""
    for name, value in zip(rec._fields, rec):
        if isinstance(value, np.ndarray):
            yield name, value
        elif hasattr(value, "_fields"):
            yield from _array_fields(value)


def _assert_public_is_kernel(public, kernel):
    """Every field of the public record holds its kernel's value bit for
    bit, signed zeros included, with the dtype and shape of its kind."""
    assert type(public) is type(kernel)
    for name, p, k in zip(public._fields, public, kernel):
        if hasattr(p, "_fields"):
            _assert_public_is_kernel(p, k)
        elif isinstance(p, np.ndarray):
            if name in _FLOAT_FIELDS:
                assert (p.dtype, p.shape) == (np.float64, (3,)), name
                want = list(k)
            else:
                assert name in _COMPLEX_FIELDS and (p.dtype, p.shape) == (np.complex128, (3, 3)), name
                # The kernel lists the eigenvectors as columns, the grids as rows.
                want = [list(row) for row in (zip(*k) if name == "vectors" else k)]
            assert repr(p.tolist()) == repr(want), name
        else:
            assert repr(p) == repr(k), name


def _coherency_inputs():
    g = SeededGenerator(41)
    for rank in (1, 2, 3):
        a = g.complex_gauss_matrix()
        a[:, rank:] = 0.0
        r = a @ a.conj().T
        r /= np.trace(r).real
        for k in (-1000, -300, 0, 300, 1023):
            yield r * 2.0**k


def test_public_records_are_their_kernels():
    # Each public coherency operation is its kernel's record with arrays in
    # its list fields: the same bits, one dtype per kind, and writeable
    # arrays that share no element (they are views of one buffer per dtype).
    for r in _coherency_inputs():
        rows = as_matrix3(r)
        for public, kernel, arrays in ((eig_hermitian3(r), _eig(rows), 3),
                                       (characteristic_decomposition(r), _decompose(rows), 6),
                                       (regularity_report(r), _regularity(rows), 6)):
            _assert_public_is_kernel(public, kernel)
            fields = dict(_array_fields(public))
            assert len(fields) == arrays
            for name, target in fields.items():
                before = {other: a.copy() for other, a in fields.items() if other != name}
                assert target.flags.writeable, name
                target[...] = 7.0
                for other, a in before.items():
                    assert repr(fields[other].tolist()) == repr(a.tolist()), (name, other)


def _assert_array_is_rows(array, rows):
    """The array holds the kernel's rows bit for bit, signed zeros included."""
    assert repr(array.tolist()) == repr([list(row) for row in rows])


def test_public_arrays_are_their_kernels():
    # The selftest measures the kernels' rows; each public array function
    # is its kernel bit for bit, so every property the selftest and the
    # acceptance suite check binds the public array API too.
    for seed in range(100):
        u_rows, u = _haar_rows(SeededGenerator(seed)), generate_haar_unitary(SeededGenerator(seed))
        _assert_array_is_rows(u, u_rows)
        _assert_array_is_rows(random_psd_hermitian(SeededGenerator(seed)), _psd_rows(SeededGenerator(seed)))
        p = random_params(SeededGenerator(seed))
        v_rows, v = _unitary_rows(p), compose_unitary(p)
        _assert_array_is_rows(v, v_rows)
        _assert_array_is_rows(compose_core(*p[1:]), _core_rows(*p[1:]))
        q_rows, q = _rotation_rows(p.rotation), compose_rotation(p.rotation)
        _assert_array_is_rows(q, q_rows)
        assert repr(extract_rotation_angles(q)) == repr(_rotation_angles(q_rows))
        for m, rows in ((u, u_rows), (v, v_rows)):
            assert repr(recover_params(m)) == repr(_recover_rows(rows, RECOVERY_TOL))
            assert repr(unitarity_distance(m)) == repr(_unitarity_distance(rows))
            c1, c2, _ = zip(*rows)
            _assert_array_is_rows(middle_component(m), _middle(c1, c2))
        _assert_array_is_rows(intrinsic_middle(p.chi), _middle(*_basis_rows(p.chi)[1:]))

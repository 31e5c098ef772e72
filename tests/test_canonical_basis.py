"""The paper's Jones vectors on the code path: the basis N(chi) and the
columns of the core matrix built from it."""
import math

import numpy as np
import pytest

from unitary3.linalg import unitarity_distance
from unitary3.parametrization import canonical_basis, compose_core, compose_unitary
from unitary3.sampling import SeededGenerator, random_params


def test_canonical_basis_linear():
    assert np.array_equal(canonical_basis(0.0), np.eye(3))


def test_canonical_basis_circular():
    n1, n2, _ = canonical_basis(np.pi / 4).T
    s = np.sqrt(0.5)
    assert np.allclose(n1, [s, 1j * s, 0.0])
    assert np.allclose(n2, [1j * s, s, 0.0])


def test_canonical_basis_in_frame_self_product():
    # The first column of U is n1 re-expressed in the lab frame; its
    # rotation-invariant self-product u1.u1 = e^{2i alpha1} cos(2 chi) is
    # what _normalize_global_phase reads alpha1 from.
    g = SeededGenerator(31)
    for _ in range(200):
        p = random_params(g)
        u1 = compose_unitary(p)[:, 0]
        assert np.linalg.norm(u1) == pytest.approx(1.0)
        assert abs(np.sum(u1 * u1)) == pytest.approx(np.cos(2 * p.chi), abs=1e-12)


def test_canonical_basis_orthonormal():
    g = SeededGenerator(32)
    chis = [0.0, 0.37, np.pi / 4, -np.pi / 4]
    chis += [-np.pi / 4 + np.pi / 2 * g.uniform() for _ in range(100)]
    for chi in chis:
        assert unitarity_distance(canonical_basis(chi)) < 1e-15


def test_compose_core_columns_orthonormal():
    # Columns (e^{i alpha1} n1, v2, v3) of the core matrix on and off the
    # chi and mu faces; random interior draws are test_compose_core_unitary's.
    for chi in (0.0, 0.37, np.pi / 4, -np.pi / 4):
        for mu in (0.0, 0.7, np.pi / 2):
            v = compose_core(chi, mu, 0.1, -2.0, 3.0, 0.4)
            assert unitarity_distance(v) < 1e-15
            assert np.allclose(v[:, 0], np.exp(0.1j) * canonical_basis(chi)[:, 0])


def test_compose_core_degenerate_mu():
    # mu = 0: v2 lies in the polarization plane (along n2), v3 along the
    # normal n3; mu = pi/2: the roles swap.
    nonzero = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    v = compose_core(0.3, 0.0, 0.1, 0.2, 0.3, 0.4)
    assert np.array_equal(v != 0, nonzero)
    assert np.allclose(v[2, 2], -np.exp(1j * (0.4 - 0.2 + 0.3)))
    v = compose_core(0.3, np.pi / 2, 0.1, 0.2, 0.3, 0.4)
    assert np.all(np.abs(v[:2, 1]) < 1e-16) and np.all(np.abs(v[2, 2]) < 1e-16)
    assert np.allclose(np.abs(v), np.abs(canonical_basis(0.3))[:, [0, 2, 1]])
    with pytest.raises(ValueError, match="mu must lie"):
        compose_core(0.3, 2.0, 0.1, 0.2, 0.3, 0.4)


def float_basis(chi):
    """N(chi) from math's cos and sin; i sin chi has the real part +0."""
    c, i_s = math.cos(chi), complex(0.0, math.sin(chi))
    return np.array([[c, i_s, 0.0], [i_s, c, 0.0], [0.0, 0.0, 1.0]], dtype=complex)


def float_compose_core(chi, mu, alpha1, alpha2, alpha3, beta2):
    """V1 column by column in the README's arithmetic: a factor r e^{ia}
    (math's cos and sin, times r) times cos chi or i sin chi is two float
    products, and the zeros of N(chi) are exact."""
    c, s = math.cos(chi), math.sin(chi)
    cm, sm = math.cos(mu), math.sin(mu)

    def factor(r, a):
        return r * math.cos(a), r * math.sin(a)

    def times_cos(f):
        return complex(f[0] * c, f[1] * c)

    def times_i_sin(f):
        return complex(-f[1] * s, f[0] * s)

    e1, w11, w12 = factor(1.0, alpha1), factor(cm, alpha2), factor(sm, alpha3)
    w21, w22 = factor(sm, beta2), factor(-cm, beta2 - alpha2 + alpha3)
    columns = [
        (times_cos(e1), times_i_sin(e1), 0j),
        (times_i_sin(w11), times_cos(w11), complex(*w21)),
        (times_i_sin(w12), times_cos(w12), complex(*w22)),
    ]
    return np.array(columns).T


def test_compose_core_bits():
    # The composition is its documented float arithmetic bit for bit, signs
    # of zero included, inside the chart and on its exact faces.
    g = SeededGenerator(33)
    tuples = []
    for _ in range(2000):
        p = random_params(g)
        tuples.append((p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2))
    for chi in (0.0, -0.0, np.pi / 4, -np.pi / 4):
        for mu in (0.0, np.pi / 2):
            for phases in ((0.0, 0.0, 0.0, 0.0), (-0.0, np.pi, -0.0, -np.pi)):
                tuples.append((chi, mu) + phases)
            for _ in range(50):
                p = random_params(g)
                tuples.append((chi, mu, p.alpha1, p.alpha2, p.alpha3, p.beta2))
    for t in tuples:
        assert compose_core(*t).tobytes() == float_compose_core(*t).tobytes(), t
        assert canonical_basis(t[0]).tobytes() == float_basis(t[0]).tobytes(), t

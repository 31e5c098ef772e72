import itertools
import math
import struct

import numpy as np
import pytest

from unitary3.linalg import FOLD_GATE, NonFiniteError
from unitary3.rotations import (
    NotOrthogonalError,
    RotationAngles,
    compose_rotation,
    extract_rotation_angles,
    wrap_angle,
)
from unitary3.sampling import SeededGenerator

from oracles import rotation_product


def test_wrap_angle_ranges():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3.0 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    # the range is half-open: -pi gives pi, and x an ulp above pi its exact
    # remainder x - 2 pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(math.nextafter(math.pi, 4)) == -math.nextafter(math.pi, 0)
    # the identity on (-pi, pi]: forming pi - x and subtracting it from pi
    # once gave 0.2999999999999998 and -0.0
    assert wrap_angle(0.3) == 0.3
    assert wrap_angle(1e-17) == 1e-17


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_wrap_angle_rejects_non_finite(x):
    # as flip_equivalent, RotationAngles.canonical and serialize_params do;
    # NaN once came back as NaN, and an infinity raised math's untyped
    # "math domain error"
    with pytest.raises(NonFiniteError, match="angle .* is not finite"):
        wrap_angle(x)


def test_compose_matches_factor_product():
    g = SeededGenerator(21)
    for _ in range(500):
        phi = -np.pi + 2 * np.pi * g.uniform()
        theta = -np.pi / 2 + np.pi * g.uniform()
        varphi = np.pi * g.uniform()
        q = compose_rotation(RotationAngles(phi, theta, varphi))
        assert np.allclose(q, rotation_product(phi, theta, varphi), atol=1e-14)


def test_compose_simple_values():
    q = compose_rotation(RotationAngles(0.0, 0.0, np.pi / 2))
    assert np.allclose(q, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
    assert np.allclose(compose_rotation(RotationAngles(0.0, 0.0, 0.0)), np.eye(3))


def float_compose_rotation(phi, theta, varphi):
    """Q from the closed-form entries in Python floats, math's cos and sin."""
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cv, sv = math.cos(varphi), math.sin(varphi)
    return np.array(
        [
            [cf * ct * cv + sf * sv, -cf * ct * sv + sf * cv, st * cf],
            [-sf * ct * cv + cf * sv, sf * ct * sv + cf * cv, -sf * st],
            [-st * cv, st * sv, ct],
        ]
    )


def test_compose_rotation_bits():
    # The composition is the closed form in Python floats bit for bit, each
    # entry summed left to right, signs of zero included, inside the chart
    # and at theta = 0, +-pi/2.
    g = SeededGenerator(22)
    thetas = [-np.pi / 2 + np.pi * g.uniform() for _ in range(1000)]
    thetas += [0.0, -0.0, np.pi / 2, -np.pi / 2] * 50
    triples = [(-np.pi + 2 * np.pi * g.uniform(), theta, np.pi * g.uniform()) for theta in thetas]
    triples += [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (np.pi, np.pi / 2, 0.0), (-np.pi, -np.pi / 2, -0.0)]
    for t in triples:
        assert compose_rotation(RotationAngles(*t)).tobytes() == float_compose_rotation(*t).tobytes(), t


def test_extract_rejects_bad_input():
    # Entries of 1e100 would overflow Q^T Q's norm and 1e200 Q^T Q itself;
    # the unitarity gate rejects them first, without a warning (a warning
    # is an error under the test configuration).
    for q in (np.eye(3) * 2.0, np.diag([1.0, 1.0, -1.0]), np.full((3, 3), 1e100),
              np.full((3, 3), 1e200)):
        with pytest.raises(NotOrthogonalError):
            extract_rotation_angles(q)


def test_extract_rejects_complex_input():
    # A rotation is real: an imaginary part is rejected, not dropped with a
    # numpy ComplexWarning (an error under the test configuration).  An
    # imaginary part of -0.0 is zero and passes, and a non-finite entry
    # raises NonFiniteError, as in every other public operation.
    for q in (np.eye(3) + 1e-3j, np.eye(3) + 1e-300j):
        with pytest.raises(NotOrthogonalError, match="imaginary"):
            extract_rotation_angles(q)
    assert extract_rotation_angles(np.eye(3) - 0.0j) == extract_rotation_angles(np.eye(3))
    with pytest.raises(NonFiniteError, match="non-finite"):
        extract_rotation_angles(np.full((3, 3), np.nan))


def test_extract_roundtrip_generic():
    g = SeededGenerator(22)
    for _ in range(500):
        a = RotationAngles(
            phi=-np.pi + 2 * np.pi * g.uniform(),
            theta=-np.pi / 2 + np.pi * g.uniform(),
            varphi=np.pi * g.uniform(),
        )
        q = compose_rotation(a)
        b, gimbal = extract_rotation_angles(q)
        assert np.linalg.norm(compose_rotation(b) - q) < 1e-13
        if not gimbal:
            assert b.phi == pytest.approx(wrap_angle(a.phi), abs=1e-9)
            assert b.theta == pytest.approx(a.theta, abs=1e-9)
            assert b.varphi == pytest.approx(a.varphi, abs=1e-9)


def test_extract_gimbal_lock():
    a, gimbal = extract_rotation_angles(np.eye(3))
    assert gimbal
    assert (a.phi, a.theta, a.varphi) == (0.0, 0.0, 0.0)
    q = compose_rotation(RotationAngles(0.7, 0.0, 0.4))
    b, gimbal = extract_rotation_angles(q)
    assert gimbal
    assert np.linalg.norm(compose_rotation(b) - q) < 1e-13


def test_extract_gimbal_gate_is_inclusive():
    # |sin theta| equal to FOLD_GATE is gimbal lock (theta folds to 0 and
    # the flag is set); one ulp above it, theta is read.
    above = math.nextafter(FOLD_GATE, 1.0)
    assert extract_rotation_angles(compose_rotation(RotationAngles(0.0, FOLD_GATE, 0.0))) == ((0.0, 0.0, 0.0), True)
    assert extract_rotation_angles(compose_rotation(RotationAngles(0.0, above, 0.0))) == ((0.0, above, 0.0), False)


def test_extract_gimbal_theta_pi():
    # Q[2,2] = -1: the gimbal lies outside the chart, at theta = pi
    for q in (np.diag([-1.0, 1.0, -1.0]), compose_rotation(RotationAngles(0.7, np.pi, 0.0))):
        a, gimbal = extract_rotation_angles(q)
        assert gimbal
        assert a.theta == np.pi
        assert np.linalg.norm(compose_rotation(a) - q) < 1e-13


def test_extract_signed_permutations():
    # Exact zeros everywhere, gimbal and lower hemisphere included: each of
    # the 24 proper signed permutation matrices composes back from its
    # angles, and each of the 24 improper ones is rejected.
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = np.zeros((3, 3))
            q[range(3), perm] = signs
            if np.linalg.det(q) > 0:
                a, _ = extract_rotation_angles(q)
                assert np.abs(compose_rotation(a) - q).max() <= 1e-15, q
            else:
                with pytest.raises(NotOrthogonalError, match="not proper"):
                    extract_rotation_angles(q)


def test_extract_lower_hemisphere():
    # Q with Q[2,2] < 0 lies outside the canonical chart; the recomposed
    # matrix must still match even though |theta| exceeds pi/2.
    q = compose_rotation(RotationAngles(0.2, 2.5, 0.9))
    b, _ = extract_rotation_angles(q)
    assert np.linalg.norm(compose_rotation(b) - q) < 1e-13


def test_canonical_varphi_wrap():
    # -1e-17 % (2 pi) rounds to 2 pi itself, which folds twice
    for angles in (RotationAngles(0.3, 0.4, 3 * np.pi / 2), RotationAngles(0.3, 1.0, -1e-17)):
        a = angles.canonical()
        assert 0.0 <= a.varphi < np.pi
        assert np.linalg.norm(compose_rotation(a) - compose_rotation(angles)) < 1e-14


def test_canonical_double_fold_cancels():
    # Two folds each negate theta and add pi to phi, so they cancel exactly:
    # phi comes back as it went in, not 0.3 + 2 pi - 2 pi rounded.
    assert RotationAngles(0.3, 1.0, -1e-17).canonical() == (0.3, 1.0, 0.0)
    # One fold still moves phi by pi and negates theta.
    assert RotationAngles(0.3, 1.0, 4.0).canonical() == (0.3 - math.pi, -1.0, 4.0 - math.pi)


def test_canonical_reads_python_floats():
    # canonical() reads each angle with float() first.  A float32 triple
    # was once folded in float32 (a Python float operand takes a numpy
    # scalar's type), and its rotation then missed the input's by up to
    # 6.2e-7 on 2,000 such triples; an int theta of 0 under an odd fold
    # came out 0.0, where the float triple gives -0.0.
    # Every kind of triple now gives three Python floats, bit for bit the
    # canonical of its float() triple, whose rotation is the input's.
    rng = np.random.default_rng(1)
    reals = rng.uniform(-4.0, 4.0, size=(300, 3)).tolist()
    ints = rng.integers(-4, 5, size=(100, 3)).tolist() + [[1, 0, 4], [0, 0, -1]]
    triples = [(kind, t) for kind in (np.float16, np.float32, np.float64, float) for t in reals]
    triples += [(int, t) for t in ints]
    for kind, t in triples:
        angles = RotationAngles(*map(kind, t))
        got = angles.canonical()
        want = RotationAngles(*map(float, angles)).canonical()
        assert all(type(x) is float for x in got), (kind, t)
        assert struct.pack("3d", *got) == struct.pack("3d", *want), (kind, t)
        assert np.max(np.abs(compose_rotation(got) - compose_rotation(angles))) <= 1e-14, (kind, t)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("i", range(3))
def test_canonical_rejects_non_finite(i, bad):
    # An infinite varphi once came out as varphi = nan, an infinite theta
    # passed through and an infinite phi raised math's untyped ValueError.
    angles = [0.1, 0.2, 0.3]
    angles[i] = bad
    with pytest.raises(NonFiniteError, match="non-finite"):
        RotationAngles(*angles).canonical()

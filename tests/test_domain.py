"""The documented domain, corners included, as properties.

Recovery: every bounded coordinate of the composed tuple is drawn either
uniformly or at one of its faces plus or minus an offset from 0 up to 1e-4,
so several faces meet in one draw; a random global phase multiplies the
unitary.  The recovery must meet the residual bound and land in the README's
angle ranges.  The literal tests below pin the boundary values that once
came out of those ranges.

Coherency: V diag(l) V† with ties and zeros in l, off-diagonal entries
zeroed or shrunk into the subnormals and the whole matrix scaled by 2**-1074
to 2**1023.  The report must raise a typed error or come with orthonormal
eigenvectors that reconstruct the input.

Symmetries: recovery commutes with complex conjugation and with phases on
the columns of a Haar unitary, and of chart draws with |chi| down to 1e-8,
where the bound grows as 1/|chi|.  Each expected tuple is checked against
the transformed unitary through the oracle's 60-digit product, then against
what recovery returns.  A rotation P on the left moves the recovered
rotation to P Q and keeps the six core fields, over Haar unitaries and over
chart draws with |chi| down to 1e-8, where the bound grows as 1/|chi|.  The
fourth representative of a unitary, outside the chart's theta range,
composes to it, and recovery of that unitary returns the chart's own.

Invariants: over Haar unitaries and random_params draws at margins 1e-2 to
1e-8, each composed by the oracle, the recovered core gives V1^T V1 = U^T U and
S00 = e^{2i alpha1} cos 2chi within 1e-14, and the spins of U's columns
close a triangle whose first side is sin 2chi times Q's third column, turn
with a rotation on the left and keep under phases on the columns.  The
chart's Jacobian, by central differences of the oracle, has the
determinant of the README's Haar density.

Documents: the parsers, on arbitrary JSON values and arbitrary text, return
a result or raise MalformedDocumentError.

Composition: a tuple of any finite fields (signed zeros, integral values,
subnormals, magnitudes up to the largest float, phases about the bound
2**8) is written by serialize_params and by the recover writer, and read
back bit for bit.  Composed, through the library and through what the CLI's
``compose`` writes, it is within 1e-13 of unitary or raises a typed error,
and recovery accepts every matrix ``compose`` writes.

Settings (QUIET, shared by every property): derandomize and no example
database, so every run draws the same examples, and quiet verbosity, so a
failure does not run hypothesis's patch writer.  That writer imports libcst,
whose DeprecationWarnings are errors under this suite's warning filter and
would hide the failure; pytest still shows the failing draw through the
assertion message and the frame's arguments.
"""
import cmath
import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import Verbosity, assume, given, settings
from hypothesis import strategies as st

from unitary3.characteristic import regularity_report
from unitary3.documents import (MATRIX_KINDS, MalformedDocumentError, _matrix_text, _recovery_text,
                                parse_matrix, parse_params, serialize_params)
from unitary3.linalg import Unitary3Error, unitarity_distance
from unitary3.parametrization import (ParameterRangeError, RecoveryReport, UnitaryParams, _core_rows, _unitary_rows,
                                      compose_core, compose_unitary, params_distance, recover_params)
from unitary3.rotations import RotationAngles, compose_rotation, wrap_angle
from unitary3.sampling import SeededGenerator, generate_haar_unitary, random_params

from oracles import mp_compose, mp_jacobian, rotation_product
from test_cli import run_cli
from test_documents import params_bits
from test_parametrization import THETA_MAX

PI = math.pi
# The recovered alpha1 is read off V1[0, 0] and carries its rounding.
ALPHA1_MAX = PI / 2 + 1e-15

QUIET = settings(derandomize=True, database=None, deadline=None, verbosity=Verbosity.quiet)
OFFSETS = (0.0, 5e-324, 1e-300) + tuple(10.0 ** -k for k in range(16, 3, -1))


def assert_in_ranges(p: UnitaryParams, origin) -> None:
    """The README's angle ranges, on a tuple recovered from ``origin``."""
    r = p.rotation
    for name, x in (("phi", r.phi), ("alpha2", p.alpha2), ("alpha3", p.alpha3), ("beta2", p.beta2)):
        assert -PI < x <= PI, (name, p, origin)
    assert abs(p.alpha1) <= ALPHA1_MAX, (p, origin)
    assert abs(r.theta) <= THETA_MAX, (p, origin)
    assert 0.0 <= r.varphi < PI, (p, origin)
    assert abs(p.chi) <= PI / 4, (p, origin)
    assert 0.0 <= p.mu <= PI / 2, (p, origin)


def coordinate(lo, hi, faces):
    """A float drawn uniformly on [lo, hi] or at a face plus or minus an offset."""
    near = sorted({f + s * d for f in faces for s in (1.0, -1.0) for d in OFFSETS})
    return st.one_of(st.floats(lo, hi), st.sampled_from(near))


PHASE = coordinate(-PI, PI, (-PI, 0.0, PI))
THETA = coordinate(-PI / 2, PI / 2, (-PI / 2, 0.0, PI / 2))
VARPHI = coordinate(0.0, PI, (0.0, PI))
CHI = coordinate(-PI / 4, PI / 4, (-PI / 4, 0.0, PI / 4))
# Composition rejects mu outside [0, pi/2]: an offset past a face is clipped onto it.
MU = coordinate(0.0, PI / 2, (0.0, PI / 2)).map(lambda x: min(max(x, 0.0), PI / 2))
ALPHA1 = coordinate(-PI, PI, (-PI / 2, 0.0, PI / 2))
# A composed tuple and the global phase gamma its unitary is multiplied by.
CORNERS = st.tuples(
    st.builds(UnitaryParams, st.builds(RotationAngles, PHASE, THETA, VARPHI),
              CHI, MU, ALPHA1, PHASE, PHASE, PHASE),
    st.floats(-PI, PI),
)


@settings(QUIET, max_examples=500)
@given(CORNERS)
def test_recovery_at_corners(case):
    p, gamma = case
    rep = recover_params(compose_unitary(p) * cmath.exp(1j * gamma))
    assert rep.residual <= 1e-10, case
    assert_in_ranges(rep.params, case)


# Any finite float, with the corners of the float format drawn often: signed
# zeros, integral values, the composition bound 2**8 and the next float
# above it, subnormals and the largest magnitudes.
SPECIAL = (0.0, 1.0, 3.0, 2.0**8, math.nextafter(2.0**8, math.inf), 2.0**53, 1e15,
           5e-324, sys.float_info.min, 1e308, sys.float_info.max)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL + tuple(-x for x in SPECIAL)),
                   st.integers(-2**63, 2**63).map(float))
# Phases about the composition bound as well as in (-pi, pi].
FAR_PHASE = st.one_of(PHASE, st.floats(-2.0**9, 2.0**9), FINITE)
ANY_PARAMS = st.builds(
    UnitaryParams, st.builds(RotationAngles, *(st.one_of(c, FINITE) for c in (PHASE, THETA, VARPHI))),
    st.one_of(CHI, FINITE), st.one_of(MU, FINITE), st.one_of(ALPHA1, FINITE),
    FAR_PHASE, FAR_PHASE, FAR_PHASE,
)


@settings(QUIET, max_examples=300)
@given(ANY_PARAMS)
def test_params_documents_bit_exact(p):
    for text in (serialize_params(p), _recovery_text(RecoveryReport(p, 0.0, "a", False))):
        assert params_bits(parse_params(text)) == params_bits(p), text


@settings(QUIET, max_examples=300)
@given(ANY_PARAMS)
def test_composition_over_domain(p):
    q = parse_params(serialize_params(p))
    composers = {
        "compose_unitary": lambda: compose_unitary(q),
        "compose_core": lambda: compose_core(*q[1:]),
        "compose": lambda: _matrix_text(_unitary_rows(q), "unitary"),
        "compose --core-only": lambda: _matrix_text(_core_rows(*q[1:]), "unitary"),
    }
    for name, compose in composers.items():
        try:
            u = compose()
        except Unitary3Error:
            continue
        if isinstance(u, str):  # a document as the CLI writes it, which recover must accept
            u = parse_matrix(u)
            assert recover_params(u).residual <= 1e-10, (name, p)
        assert unitarity_distance(u) <= 1e-13, (name, p)


def test_compose_far_phases_literal(tmp_path):
    # alpha2 = b + 0.1 and beta2 = 0.3 - b with b = 1e15 once composed to a
    # matrix 0.03 off unitary: compose wrote it with exit 0, and recover of
    # that output exited 2.
    b = 1e15
    p = UnitaryParams(RotationAngles(0.0, 0.0, 0.0), 0.1, 0.3, 0.0, b + 0.1, 0.7, 0.3 - b)
    with pytest.raises(ParameterRangeError, match="must lie in"):
        compose_unitary(p)
    with pytest.raises(ParameterRangeError, match="must lie in"):
        compose_core(*p[1:])
    path = tmp_path / "p.json"
    path.write_text(serialize_params(p), encoding="utf-8")
    for extra in ([], ["--core-only"]):
        assert run_cli(["compose", "--params", str(path), *extra]) == (
            2, "", "error: precondition violated: alpha2, alpha3 and beta2 must lie in [-2**8, 2**8]\n")


# Recoveries that once left the half-open ranges: each composed tuple gave
# -pi for the named field, varphi = pi or |chi| one ulp above pi/4.
BOUNDARY_PARAMS = {
    "varphi, beta2": UnitaryParams(RotationAngles(math.nextafter(PI, 0), 0.4, -1e-17),
                                   -0.3, 0.6, 0.0, PI, 0.2, PI),
    "phi": UnitaryParams(RotationAngles(-1e-17, 0.4, math.nextafter(PI, 0)),
                         0.0, PI / 2, 0.5, PI, 0.2, 0.9),
    "alpha3": UnitaryParams(RotationAngles(1e-17, 1.0, PI), -0.3, 0.6, 0.0, PI, PI, 0.9),
    "chi": UnitaryParams(RotationAngles(math.nextafter(PI, 0), 0.4, -1e-16),
                         PI / 4, 0.6, -0.5, PI, 0.2, PI),
    "alpha2": UnitaryParams(RotationAngles(math.nextafter(PI, 0), 0.4, PI),
                            0.3, 0.0, -0.5, PI, 0.0, 0.9),
}

# Signed permutations whose -1 entries have a -0.0 imaginary part: V1 then has
# a negative real entry with a -0.0 imaginary part, and cmath.phase gives -pi.
NEG_ZERO = complex(-1.0, -0.0)
BOUNDARY_MATRICES = {
    "beta2": [[-1 + 0j, 0j, 0j], [0j, 0j, 1 + 0j], [0j, NEG_ZERO, 0j]],
    "alpha3": [[0j, 1 + 0j, 0j], [0j, 0j, NEG_ZERO], [1 + 0j, 0j, 0j]],
    "alpha2": [[0j, 0j, 1 + 0j], [0j, NEG_ZERO, 0j], [1 + 0j, 0j, 0j]],
}


def test_recovery_boundary_literals():
    for field, p in BOUNDARY_PARAMS.items():
        u = compose_unitary(p)
        rep = recover_params(u)
        assert rep.residual <= 1e-10, field
        assert_in_ranges(rep.params, field)
        assert np.linalg.norm(compose_unitary(rep.params) - u) <= 1e-14, field
    for field, rows in BOUNDARY_MATRICES.items():
        rep = recover_params(rows)
        assert rep.residual <= 1e-15, field
        assert_in_ranges(rep.params, field)


HAAR = st.integers(0, 2**64 - 1).map(lambda seed: generate_haar_unitary(SeededGenerator(seed)))


def assert_composes_to(p: UnitaryParams, u, origin) -> None:
    """``p`` composes to ``u`` through the oracle's 60-digit product, within 1e-13."""
    gap = np.abs(np.array(mp_compose(p.as_dict()), dtype=complex) - u).max()
    assert gap <= 1e-13, (gap, p, origin)


@settings(QUIET, max_examples=150)
@given(HAAR)
def test_recovery_commutes_with_conjugation(u):
    # recover(conj U) = (Q, -chi, mu, -alpha1, -alpha2, -alpha3, -beta2),
    # bit for bit once each phase is wrapped (-pi folds to pi).
    p = recover_params(u).params
    expected = UnitaryParams(p.rotation, -p.chi, p.mu, *(wrap_angle(-a) for a in p[3:]))
    assert_composes_to(expected, u.conj(), p)
    assert params_bits(recover_params(u.conj()).params) == params_bits(expected), p


@settings(QUIET, max_examples=150)
@given(HAAR, st.tuples(PHASE, PHASE, PHASE))
def test_recovery_commutes_with_right_phases(u, gammas):
    # U diag(e^{i g1}, e^{i g2}, e^{i g3}) moves (alpha1, alpha2, alpha3,
    # beta2) by (g1, g2, g3, g2); the rotation, chi and mu stay.
    g1, g2, g3 = gammas
    v = u @ np.diag(np.exp(1j * np.array(gammas)))
    p = recover_params(u).params
    expected = p._replace(alpha1=p.alpha1 + g1, alpha2=p.alpha2 + g2, alpha3=p.alpha3 + g3, beta2=p.beta2 + g2)
    assert_composes_to(expected, v, (p, gammas))
    assert params_distance(recover_params(v).params, expected) <= 1e-12, (p, gammas)


def chart_params(seed: int, margin: float) -> UnitaryParams:
    """A random_params draw with alpha1 halved into recovery's range
    [-pi/2, pi/2], and |chi| set to a nonzero ``margin``: near the linear
    first column, where recovery's gaps grow as 1/|chi|."""
    p = random_params(SeededGenerator(seed), margin)
    return p._replace(chi=math.copysign(margin, p.chi) if margin else p.chi, alpha1=p.alpha1 / 2)


# A tuple in the chart and its unitary: recovered from a Haar unitary, or a
# chart draw composed by the oracle.
CHARTED = st.one_of(
    HAAR.map(lambda u: (recover_params(u).params, u)),
    st.builds(chart_params, st.integers(0, 2**64 - 1), st.sampled_from((0.0, 1e-2, 1e-4, 1e-6, 1e-8))).map(
        lambda p: (p, np.array(mp_compose(p.as_dict()), dtype=complex))),
)
FLIP_YZ = np.diag([1.0, -1.0, -1.0])


def chi_bound(chi: float) -> float:
    """The bound on a recovered tuple's gap: the worst measured gap of the
    core fields grows as about 3e-14/|chi| toward the linear face."""
    return 1e-12 + 1e-13 / abs(chi)


@settings(QUIET, max_examples=100)
@given(CHARTED, st.tuples(PHASE, PHASE, PHASE))
def test_recovery_commutes_with_left_rotation(case, angles):
    # recover(P U) has the rotation P Q and the six core fields of U when
    # (P Q)[2,2] > 0; where it is negative, diag(1, -1, -1) P is taken.
    p, u = case
    pr = rotation_product(*angles)
    pq = pr @ rotation_product(*p.rotation)
    if pq[2, 2] < 0.0:
        pr, pq = FLIP_YZ @ pr, FLIP_YZ @ pq
    assume(pq[2, 2] >= 1e-3)
    got = recover_params(pr @ u).params
    gap = np.abs(rotation_product(*got.rotation) - pq).max()
    assert gap <= 1e-14 + 1e-15 / abs(p.chi), (gap, p, angles)
    assert params_distance(got, p._replace(rotation=got.rotation)) <= chi_bound(p.chi), (got, p, angles)


@settings(QUIET, max_examples=80)
@given(CHARTED)
def test_second_discrete_symmetry(case):
    # (Q diag(1, -1, -1), -chi, mu, alpha1, alpha2 + pi, alpha3 + pi,
    # beta2 + pi) composes to U.  Its rotation (phi + pi, pi - theta,
    # -varphi) has Q[2,2] = -cos(theta) <= 0, outside the chart's theta
    # range, so recovery returns the chart's tuple.
    p, u = case
    r = p.rotation
    other = UnitaryParams(RotationAngles(r.phi + PI, PI - r.theta, -r.varphi), -p.chi, p.mu, p.alpha1,
                          p.alpha2 + PI, p.alpha3 + PI, p.beta2 + PI)
    assert np.abs(rotation_product(*other.rotation) - rotation_product(*r) @ FLIP_YZ).max() <= 2e-15, p
    assert_composes_to(other, u, p)
    w = compose_unitary(other)
    assert np.abs(w - u).max() <= 1e-13, p
    assert params_distance(recover_params(w).params, p) <= chi_bound(p.chi), p


# Chart draws near the linear face only, each with the unitary the oracle composes.
NEAR_LINEAR = st.builds(chart_params, st.integers(0, 2**64 - 1), st.sampled_from((1e-2, 1e-4, 1e-6, 1e-8))).map(
    lambda p: (p, np.array(mp_compose(p.as_dict()), dtype=complex)))


@settings(QUIET, max_examples=80)
@given(NEAR_LINEAR)
def test_conjugation_near_linear_face(case):
    # The conjugated chart tuple composes to conj U, recovery of conj U is
    # within the 1/|chi| bound of it, and bit for bit the conjugate of
    # recover(U), as on Haar unitaries.
    p, u = case
    expected = UnitaryParams(p.rotation, -p.chi, p.mu, *(wrap_angle(-a) for a in p[3:]))
    assert_composes_to(expected, u.conj(), p)
    got = recover_params(u.conj()).params
    assert params_distance(got, expected) <= chi_bound(p.chi), (got, p)
    q = recover_params(u).params
    assert params_bits(got) == params_bits(UnitaryParams(q.rotation, -q.chi, q.mu, *(wrap_angle(-a) for a in q[3:]))), p


@settings(QUIET, max_examples=80)
@given(NEAR_LINEAR, st.tuples(PHASE, PHASE, PHASE))
def test_right_phases_near_linear_face(case, gammas):
    # As on Haar unitaries: (alpha1, alpha2, alpha3, beta2) move by
    # (g1, g2, g3, g2), within the 1/|chi| bound of the chart tuple.
    p, u = case
    g1, g2, g3 = gammas
    v = u @ np.diag(np.exp(1j * np.array(gammas)))
    expected = p._replace(alpha1=p.alpha1 + g1, alpha2=p.alpha2 + g2, alpha3=p.alpha3 + g3, beta2=p.beta2 + g2)
    assert_composes_to(expected, v, (p, gammas))
    assert params_distance(recover_params(v).params, expected) <= chi_bound(p.chi), (p, gammas)


def draw_sets(seed: int, n: int):
    """``n`` Haar unitaries, then ``n`` random_params draws at each margin
    from 1e-2 to 1e-8 composed by the oracle, each set from its own
    SeededGenerator(seed): (origin, U as a complex array, U as mpmath rows)."""
    g = SeededGenerator(seed)
    for _ in range(n):
        u = generate_haar_unitary(g)
        yield "haar", u, [[mpmath.mpc(z) for z in row] for row in u.tolist()]
    for margin in (1e-2, 1e-4, 1e-6, 1e-8):
        g = SeededGenerator(seed)
        for _ in range(n):
            p = random_params(g, margin)
            rows = mp_compose(p.as_dict())
            yield p, np.array(rows, dtype=complex), rows


def test_core_is_a_chart_of_s():
    # S = U^T U = V1^T V1: the recovered core composes to the S of U, formed
    # in mpmath, which does not pass through recovery's Q; and
    # S00 = e^{2i alpha1} cos 2chi.
    for origin, u, rows in draw_sets(25, 100):
        p = recover_params(u).params
        v = compose_core(*p[1:])
        vtv = v.T @ v
        with mpmath.workdps(60):
            s = [[mpmath.fsum(rows[k][i] * rows[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            gap = max(abs(s[i][j] - mpmath.mpc(vtv[i, j])) for i in range(3) for j in range(3))
            s00_gap = abs(s[0][0] - mpmath.expj(2 * p.alpha1) * mpmath.cos(2 * p.chi))
        assert gap <= 1e-14, ("V1^T V1", float(gap), origin)
        assert s00_gap <= 1e-14, ("S00", float(s00_gap), origin)


@pytest.fixture(scope="module")
def spin_draws() -> list:
    """The draw sets of the spin tests, drawn once for both."""
    return list(draw_sets(28, 200))


def spins(u) -> np.ndarray:
    """The spins s_k = Im(conj(u_k) x u_k) of the columns u_k of U, as rows."""
    return np.cross(u.T.conj(), u.T).imag


def test_spin_triangle(spin_draws):
    # The spins of U's columns, from U alone, close a triangle, and
    # s_1 = sin 2chi Q e_z with chi and Q as recovered: an oracle for chi's
    # sign and Q's third column.
    for origin, u, _ in spin_draws:
        s = spins(u)
        closure = np.abs(s.sum(axis=0)).max()
        p = recover_params(u).params
        first = np.abs(s[0] - math.sin(2 * p.chi) * compose_rotation(p.rotation)[:, 2]).max()
        assert closure <= 1e-14, ("closure", closure, origin)
        assert first <= 1e-14, ("s_1", first, origin)


def test_spin_invariances(spin_draws):
    # A real rotation P on the left rotates each spin, s_k(P U) = P s_k(U),
    # and a phase on each column leaves it, s_k(U D) = s_k(U), for a P and a
    # diagonal D of unit phases drawn anew for each U.
    g = SeededGenerator(29)
    for origin, u, _ in spin_draws:
        rotation = rotation_product(*(2 * PI * g.uniform() - PI for _ in range(3)))
        d = np.exp(1j * np.array([2 * PI * g.uniform() - PI for _ in range(3)]))
        s = spins(u)
        rotated = np.abs(spins(rotation @ u) - s @ rotation.T).max()
        phased = np.abs(spins(u * d) - s).max()
        assert rotated <= 1e-14, ("P U", rotated, origin)
        assert phased <= 1e-14, ("U D", phased, origin)


def test_spin_norms_closed_form(spin_draws):
    # With D = beta2 - alpha2, |s_2|^2 = sin^2 2mu (cos^2 chi sin^2 D +
    # sin^2 chi cos^2 D) + sin^2 2chi cos^4 mu, and |s_3|^2 the same with
    # sin^4 mu: sympy gives both from the columns of _core_parts,
    # v2 = cos mu e^{i alpha2} n2 + sin mu e^{i beta2} n3 and
    # v3 = sin mu e^{i alpha3} n2 - cos mu e^{i delta} n3, whose spins Q
    # only turns.  The fields are the drawn ones, or those recovered from a
    # Haar unitary.
    for origin, u, _ in spin_draws:
        p = recover_params(u).params if origin == "haar" else origin
        d = p.beta2 - p.alpha2
        common = math.sin(2 * p.mu) ** 2 * (math.cos(p.chi) ** 2 * math.sin(d) ** 2
                                            + math.sin(p.chi) ** 2 * math.cos(d) ** 2)
        twice_chi = math.sin(2 * p.chi) ** 2
        norms = (spins(u) ** 2).sum(axis=1)
        gap = max(abs(norms[1] - common - twice_chi * math.cos(p.mu) ** 4),
                  abs(norms[2] - common - twice_chi * math.sin(p.mu) ** 4))
        assert gap <= 1e-14, ("|s_2|, |s_3|", gap, origin)


def test_chart_jacobian():
    # The Jacobian J of the nine fields to the nine real coordinates of U†dU,
    # by central differences of the oracle's composition, has
    # |det J| = (1/8)|sin theta||sin 4chi| sin 2mu: 20 draws 1e-2 clear of
    # every face, where the gap is 3.9e-20 (the step's h^2 error), and one
    # draw on each face, where both vanish.  Of it, |sin theta| is the
    # rotation's own: with the core at the identity (V1 = I, so U = Q), J's
    # rotation columns have that determinant in the coordinates of Q^T dQ,
    # the Re of its entries above the diagonal.
    g = SeededGenerator(9)
    for _ in range(20):
        p = random_params(g, 1e-2).as_dict()
        with mpmath.workdps(30):
            density = abs(mpmath.sin(p["theta"]) * mpmath.sin(4 * p["chi"])) * mpmath.sin(2 * p["mu"]) / 8
            gap = abs(abs(mpmath.det(mp_jacobian(p))) / density - 1)
        assert gap <= 1e-15, (float(gap), p)
    interior = dict(phi=0.3, theta=0.4, varphi=0.5, chi=0.2, mu=0.7, alpha1=0.1, alpha2=0.2, alpha3=0.3, beta2=0.4)
    for field, face in (("theta", 0.0), ("chi", 0.0), ("chi", PI / 4), ("chi", -PI / 4), ("mu", 0.0),
                        ("mu", PI / 2)):
        with mpmath.workdps(30):
            det = abs(mpmath.det(mp_jacobian({**interior, field: face})))
        assert det <= 1e-16, (field, face, det)  # sin 4chi at the float pi/4 gives 5.9e-18
    core = dict(chi=0.0, mu=0.0, alpha1=0.0, alpha2=0.0, alpha3=0.0, beta2=PI)
    for theta in (0.4, -1.2, 1.5):
        j = mp_jacobian({**core, "phi": 0.3, "theta": theta, "varphi": 2.5}, fields=("phi", "theta", "varphi"))
        with mpmath.workdps(30):
            det = mpmath.det(mpmath.matrix([[j[row, col] for col in range(3)] for row in (3, 5, 7)]))
        assert abs(abs(det) - abs(math.sin(theta))) <= 1e-14, (theta, det)


# V diag(l) V† for a Haar V and a nonzero l, the exponent k of each entry
# above the diagonal, which is multiplied by 2**-k (None zeroes it), and the
# power of two the matrix is scaled by.
COHERENCY = st.tuples(
    HAAR,
    st.lists(st.one_of(st.sampled_from((0.0, 0.3, 1.0, 1e-20)), st.floats(0.0, 1.0)),
             min_size=3, max_size=3).filter(any),
    st.lists(st.one_of(st.none(), st.integers(0, 1074)), min_size=3, max_size=3),
    st.integers(-1074, 1023),
)


def coherency_rows(case):
    """The Hermitian matrix of a COHERENCY draw, as rows of Python complex."""
    v, spectrum, shrinks, e = case
    r = ((v * spectrum) @ v.conj().T).tolist()

    def scaled(z, k):
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))

    rows = [[scaled(complex(r[i][i].real, 0.0), e) if i == j else 0j for j in range(3)]
            for i in range(3)]
    for (i, j), k in zip(((0, 1), (0, 2), (1, 2)), shrinks):
        if k is not None:
            rows[i][j] = scaled(r[i][j], e - k)
            rows[j][i] = rows[i][j].conjugate()
    return rows


@settings(QUIET, max_examples=400)
@given(COHERENCY)
def test_regularity_over_scales(case):
    rows = coherency_rows(case)
    try:
        e = regularity_report(rows).components.eigen
    except Unitary3Error:
        return
    v = e.vectors
    assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-14, case
    # Normalized by the exact power of two that brings max|R| near 1, so that
    # neither side of the comparison overflows.
    r = np.array(rows)
    k = -math.frexp(np.abs(r).max())[1]
    rn = np.ldexp(r.real, k) + 1j * np.ldexp(r.imag, k)
    reconstruction = (v * np.ldexp(e.values, k)) @ v.conj().T
    assert np.abs(reconstruction - rn).max() <= 1e-12 * np.abs(rn).max(), case


def assert_parsed_or_malformed(parse, text):
    try:
        parse(text)
    except MalformedDocumentError:
        pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=5,
)
ENTRY = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3),
                  st.lists(st.floats(), max_size=3))
GRID = st.one_of(
    st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(ENTRY, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(ENTRY, min_size=2, max_size=4), min_size=2, max_size=4),
    JSON_VALUES,
)
# Matrix documents: the three fields of mixed types, the grids at times missing.
MATRIX_DOCUMENTS = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(MATRIX_KINDS), JSON_VALUES)}, optional={"re": GRID, "im": GRID}
)


@settings(QUIET, max_examples=150)
@given(st.one_of(JSON_VALUES, MATRIX_DOCUMENTS))
def test_parse_matrix_any_json(value):
    assert_parsed_or_malformed(parse_matrix, json.dumps(value))


# Text near the two document layouts, and text of any kind.
TEXT = st.one_of(st.text(), st.text(alphabet='{}[]",:-+.eE0123456789 kindreimphtaunullsIfNy'))


@settings(QUIET, max_examples=300)
@given(TEXT)
def test_parsers_any_text(text):
    assert_parsed_or_malformed(parse_matrix, text)
    assert_parsed_or_malformed(parse_params, text)

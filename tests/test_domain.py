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

import numpy as np
import pytest
from hypothesis import Verbosity, given, settings
from hypothesis import strategies as st

from unitary3.characteristic import regularity_report
from unitary3.documents import (MATRIX_KINDS, MalformedDocumentError, _matrix_text, _recovery_text,
                                parse_matrix, parse_params, serialize_params)
from unitary3.linalg import Unitary3Error, unitarity_distance
from unitary3.parametrization import (ParameterRangeError, RecoveryReport, UnitaryParams, _unitary_rows,
                                      compose_core, compose_unitary, recover_params)
from unitary3.rotations import RotationAngles
from unitary3.sampling import SeededGenerator, generate_haar_unitary

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
        "compose --core-only": lambda: _matrix_text(_unitary_rows(q, True), "unitary"),
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


# V diag(l) V† for a Haar V and a nonzero l, the exponent k of each entry
# above the diagonal, which is multiplied by 2**-k (None zeroes it), and the
# power of two the matrix is scaled by.
COHERENCY = st.tuples(
    st.integers(0, 2**64 - 1).map(lambda seed: generate_haar_unitary(SeededGenerator(seed))),
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

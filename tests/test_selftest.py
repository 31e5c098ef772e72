import math

import mpmath
import numpy as np
import pytest

from unitary3.rotations import _rotation_rows
from unitary3.sampling import SeededGenerator, random_params
from unitary3.selftest import _gap, _worst

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("gaps", [
    [NAN, 1.0, 2.0], [1.0, NAN, 2.0], [1.0, 2.0, NAN], [NAN], [INF, NAN], [NAN, INF],
])
def test_worst_keeps_nan_anywhere(gaps):
    # Python's max keeps a NaN only in first place; a NaN anywhere must fail
    # every bound, from a list or a generator alike
    assert math.isnan(_worst(gaps))
    assert math.isnan(_worst(iter(gaps)))


def test_worst_of_floats():
    assert _worst([1.0, INF, 2.0]) == INF
    assert _worst(x for x in (3e-16, 1e-15, -2.0)) == 1e-15
    assert _worst([-1.0, -0.5]) == -0.5
    worst = _worst([np.float64(1e-15), 2e-15])
    assert worst == 2e-15 and type(worst) is float


def mp_frobenius(rows) -> float:
    """Frobenius norm of a matrix given as rows, each square and the sum at
    60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
                                             for row in rows for z in row)))


ZERO = [[0j, 0j, 0j]] * 3


def test_gap_matches_mpmath():
    # _fsum_norm rounds the exact sum of squares once and then its square
    # root, so the gap from a zero B is within 2 ulp of the exact norm, on
    # complex rows and on real ones
    g = SeededGenerator(41)
    for _ in range(200):
        for m in (g._gauss_rows(), _rotation_rows(random_params(g).rotation)):
            want = mp_frobenius(m)
            assert abs(_gap(m, ZERO) - want) <= 2 * math.ulp(want), m
            assert _gap(ZERO, m) == _gap(m, ZERO)


def identity_with(i, j, entry):
    """Rows of the identity, of the type of ``entry``, with ``entry`` at (i, j)."""
    rows = [[type(entry)(k == l) for l in range(3)] for k in range(3)]
    rows[i][j] = entry
    return rows


@pytest.mark.parametrize("entry", [complex(NAN, 0.0), complex(0.0, NAN), complex(INF, NAN), NAN],
                         ids=["real-part", "imaginary-part", "beside-inf", "real-rows"])
def test_gap_of_nan_entry_is_nan(entry):
    # A NaN anywhere in A or in B fails every bound.
    for i in range(3):
        for j in range(3):
            m, eye = identity_with(i, j, entry), identity_with(i, j, type(entry)(i == j))
            assert math.isnan(_gap(m, eye)), (i, j)
            assert math.isnan(_gap(eye, m)), (i, j)

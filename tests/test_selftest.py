import math

import mpmath
import numpy as np
import pytest

from unitary3.rotations import compose_rotation
from unitary3.sampling import SeededGenerator, random_params
from unitary3.selftest import _norm, _worst

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


def mp_frobenius(m) -> float:
    """Frobenius norm of an array, each square and the sum at 60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.sqrt(mpmath.fsum(mpmath.mpf(x.real) ** 2 + mpmath.mpf(x.imag) ** 2
                                             for x in m.ravel().tolist())))


def test_norm_matches_mpmath():
    # _fsum_norm rounds the exact sum of squares once and then its square
    # root, so it is within 2 ulp of the exact norm, on complex arrays and
    # on real ones
    g = SeededGenerator(41)
    for _ in range(200):
        for m in (g.complex_gauss_matrix(), compose_rotation(random_params(g).rotation)):
            want = mp_frobenius(m)
            assert abs(_norm(m) - want) <= 2 * math.ulp(want), m


def nan_at(m, i, j, entry):
    m[i, j] = entry
    return m


@pytest.mark.parametrize("m", [
    nan_at(np.eye(3, dtype=complex), 1, 2, complex(NAN, 0.0)),
    nan_at(np.eye(3, dtype=complex), 0, 0, complex(0.0, NAN)),
    nan_at(np.eye(3, dtype=complex), 2, 1, complex(INF, NAN)),
    nan_at(np.eye(3), 0, 1, NAN),
], ids=["real-part", "imaginary-part", "beside-inf", "real-array"])
def test_norm_of_nan_entry_is_nan(m):
    assert math.isnan(_norm(m))

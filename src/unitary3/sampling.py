"""Deterministic random sampling: SplitMix64 stream, Gaussians, Haar unitaries.

The generator is a plain SplitMix64 counter PRNG (64-bit state, golden-ratio
increment) feeding Box-Muller for standard normals.  The algorithm is
frozen, and the integer stream and its uniforms (so random_params) are
exact on every platform.  The Gaussians are not: Box-Muller calls numpy's
log, sin and cos, whose SIMD loops round differently on other CPUs, and
the Haar QR and A A† are LAPACK and BLAS.  So a seed fixes the Haar and
coherency samples on one host only, and `gen --haar` bytes are host-bound.
"""
from __future__ import annotations

import math
import operator

from .linalg import _array
from .parametrization import PARAM_FIELDS, UnitaryParams, _RANGES
from .rotations import RotationAngles

ALGORITHM = "splitmix64+box-muller"

_MASK = (1 << 64) - 1


class SeededGenerator:
    """SplitMix64 stream with Box-Muller Gaussian output.  The seed is the
    initial 64-bit state: an integer in [0, 2**64), read with
    operator.index.  A seed that is not an integer (a float, a string, a
    bool) raises TypeError and one outside the range ValueError, rather
    than aliasing the seed that it truncates to or equals modulo 2**64."""

    def __init__(self, seed: int):
        if isinstance(seed, bool):  # operator.index takes True as 1
            raise TypeError("seed must be an integer, not bool")
        seed = operator.index(seed)
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = seed
        self._state = self.seed
        self._spare = None

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (1.0 / (1 << 53))

    def gauss(self) -> float:
        """Standard normal via Box-Muller (pairs cached)."""
        if self._spare is not None:
            x, self._spare = self._spare, None
            return x
        import numpy as np

        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        self._spare = float(r * np.sin(2.0 * np.pi * u2))
        return float(r * np.cos(2.0 * np.pi * u2))

    def complex_gauss_matrix(self) -> np.ndarray:
        return _array([complex(self.gauss(), self.gauss()) for _ in range(9)])


def generate_haar_unitary(g: SeededGenerator) -> np.ndarray:
    """Haar-distributed 3x3 unitary.

    QR-orthonormalize a complex Gaussian matrix, then absorb the phases of
    the triangular factor's diagonal so it is real positive; without that
    fix the QR convention would bias the distribution.
    """
    import numpy as np

    q, r = np.linalg.qr(g.complex_gauss_matrix())
    d = r.diagonal().copy()
    d = d / np.abs(d)
    return q * d


def random_params(g: SeededGenerator, margin: float = 0.0) -> UnitaryParams:
    """Parameter tuple drawn uniformly from the chart.

    Each field in parametrization._RANGES, the one home of the chart's
    ranges, is drawn from its range shrunk by ``margin`` at both ends,
    away from its degeneracy boundaries (theta = +-pi/2, varphi = 0 and
    pi, chi = +-pi/4, mu = 0 and pi/2), and chi also keeps ``margin``
    clear of 0; every other field is a phase drawn from [-pi, pi).  chi
    is drawn first, then the other fields in PARAM_FIELDS order.
    ``margin`` must lie in [0, pi/8), where chi keeps a range to draw
    from; any other raises ValueError before a draw.
    """
    if not 0.0 <= margin < _RANGES["chi"][1] / 2:
        raise ValueError(f"margin must lie in [0, pi/8), got {margin}")

    def draw(field):
        if field not in _RANGES:
            return -math.pi + 2.0 * math.pi * g.uniform()
        lo, hi = _RANGES[field]
        return lo + margin + (hi - lo - 2.0 * margin) * g.uniform()

    chi = draw("chi")
    while abs(chi) < margin:
        chi = draw("chi")
    v = [chi if field == "chi" else draw(field) for field in PARAM_FIELDS]
    return UnitaryParams(RotationAngles(*v[:3]), *v[3:])


def random_psd_hermitian(g: SeededGenerator) -> np.ndarray:
    """Hermitian positive semidefinite matrix A A† from a Gaussian A."""
    a = g.complex_gauss_matrix()
    return a @ a.conj().T

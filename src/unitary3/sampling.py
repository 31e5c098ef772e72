"""Deterministic random sampling: SplitMix64 stream, Gaussians, Haar unitaries.

The generator is a plain SplitMix64 counter PRNG (64-bit state, golden-ratio
increment) feeding Box-Muller for standard normals.  The algorithm is
frozen, and the integer stream and its uniforms (so random_params) are
exact on every platform; the Gaussians and what is built from them follow
README, Conventions: Arithmetic.
Each public sampler of a matrix returns _array of its kernel's rows.
"""
import math
import operator

from .linalg import _array, _fsum_norm
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
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_gauss_matrix(self):
        """3x3 complex array whose real and imaginary parts are independent
        standard normals: nine pairs of gauss() draws, real part first,
        filled row-major."""
        return _array(self._gauss_rows())

    def _gauss_rows(self) -> list:
        """complex_gauss_matrix as three rows of three Python complex."""
        return [[complex(self.gauss(), self.gauss()) for _ in range(3)] for _ in range(3)]


def _dot(x, y) -> complex:
    """x . conj(y) of two triples of Python complex, summed left to right."""
    return x[0] * y[0].conjugate() + x[1] * y[1].conjugate() + x[2] * y[2].conjugate()


def generate_haar_unitary(g: SeededGenerator):
    """Haar-distributed unitary as a 3x3 complex array: _array of
    _haar_rows."""
    return _array(_haar_rows(g))


def _haar_rows(g: SeededGenerator) -> list:
    """Haar-distributed unitary as three rows of three Python complex.

    Gram-Schmidt on the columns of a complex Gaussian matrix A
    (complex_gauss_matrix) gives A = QR with the diagonal of R real and
    positive, the one QR decomposition whose Q is Haar-distributed
    (Mezzadri, Notices AMS 54, 2007); a QR with another convention for
    that diagonal, such as LAPACK's, biases the distribution.  Each column
    loses its projection on each earlier column of Q, in order, and then
    a second time, which is enough for orthogonality to rounding (Giraud,
    Langou and Rozložník, Comput. Math. Appl. 50, 2005); it is then
    divided by its norm (linalg._fsum_norm).
    """
    q = []
    for v in zip(*g._gauss_rows()):
        for u in q * 2:
            c = _dot(v, u)
            v = (v[0] - u[0] * c, v[1] - u[1] * c, v[2] - u[2] * c)
        n = _fsum_norm([x for z in v for x in (z.real, z.imag)])
        q.append([complex(z.real / n, z.imag / n) for z in v])
    return list(zip(*q))


def random_params(g: SeededGenerator, margin: float = 0.0) -> UnitaryParams:
    """Parameter tuple drawn uniformly from the chart.

    Each field in parametrization._RANGES is drawn from its range shrunk
    by ``margin`` at both ends, away from its degeneracy boundaries
    (theta = +-pi/2, varphi = 0 and pi, chi = +-pi/4, mu = 0 and pi/2),
    and chi also keeps ``margin`` clear of 0: it is one uniform x on
    [-(pi/4 - 2 margin), pi/4 - 2 margin] moved ``margin`` away from 0,
    x + copysign(margin, x) capped in modulus at pi/4 - margin.  Every other field is a phase
    drawn from [-pi, pi).  The fields are drawn in PARAM_FIELDS order,
    one uniform each.  ``margin`` must lie in [0, pi/8), where chi keeps
    a range to draw from; any other raises ValueError before a draw.
    """
    if not 0.0 <= margin < _RANGES["chi"][1] / 2:
        raise ValueError(f"margin must lie in [0, pi/8), got {margin}")
    margin = float(margin)  # a numpy margin would make every field a numpy float

    def draw(field):
        if field not in _RANGES:
            return -math.pi + 2.0 * math.pi * g.uniform()
        lo, hi = _RANGES[field]
        if field != "chi":
            return lo + margin + (hi - lo - 2.0 * margin) * g.uniform()
        x = lo + 2.0 * margin + (hi - lo - 4.0 * margin) * g.uniform()
        # |x| + margin can round one bit past hi - margin where |x| is largest.
        return math.copysign(min(abs(x) + margin, hi - margin), x)

    v = [draw(field) for field in PARAM_FIELDS]
    return UnitaryParams(RotationAngles(*v[:3]), *v[3:])


def random_psd_hermitian(g: SeededGenerator):
    """Hermitian positive semidefinite matrix A A† as a 3x3 complex array,
    from a Gaussian A (complex_gauss_matrix): _array of _psd_rows."""
    return _array(_psd_rows(g))


def _psd_rows(g: SeededGenerator) -> list:
    """A A† as three rows of three Python complex: entry (i, j) is the
    _dot of rows i and j of A.  Entry (j, i) takes the same products with
    their imaginary parts negated, so it is the conjugate of entry (i, j)
    bit for bit (a zero imaginary part may differ in sign), and the
    diagonal is exactly real."""
    a = g._gauss_rows()
    return [[_dot(x, y) for y in a] for x in a]

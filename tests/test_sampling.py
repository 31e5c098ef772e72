import hashlib
import math

import numpy as np
import pytest

import unitary3.selftest
from unitary3.linalg import unitarity_distance
from unitary3.sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_params,
    random_psd_hermitian,
)
from unitary3.selftest import CHECKS, haar_moment


def test_stream_is_deterministic():
    a = SeededGenerator(42)
    b = SeededGenerator(42)
    assert [a.next_uint64() for _ in range(20)] == [b.next_uint64() for _ in range(20)]
    assert [a.gauss() for _ in range(20)] == [b.gauss() for _ in range(20)]


def test_stream_depends_on_seed():
    assert SeededGenerator(1).next_uint64() != SeededGenerator(2).next_uint64()


def test_splitmix64_known_values():
    # Reference stream for seed 0 (SplitMix64 is fully specified by its
    # constants, so these values pin the implementation).
    g = SeededGenerator(0)
    assert g.next_uint64() == 0xE220A8397B1DCDAF
    assert g.next_uint64() == 0x6E789E6AA1B965F4
    assert g.next_uint64() == 0x06C45D188009454F


def test_splitmix64_top_seed():
    # 2**64 - 1, the largest seed, is its own state: it is not reduced or
    # rejected (seed 0, the smallest, is pinned above).
    g = SeededGenerator(2**64 - 1)
    assert g.next_uint64() == 0xE4D971771B652C20
    assert g.next_uint64() == 0xE99FF867DBF682C9


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_state_space_rejected(seed):
    # -1 and 2**64 used to alias 2**64 - 1 and 0, the seeds they equal
    # modulo 2**64.
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        SeededGenerator(seed)


@pytest.mark.parametrize("seed", [3.7, 2.0, "12", True, False, np.True_])
def test_seed_not_an_integer_rejected(seed):
    # int(seed) once gave 3.7 the stream of 3 and accepted the string "12";
    # operator.index takes a Python bool, so True once gave the stream of 1.
    with pytest.raises(TypeError):
        SeededGenerator(seed)


def test_numpy_integer_seed():
    a, b = SeededGenerator(np.uint64(5)), SeededGenerator(5)
    assert [a.next_uint64() for _ in range(5)] == [b.next_uint64() for _ in range(5)]


def test_uniform_range():
    g = SeededGenerator(7)
    xs = [g.uniform() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.02


def test_gauss_moments():
    g = SeededGenerator(8)
    xs = np.array([g.gauss() for _ in range(20000)])
    assert abs(np.mean(xs)) < 0.03
    assert abs(np.std(xs) - 1.0) < 0.03


def test_haar_unitary_is_unitary():
    # Gram-Schmidt twice is orthogonal to rounding: the worst distance over
    # 3,000 draws (seeds 0-2999, and this stream) is 6.9e-16.  numpy's QR
    # with the phase fix reads up to 1.7e-15 on the same draws.
    g = SeededGenerator(9)
    for _ in range(500):
        assert unitarity_distance(generate_haar_unitary(g)) <= 1e-15


def test_samplers_return_writeable_complex_arrays():
    # The benchmark's rank strata write into the Gaussian matrix in place.
    g = SeededGenerator(12)
    for sampler in (SeededGenerator.complex_gauss_matrix, generate_haar_unitary, random_psd_hermitian):
        m = sampler(g)
        assert (type(m), m.shape, m.dtype, m.flags.writeable) == (np.ndarray, (3, 3), complex, True), sampler
    assert np.array_equal(m, m.conj().T)  # A A† is Hermitian bit for bit


def test_haar_moment():
    assert haar_moment(SeededGenerator(10), 10_000) <= 0.02


def qr_without_phase_fix(g):
    """Mezzadri's pitfall: the Q of a Gaussian matrix, its law bent by the
    QR convention, as rows.  E|u11|^2 is still 1/3, but E|tr U|^2 is about
    1.6."""
    return np.linalg.qr(g.complex_gauss_matrix())[0].tolist()


def haar_with_real_row0(g):
    """A Haar unitary times the right phases that make its row 0 real, as
    rows: E|tr U|^2 stays 1, but E|tr U^T U|^2 is about 2.3."""
    u = generate_haar_unitary(g)
    return (u * (u[0].conj() / abs(u[0]))).tolist()


@pytest.mark.parametrize("name, sampler", [("haar-trace", qr_without_phase_fix),
                                           ("haar-coe", haar_with_real_row0)])
def test_haar_measure_fails_on_wrong_sampler(monkeypatch, name, sampler):
    # Each selftest measure of the Haar law, at its own seed and size, reads
    # far above its bound on the sampler it is there to catch (haar-moment
    # passes both).  The measures read the sampler kernel's rows.
    measure, seed, n, bound = {check[0]: check[1:] for check in CHECKS}[name]
    monkeypatch.setattr(unitary3.selftest, "_haar_rows", sampler)
    assert measure(SeededGenerator(seed), n) > 5 * bound


def test_haar_golden_seed_42():
    # Bit for bit, as the recover goldens are: the sampler's arithmetic is
    # Python floats and math's functions.
    assert generate_haar_unitary(SeededGenerator(42)).tolist() == [
        [0.18594854964722482 + 0.29264371063796024j,
         -0.6091206953700443 + 0.6518322428883456j,
         -0.28130573994123603 + 0.06882282896914048j],
        [0.244640696905609 - 0.7428780824025112j,
         -0.23391183825663817 - 0.1833891180726802j,
         -0.45496706983031465 + 0.3048634657833706j],
        [-0.5136627451128943 - 0.06493430445250756j,
         0.2803043386716619 + 0.1927948822475059j,
         -0.6681230227905989 - 0.41207445675086474j],
    ]


def test_random_params_ranges():
    g = SeededGenerator(11)
    for _ in range(500):
        p = random_params(g, margin=1e-3)
        assert 1e-3 <= abs(p.chi) <= np.pi / 4 - 1e-3
        assert 1e-3 <= p.mu <= np.pi / 2 - 1e-3
        assert abs(p.rotation.theta) <= np.pi / 2 - 1e-3
        assert 1e-3 <= p.rotation.varphi <= np.pi - 1e-3
        assert -np.pi <= p.alpha1 <= np.pi


def test_random_params_stream_golden():
    # Seeds 0-49 at four margins, hashed as reprs: these streams build the
    # recover-faces pool and the face documents of test_host_independence,
    # and uniforms are exact, so the hash holds on every platform.
    h = hashlib.sha256()
    for seed in range(50):
        for margin in (0.0, 1e-3, 0.05, 0.3):
            h.update(repr(tuple(random_params(SeededGenerator(seed), margin=margin))).encode())
    assert h.hexdigest() == "9aadecde1fd8139dc4de455ac0b92e12226b42a543ab87bc92e0d21b8bcee2d4"


class _BoundedGenerator(SeededGenerator):
    """A SeededGenerator that raises after 1,000 uniforms, so a draw that
    would loop forever fails instead."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def uniform(self):
        self.calls += 1
        if self.calls > 1000:
            raise RuntimeError("random_params drew more than 1,000 uniforms")
        return super().uniform()


@pytest.mark.parametrize("margin", [np.pi / 8, 0.5, -1e-3, -0.5, np.nan])
def test_random_params_rejects_margin_outside_chart(margin):
    # from pi/8 on, no chi in the chart is margin clear of both 0 and
    # +-pi/4; a negative margin would widen the ranges beyond the chart
    g = _BoundedGenerator(3)
    with pytest.raises(ValueError, match="margin"):
        random_params(g, margin=margin)
    assert g.calls == 0


def test_random_params_numpy_margin_gives_floats():
    # A numpy margin is read as a float after its range check, so no field
    # is a numpy scalar, and the draws are the float margin's.
    for margin in (np.float64(0.1), np.float32(0.1)):
        p = random_params(SeededGenerator(3), margin=margin)
        assert all(type(x) is float for x in (*p.rotation, *p[1:])), p
        assert p == random_params(SeededGenerator(3), margin=float(margin))


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_random_params_at_the_ends_of_the_uniforms(u):
    # Every uniform u puts each field at one end of its range; at u = 0 and
    # margin 0.05, |x| + margin rounds one bit past pi/4 - margin.
    g = SeededGenerator(0)
    g.uniform = lambda: u
    for margin in (0.0, 0.05, 0.39):
        p = random_params(g, margin=margin)
        assert margin <= abs(p.chi) <= np.pi / 4 - margin
        assert margin <= p.mu <= np.pi / 2 - margin
        assert abs(p.rotation.theta) <= np.pi / 2 - margin
        assert margin <= p.rotation.varphi <= np.pi - margin


def test_random_params_margin_below_bound():
    # chi is one uniform moved margin away from 0, so every margin below
    # pi/8 takes one uniform per field, as margin 0 does.
    g = _BoundedGenerator(3)
    for margin in (0.0, 0.3, 0.39, np.pi / 8 - 1e-9, math.nextafter(np.pi / 8, 0)):
        p = random_params(g, margin=margin)
        assert margin <= abs(p.chi) <= np.pi / 4 - margin
        assert margin <= p.mu <= np.pi / 2 - margin

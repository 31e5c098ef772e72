import ast
import itertools
import math
import os
import re
import sys

import numpy as np
import pytest

import unitary3.linalg
from unitary3.characteristic import (_projector, characteristic_decomposition, middle_component,
                                     regularity_report)
from unitary3.documents import serialize_matrix
from unitary3.linalg import (
    ConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NotUnitaryError,
    _check_unitary,
    as_matrix3,
    eig_hermitian3,
    unitarity_distance,
)
from unitary3.parametrization import recover_params
from unitary3.rotations import extract_rotation_angles
from unitary3.sampling import (
    SeededGenerator,
    generate_haar_unitary,
    random_psd_hermitian,
)

from oracles import cubic_eigenvalues
from test_cli import run_cli


def gaussian_hermitian(g):
    """Hermitian (not necessarily PSD) matrix (A + A†)/2 from a Gaussian A."""
    a = g.complex_gauss_matrix()
    return 0.5 * (a + a.conj().T)


def test_unitarity_distance_identity():
    assert unitarity_distance(np.eye(3)) == 0.0


def test_unitarity_distance_scaled():
    assert unitarity_distance(2.0 * np.eye(3)) == pytest.approx(3.0 * np.sqrt(3.0))


def test_outer_is_rank_one_projector():
    p = np.array(_projector([0.6 + 0j, 0.8j, 0j]))
    assert np.array_equal(p, p.conj().T)
    assert np.allclose(p @ p, p)
    assert np.trace(p).real == pytest.approx(1.0)


def test_eig_diagonal():
    e = eig_hermitian3(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(e.values, [3.0, 2.0, 1.0])
    assert np.allclose(np.abs(e.vectors), np.eye(3)[:, [0, 2, 1]])


# The 13 weak orderings of three values: each diagonal of levels 0 to m - 1
# that uses every level below its largest.
WEAK_ORDERINGS = [d for d in itertools.product(range(3), repeat=3) if set(d) == set(range(max(d) + 1))]


@pytest.mark.parametrize("scale", [1.0, 2.0**1021], ids=["unscaled", "prescaled"])
@pytest.mark.parametrize("levels", WEAK_ORDERINGS, ids=lambda d: "".join(map(str, d)))
def test_eig_tie_order(levels, scale):
    # Eigenvalues come out nonincreasing, equal ones in index order, with
    # the unit columns in that order: on a diagonal input the solver
    # rotates nothing, so the order is all that decides the result.  The
    # second scale puts max|R| at 2**1022, which takes the prescale.
    d = [(-1.5, 0.0, 2.0)[level] * scale for level in levels]
    order = sorted(range(3), key=d.__getitem__, reverse=True)
    e = eig_hermitian3(np.diag(d))
    assert e.values.tolist() == [d[i] for i in order]
    assert np.array_equal(e.vectors, np.eye(3)[:, order])


def test_eig_rejects_non_hermitian():
    h = np.array([[1.0, 2.0j, 0.0], [-2.0j, 3.0, 1.0], [0.0, 1.0, -1.0]])
    for r in (np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
              h + np.diag([1j, 0, 0])):
        with pytest.raises(NotHermitianError):
            eig_hermitian3(r)


def test_hermiticity_gate_pinned():
    # A skew of 0.7 and 1.5 times the gate's value, 1e-12 (written out, so
    # that a changed HERMITICITY_TOL fails), times max|R|, at three scales:
    # the first is solved and the second raises.  The skew is |r01 - conj(r10)|
    # above the diagonal and |r_jj - conj(r_jj)| = 2 |Im r_jj| on it; max|R|
    # is r00 = scale, which an imaginary part that small leaves in place.
    h = np.array([[1.0, 0.3 + 0.2j, 0.1], [0.3 - 0.2j, 0.5, 0.2j], [0.1, -0.2j, 0.25]])
    for entry, unit in (((0, 1), 1.0), ((0, 0), 0.5j), ((1, 1), 0.5j), ((2, 2), 0.5j)):
        for scale in (1e-200, 1.0, 1e200):
            for factor, hermitian in ((0.7, True), (1.5, False)):
                r = h * scale
                r[entry] += unit * factor * 1e-12 * scale
                if hermitian:
                    eig_hermitian3(r)
                else:
                    with pytest.raises(NotHermitianError):
                        eig_hermitian3(r)


def test_hermiticity_gate_diagonal_skew_overflow():
    # Im r00 = 1e308 is finite, but its skew 2e308 is not: NotHermitianError
    # names the skew inf, where a skew taken as a complex modulus could
    # raise FloatRangeError instead
    r = np.eye(3, dtype=complex)
    r[0, 0] = complex(1.0, 1e308)
    with pytest.raises(NotHermitianError, match=r"max\|R - R'\| = inf, max\|R\| = 1\.000e\+308$"):
        eig_hermitian3(r)


def test_eig_residual_and_orthonormality():
    g = SeededGenerator(11)
    for _ in range(300):
        h = gaussian_hermitian(g)
        e = eig_hermitian3(h)
        assert np.all(np.diff(e.values) <= 1e-13)
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-13
        assert np.linalg.norm(h @ e.vectors - e.vectors * e.values) < 1e-12


def assert_eig_accurate(r):
    """Orthonormal eigenvectors within 1e-14 and R reconstructed within
    1e-12 max|R|."""
    e = eig_hermitian3(r)
    v = e.vectors
    assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-14
    assert np.abs((v * e.values) @ v.conj().T - r).max() <= 1e-12 * np.abs(r).max()


def test_eig_tiny_scale():
    # max|R| = 1.7e-307, with entries down to 3e-316, solved as it is: a
    # phase z/|z| of a subnormal entry, its modulus rounded on the subnormal
    # grid, once left the eigenvectors orthonormal only to 0.5
    r = np.array([
        [1.7045086658225771e-307 + 0j, -1.5732715293299356e-308 + 1.9371175098775557e-308j,
         -3.51404918e-315 - 6.02863217e-315j],
        [-1.5732715293299356e-308 - 1.9371175098775557e-308j, 3.65360861868602e-309 + 0j,
         -3.60785223e-316 + 9.5580632e-316j],
        [-3.51404918e-315 + 6.02863217e-315j, -3.60785223e-316 - 9.5580632e-316j, 2.87e-322 + 0j],
    ])
    assert_eig_accurate(r)


def test_eig_subnormal_phases():
    # diag(1, 1, 0) with subnormal r02 and r12, whose phases once made
    # D = diag(u02, u12, 1) unitary only to 4.2e-5; and a matrix of normal
    # entries in which the complex rotation's s (about 1e-270) times a12
    # makes a02 about 1.5e-319 (eigenvectors once orthonormal only to 2.1e-5)
    a, b = 3e-311 * (1 + 1j), 7e-320 * (1 + 1j)
    assert_eig_accurate(np.array([[1, 0, a], [0, 1, b], [np.conj(a), np.conj(b), 0]]))
    a = -3.831768310540981e-19 + 5.892163367435928e-20j
    b = -1.492077117596889e-49 + 2.766922383380761e-50j
    assert_eig_accurate(np.array([
        [3.1306461552182043e+252, a, 0],
        [np.conj(a), 3.430096475583232e+252, b],
        [0, np.conj(b), 7.708167723281481e+251],
    ]))


def test_unit_phase_at_smallest_normal_modulus():
    # abs rounds this modulus, just below the smallest normal float, on the
    # subnormal grid up to sys.float_info.min itself; _unit once divided z
    # unscaled there and returned a phase of modulus 1 - 1.25e-16
    import mpmath

    z = complex(2.175698660567853e-308, 4.66142697267022e-309)
    assert abs(z) == sys.float_info.min
    with mpmath.workdps(50):
        expected = complex(mpmath.mpc(z) / abs(mpmath.mpc(z)))
    assert unitary3.linalg._unit(z, abs(z)) == expected


def test_eig_matches_cubic_oracle():
    g = SeededGenerator(12)
    for _ in range(300):
        h = gaussian_hermitian(g)
        assert np.allclose(eig_hermitian3(h).values, cubic_eigenvalues(h), atol=1e-12)


def test_eig_normalized_values():
    g = SeededGenerator(13)
    for _ in range(100):
        r = random_psd_hermitian(g)
        e = eig_hermitian3(r)
        assert np.sum(e.normalized) == pytest.approx(1.0)
        assert e.normalized[2] >= -1e-14


def test_eig_zero_matrix():
    e = eig_hermitian3(np.zeros((3, 3)))
    assert np.allclose(e.values, 0.0)
    assert np.allclose(e.normalized, 0.0)


def test_eig_degenerate_spectrum():
    e = eig_hermitian3(np.eye(3) * 0.5)
    assert np.allclose(e.values, 0.5)
    assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-14


def test_eig_vector_phase_contract():
    # Documented contract of eig_hermitian3: nonincreasing values and
    # orthonormal columns, each with its largest-magnitude component real
    # (to rounding) and nonnegative; checked on generic and repeated spectra.
    g = SeededGenerator(14)
    mats = [gaussian_hermitian(g) for _ in range(200)]
    for spectrum in ([0.5, 0.5, 0.1], [0.7, 0.2, 0.2], [1.0, 0.0, 0.0], [0.4, 0.4, 0.4]):
        for _ in range(25):
            u = generate_haar_unitary(g)
            mats.append(u @ np.diag(spectrum) @ u.conj().T)
    for h in mats:
        e = eig_hermitian3(h)
        assert np.all(np.diff(e.values) <= 0.0)
        assert np.linalg.norm(e.vectors.conj().T @ e.vectors - np.eye(3)) < 1e-13
        for i in range(3):
            col = e.vectors[:, i]
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) <= 1e-15
            assert lead.real >= 0.0


def test_eig_vector_phase_first_of_equal_components():
    # The eigenvector of 1 orthogonal to e_0 has |x1| = |x2| > |x0|: the
    # phase rule makes the first of the equal components real and positive.
    e = eig_hermitian3(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]]))
    c = 0.7071067811865475
    assert np.allclose(e.values, [3.0, 1.0, 1.0], rtol=0.0, atol=1e-15)
    assert np.allclose(e.vectors[:, 2], [0.0, c, -c], rtol=0.0, atol=1e-15)


def test_eig_vector_phase_first_of_equal_largest():
    # Each eigenvector of 2 has two largest components of equal modulus, the
    # first of them is made real and positive: (c, -ic, 0) and (c, 0, -ic).
    c = 0.7071067811865475
    for r, want in (([[1, 1j, 0], [-1j, 1, 0], [0, 0, 0]], [c, -1j * c, 0.0]),
                    ([[1, 0, 1j], [0, 0, 0], [-1j, 0, 1]], [c, 0.0, -1j * c])):
        e = eig_hermitian3(np.array(r))
        assert np.allclose(e.values, [2.0, 0.0, 0.0], rtol=0.0, atol=1e-15), r
        assert np.allclose(e.vectors[:, 0], want, rtol=0.0, atol=1e-15), r


@pytest.mark.parametrize("r, values", [
    ([[1.0, 1j, 1j], [-1j, 1.0, 1j], [-1j, -1j, 0.0]], [2.481194304092015, 0.6888921825340182, -1.1700864866260337]),
    ([[0.0, 0.0, 1j], [0.0, 0.0, 2.0], [-1j, 2.0, 0.0]], [2.23606797749979, -1.7749525040468307e-16, -2.2360679774997902]),
    ([[0.0, 0.0, 1j], [0.0, 0.0, 1j], [-1j, -1j, 0.0]], [1.4142135623730951, -3.082505324001945e-17, -1.4142135623730951]),
    ([[0.0, 1j, 0.0], [-1j, 0.0, 2.0], [0.0, 2.0, 0.0]], [2.2360679774997902, 1.7749525040468307e-16, -2.23606797749979]),
], ids=["complex-01", "real-01", "real-02", "real-12"])
def test_eig_rotation_at_equal_diagonal(r, values):
    # a_pp = a_qq gives theta = 0, where both roots t = +1 and -1 zero a_pq:
    # each rotation takes t = +1, sgn(0) = +1.  The other root gives the
    # same values to rounding but other bits, so the bits are pinned, as the
    # chardecomp golden pins documents.  The cases reach theta = 0 in the
    # complex rotation and in the real rotations of each pair.
    e = eig_hermitian3(np.array(r))
    assert e.values.tolist() == values
    assert np.allclose(e.values, cubic_eigenvalues(np.array(r)), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("r, axes", [
    ([[1.0, 0.0, 1e-9], [0.0, 1.0, 1e-9], [1e-9, 1e-9, 0.0]], [0, 1]),
    ([[1.0, 1e-9, 0.0], [1e-9, 0.0, 1e-9], [0.0, 1e-9, 1.0]], [0, 2]),
    ([[0.0, 1e-9, 1e-9], [1e-9, 1.0, 0.0], [1e-9, 0.0, 1.0]], [1, 2]),
], ids=["pair-01", "pair-02", "pair-12"])
def test_jacobi_skips_entry_below_last_bit(r, axes):
    # The other rotations leave a_pq of about 1e-18 between the two diagonal
    # entries equal to 1, and 100 |a_pq| is below their last bit: the entry
    # is skipped, so the double eigenvalue 1 keeps eigenvectors near the
    # axes e_p and e_q (a rotation of it at theta = 0 would turn them by 45
    # degrees).
    e = eig_hermitian3(np.array(r))
    assert np.allclose(e.values, [1.0, 1.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.abs(e.vectors[:, :2] - np.eye(3)[:, axes]).max() <= 1e-8


def test_eig_normalized_zero_below_smallest_normal_trace():
    # normalized is all-zero where |trace| is at most the smallest normal
    # float, the zero-trace gate of the characteristic decomposition, and
    # values / trace one float above it.
    tiny = sys.float_info.min
    assert eig_hermitian3(np.diag([tiny, 0.0, 0.0])).normalized.tolist() == [0.0, 0.0, 0.0]
    above = math.nextafter(tiny, 1.0)
    assert eig_hermitian3(np.diag([above, 0.0, 0.0])).normalized.tolist() == [1.0, 0.0, 0.0]


def test_unitarity_gate_is_inclusive(monkeypatch):
    # A matrix whose unitarity distance equals UNITARITY_TOL passes the gate,
    # and fails it one float below.
    m = [[1.0 + 2**-40, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    dist = unitarity_distance(m)
    monkeypatch.setattr(unitary3.linalg, "UNITARITY_TOL", dist)
    _check_unitary(as_matrix3(m))
    monkeypatch.setattr(unitary3.linalg, "UNITARITY_TOL", math.nextafter(dist, 0.0))
    with pytest.raises(NotUnitaryError, match="unitarity distance"):
        _check_unitary(as_matrix3(m))


def test_unitarity_gate_names_entry_above_2():
    # An entry of modulus exactly 2 is named by the distance, one of modulus
    # above 2 by its modulus.
    with pytest.raises(NotUnitaryError, match=r"^unitarity distance 3\.000e\+00 exceeds 1e-12$"):
        recover_params(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(NotUnitaryError, match=r"^entry modulus 2\.000e\+00 exceeds 2$"):
        recover_params(np.diag([math.nextafter(2.0, 3.0), 1.0, 1.0]))


NON_FINITE = {
    "re-nan": complex(np.nan, 0.0),
    "re-inf": complex(np.inf, 0.0),
    "re-minf": complex(-np.inf, 0.0),
    "im-nan": complex(0.0, np.nan),
    "im-inf": complex(0.0, np.inf),
    "im-minf": complex(0.0, -np.inf),
}


@pytest.mark.parametrize("z", list(NON_FINITE.values()), ids=list(NON_FINITE))
def test_non_finite_input_rejected(z):
    # A NaN or infinity in either part of any entry raises NonFiniteError
    # before any arithmetic, at every public operation of both pipelines.
    for k in range(3):
        mat = np.eye(3, dtype=complex)
        mat[k, (k + 1) % 3] = z
        # The rotation is real: the non-finite part moves to the real entry.
        rot = mat.real + mat.imag
        for fn, arg in ((recover_params, mat), (unitarity_distance, mat), (middle_component, mat),
                        (eig_hermitian3, mat), (characteristic_decomposition, mat),
                        (regularity_report, mat), (extract_rotation_angles, rot)):
            with pytest.raises(NonFiniteError, match="non-finite"):
                fn(arg)


@pytest.mark.parametrize("shape", [(9,), (1, 9), (9, 1), (3, 3, 1)], ids=str)
def test_shape_other_than_3x3_rejected(shape):
    # Nine entries in any other shape are not read as a 3x3 matrix: every
    # public operation of both pipelines, and serialize_matrix, raises
    # ValueError naming the shape.
    mat = np.eye(3, dtype=complex).reshape(shape)
    for fn in (recover_params, unitarity_distance, middle_component, eig_hermitian3, characteristic_decomposition,
               regularity_report, extract_rotation_angles, serialize_matrix):
        with pytest.raises(ValueError, match=re.escape(f"expected a 3x3 matrix, got shape {shape}")) as info:
            fn(mat)
        assert info.type is ValueError


def chardecomp_pool(seed, n=200) -> list:
    """The benchmark's chardecomp pool (bench/workloads.py): full rank twice
    in five, rank 2, rank 1, and full rank scaled by the next of eight
    decades from 1e-250 to 1e250."""
    scales = (1e-250, 1e-200, 1e-100, 1e-10, 1e3, 1e6, 1e100, 1e250)
    g = SeededGenerator(seed)
    pool = []
    for i in range(n):
        slot = i % 5
        if slot <= 1:
            pool.append(random_psd_hermitian(g))
        elif slot <= 3:
            a = g.complex_gauss_matrix()
            a[:, 4 - slot:] = 0.0
            pool.append(a @ a.conj().T)
        else:
            pool.append(random_psd_hermitian(g) * scales[(i // 5) % len(scales)])
    return pool


def test_jacobi_sweep_cap(tmp_path, monkeypatch):
    # Jacobi converges quadratically: over the benchmark's chardecomp pools
    # at seeds 7, 11 and 12 and the degenerate, graded and scaled cases
    # below, no solve takes more than 6 sweeps, convergence check included,
    # a third of the cap.  A cap the solve cannot meet raises the typed
    # error, which the CLI reports as exit 3.
    g = SeededGenerator(5)
    mats = chardecomp_pool(7) + chardecomp_pool(11) + chardecomp_pool(12)
    for spectrum in ([1, 0, 0], [0.6, 0.4, 0], [0.4, 0.4, 0.2], [0.6, 0.2, 0.2], [1, 1, 1],
                     [1e300, 1.0, 1e-300], [1e150, 1.0, 1e-150]):
        for _ in range(20):
            u = generate_haar_unitary(g)
            mats.append(u @ np.diag(spectrum) @ u.conj().T)
    mats += [r * scale for r in mats[:20] for scale in (1e-250, 1e250)]
    mats += [np.zeros((3, 3)), np.array([[1e300, 1e150, 0], [1e150, 1, 1e-150], [0, 1e-150, 1e-300]])]
    assert unitary3.linalg._MAX_SWEEPS >= 3 * 6
    monkeypatch.setattr(unitary3.linalg, "_MAX_SWEEPS", 6)
    for r in mats:
        eig_hermitian3(r)
    monkeypatch.setattr(unitary3.linalg, "_MAX_SWEEPS", 2)
    with pytest.raises(ConvergenceError, match="still rotating after 2 sweeps"):
        for r in mats:
            eig_hermitian3(r)
    mpath = tmp_path / "r.json"
    mpath.write_text(serialize_matrix(mats[0], kind="hermitian"), encoding="utf-8")
    assert run_cli(["chardecomp", "--matrix", str(mpath)]) == (
        3, "", "error: tolerance failure: Jacobi eigensolver still rotating after 2 sweeps\n")


def numpy_importers(path) -> set:
    """Names of the functions of a module that import numpy, with None for
    an import outside every function."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
                or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_numpy_is_imported_only_at_the_array_boundary():
    # The import rule of the linalg docstring: no module imports numpy when
    # it is imported, and only linalg's array boundary imports it at all.
    package = os.path.dirname(unitary3.linalg.__file__)
    importers = {name[:-3]: numpy_importers(os.path.join(package, name))
                 for name in sorted(os.listdir(package)) if name.endswith(".py")}
    importers = {module: functions for module, functions in importers.items() if functions}
    assert set(importers) == {"linalg"}, importers
    assert importers["linalg"] == {"as_matrix3", "_array", "_eigen"}, importers["linalg"]

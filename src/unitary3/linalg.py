"""Fixed-size complex linear algebra: 3x3 Hermitian eigensolver and helpers.

Public functions take and return plain numpy arrays (shape (3,) complex
vectors and (3, 3) complex matrices); their kernels take a matrix as rows
of Python scalars.  All functions are pure; nothing here mutates its
inputs.  The eigensolver is a Jacobi method in Python floats (_jacobi)
behind a fixed contract: nonincreasing eigenvalues and a deterministic
eigenvector phase.

Validation rule of both pipelines: public operations validate once; stages
are private kernels.  Each public operation (recover_params,
regularity_report, characteristic_decomposition, middle_component,
eig_hermitian3, unitarity_distance, extract_rotation_angles) checks its
input once (as_matrix3: shape, complex dtype and finite parts, read into
rows of Python complex and checked with one map of cmath.isfinite,
imported inside the function as numpy is) and runs private ``_kernels``
on those rows, so one recovery or one coherency report validates its
matrix once.
Kernels re-check nothing the operation's gate (such as the unitarity gate
_check_unitary) already holds; recovery's exit gate is its recomposition
residual.

Import rule: no module of the package imports numpy when it is imported,
none imports typing or pathlib at all (the records are
collections.namedtuple subclasses, and cli reads and writes with open),
and none has a future statement: every annotation evaluates where its
function is defined, so none names numpy, and a function that returns an
array says so in its docstring.
json is imported only where a document is malformed JSON (documents
reads with json's C scanner and writes with % templates).  ``import
unitary3`` loads no submodule: the package resolves each public name on
first access, and cli imports characteristic, sampling and selftest in
the handlers that run them.
The array boundary is three functions here, the only ones in the package
that import numpy, each inside itself: as_matrix3 turns an array into
rows, _array turns a kernel's rows into an array, and _eigen turns a
record's lists into arrays.  Every other module reaches numpy through
them, and only the public array functions call them.  So ``import
unitary3`` does not load numpy, and the first call that builds or reads
an array does; no CLI subcommand loads it.  The CLI's ``recover``,
``roundtrip``, ``chardecomp``, ``compose`` and ``gen`` stay on Python
scalars from the document or seed to the output (documents._parse_rows, then
parametrization._recover_rows or characteristic._regularity and that
command's writer in documents; documents.parse_params, then
parametrization._unitary_rows and documents._matrix_text; or
sampling._haar_rows and documents._matrix_text) and load neither numpy,
nor cmath, nor typing, nor pathlib, nor json, on success and on every
error exit but malformed JSON (unless a ``site`` hook has loaded them
first); ``selftest`` reads the same kernels' rows and takes its norms
(_fsum_norm) and maxima in Python floats.
A public operation is its kernel on ``as_matrix3(m)``: the kernel
returns the operation's record with lists of Python scalars in its array
fields.  The coherency operations build their records of arrays with
_eigen, one np.fromiter call over all the record's complex entries and one
over its floats, so each array field is a writeable view of one buffer
per dtype; a public function that returns one matrix returns _array of
its kernel's rows.

Arithmetic rule: recovery, composition (compose_core, compose_rotation,
compose_unitary), the unitarity gate (_check_unitary,
unitarity_distance), coherency (the eigensolver, the characteristic
decomposition and the regularity report) and sampling (Box-Muller, the
Haar Gram-Schmidt and A A†) run on Python floats and complex, one code
path with no numpy arithmetic, so their bytes do not depend on numpy's
SIMD targets or on the BLAS kernels of the host.  A
matrix is read with one ``tolist()``; elementary functions are math's
(cos, sin, atan2, and log in Box-Muller), and the phase of re + i im is math.atan2(im, re),
bit for bit cmath.phase.  A modulus is math.hypot(re, im) in recovery
and the unitarity gate, and abs(z) of a Python complex in the
eigensolver; abs(z) is the C library's hypot of its parts, and
math.hypot has its own algorithm, so the two can differ in the last
bit.  A vector or Frobenius norm squares each real and imaginary part
(one map of operator.mul), sums the squares with math.fsum (exact,
rounded once) and takes math.sqrt; every 3x3 product is written out with
each sum taken left to right, and the eigensolver uses + - * /,
math.hypot, abs of a complex and abs of a float (exact) only: the
Hermiticity gate's skew of a diagonal entry is the float
abs(Im r_jj + Im r_jj), exactly |r_jj - conj(r_jj)|, and _jacobi keeps
|d_p| of each diagonal entry until a rotation moves d_p.  A complex times a real or
a purely imaginary factor is written as two float products, or as a
product with complex(x, 0.0), so Python's promotion of a float operand
(which Python 3.14 no longer does) decides no sign of zero.  One
dependence remains, the only one of any byte the package writes: glibc
picks an FMA variant of atan2, sin, cos, exp and log by CPU, and those
can differ in the last bit between hosts; math.hypot,
fsum, sqrt and + - * / cannot, and abs of a complex gives what the host
C library's hypot gives.
"""
import math
import operator
import sys
from collections import namedtuple

# The gates defined here.  UNITARITY_TOL and HERMITICITY_TOL are the input
# gates.  FOLD_GATE is the one gate of every fold, in every module: below it
# a quantity is rounding noise and a convention decides (linear column and
# pole, rotation gimbal, mu = 0 and mu = pi/2).
UNITARITY_TOL = 1e-12
HERMITICITY_TOL = 1e-12
FOLD_GATE = 1e-12

_TINY = sys.float_info.min
# The largest frexp exponent of max|R| solved unscaled: above it R + R' or
# the largest eigenvalue (at most 3 max|R|) of a Hermitian R could overflow.
_MAX_EXPONENT = 1022
_SCALED = 2.0 ** _MAX_EXPONENT  # the least max|R| whose frexp exponent exceeds it
# Sweeps of the Jacobi eigensolver before it gives up.  It converges
# quadratically: on the coherency matrices sampled in the tests no solve
# takes more than 6, convergence check included.
_MAX_SWEEPS = 20

class Unitary3Error(Exception):
    """Base of every library error: the CLI prints ``kind`` and exits with
    ``exit_code``.  Each subclass also keeps a ValueError or RuntimeError parent."""

    exit_code = 2
    kind = "precondition violated"


class NonFiniteError(Unitary3Error, ValueError):
    """Input has a NaN or infinite entry."""


class NotHermitianError(Unitary3Error, ValueError):
    """Input matrix is not Hermitian within tolerance."""


class FloatRangeError(Unitary3Error, ValueError):
    """A finite input whose trace, eigenvalue or entry modulus lies beyond
    the largest float."""


class NotUnitaryError(Unitary3Error, ValueError):
    """Matrix expected to pass the unitarity gate."""


class ConvergenceError(Unitary3Error, RuntimeError):
    """The Jacobi eigensolver still had an entry off the diagonal to rotate
    after its last permitted sweep."""

    exit_code = 3
    kind = "tolerance failure"


def as_matrix3(m) -> list:
    """The validator of every public operation: a 3x3 matrix as three rows
    of three Python complex; ValueError for any shape but (3, 3) and
    NonFiniteError for a NaN or infinite part."""
    import cmath

    import numpy as np

    arr = np.asarray(m, dtype=complex)
    if arr.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {arr.shape}")
    rows = arr.tolist()
    a, b, c = rows
    if not all(map(cmath.isfinite, a + b + c)):
        raise NonFiniteError("matrix has non-finite entries")
    return rows


def _array(entries):
    """The 3x3 array of a kernel's result, three rows or nine entries
    row-major, with the dtype numpy infers from them."""
    import numpy as np

    # A caller that has the nine entries flat passes them so: numpy reads a
    # flat list and a reshape faster than nested rows.
    return np.array(entries).reshape(3, 3)


def _check_finite(values):
    """Raise NonFiniteError unless every parameter in ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise NonFiniteError("parameter tuple has non-finite fields")


def _fsum_norm(parts) -> float:
    """Euclidean norm of a sequence of real numbers (the real and imaginary
    parts of a complex vector or matrix): math.sqrt of the math.fsum of
    their squares x * x, a sum that is exact and rounded once.  A square
    beyond the float range gives inf, a sum beyond it OverflowError."""
    return math.sqrt(math.fsum(map(operator.mul, parts, parts)))


def unitarity_distance(m) -> float:
    """Frobenius norm of M†M - I; raises FloatRangeError where that
    overflows (entries of modulus above about 1e77)."""
    dist = _unitarity_distance(as_matrix3(m))
    if not math.isfinite(dist):
        raise FloatRangeError("unitarity distance is beyond the largest float")
    return dist


def _unitarity_distance(rows) -> float:
    """unitarity_distance of M given as rows of Python scalars; inf or NaN
    where it overflows.

    Entry (j, k) of M†M is conj(m0j) m0k + conj(m1j) m1k + conj(m2j) m2k.
    Formed so, it is exactly the conjugate of entry (k, j), and the diagonal
    exactly real, so each entry above the diagonal is formed once and
    counted twice.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    x0, y0, z0 = a0.conjugate(), b0.conjugate(), c0.conjugate()
    x1, y1, z1 = a1.conjugate(), b1.conjugate(), c1.conjugate()
    x2, y2, z2 = a2.conjugate(), b2.conjugate(), c2.conjugate()
    g01 = x0 * a1 + y0 * b1 + z0 * c1
    g02 = x0 * a2 + y0 * b2 + z0 * c2
    g12 = x1 * a2 + y1 * b2 + z1 * c2
    r01, i01, r02, i02, r12, i12 = g01.real, g01.imag, g02.real, g02.imag, g12.real, g12.imag
    try:
        return _fsum_norm((
            (x0 * a0 + y0 * b0 + z0 * c0).real - 1.0,
            (x1 * a1 + y1 * b1 + z1 * c1).real - 1.0,
            (x2 * a2 + y2 * b2 + z2 * c2).real - 1.0,
            r01, i01, r01, i01, r02, i02, r02, i02, r12, i12, r12, i12,
        ))
    except OverflowError:  # finite squares whose sum is beyond the float range
        return math.inf


def _check_unitary(rows) -> None:
    """The unitarity gate on M given as rows of Python scalars:
    NotUnitaryError for a unitarity distance above UNITARITY_TOL, named as
    an entry of modulus above 2 (every entry of a unitary has modulus at
    most 1) where there is one, since M†M may then have overflowed."""
    dist = _unitarity_distance(rows)
    if not dist <= UNITARITY_TOL:
        peak = max(math.hypot(z.real, z.imag) for row in rows for z in row)
        if peak > 2.0:
            raise NotUnitaryError(f"entry modulus {peak:.3e} exceeds 2")
        raise NotUnitaryError(f"unitarity distance {dist:.3e} exceeds {UNITARITY_TOL}")


class EigenDecomposition(namedtuple("EigenDecomposition", "values normalized vectors trace")):
    """Eigenvalues (nonincreasing) and matching orthonormal eigenvectors.

    ``values`` and ``normalized`` are float arrays of shape (3,) and
    ``vectors`` a complex array of shape (3, 3); ``values[i]`` pairs with
    column ``vectors[:, i]``.  ``trace`` is the input's trace (its real
    diagonal summed in order) and ``normalized`` holds values divided by
    it (all-zero where |trace| is at most the smallest normal float).
    """

    __slots__ = ()


def eig_hermitian3(r) -> EigenDecomposition:
    """Diagonalize a 3x3 Hermitian matrix with the Jacobi method in Python
    floats (_jacobi: one complex rotation, then cyclic real rotations).

    Eigenvalues come out sorted nonincreasing, equal ones in the index
    order of the solver's diagonal; eigenvectors are orthonormal with a
    deterministic phase (largest component real positive, the first of
    equal ones).

    Raises NotHermitianError if max|R - R†| exceeds HERMITICITY_TOL times
    max|R|, a gate that holds at any scale (moduli are abs of a complex,
    the C library's hypot, so no square overflows; a diagonal entry's skew
    is the float |Im r_jj + Im r_jj|).  Where the frexp
    exponent of max|R| exceeds _MAX_EXPONENT = 1022, R is multiplied by
    the power of two that puts max|R| in [2**1021, 2**1022) before the
    solve, and the eigenvalues by its inverse after, so no finite input
    overflows inside; a trace or eigenvalue beyond the largest float
    raises FloatRangeError.  Any other R, subnormal
    entries included, is solved as it is (each phase through _unit).
    The solve runs at most _MAX_SWEEPS sweeps and raises ConvergenceError
    (exit 3) if the last of them still rotates; no input is known to come
    near that cap.
    """
    return _eigen(_eig(as_matrix3(r)))[0]


def _eigen(e: EigenDecomposition, *grids) -> tuple:
    """The _eig result ``e`` as an EigenDecomposition of arrays, and the
    complex array of shape (1 + len(grids), 3, 3) whose entry 0 is its
    ``vectors`` and entry ``i`` the ``i``-th of ``grids`` (rows of three
    Python complex).  One np.fromiter call makes that array and one more the
    float buffer of ``values`` and ``normalized``, so each array field of
    a record is a writeable view of one buffer per dtype and shares no
    element with another field."""
    import numpy as np

    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = e.vectors
    entries = [x0, y0, z0, x1, y1, z1, x2, y2, z2]
    for row0, row1, row2 in grids:
        entries += row0
        entries += row1
        entries += row2
    arrays = np.fromiter(entries, complex, len(entries)).reshape(-1, 3, 3)
    reals = np.fromiter(e.values + e.normalized, float, 6)
    return EigenDecomposition(reals[:3], reals[3:], arrays[0], e.trace), arrays


def _eig(rows) -> EigenDecomposition:
    """eig_hermitian3 on R given as rows of Python complex, as an
    EigenDecomposition of Python scalars: ``values`` and ``normalized``
    are lists of floats and ``vectors`` lists the three eigenvectors as
    tuples of Python complex, so ``vectors[i]`` is the column ``i`` of the
    array form."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    try:
        scale = max(map(abs, (r00, r01, r02, r10, r11, r12, r20, r21, r22)))
        # A diagonal entry's r_jj - conj(r_jj) is 2i Im r_jj, so its modulus is
        # the float |Im r_jj + Im r_jj|, exact, and inf where the sum overflows.
        i00, i11, i22 = r00.imag, r11.imag, r22.imag
        skew = max(
            abs(i00 + i00), abs(r01 - r10.conjugate()), abs(r02 - r20.conjugate()),
            abs(i11 + i11), abs(r12 - r21.conjugate()), abs(i22 + i22),
        )
    except OverflowError:
        raise FloatRangeError("an entry of R or R - R' has a modulus beyond the largest float") from None
    if skew > HERMITICITY_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max|R - R'| = {skew:.3e}, max|R| = {scale:.3e}"
        )
    trace = r00.real + r11.real + r22.real
    if math.isinf(trace):
        raise FloatRangeError("trace is beyond the largest float")
    # Above _MAX_EXPONENT (max|R| at least 2**1022) R is scaled exactly to
    # max|R| in [2**1021, 2**1022).  The solve scales exactly with a power of
    # two (_jacobi), so this moves no bit of a result that would not
    # otherwise overflow.
    k = 0
    if scale >= _SCALED:
        k = math.frexp(scale)[1] - _MAX_EXPONENT
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = (
            [complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in row] for row in rows
        )
    # The Hermitian part (R + R†)/2: a real diagonal and three entries above it.
    diagonal, columns = _jacobi(
        r00.real, r11.real, r22.real,
        complex(0.5 * (r01.real + r10.real), 0.5 * (r01.imag - r10.imag)),
        complex(0.5 * (r02.real + r20.real), 0.5 * (r02.imag - r20.imag)),
        complex(0.5 * (r12.real + r21.real), 0.5 * (r12.imag - r21.imag)),
    )
    # Nonincreasing, equal values in index order (a stable sort).
    d0, d1, d2 = diagonal
    if d0 >= d1:
        order = (0, 1, 2) if d1 >= d2 else (0, 2, 1) if d0 >= d2 else (2, 0, 1)
    else:
        order = (1, 0, 2) if d0 >= d2 else (1, 2, 0) if d1 >= d2 else (2, 1, 0)
    o0, o1, o2 = order
    l0, l1, l2 = diagonal[o0], diagonal[o1], diagonal[o2]
    if k:
        try:
            l0, l1, l2 = math.ldexp(l0, k), math.ldexp(l1, k), math.ldexp(l2, k)
        except OverflowError:
            raise FloatRangeError("an eigenvalue is beyond the largest float") from None
    if abs(trace) > _TINY:
        normalized = [l0 / trace, l1 / trace, l2 / trace]
    else:
        normalized = [0.0, 0.0, 0.0]
    vectors = []
    for i in order:
        x0, x1, x2 = columns[i]
        # The phase conj(z)/|z| of the largest component z, the first of
        # equal ones, each part divided by the modulus; a unit column has a
        # nonzero one.
        m0, m1, m2 = abs(x0), abs(x1), abs(x2)
        if m0 >= m1 and m0 >= m2:
            z, m = x0, m0
        elif m1 >= m2:
            z, m = x1, m1
        else:
            z, m = x2, m2
        phase = complex(z.real / m, -z.imag / m)
        vectors.append((x0 * phase, x1 * phase, x2 * phase))
    return EigenDecomposition([l0, l1, l2], normalized, vectors, trace)


def _unit(z: complex, h: float) -> complex:
    """The phase z/h of a nonzero z of modulus h = abs(z), of modulus 1 to
    rounding.  A subnormal h has few significant bits, so up to _TINY z is
    first multiplied by 2**1022 (exact) and abs and / run on normal floats:
    abs rounds a modulus just below _TINY on the subnormal grid, whose
    spacing there is twice the normal grid's, up to _TINY itself."""
    if h <= _TINY:
        z = complex(z.real / _TINY, z.imag / _TINY)
        h = abs(z)
    return complex(z.real / h, z.imag / h)


def _jacobi(d0, d1, d2, a01, a02, a12) -> tuple[tuple, tuple]:
    """Jacobi eigensolver for the Hermitian matrix A with real diagonal
    (d0, d1, d2) and entries a01, a02, a12 above it.  Returns the diagonal
    of V†AV and the columns of the unitary V, each three complex.

    A Jacobi rotation of the pair (p, q) with t = s/c =
    sgn(theta)/(|theta| + sqrt(1 + theta^2)), theta = (a_qq - a_pp)/(2|a_pq|),
    the smaller root of t^2 + 2 theta t = 1, zeroes a_pq and moves
    t |a_pq| between the two diagonal entries.  One complex rotation,
    [[c, s u], [-s conj(u), c]] with u = a01/|a01|, zeroes a01; with one
    entry zero, the diagonal unitary D = diag(u02, u12, 1) of the phases
    of the other two makes D†AD real, and cyclic real Jacobi rotations of
    the pairs (0, 1), (0, 2), (1, 2) diagonalize it: V = W D V_real.  Real
    rotations take fewer Python operations than complex ones: on the
    benchmark's coherency pool the solve takes about 28 % less time than
    with complex rotations throughout.  An entry is skipped
    while 100 |a_pq| is below the last bit of both diagonal entries (the
    test of Numerical Recipes' jacobi); a sweep of three skips is
    convergence, and a sweep that still rotates as the _MAX_SWEEPS-th
    raises ConvergenceError.  Kopp (Int. J. Mod. Phys. C 19, 523, 2008)
    finds Jacobi the most accurate of the 3x3 methods he compares.

    Arithmetic: + - * / on floats, math.hypot, abs of a complex (the C
    library's hypot of its parts), abs of a float (exact: of each b_pq, and
    of each d_p, kept as m_p and recomputed for the two entries a rotation
    moves) and products and sums of two complex; t is 1/(theta +
    hypot(1, theta)), or -1/(hypot(1, theta) - theta) for a negative theta,
    the same float as sgn(theta)/(|theta| + hypot(1, theta));
    the complex rotation's cosine enters as complex(c, 0.0), and a complex
    times a real is written as two float products, so no float operand is
    promoted to complex.  Every product is an entry times a coefficient of
    modulus at most 1, and theta is formed from halves, so nothing
    overflows below 2**1022 and nothing underflows above the subnormals:
    the result scales exactly with a power of two.  A theta beyond the
    float range gives t = 0, a rotation smaller than any float could hold.
    u, u02 and u12 come from _unit, so W and D are unitary even where an
    entry is subnormal, in A or formed in the solve (s a12, with all of A
    normal).
    """
    hypot = math.hypot
    wc, wsu = 1.0, 0j  # the complex rotation's c and s u
    h = abs(a01)
    if h:
        theta = (0.5 * d1 - 0.5 * d0) / h
        if theta < 0.0:
            t = -1.0 / (hypot(1.0, theta) - theta)
        else:
            t = 1.0 / (theta + hypot(1.0, theta))
        wc = 1.0 / hypot(1.0, t)
        s = t * wc
        u = _unit(a01, h)
        wsu = complex(u.real * s, u.imag * s)
        th = t * h
        d0, d1 = d0 - th, d1 + th
        c = complex(wc, 0.0)
        a02, a12 = c * a02 - wsu * a12, c * a12 + wsu.conjugate() * a02
    b01, b02, b12 = 0.0, abs(a02), abs(a12)
    u02 = _unit(a02, b02) if b02 else 1 + 0j
    u12 = _unit(a12, b12) if b12 else 1 + 0j
    v00 = v11 = v22 = 1.0
    v01 = v02 = v10 = v12 = v20 = v21 = 0.0
    m0, m1, m2 = abs(d0), abs(d1), abs(d2)  # |d_p|, recomputed where a rotation moves d_p
    # The three pairs are written out: one rotation in a loop over
    # relabelled indices took about 20 % more time per solve.
    for _ in range(_MAX_SWEEPS):
        rotated = False
        g = 100.0 * abs(b01)
        if m0 + g != m0 or m1 + g != m1:
            rotated = True
            theta = (0.5 * d1 - 0.5 * d0) / b01
            if theta < 0.0:
                t = -1.0 / (hypot(1.0, theta) - theta)
            else:
                t = 1.0 / (theta + hypot(1.0, theta))
            c = 1.0 / hypot(1.0, t)
            s = t * c
            th = t * b01
            d0, d1, b01 = d0 - th, d1 + th, 0.0
            m0, m1 = abs(d0), abs(d1)
            b02, b12 = c * b02 - s * b12, c * b12 + s * b02
            v00, v01 = c * v00 - s * v01, c * v01 + s * v00
            v10, v11 = c * v10 - s * v11, c * v11 + s * v10
            v20, v21 = c * v20 - s * v21, c * v21 + s * v20
        g = 100.0 * abs(b02)
        if m0 + g != m0 or m2 + g != m2:
            rotated = True
            theta = (0.5 * d2 - 0.5 * d0) / b02
            if theta < 0.0:
                t = -1.0 / (hypot(1.0, theta) - theta)
            else:
                t = 1.0 / (theta + hypot(1.0, theta))
            c = 1.0 / hypot(1.0, t)
            s = t * c
            th = t * b02
            d0, d2, b02 = d0 - th, d2 + th, 0.0
            m0, m2 = abs(d0), abs(d2)
            b01, b12 = c * b01 - s * b12, c * b12 + s * b01
            v00, v02 = c * v00 - s * v02, c * v02 + s * v00
            v10, v12 = c * v10 - s * v12, c * v12 + s * v10
            v20, v22 = c * v20 - s * v22, c * v22 + s * v20
        g = 100.0 * abs(b12)
        if m1 + g != m1 or m2 + g != m2:
            rotated = True
            theta = (0.5 * d2 - 0.5 * d1) / b12
            if theta < 0.0:
                t = -1.0 / (hypot(1.0, theta) - theta)
            else:
                t = 1.0 / (theta + hypot(1.0, theta))
            c = 1.0 / hypot(1.0, t)
            s = t * c
            th = t * b12
            d1, d2, b12 = d1 - th, d2 + th, 0.0
            m1, m2 = abs(d1), abs(d2)
            b01, b02 = c * b01 - s * b02, c * b02 + s * b01
            v01, v02 = c * v01 - s * v02, c * v02 + s * v01
            v11, v12 = c * v11 - s * v12, c * v12 + s * v11
            v21, v22 = c * v21 - s * v22, c * v22 + s * v21
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi eigensolver still rotating after {_MAX_SWEEPS} sweeps")
    # Rows 0 and 1 of W D are (c u02, s u u12, 0) and (-s conj(u) u02, c u12, 0).
    x, y = wsu * u12, -(wsu.conjugate() * u02)
    w00r, w00i, w01r, w01i = wc * u02.real, wc * u02.imag, x.real, x.imag
    w10r, w10i, w11r, w11i = y.real, y.imag, wc * u12.real, wc * u12.imag
    return (d0, d1, d2), (
        (complex(w00r * v00 + w01r * v10, w00i * v00 + w01i * v10),
         complex(w10r * v00 + w11r * v10, w10i * v00 + w11i * v10), complex(v20, 0.0)),
        (complex(w00r * v01 + w01r * v11, w00i * v01 + w01i * v11),
         complex(w10r * v01 + w11r * v11, w10i * v01 + w11i * v11), complex(v21, 0.0)),
        (complex(w00r * v02 + w01r * v12, w00i * v02 + w01i * v12),
         complex(w10r * v02 + w11r * v12, w10i * v02 + w11i * v12), complex(v22, 0.0)),
    )

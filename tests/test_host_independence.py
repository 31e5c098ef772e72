"""Recovery, composition and coherency give the same bytes whatever SIMD
targets numpy dispatches to and whatever kernels OpenBLAS selects.

Each setting is an environment variable that one subprocess reads when it
starts (NPY_DISABLE_CPU_FEATURES, OPENBLAS_CORETYPE); nothing outside that
subprocess changes.  The input documents are made once, in this process,
and fed to every subprocess over stdin, so the host-bound sampler does not
enter the comparison.  glibc's choice of libm variant is not varied here:
it is the one dependence the arithmetic keeps (README, Arithmetic).
"""
import functools
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unitary3
from unitary3 import (compose_unitary, generate_haar_unitary, parse_matrix, random_params,
                      recover_params, serialize_matrix)
from unitary3.sampling import SeededGenerator

from test_cli import CHARDECOMP_GOLDEN, HAAR_7, HAAR_7_FLIPPED, RECOVER_FACE_PARAMS
from test_linalg import chardecomp_pool
from test_parametrization import _FACES


def output_hash(texts, coherency_texts) -> str:
    """sha256 over the recover and compose output of every document of
    ``texts`` (the serialized tuple, residual, branch and flag, and the
    recomposed matrix) and over every field of the regularity report of
    every document of ``coherency_texts``, which chardecomp prints."""
    import hashlib

    from unitary3 import (compose_unitary, parse_matrix, recover_params, regularity_report,
                          serialize_matrix, serialize_params)

    h = hashlib.sha256()
    for text in texts:
        rep = recover_params(parse_matrix(text))
        h.update(serialize_params(rep.params).encode())
        h.update(repr((rep.residual, rep.branch, rep.global_phase_alpha1_degenerate)).encode())
        h.update(serialize_matrix(compose_unitary(rep.params)).encode())
    for text in coherency_texts:
        rep = regularity_report(parse_matrix(text))
        c = rep.components
        h.update(repr((c.traceR, c.eigen.values.tolist(), c.eigen.vectors.tolist(), c.purity,
                       c.coefficients, c.Rp_hat.tolist(), c.Rm_hat.tolist(), rep.m1_hat, rep.m2_hat,
                       rep.m3_hat, rep.chi_m, rep.regular, rep.im_norm)).encode())
    return h.hexdigest()


@functools.cache
def documents() -> tuple:
    """The recover goldens' inputs, 300 Haar draws and 176 documents on and
    near the eight chart faces; and the chardecomp goldens' inputs plus the
    benchmark's chardecomp pool at seed 7 (200 matrices of full rank,
    rank 2, rank 1 and scales 1e-250 to 1e250)."""
    texts = HAAR_7 + HAAR_7_FLIPPED
    params = [unitary3.parse_params(json.dumps(p)) for p in RECOVER_FACE_PARAMS]
    g = SeededGenerator(62)
    for place in _FACES.values():
        for offset in [10.0 ** -k for k in range(4, 14)] + [0.0]:
            params += [place(random_params(g, margin=0.05), (-1) ** i, offset) for i in range(2)]
    texts += [serialize_matrix(compose_unitary(p), kind="unitary") for p in params]
    texts += [serialize_matrix(generate_haar_unitary(g), kind="unitary") for _ in range(300)]
    coherency = [case["matrix"] for case in json.loads(CHARDECOMP_GOLDEN.read_text(encoding="utf-8"))]
    coherency += [serialize_matrix(r, kind="hermitian") for r in chardecomp_pool(7)]
    return texts, coherency


@functools.cache
def in_process_hash() -> str:
    return output_hash(*documents())


def settings() -> list:
    """OPENBLAS_CORETYPE=Prescott, then numpy's dispatch targets that this
    CPU has, disabled one more at a time from the top down to the baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in getattr(umath, "__cpu_dispatch__", [])
               if umath.__cpu_features__.get(t)]
    found = [{"OPENBLAS_CORETYPE": "Prescott"}]
    for k in range(1, len(targets) + 1):
        found.append({"NPY_DISABLE_CPU_FEATURES": " ".join(reversed(targets[-k:]))})
    return found


@pytest.mark.parametrize("setting", settings(), ids=lambda s: " ".join(f"{k}={v}" for k, v in s.items()))
def test_same_bytes_under_setting(setting):
    want = in_process_hash()
    src = str(Path(unitary3.__file__).resolve().parent.parent)
    env = dict(os.environ, **setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = inspect.getsource(output_hash) + "\nimport json, sys\nprint(output_hash(*json.load(sys.stdin)))\n"
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(documents()), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


def test_recovered_alpha1_in_range():
    # The representative rule: recovery returns the tuple with alpha1 in
    # [-pi/2, pi/2], the range of half the phase of u1.u1.  alpha1 is read
    # off V1[0, 0] and carries its rounding, hence the 1e-15.
    for text in documents()[0]:
        alpha1 = recover_params(parse_matrix(text)).params.alpha1
        assert abs(alpha1) <= math.pi / 2 + 1e-15, (alpha1, text)

"""The four workloads: seeded inputs, the per-document chain and its check.

Every input comes from ``SeededGenerator(seed)``, so a seed fixes the pool
of documents. A document is timed from its text to the library's output;
the check that follows is untimed and uses only ``oracles``.
"""
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import unitary3


@dataclass
class Doc:
    text: str
    stratum: str
    matrix: np.ndarray
    command: str = ""  # CLI subcommand (cli-process only)
    path: str = ""  # input file (cli-process only)
    expected: dict | None = None  # in-process result the CLI must match


@dataclass(frozen=True)
class Workload:
    pool_size: int
    generate: Callable  # (generator, n, workdir) -> list[Doc]
    process: Callable  # Doc -> output, timed
    check: Callable  # (Doc, output) -> bool, untimed
    # A fixed task outside unitary3: () -> ns. Against reference_ns it gives
    # the machine's speed during the run, which the end-to-end times are
    # scaled by. By default it is timed once per pass and its fastest time
    # is used, and each document counts at its fastest repeat.
    reference: Callable
    reference_ns: float
    # Time the reference after every document instead, and count each
    # document at the median of its times over the reference timed just
    # after them: for documents so long that a run holds few repeats, whose
    # fastest repeat is itself noisy.
    paired: bool = False
    # A failure of this (stratum, error name) is one of the library's known
    # defects: set-up counts it and leaves the document out of the timed pool.
    known_defect: Callable = lambda stratum, error: False


def _matrix_text(m: np.ndarray, kind: str) -> str:
    return json.dumps({"kind": kind, "re": m.real.tolist(), "im": m.imag.tolist()})


# --- speed references --------------------------------------------------------

_REFERENCE_PARAMS = dict(phi=0.3, theta=0.4, varphi=0.5, chi=0.2, mu=0.7, alpha1=0.1, alpha2=0.2, alpha3=0.3, beta2=0.4)


def _numpy_reference() -> int:
    """Small-array numpy and Python work, the mix the in-process chains run."""
    start = time.perf_counter_ns()
    for _ in range(20):
        oracles.compose(_REFERENCE_PARAMS)
    return time.perf_counter_ns() - start


def _interpreter_reference() -> int:
    """A bare interpreter start, most of what one CLI process costs."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter_ns() - start


# --- recovery ---------------------------------------------------------------


def _haar(g, n, workdir):
    docs = []
    for _ in range(n):
        u = unitary3.generate_haar_unitary(g)
        docs.append(Doc(_matrix_text(u, "unitary"), "haar", u))
    return docs


# Chart faces as (field, label, value, side); side 0 draws the side per input.
FACES = (
    ("chi", "0", 0.0, 0),
    ("chi", "pi/4", math.pi / 4, -1),
    ("chi", "-pi/4", -math.pi / 4, 1),
    ("mu", "0", 0.0, 1),
    ("mu", "pi/2", math.pi / 2, -1),
    ("theta", "0", 0.0, 0),
    ("theta", "pi/2", math.pi / 2, -1),
    ("theta", "-pi/2", -math.pi / 2, 1),
)
OFFSETS = tuple(10.0**-k for k in range(4, 14)) + (0.0,)


def _faces(g, n, workdir):
    """Unitaries on and near each chart face, faces and offsets round-robin.

    The other eight parameters are drawn 0.05 clear of every face; the
    matrix is composed by the oracle, not by the library.
    """
    docs = []
    for i in range(n):
        field, label, face, side = FACES[i % len(FACES)]
        offset = OFFSETS[(i // len(FACES)) % len(OFFSETS)]
        p = unitary3.random_params(g, margin=0.05).as_dict()
        if side == 0:
            side = 1.0 if g.uniform() < 0.5 else -1.0
        p[field] = face + side * offset
        u = oracles.compose(p)
        docs.append(Doc(_matrix_text(u, "unitary"), f"{field}@{label}~{offset:.0e}", u))
    return docs


def _recover(doc):
    return unitary3.serialize_params(unitary3.recover_params(unitary3.parse_matrix(doc.text)).params)


def _check_recover(doc, out):
    return oracles.recovery_ok(doc.matrix, json.loads(out))


# --- coherency --------------------------------------------------------------

SCALES = (1e-250, 1e-200, 1e-100, 1e-10, 1e3, 1e6, 1e100, 1e250)


def _coherency(g, n, workdir):
    """Strata in a cycle of five: full rank twice, rank 2, rank 1, and one
    full-rank matrix scaled by the next decade of SCALES."""
    docs = []
    for i in range(n):
        slot = i % 5
        if slot <= 1:
            r, stratum = unitary3.random_psd_hermitian(g), "full"
        elif slot <= 3:
            rank = 4 - slot
            a = g.complex_gauss_matrix()
            a[:, rank:] = 0.0
            r, stratum = a @ a.conj().T, f"rank{rank}"
        else:
            scale = SCALES[(i // 5) % len(SCALES)]
            r, stratum = unitary3.random_psd_hermitian(g) * scale, f"scale{scale:.0e}"
        docs.append(Doc(_matrix_text(r, "hermitian"), stratum, r))
    return docs


def _chardecomp(doc):
    r = unitary3.parse_matrix(doc.text)
    return unitary3.characteristic_decomposition(r), unitary3.regularity_report(r)


def _check_chardecomp(doc, out):
    return oracles.chardecomp_ok(doc.matrix, *out)


# --- one CLI process per document -------------------------------------------


def _cli_inputs(g, n, workdir):
    """Alternate recover on a Haar unitary and chardecomp on A A†, unit scale."""
    workdir.mkdir(parents=True, exist_ok=True)
    docs = []
    for i in range(n):
        if i % 2 == 0:
            m, kind, command = unitary3.generate_haar_unitary(g), "unitary", "recover"
        else:
            m, kind, command = unitary3.random_psd_hermitian(g), "hermitian", "chardecomp"
        path = workdir / f"doc{i}.json"
        text = _matrix_text(m, kind)
        path.write_text(text, encoding="utf-8")
        docs.append(Doc(text, command, m, command, str(path)))
    return docs


def _run_cli(doc):
    proc = subprocess.run(
        [sys.executable, "-m", "unitary3.cli", doc.command, "--matrix", doc.path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def _expected(doc) -> dict | None:
    """The CLI fields the in-process chain computes, or None if that chain
    fails its own oracle."""
    if doc.command == "recover":
        rep = unitary3.recover_params(doc.matrix)
        params = json.loads(unitary3.serialize_params(rep.params))
        if not oracles.recovery_ok(doc.matrix, params):
            return None
        return {
            **params,
            "residual": rep.residual,
            "branch": rep.branch,
            "global_phase_alpha1_degenerate": rep.global_phase_alpha1_degenerate,
        }
    comp = unitary3.characteristic_decomposition(doc.matrix)
    rep = unitary3.regularity_report(doc.matrix)
    if not oracles.chardecomp_ok(doc.matrix, comp, rep):
        return None
    return {
        "trace": comp.traceR,
        "P1": comp.purity.P1,
        "P2": comp.purity.P2,
        "coefficients": list(comp.coefficients),
        "regularity": {
            "m_hat": [rep.m1_hat, rep.m2_hat, rep.m3_hat],
            "chi_m": rep.chi_m,
            "regular": rep.regular,
            "im_norm": rep.im_norm,
        },
    }


def _check_cli(doc, out):
    code, stdout = out
    if code != 0:
        return False
    if doc.expected is None:
        doc.expected = _expected(doc)
    if doc.expected is None:
        return False
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    return all(got.get(k) == v for k, v in doc.expected.items())


# Nominal times of the references on a 2-core Intel Xeon container at rest,
# Python 3.11, numpy 2.4: the fastest time of the numpy task, and the median
# interpreter start when timed after every CLI document.
NUMPY_REFERENCE_NS = 330e3
INTERPRETER_REFERENCE_NS = 62e6

WORKLOADS = {
    "recover-haar": Workload(500, _haar, _recover, _check_recover, _numpy_reference, NUMPY_REFERENCE_NS),
    "recover-faces": Workload(
        len(FACES) * len(OFFSETS) * 5,
        _faces,
        _recover,
        _check_recover,
        _numpy_reference,
        NUMPY_REFERENCE_NS,
        known_defect=lambda stratum, error: error == "RecoveryToleranceError",
    ),
    "chardecomp": Workload(
        200,
        _coherency,
        _chardecomp,
        _check_chardecomp,
        _numpy_reference,
        NUMPY_REFERENCE_NS,
        known_defect=lambda stratum, error: stratum.startswith("scale"),
    ),
    "cli-process": Workload(
        2, _cli_inputs, _run_cli, _check_cli, _interpreter_reference, INTERPRETER_REFERENCE_NS, paired=True
    ),
}

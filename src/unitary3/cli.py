"""Command-line interface.

Subcommands: compose, recover, roundtrip, chardecomp, gen, selftest.
Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, else the Unitary3Error class's (1 malformed input, 2 precondition
violated or an output that cannot be written, 3 tolerance failure); any other
exception is a bug and propagates.  A usage error (argparse) exits 2 with a
usage message.  A reader that closes stdout early (as ``| head -1`` does)
chose to stop, so that exits 0 with nothing on stderr.  ``recover``,
``roundtrip`` and ``chardecomp`` run on Python scalars from document to
output and never load numpy (the import rule in unitary3.linalg).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .characteristic import _regularity
from .linalg import Unitary3Error
from .parametrization import (RECOVERY_TOL, RecoveryToleranceError, _recover_rows, compose_core,
                              compose_unitary)
from .documents import (
    MalformedDocumentError,
    OutputWriteError,
    _parse_rows,
    parse_params,
    serialize_matrix,
    serialize_params,
)
from .sampling import ALGORITHM, SeededGenerator, generate_haar_unitary
from .selftest import run_selftest


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedDocumentError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: str | Path | None):
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputWriteError(str(exc)) from exc
    else:
        sys.stdout.write(text)


def _grid(rows) -> dict:
    return {"re": [[z.real for z in row] for row in rows], "im": [[z.imag for z in row] for row in rows]}


def _cmd_compose(args) -> int:
    p = parse_params(_read_text(args.params))
    if args.core_only:
        m = compose_core(p.chi, p.mu, p.alpha1, p.alpha2, p.alpha3, p.beta2)
    else:
        m = compose_unitary(p)
    _emit(serialize_matrix(m, kind="unitary"), args.out)
    return 0


def _cmd_recover(args) -> int:
    report = _recover_rows(_parse_rows(_read_text(args.matrix)), args.tolerance)
    doc = json.loads(serialize_params(report.params))
    doc["residual"] = report.residual
    doc["branch"] = report.branch
    doc["global_phase_alpha1_degenerate"] = report.global_phase_alpha1_degenerate
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    report = _recover_rows(_parse_rows(_read_text(args.matrix)), args.tolerance)
    sys.stdout.write(json.dumps({"residual": report.residual, "branch": report.branch}) + "\n")
    return 0


def _cmd_chardecomp(args) -> int:
    rep = _regularity(_parse_rows(_read_text(args.matrix)))
    c = rep.components
    doc = {
        "trace": c.traceR,
        "eigenvalues": c.eigen.values,
        "P1": c.purity.P1,
        "P2": c.purity.P2,
        "coefficients": list(c.coefficients),
        "Rp_hat": _grid(c.Rp_hat),
        "Rm_hat": _grid(c.Rm_hat),
        "Ru_hat": _grid(c.Ru_hat),
        "regularity": {
            "m_hat": [rep.m1_hat, rep.m2_hat, rep.m3_hat],
            "chi_m": rep.chi_m,
            "regular": rep.regular,
            "im_norm": rep.im_norm,
        },
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    g = SeededGenerator(args.seed)
    for i in range(args.haar):
        text = serialize_matrix(generate_haar_unitary(g), kind="unitary")
        if args.out_dir:
            path = Path(args.out_dir)
            try:
                path.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise OutputWriteError(str(exc)) from exc
            _emit(text, path / f"haar_{args.seed}_{i:04d}.json")
        else:
            sys.stdout.write(text)
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest() else RecoveryToleranceError.exit_code


def _tolerance(text: str) -> float:
    """A --tolerance: a finite float >= 0.  NaN or a negative value fails
    every recovery, and inf passes every one."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """A --haar count: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A --seed: an int in [0, 2**64), the generator's state space."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitary3",
        description="Nine-parameter composition and recovery of 3x3 unitaries, "
        "characteristic decomposition of coherency matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compose", help="params document to matrix document")
    c.add_argument("--params", required=True)
    c.add_argument("--core-only", action="store_true")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_compose)

    r = sub.add_parser("recover", help="matrix document to params document")
    r.add_argument("--matrix", required=True)
    r.add_argument("--tolerance", type=_tolerance, default=RECOVERY_TOL)
    r.add_argument("--out")
    r.set_defaults(func=_cmd_recover)

    t = sub.add_parser("roundtrip", help="recover then recompose; print residual")
    t.add_argument("--matrix", required=True)
    t.add_argument("--tolerance", type=_tolerance, default=RECOVERY_TOL)
    t.set_defaults(func=_cmd_roundtrip)

    d = sub.add_parser("chardecomp", help="characteristic decomposition report")
    d.add_argument("--matrix", required=True)
    d.add_argument("--out")
    d.set_defaults(func=_cmd_chardecomp)

    g = sub.add_parser("gen", help=f"emit Haar-random unitaries ({ALGORITHM})")
    g.add_argument("--haar", type=_count, required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out-dir")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("selftest", help="run the invariant suite")
    s.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except Unitary3Error as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit; on devnull that cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: option parsing, file I/O and dispatch only.

Subcommands: compose, recover, roundtrip, chardecomp, gen, selftest.  A
handler reads its input document, runs one library kernel and passes what
the kernel returns to a writer of unitary3.documents, which owns every
document format; the composition order is parametrization's.
Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 success, else the Unitary3Error class's (1 malformed input, 2 precondition
violated or an output that cannot be written, 3 tolerance failure); any other
exception is a bug and propagates.  The options of each subcommand are in
the table COMMANDS, read by parse_args: a usage error exits 2 with the
usage line and ``unitary3 <cmd>: error: <message>`` on stderr, and -h or
--help prints the usage line and help to stdout and exits 0.  A reader
that closes stdout early (as ``| head -1`` does) chose to stop, so that
exits 0 with nothing on stderr.  ``recover``, ``roundtrip``,
``chardecomp`` and ``compose`` run on Python scalars from document to
output and never load numpy (the import rule in unitary3.linalg).
"""
from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .characteristic import _regularity
from .linalg import Unitary3Error
from .parametrization import RECOVERY_TOL, RecoveryToleranceError, _recover_rows, _unitary_rows
from .documents import (
    MalformedDocumentError,
    OutputWriteError,
    _chardecomp_text,
    _matrix_text,
    _parse_rows,
    _recovery_text,
    _roundtrip_text,
    parse_params,
    serialize_matrix,
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


def _cmd_compose(args) -> int:
    p = parse_params(_read_text(args.params))
    _emit(_matrix_text(_unitary_rows(p, args.core_only), "unitary"), args.out)
    return 0


def _cmd_recover(args) -> int:
    report = _recover_rows(_parse_rows(_read_text(args.matrix)), args.tolerance)
    _emit(_recovery_text(report), args.out)
    return 0


def _cmd_roundtrip(args) -> int:
    report = _recover_rows(_parse_rows(_read_text(args.matrix)), args.tolerance)
    sys.stdout.write(_roundtrip_text(report))
    return 0


def _cmd_chardecomp(args) -> int:
    _emit(_chardecomp_text(_regularity(_parse_rows(_read_text(args.matrix)))), args.out)
    return 0


def _cmd_gen(args) -> int:
    g = SeededGenerator(args.seed)
    if args.out_dir and args.haar:
        try:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputWriteError(str(exc)) from exc
    for i in range(args.haar):
        text = serialize_matrix(generate_haar_unitary(g), kind="unitary")
        _emit(text, args.out_dir and Path(args.out_dir, f"haar_{args.seed}_{i:04d}.json"))
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest() else RecoveryToleranceError.exit_code


def _value(kind, ok, rule: str):
    """The converter of an option whose value is ``kind(text)`` where ``ok``
    holds of it; ``rule`` says what ``ok`` asks for in the usage error."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise ValueError(f"{rule}, got {text!r}")
        return value

    return convert


# NaN or a negative tolerance fails every recovery, and inf passes every one.
_tolerance = _value(float, lambda x: math.isfinite(x) and x >= 0.0, "must be a finite number >= 0")
_count = _value(int, lambda n: n >= 0, "must be >= 0")
# The generator's state space.
_seed = _value(int, lambda n: 0 <= n < 1 << 64, "must lie in [0, 2**64)")


def _path(text: str) -> str:
    """An --out or --out-dir: a non-empty path.  An empty one would send
    the output to stdout as if the option were not given."""
    if not text:
        raise ValueError("expected a non-empty path")
    return text


_DESCRIPTION = ("Nine-parameter composition and recovery of 3x3 unitaries, characteristic\n"
                "decomposition of coherency matrices.")
_REQUIRED = object()

# Each subcommand: its handler, its one-line help and its options.  An
# option maps to (converter, default): a converter of None makes it a flag
# (False unless given), a default of _REQUIRED one that must be given.
COMMANDS = {
    "compose": (_cmd_compose, "params document to matrix document",
                {"--params": (str, _REQUIRED), "--core-only": (None, False), "--out": (_path, None)}),
    "recover": (_cmd_recover, "matrix document to params document",
                {"--matrix": (str, _REQUIRED), "--tolerance": (_tolerance, RECOVERY_TOL),
                 "--out": (_path, None)}),
    "roundtrip": (_cmd_roundtrip, "recover then recompose; print residual",
                  {"--matrix": (str, _REQUIRED), "--tolerance": (_tolerance, RECOVERY_TOL)}),
    "chardecomp": (_cmd_chardecomp, "characteristic decomposition report",
                   {"--matrix": (str, _REQUIRED), "--out": (_path, None)}),
    "gen": (_cmd_gen, f"emit Haar-random unitaries ({ALGORITHM})",
            {"--haar": (_count, _REQUIRED), "--seed": (_seed, 0), "--out-dir": (_path, None)}),
    "selftest": (_cmd_selftest, "run the invariant suite", {}),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: unitary3 [-h] {" + ",".join(COMMANDS) + "} ...\n"
    words = ["usage: unitary3", command, "[-h]"]
    for name, (convert, default) in COMMANDS[command][2].items():
        word = name if convert is None else f"{name} {name[2:].upper().replace('-', '_')}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words) + "\n"


def _help(command: str | None):
    """Print the usage line and the help of the program or of ``command``; exit 0."""
    if command is None:
        lines = [_DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<12}{summary}" for name, (_, summary, _) in COMMANDS.items()]
    else:
        lines = [COMMANDS[command][1]]
    sys.stdout.write(_usage(command) + "\n" + "\n".join(lines) + "\n")
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    """A usage error: the usage line and ``message`` on stderr; exit 2."""
    prog = "unitary3" if command is None else f"unitary3 {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(options: dict, flag: str) -> str | None:
    """The option ``flag`` names: itself, or the one option it is a prefix of."""
    if flag in options:
        return flag
    if not flag.startswith("--") or flag == "--":
        return None
    found = [name for name in options if name.startswith(flag)]
    return found[0] if len(found) == 1 else None


def parse_args(argv: list):
    """The handler and the namespace of the command line ``argv`` (without
    the program name).  An option takes ``--opt value`` or ``--opt=value``,
    or a unique prefix of its name; a repeated one keeps its last value."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    run, _, options = COMMANDS[command]
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, eq, value = token.partition("=")
        name = _option(options, flag)
        if name is None:
            _fail(command, f"unrecognized arguments: {token}")
        convert = options[name][0]
        if convert is None:
            if eq:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _fail(command, f"argument {name}: expected one argument")
        try:
            values[name] = convert(value)
        except ValueError as exc:
            _fail(command, f"argument {name}: {exc}")
    missing = [name for name, (_, default) in options.items() if default is _REQUIRED and name not in values]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    return run, SimpleNamespace(**{name[2:].replace("-", "_"): values.get(name, default)
                                   for name, (_, default) in options.items()})


def main(argv=None) -> int:
    run, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = run(args)
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

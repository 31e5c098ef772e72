#!/usr/bin/env bash
# The installed unitary3 console script and python -m unitary3.cli on every
# row of tests/cli_cases.py: each gives the row's exit code, stdout (through
# cli_cases.stable) and stderr, and leaves the row's files, so the two
# match.  Run from the repository root, with the python and unitary3 of the
# environment under test first on PATH; each run has a new temporary
# directory holding the row's documents.  The rows are read in Python, as
# bash word splitting would lose an empty argument such as --out ''.
set -eu
python - "$PWD/tests" <<'EOF'
import subprocess, sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from cli_cases import CASES, stable

for case in CASES:
    for command in (["unitary3"], [sys.executable, "-m", "unitary3.cli"]):
        with tempfile.TemporaryDirectory() as directory:
            for name, data in case.files.items():
                Path(directory, name).write_bytes(data)
            run = subprocess.run(command + case.argv, cwd=directory, capture_output=True)
            left = {path.relative_to(directory).as_posix(): path.read_bytes()
                    for path in Path(directory).rglob("*") if path.is_file()}
        if ((run.returncode, stable(run.stdout.decode()), run.stderr.decode(), left)
                != (case.code, case.stdout, case.stderr, {**case.files, **case.writes})):
            sys.exit(f"differs: {command[0]} {case.argv}")
EOF

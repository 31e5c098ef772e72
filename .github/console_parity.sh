#!/usr/bin/env bash
# The installed unitary3 console script against python -m unitary3.cli on
# fourteen argument lists: the same exit code (the first word of each list),
# stdout bytes and stderr bytes.  Run from the repository root, with the
# python and unitary3 of the environment under test first on PATH; it works
# in a new temporary directory.
set -eu
chardecomp=$PWD/tests/chardecomp_full.json
cd "$(mktemp -d)"
printf '{not json' > bad.json && python -m unitary3.cli gen --haar 1 --seed 1 > m.json
printf '{"kind": "unitary", "re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}\n' > eye.json
for argv in "0 gen --haar 1 --seed 1" "0 recover --matrix m.json" "0 recover --matrix m.json --out r.json" \
    "0 roundtrip --matrix m.json" "0 compose --params r.json" "0 compose --params r.json --core-only" \
    "0 recover --matrix eye.json" "0 roundtrip --matrix eye.json" \
    "0 chardecomp --matrix $chardecomp" \
    "1 recover --matrix bad.json" "2 gen --haar -1" "3 roundtrip --matrix m.json --tolerance 1e-30" "0 --help" \
    "0 gen --help"; do
  set -- $argv; want=$1; shift
  got=0; unitary3 "$@" > s.out 2> s.err || got=$?
  ref=0; python -m unitary3.cli "$@" > m.out 2> m.err || ref=$?
  [ "$got $ref" = "$want $want" ] && cmp s.out m.out && cmp s.err m.err || { echo "differs: $argv"; exit 1; }
done

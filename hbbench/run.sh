#!/usr/bin/env bash
# Build the program and the benchmark from this checkout, then run one
# benchmark workload. Run from the checkout root:
#
#   bash hbbench/run.sh --workload signoff|whatif|query --seed N \
#     --seconds S --trace 0|1
#
# The last line of standard output is the JSON result. Build output
# goes to standard error.
set -euo pipefail
# Keep every build read and write inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/hummingbird.exe ./hbbench/hbbench.exe 1>&2
exec ./_build/default/hbbench/hbbench.exe "$@"

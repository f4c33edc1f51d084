#!/usr/bin/env bash
# One benchmark run, from the root of a checkout:
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds bvbench from source (dune's shared cache off, so nothing is
# written outside the checkout), then runs it.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a branch-vanguard checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/e2e/bvbench.exe >&2
exec ./_build/default/bench/e2e/bvbench.exe run "$@"

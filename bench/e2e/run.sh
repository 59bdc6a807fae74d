#!/bin/sh
# Builds the end-to-end benchmark from source and runs it. Run from the
# root of a checkout; the arguments go to the benchmark, e.g.
#
#   sh bench/e2e/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# The build writes only under _build/ (the shared dune cache is off), and
# build messages go to stderr so that stdout carries only the results.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a cyclesteal checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"

#!/bin/sh
# Build the benchmark from source and run one workload from the root of
# the checkout:
#
#   sh perfbench/run.sh --workload fleet|serve|migrate --seed N --seconds S --trace 0|1
#
# The build's output goes to stderr; stdout carries only the benchmark's
# report, whose last line is the result object. Everything is built and
# written inside the checkout (dune's shared cache is disabled).
set -eu
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib/workloads ] || [ ! -f perfbench/reference.txt ]; then
  echo "perfbench: not a source checkout of the simulator (dune-project, lib/ or the references are missing)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2

PERFBENCH_COMMIT=unknown
if command -v git >/dev/null 2>&1 \
   && [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$(pwd -P)" ]; then
  PERFBENCH_COMMIT=$(git rev-parse HEAD)
fi
export PERFBENCH_COMMIT

exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source and run it:
#
#   bash qbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of stdout is the result object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "qbench: run from the repository root (no dune-project and lib/ here)" >&2
  exit 2
fi

dune build --root . --cache=disabled --display quiet qbench/main.exe >&2
QBENCH_NPROC="$(nproc 2>/dev/null || echo unknown)"
export QBENCH_NPROC
exec ./_build/default/qbench/main.exe "$@"

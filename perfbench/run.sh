#!/usr/bin/env bash
# One benchmark run, built from source in this checkout:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the run's report and its final JSON line
# go to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe ./bin/ivc_serve.exe 1>&2
exec ./_build/default/perfbench/main.exe --serve ./_build/default/bin/ivc_serve.exe "$@"

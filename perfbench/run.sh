#!/bin/sh
# Build the benchmark from source in this checkout, then run one workload:
#   sh perfbench/run.sh --workload suite-paper|mesh16-gdp|served-mixed \
#     --seed N --seconds S --trace 0|1
# Run it from the root of a checkout of this repository.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench/run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"

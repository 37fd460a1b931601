#!/bin/sh
# Builds the query server and the load generator from source, then runs
# the benchmark from the root of the checkout:
#   sh obdabench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
set -e
cd "$(dirname "$0")/.."
dune build --root . ./bin/obda_server.exe ./obdabench/main.exe
exec ./_build/default/obdabench/main.exe "$@"

#!/usr/bin/env bash
# Build the Mirror benchmark from this checkout's sources and run it:
#
#   bash mirrorbench/run.sh --workload ingest|search|mixed --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output
# is the run's JSON result.  See mirrorbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "mirrorbench: not a Mirror checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
dune build --root . ./mirrorbench/mirrorbench.exe 1>&2
exec ./_build/default/mirrorbench/mirrorbench.exe "$@"

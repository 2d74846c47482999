#!/usr/bin/env bash
# Entry point of the repository benchmark. From the root of a checkout:
#
#   bash perfbench/run.sh --workload table2|serve|synth --seed N --seconds S --trace 0|1
#
# Builds the benchmark with dune (no shared build cache, so nothing is
# written outside the checkout), then runs it on one core (MCX_JOBS=1)
# with every other MCX_* knob unset. The last line of stdout is the JSON
# result; diagnostics go to stderr. Seeds with a file under
# perfbench/expected/ must reproduce the outputs recorded there.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f $root/dune-project || ! -d $root/lib ]]; then
  echo "perfbench: $root holds no checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune is not installed" >&2
  exit 2
fi

cd "$root"
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench_main.exe 1>&2

for var in $(compgen -e); do
  case $var in MCX_*) unset "$var" ;; esac
done
export MCX_JOBS=1
exec ./_build/default/perfbench/perfbench_main.exe --expected-dir perfbench/expected "$@"

#!/usr/bin/env bash
# Runs every sam-perf workload in turn, one process each, from the
# repository root. Extra arguments go to every run, e.g.
#   perf/run.sh --seed 7 --seconds 10 --trace 1
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in fig12-golden fig16-hybrid ctrl-replay cache-replay; do
  cargo run --release --quiet --offline --manifest-path perf/Cargo.toml -- \
    --workload "$workload" "$@"
done

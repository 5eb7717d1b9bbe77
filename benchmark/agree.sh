#!/usr/bin/env bash
# Runs the benchmark's acceptance test (two back-to-back sets of end-to-end
# runs of every workload on one build) and records the outcome under
# benchmark/results/. Takes about half an hour.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    agree --rev "$rev" --out "benchmark/results/agree-$rev.json"

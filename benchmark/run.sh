#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. See README.md.
#
#   benchmark/run.sh [--seed S] [--runs N] [--trace] [--out FILE]      all six workloads
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1  one workload (BENCHMARK.json contract)
#   benchmark/run.sh --compare A.json B.json                           apply the bounds to two result files
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export IVNT_BENCHMARK_DIR="$here"
exec "$CARGO_TARGET_DIR/release/ivnt-benchmark" "$@"

#!/usr/bin/env bash
# Build the release `spg` binary and the benchmark from source, then run
# the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload alloc-large --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# stdout line stays the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin spg 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --spg "$CARGO_TARGET_DIR/release/spg" --root . "$@"

#!/usr/bin/env bash
# Builds the solve daemon and the benchmark harness from source, then runs
# the harness with the arguments given:
#
#   bash perfbench/run.sh --workload solve-large|serve-small --seed N \
#        --seconds S --trace 0|1
#
# Run from anywhere; paths resolve against the repository root. Build
# output goes to $CARGO_TARGET_DIR (default .bench_build at the root), and
# span and per-job records to its perfbench-out/ subdirectory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p vr-svc --bin vr-svc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/vr-svc" \
    --out "$CARGO_TARGET_DIR/perfbench-out" "$@"

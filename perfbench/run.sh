#!/usr/bin/env bash
# Builds the benchmark and the `nemscmos-server` binary from source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sram-array --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet --manifest-path Cargo.toml -p nemscmos-server
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/nemscmos-server" "$@"

#!/usr/bin/env bash
# Builds the pathcons CLI and the benchmark runner from source, then runs
# the runner with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload cold_word --seed 1 --seconds 15 --trace 0
#
# CARGO_TARGET_DIR (default: target) is shared by both builds.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p pathcons-cli
cargo build --release --quiet --manifest-path servebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/servebench" \
  --pathcons "$CARGO_TARGET_DIR/release/pathcons" "$@"

#!/usr/bin/env bash
# Builds the service binary and the benchmark from source, then runs the
# benchmark with every argument passed through:
#
#   bash perfbench/run.sh --workload scaleout --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh diff .bench_out/a.json .bench_out/b.json
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results and span dumps go to .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml \
    -p rbp-service --features tcp --bin rbp-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/rbp-serve" "$@"

#!/usr/bin/env bash
# Builds `solve` and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default `.bench_build`) and use the repository's own `.cargo/config.toml`.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/rpo-serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rpo-experiments --bin solve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --solve "$CARGO_TARGET_DIR/release/solve" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"

#!/usr/bin/env bash
# The repo benchmark's one command: builds the release `homeostasisd` and the
# benchmark binary from source, then runs the benchmark with the arguments
# given (see README.md). Build output goes to stderr, so the last line of
# stdout is the result.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_NET_OFFLINE=true

cargo build --release --quiet --manifest-path Cargo.toml -p homeo-cluster --bin homeostasisd >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/homeo-benchmark" "$@"

#!/usr/bin/env bash
# Builds the mnc-served daemon (from the repository's own workspace, with
# its own release profile) and the benchmark, then runs the benchmark with
# the given arguments:
#   bash servebench/run.sh --workload <name> --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" -p mnc-served >&2
cargo build --release --quiet --offline --manifest-path "$bench/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-}"
daemon="${target:-$root/target}/release/mnc-served"
runner="${target:-$bench/target}/release/servebench"
exec "$runner" --daemon "$daemon" "$@"

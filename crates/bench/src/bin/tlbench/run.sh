#!/usr/bin/env bash
# Builds the `tensorlib` CLI (from the repository workspace, with its own lock
# file and profiles) and `tlbench` (this package) into one target directory,
# then runs tlbench with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/tlbench/run.sh --seed 1 --reps 5
#
# CARGO_TARGET_DIR, when set, picks the target directory (default `target`).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet -p tensorlib-cli --bin tensorlib
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/tlbench" "$@"

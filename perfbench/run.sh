#!/usr/bin/env bash
# Builds the `ssq` server and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload fig12-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result. Artifacts (dataset CSV, span dumps,
# reports) go under "$CARGO_TARGET_DIR/perfbench-run" (default
# perfbench/target).
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
target="${CARGO_TARGET_DIR:-$bench_dir/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p ssq-cli --bin ssq >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target/release/perfbench" \
  --ssq "$target/release/ssq" \
  --root "$root" \
  --out "$target/perfbench-run" \
  "$@"

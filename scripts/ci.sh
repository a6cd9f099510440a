#!/usr/bin/env bash
# The whole local gate, fully offline. Run before pushing.
#
#   scripts/ci.sh             # the mandatory gate
#   SSQ_CI_DEEP=1 scripts/ci.sh   # + miri and ThreadSanitizer stages
#
# Mirrors what reviewers run: static analysis, format check, clippy
# (mandatory — a missing clippy component fails the gate), release build,
# full tests. The deep stages need a nightly toolchain with the miri and
# rust-src components; when those are absent each stage prints a SKIPPED
# notice and the gate continues — deep stages never fail the build by
# being unavailable, only by finding bugs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> ssq-analyze (mandatory static analysis; exit 1 = violations or stale suppressions, 2 = internal error)"
# All four call-graph rules run here (deny-alloc-transitive,
# no-panic-transitive, lock-rank-static, simd-dispatch-guard) on top of
# the local ones. The JSON report is the gate's build artifact — keep it
# alongside the BENCH_*.json files; --audit-suppressions additionally
# fails the stage when an allow directive no longer matches anything.
cargo run -q -p ssq-analyze -- --json ANALYZE_REPORT.json --audit-suppressions
test -s ANALYZE_REPORT.json

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (mandatory, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test (detected SIMD dispatch)"
cargo test --workspace -q

echo "==> cargo test (SSQ_FORCE_SCALAR=1 — scalar tile-kernel oracle)"
# The full suite runs twice so every equivalence and integration test
# exercises both sides of the runtime dispatch: the detected AVX2/SSE2
# tile kernels above, the scalar oracle here. Same binaries, no rebuild.
SSQ_FORCE_SCALAR=1 cargo test --workspace -q

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The four bench smokes below write their JSON under target/bench-smoke/,
# so a CI pass never overwrites the committed full-scale BENCH_*.json
# files in the repository root.
echo "==> bench smoke (kernel hot path; fails on panics or non-finite numbers)"
cargo run --release -p ssq-bench --bin throughput_scaling -- --smoke
test -s target/bench-smoke/BENCH_hotpath.json

echo "==> diagram smoke (hit vs planner latency; fails on misses or non-finite numbers)"
cargo run --release -p ssq-bench --bin diagram_bench -- --smoke
test -s target/bench-smoke/BENCH_DIAGRAM.json

echo "==> net soak smoke (loopback server, 8 connections x 16 pipeline)"
cargo run --release -p ssq-bench --bin net_soak -- --smoke
test -s target/bench-smoke/BENCH_net.json

echo "==> ingest soak smoke (delta publish >= 10x cheaper than full rebuild on 100k points)"
cargo run --release -p ssq-bench --bin ingest_soak -- --smoke
test -s target/bench-smoke/BENCH_INGEST.json

echo "==> net serve smoke (real ssq binary, ephemeral port, clean shutdown)"
# ssq-analyze already covers crates/net (no-panic gate) in the first
# stage; this drives the shipped binary end to end: serve on :0 with
# stdin on a FIFO, burst a pipelined client at it, close the FIFO (EOF
# = shutdown), and require the clean-drain report and exit 0.
NET_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$NET_SMOKE_DIR"' EXIT
./target/release/ssq generate --n 500 --out "$NET_SMOKE_DIR/points.csv" --seed 7
mkfifo "$NET_SMOKE_DIR/control"
./target/release/ssq serve --data "$NET_SMOKE_DIR/points.csv" --addr 127.0.0.1:0 \
    < "$NET_SMOKE_DIR/control" > "$NET_SMOKE_DIR/serve.log" &
SERVE_PID=$!
exec 9> "$NET_SMOKE_DIR/control"   # hold the write end: serve runs until we close it
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^listening on //p' "$NET_SMOKE_DIR/serve.log" | head -n1)"
    [[ -n "$SERVE_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$SERVE_ADDR" ]] || { echo "serve never printed its address"; exit 1; }
./target/release/ssq net-throughput --addr "$SERVE_ADDR" \
    --connections 8 --pipeline 16 --requests 400
exec 9>&-                           # EOF on stdin: drain and exit
wait "$SERVE_PID"                   # exit 0 or the gate fails (set -e)
grep -q "drained clean" "$NET_SMOKE_DIR/serve.log" \
    || { echo "serve did not report a clean drain"; cat "$NET_SMOKE_DIR/serve.log"; exit 1; }

if [[ "${SSQ_CI_DEEP:-0}" == "1" ]]; then
    echo "==> deep: miri (undefined-behavior check on the core unit tests)"
    if cargo +nightly miri --version >/dev/null 2>&1; then
        # Unit tests only: miri cannot spawn real OS threads fast enough
        # for the pool integration tests to be worth the hours.
        MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo +nightly miri test -p ssq-geom -p ssq-core --lib -q
    else
        echo "    SKIPPED: nightly miri not installed (rustup +nightly component add miri)"
    fi

    echo "==> deep: ThreadSanitizer (data-race check on the engine concurrency tests)"
    if cargo +nightly --version >/dev/null 2>&1 \
        && [[ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]]; then
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p ssq-engine --test lock_order -q
    else
        echo "    SKIPPED: nightly rust-src not installed (rustup +nightly component add rust-src)"
    fi
else
    echo "==> deep stages skipped (set SSQ_CI_DEEP=1 to run miri + ThreadSanitizer)"
fi

echo "==> ci.sh: all green"

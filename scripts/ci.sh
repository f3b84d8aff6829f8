#!/usr/bin/env bash
# Offline CI for the pdac workspace: format, lint, build, test.
# Everything here runs without network access (no registry dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (default features)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (no default features: pdac-serve without the sentinel)"
cargo clippy --workspace --all-targets --no-default-features -- -D warnings

echo "==> cargo clippy (every bench target, built only with microbench)"
cargo clippy -p pdac-bench --benches --features microbench -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> paged KV allocator battery at full length (slow-proptests)"
cargo test -q -p pdac-nn --features slow-proptests --test paged_alloc

echo "==> feature matrix (workspace without default features; gated tests compile)"
cargo build --release --workspace --no-default-features
cargo test -q --workspace --all-features --no-run

echo "==> serve-bench check (the standalone benchmark package still builds against the crates)"
bash benchmark/check.sh

echo "==> GEMM thread determinism (PDAC_THREADS=1 vs 8)"
PDAC_THREADS=1 cargo test -q -p pdac-math --test thread_determinism
PDAC_THREADS=8 cargo test -q -p pdac-math --test thread_determinism

echo "==> conformance + fault-injection matrix (pdac-verify)"
PDAC_VERIFY_OUT="$(pwd)/target/verify_report.jsonl" \
    cargo run --release -q -p pdac-verify

echo "==> verify microbench smoke"
PDAC_BENCH_OUT="$(pwd)/target/BENCH_verify.smoke.json" \
    cargo bench --features microbench -p pdac-bench --bench verify

echo "==> serve scenarios (each row of the bin's table exits 0 exactly when its expectations hold)"
for scenario in smoke kv sentinel fault; do
    args=(--scenario "$scenario")
    if [ "$scenario" = smoke ]; then
        args+=(--trace-out "$(pwd)/target/trace.smoke.json")
    fi
    cargo run --release -q -p pdac-serve --bin serve -- "${args[@]}"
done
if command -v python3 >/dev/null 2>&1; then
    python3 -c "
import json
doc = json.load(open('target/trace.smoke.json'))
assert doc['traceEvents'], 'empty trace'
"
fi

echo "==> serve rejects an unknown scenario and a flag without a value (exit 2 naming the argument)"
for bad in "--scenario nope" "--trace-out"; do
    status=0
    cargo run --release -q -p pdac-serve --bin serve -- $bad \
        > target/serve.reject.log 2>&1 || status=$?
    if [ "$status" -ne 2 ] || ! grep -q -- "${bad##* }" target/serve.reject.log; then
        echo "FAIL: serve $bad exited $status, expected 2 naming ${bad##* }"
        cat target/serve.reject.log
        exit 1
    fi
done

echo "==> bench regression gate (fresh runs vs checked-in baselines; decode and kv assert their floors)"
PDAC_BENCH_OUT="$(pwd)/target/BENCH_decode.fresh.json" \
    cargo bench --features microbench -p pdac-bench --bench decode_engine
PDAC_THREADS=1 PDAC_BENCH_OUT="$(pwd)/target/BENCH_gemm.fresh.json" \
    cargo bench --features microbench -p pdac-bench --bench gemm_engine
PDAC_BENCH_OUT="$(pwd)/target/BENCH_overhead.fresh.json" \
    cargo bench --features microbench -p pdac-bench --bench overhead
PDAC_BENCH_OUT="$(pwd)/target/BENCH_kv.fresh.json" \
    cargo bench --features microbench -p pdac-bench --bench kv_paged
cargo run --release -q -p pdac-bench --bin bench_gate -- \
    crates/bench/baselines/BENCH_decode.gate.json target/BENCH_decode.fresh.json \
    crates/bench/baselines/BENCH_gemm.gate.json target/BENCH_gemm.fresh.json \
    crates/bench/baselines/BENCH_overhead.gate.json target/BENCH_overhead.fresh.json \
    crates/bench/baselines/BENCH_kv.gate.json target/BENCH_kv.fresh.json

echo "CI OK"

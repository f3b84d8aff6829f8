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

echo "==> serve smoke (continuous-batching token server retires every request)"
PDAC_SERVE_REQUESTS=6 PDAC_SERVE_PROMPT=3 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=4 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    cargo run --release -q -p pdac-serve --bin serve

echo "==> observability smoke (serve with tracing; bin validates the trace itself)"
PDAC_SERVE_REQUESTS=6 PDAC_SERVE_PROMPT=3 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=4 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    PDAC_SERVE_TRACE_OUT="$(pwd)/target/trace.smoke.json" \
    cargo run --release -q -p pdac-serve --bin serve
if command -v python3 >/dev/null 2>&1; then
    python3 -c "
import json
doc = json.load(open('target/trace.smoke.json'))
assert doc['traceEvents'], 'empty trace'
"
fi

echo "==> energy observability smoke (metered serve leaves power.* in /metrics)"
PDAC_SERVE_REQUESTS=6 PDAC_SERVE_PROMPT=3 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=4 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    PDAC_POWER_BUDGET_W=1000 \
    PDAC_SERVE_METRICS_OUT="$(pwd)/target/metrics.smoke.txt" \
    cargo run --release -q -p pdac-serve --bin serve
for series in pdac_power_energy_attention_j pdac_power_energy_total_j \
    pdac_power_compute_w pdac_power_budget_headroom_w pdac_serve_energy_per_token_j; do
    grep -q "^${series}" target/metrics.smoke.txt \
        || { echo "FAIL: ${series} missing from /metrics exposition"; exit 1; }
done

echo "==> paged KV serve smoke (prefix sharing under a byte budget, bit-identical to solo decode_step)"
PDAC_SERVE_REQUESTS=6 PDAC_SERVE_PROMPT=5 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=3 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    PDAC_SERVE_SHARED_PROMPT=4 \
    PDAC_KV_BLOCK_TOKENS=2 PDAC_KV_BUDGET_BYTES=16384 \
    PDAC_SERVE_METRICS_OUT="$(pwd)/target/metrics.kv.txt" \
    cargo run --release -q -p pdac-serve --bin serve
for series in pdac_serve_kv_pages pdac_serve_kv_bytes pdac_serve_kv_shared; do
    grep -q "^${series}" target/metrics.kv.txt \
        || { echo "FAIL: ${series} missing from /metrics exposition"; exit 1; }
done

echo "==> serve rejects a malformed KV budget (exit 2, not an unbounded cache)"
status=0
PDAC_KV_BUDGET_BYTES=1MiB cargo run --release -q -p pdac-serve --bin serve \
    > target/serve.bad_kv.log 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: PDAC_KV_BUDGET_BYTES=1MiB made serve exit $status, expected 2"
    cat target/serve.bad_kv.log
    exit 1
fi

echo "==> serve rejects a zero batch, a bad model shape, a malformed trace capacity and a non-0/1 switch (exit 2 naming the knob, not a panic)"
for knob in PDAC_SERVE_BATCH=0 PDAC_SERVE_HEADS=3 PDAC_TRACE_CAPACITY=4k \
    PDAC_SENTINEL_FAILOVER=yes PDAC_SERVE_HEALTH=true; do
    status=0
    env "$knob" cargo run --release -q -p pdac-serve --bin serve \
        > target/serve.bad_shape.log 2>&1 || status=$?
    if [ "$status" -ne 2 ] || ! grep -q "${knob%%=*}" target/serve.bad_shape.log; then
        echo "FAIL: $knob made serve exit $status, expected 2 naming ${knob%%=*}"
        cat target/serve.bad_shape.log
        exit 1
    fi
done

echo "==> serve rejects a malformed power budget (exit 2, not silently unbudgeted)"
status=0
PDAC_POWER_BUDGET_W=1kW cargo run --release -q -p pdac-serve --bin serve \
    > target/serve.bad_budget.log 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: PDAC_POWER_BUDGET_W=1kW made serve exit $status, expected 2"
    cat target/serve.bad_budget.log
    exit 1
fi

echo "==> drift sentinel smoke (clean serve green; injected fault latches critical)"
PDAC_SERVE_REQUESTS=6 PDAC_SERVE_PROMPT=3 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=4 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    PDAC_SENTINEL_RATE=1.0 \
    PDAC_SERVE_METRICS_OUT="$(pwd)/target/metrics.sentinel.txt" \
    cargo run --release -q -p pdac-serve --bin serve -- --health
for series in pdac_health_drift_pdac_ewma pdac_health_drift_pdac_budget_frac \
    pdac_health_drift_pdac_bucket; do
    grep -q "^${series}" target/metrics.sentinel.txt \
        || { echo "FAIL: ${series} missing from /metrics exposition"; exit 1; }
done
if PDAC_SERVE_REQUESTS=4 PDAC_SERVE_PROMPT=3 PDAC_SERVE_MAX_NEW=4 PDAC_SERVE_BATCH=4 \
    PDAC_SERVE_HIDDEN=32 PDAC_SERVE_LAYERS=2 PDAC_SERVE_HEADS=4 \
    PDAC_SENTINEL_RATE=1.0 PDAC_SENTINEL_FAULT=tia \
    cargo run --release -q -p pdac-serve --bin serve -- --health \
    > target/sentinel.fault.log 2>&1; then
    echo "FAIL: fault-injected serve reported healthy"
    cat target/sentinel.fault.log
    exit 1
fi
grep -q "health status=critical" target/sentinel.fault.log \
    || { echo "FAIL: fault run exited nonzero without a critical verdict"; \
         cat target/sentinel.fault.log; exit 1; }

echo "==> serve http feature check (/metrics + /trace endpoint compiles and tests)"
cargo test -q -p pdac-telemetry --features serve-http --lib
cargo check --release -q -p pdac-serve --features http

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

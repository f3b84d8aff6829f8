#!/usr/bin/env bash
# Builds serve-bench from source and runs it with the benchmark's fixed
# environment: one GEMM thread (PDAC_THREADS=1). Arguments pass through, e.g.
#
#   bash benchmark/run.sh --workload chat --seed 1 --seconds 30 --trace 0
#
# With no arguments it runs every workload at the baseline seed 1, first
# untraced (the end-to-end metrics), then traced (the per-layer metrics).
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root). The build runs from the repository root so its
# .cargo/config.toml applies and codegen matches the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --locked --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exe="$CARGO_TARGET_DIR/release/serve-bench"
export PDAC_THREADS=1
if [ $# -eq 0 ]; then
    "$exe" --workload all --seed 1 --trace 0
    exec "$exe" --workload all --seed 1 --trace 1
fi
exec "$exe" "$@"

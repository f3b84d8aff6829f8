#!/usr/bin/env bash
# Checks the serve-bench package: rustfmt, clippy (warnings are errors) and
# its tests, then a smoke pass of every workload, untraced and traced, at
# about 5% of the usual request counts. The smoke pass fails unless every
# metric BENCHMARK.json lists is printed and no request fails.
#
#   bash benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --locked --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --locked --offline --manifest-path "$manifest"
cargo build --release --locked --offline --manifest-path "$manifest"

out=benchmark/out/smoke
mkdir -p "$out"
start=$SECONDS
# The untraced and the traced pass run side by side (two processes on a
# 2-vCPU box); the smoke pass checks output, not timing.
pids=()
for trace in 0 1; do
    PDAC_THREADS=1 "$CARGO_TARGET_DIR/release/serve-bench" --workload all --seed 1 --smoke \
        --trace "$trace" --out "$out" >"$out/smoke.$trace.log" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    wait "$pid"
done
echo "smoke pass: $((SECONDS - start)) s"

python3 - "$out"/smoke.[01].log <<'EOF'
import json, sys

bench = json.load(open("BENCHMARK.json"))
lines = [l for path in sys.argv[1:] for l in open(path).read().splitlines()]
printed = {}
for line in lines:
    if line.startswith("metric "):
        _, workload, name, value, unit, _n = line.split()
        printed[(workload, name)] = unit
results = [json.loads(l) for l in lines if l.startswith("{")]
ran = {workload for workload, _ in printed}
problems = []
for w in bench["workloads"]:
    for m in bench["end_to_end"] + bench["per_layer"]:
        unit = printed.get((w["name"], m["name"]))
        if unit != m["unit"]:
            problems.append(f"{w['name']}: {m['name']} printed as {unit}, want {m['unit']}")
if len(results) != 2 * len(ran):
    problems.append(f"{len(results)} result lines, want {2 * len(ran)}")
for r in results:
    if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
        problems.append(f"failed requests: {r['failed']} of {r['attempted']}")
if problems:
    sys.exit("smoke pass FAILED:\n  " + "\n  ".join(problems))
print(f"smoke pass OK: {len(printed)} metrics, failed_frac 0 in {len(results)} runs")
EOF

//! Persistent worker pool vs per-call scoped spawning: the dispatch
//! microbench behind the decode hot path.
//!
//! `gemm` routes threaded panels through the parked [`WorkerPool`];
//! `gemm_scoped` preserves the previous `std::thread::scope` dispatch
//! (bit-identical results, different thread lifecycle). In the 64³
//! regime a GEMM call is short enough that per-call thread spawning is
//! a measurable fraction of the work — exactly the regime one decode
//! step of a small serving model lives in.
//!
//! Emits `BENCH_pool.json` (override with `PDAC_BENCH_OUT`).
//!
//! [`WorkerPool`]: pdac_math::pool::WorkerPool

use pdac_bench::microbench::{bench, black_box, out_path, BenchResult};
use pdac_math::gemm::{gemm, gemm_scoped};
use pdac_math::pool::WorkerPool;
use pdac_math::rng::SplitMix64;
use pdac_telemetry::Json;

fn random_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

fn record(result: &BenchResult, macs: usize) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(result.name.clone())),
        ("iters".into(), Json::Int(result.iters)),
        ("mean_ns".into(), Json::Num(result.mean_ns)),
        ("min_ns".into(), Json::Num(result.min_ns)),
        (
            "gmacs_per_s".into(),
            Json::Num(macs as f64 / result.mean_ns.max(1.0)),
        ),
    ])
}

fn main() {
    let mut records = Vec::new();
    let mut comparisons = Vec::new();

    // GEMM dispatch: pooled vs scoped at the decode-step scale.
    for &(m, k, n) in &[(64usize, 64usize, 64usize), (96, 80, 72)] {
        let a = random_vec(m * k, 1);
        let b = random_vec(k * n, 2);
        let mut out = vec![0.0; m * n];
        for threads in [2usize, 4] {
            let pooled = bench(&format!("pool/gemm/{m}x{k}x{n}/t{threads}"), || {
                gemm(
                    black_box(&a),
                    black_box(&b),
                    m,
                    k,
                    n,
                    black_box(&mut out),
                    threads,
                );
            });
            let scoped = bench(&format!("scope/gemm/{m}x{k}x{n}/t{threads}"), || {
                gemm_scoped(
                    black_box(&a),
                    black_box(&b),
                    m,
                    k,
                    n,
                    black_box(&mut out),
                    threads,
                );
            });
            let ratio = scoped.mean_ns / pooled.mean_ns.max(1.0);
            println!(
                "pool_vs_scope/{m}x{k}x{n}/t{threads}: pooled {:.1} ns, scoped {:.1} ns, \
                 scoped/pooled {ratio:.2}x",
                pooled.mean_ns, scoped.mean_ns
            );
            let comparison = Json::Obj(vec![
                ("shape".into(), Json::Str(format!("{m}x{k}x{n}"))),
                ("threads".into(), Json::Int(threads as u64)),
                ("pooled_ns".into(), Json::Num(pooled.mean_ns)),
                ("scoped_ns".into(), Json::Num(scoped.mean_ns)),
                ("scoped_over_pooled".into(), Json::Num(ratio)),
            ]);
            // Also into `results` for the bench-gate step: the raw
            // timing records carry run-varying identity fields (iters),
            // so only these per-shape ratio records gate cross-run.
            records.push(comparison.clone());
            comparisons.push(comparison);
            records.push(record(&pooled, m * k * n));
            records.push(record(&scoped, m * k * n));
        }
    }

    // Raw dispatch overhead: an (almost) empty task set through the
    // global pool vs a fresh thread::scope, isolating the fixed cost a
    // threaded GEMM call pays before any arithmetic happens.
    let sink = std::sync::atomic::AtomicUsize::new(0);
    let pool_dispatch = bench("pool/dispatch/4tasks", || {
        WorkerPool::global().run(4, &|i| {
            sink.fetch_add(i + 1, std::sync::atomic::Ordering::Relaxed);
        });
    });
    let scope_dispatch = bench("scope/dispatch/4tasks", || {
        std::thread::scope(|s| {
            for i in 0..4usize {
                let sink = &sink;
                s.spawn(move || {
                    sink.fetch_add(i + 1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
    });
    let dispatch_ratio = scope_dispatch.mean_ns / pool_dispatch.mean_ns.max(1.0);
    println!(
        "pool_vs_scope/dispatch: pooled {:.1} ns, scoped spawn {:.1} ns, \
         scoped/pooled {dispatch_ratio:.2}x",
        pool_dispatch.mean_ns, scope_dispatch.mean_ns
    );
    records.push(record(&pool_dispatch, 0));
    records.push(record(&scope_dispatch, 0));
    comparisons.push(Json::Obj(vec![
        ("shape".into(), Json::Str("dispatch-only".into())),
        ("threads".into(), Json::Int(4)),
        ("pooled_ns".into(), Json::Num(pool_dispatch.mean_ns)),
        ("scoped_ns".into(), Json::Num(scope_dispatch.mean_ns)),
        ("scoped_over_pooled".into(), Json::Num(dispatch_ratio)),
    ]));

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("pool_vs_scope".into())),
        (
            "pool_workers".into(),
            Json::Int(WorkerPool::global().workers() as u64),
        ),
        ("results".into(), Json::Arr(records)),
        ("comparisons".into(), Json::Arr(comparisons)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pool.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("pool_vs_scope: wrote {path}");
}

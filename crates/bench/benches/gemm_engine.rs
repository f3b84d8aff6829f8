//! Microbenches of the fast GEMM engine: tuned kernels vs the reference
//! triple loop, and the analog pipeline with/without the converter LUT
//! and the weight-conversion cache.
//!
//! The cases are fixed here, and the bench reads no knob but
//! `PDAC_BENCH_OUT`:
//!
//! * the [`CUBES`] (m = k = n): exact tuned over reference
//!   (`exact_fast_over_naive`), and the seed analog path (both operands
//!   through the scalar driver, reference matmul) over the LUT path
//!   (`analog_lut_over_seed`) and over the full LUT + cached-weight path
//!   (`analog_lut_cache_over_seed`). Square products show kernel
//!   throughput, but any per-call O(k·n) cost is only 1/m of their work.
//! * a served decode step: [`STEP_ROWS`] rows pushed through all 12
//!   weights of the serve-bench model (hidden 256, ff 1024, 2 layers:
//!   12 MiB of f64), the cached analog call against the exact call on a
//!   prepacked weight (`analog_cached_over_exact`), next to the weight
//!   bytes each side streams per step, computed from the shapes. A
//!   per-call pass over a weight shows up here as a ratio far below 1.
//!
//! Every ratio divides fastest means of [`ROUNDS`] mirrored passes over
//! its variants (see [`fastest_interleaved`]).
//!
//! Emits `BENCH_gemm.json` (override the path with `PDAC_BENCH_OUT`).
//! Its top-level `threads` is the GEMM pool's thread count
//! (`PDAC_THREADS`), which `bench_gate` holds equal to its baseline's.

use pdac_bench::microbench::{bench, black_box, out_path, BenchResult};
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;
use pdac_math::gemm::{default_threads, PackedB};
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::gemm::{AnalogGemm, ExactGemm, GemmBackend};
use pdac_nn::quant::convert;
use pdac_telemetry::Json;

/// Square product sizes.
const CUBES: [usize; 2] = [64, 256];
/// Rows per served decode step: one sequence, and a batch of eight.
const STEP_ROWS: [usize; 2] = [1, 8];
/// Mirrored passes per ratio.
const ROUNDS: usize = 3;

fn random_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut rng = SplitMix64::seed_from_u64(seed);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range_f64(-1.0, 1.0))
}

/// One measured variant at one shape (`size`, or `m`), with derived
/// throughput.
fn record(shape: (&str, usize), macs: usize, result: &BenchResult) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(result.name.clone())),
        (shape.0.into(), Json::Int(shape.1 as u64)),
        ("iters".into(), Json::Int(result.iters)),
        ("mean_ns".into(), Json::Num(result.mean_ns)),
        ("min_ns".into(), Json::Num(result.min_ns)),
        (
            "gmacs_per_s".into(),
            Json::Num(macs as f64 / result.mean_ns.max(1.0)),
        ),
    ])
}

/// A named timed body.
type Variant<'a> = (String, Box<dyn FnMut() + 'a>);

/// Times each variant [`ROUNDS`] times in forward then reverse order
/// (ABBA for two) and keeps each one's fastest mean. On a shared host a
/// burst of noise inside one window would otherwise set a ratio, and
/// the mirrored order gives every variant the same mean place in time.
fn fastest_interleaved(mut variants: Vec<Variant<'_>>) -> Vec<BenchResult> {
    let n = variants.len();
    let mut best: Vec<Option<BenchResult>> = vec![None; n];
    for i in (0..ROUNDS).flat_map(|_| (0..n).chain((0..n).rev())) {
        let (name, run) = &mut variants[i];
        let fresh = bench(name, &mut **run);
        best[i] = match best[i].take() {
            Some(kept) if kept.mean_ns <= fresh.mean_ns => Some(kept),
            _ => Some(fresh),
        };
    }
    best.into_iter()
        .map(|r| r.expect("every variant ran"))
        .collect()
}

/// `num` over `den` by mean time: how many times faster `den` ran.
fn ratio(num: &BenchResult, den: &BenchResult) -> f64 {
    num.mean_ns / den.mean_ns.max(1.0)
}

fn main() {
    let bits = 8;
    let driver = PDac::with_optimal_approx(bits).unwrap();
    let lut = ConverterLut::new(&driver);

    let mut records = Vec::new();
    for size in CUBES {
        let a = random_mat(size, size, 2 * size as u64);
        let b = random_mat(size, size, 2 * size as u64 + 1);
        let backend = AnalogGemm::new(driver.clone(), "pdac8");
        let name = |variant: &str| format!("gemm_engine/{size}/{variant}");
        let [naive, fast, seed, lut_only, cached]: [BenchResult; 5] = fastest_interleaved(vec![
            (
                name("exact_naive"),
                Box::new(|| {
                    black_box(black_box(&a).matmul_reference(black_box(&b)).unwrap());
                }),
            ),
            (
                name("exact_fast"),
                Box::new(|| {
                    black_box(black_box(&a).matmul(black_box(&b)).unwrap());
                }),
            ),
            // The seed analog path: both operands converted through the
            // scalar driver on every call, reference matmul.
            (
                name("analog_seed"),
                Box::new(|| {
                    let aq = convert(black_box(&a), size, &driver);
                    let bq = convert(black_box(&b), size, &driver);
                    black_box(aq.matmul_reference(&bq).unwrap());
                }),
            ),
            // Table conversion, no weight reuse.
            (
                name("analog_lut"),
                Box::new(|| {
                    let aq = convert(black_box(&a), size, &lut);
                    let bq = convert(black_box(&b), size, &lut);
                    black_box(aq.matmul(&bq).unwrap());
                }),
            ),
            // The full fast path: LUT + cached weight conversion.
            (
                name("analog_lut_cache"),
                Box::new(|| {
                    black_box(backend.matmul(black_box(&a), black_box(&b)));
                }),
            ),
        ])
        .try_into()
        .expect("one result per variant");

        let (fast_over_naive, cache_over_seed) = (ratio(&naive, &fast), ratio(&seed, &cached));
        println!(
            "gemm_engine/{size}: exact fast/naive {fast_over_naive:.2}x, \
             analog lut+cache/seed {cache_over_seed:.2}x \
             (cache hits {}, misses {})",
            backend.cache().hits(),
            backend.cache().misses(),
        );
        for r in [&naive, &fast, &seed, &lut_only, &cached] {
            records.push(record(("size", size), size * size * size, r));
        }
        records.push(Json::Obj(vec![
            ("size".into(), Json::Int(size as u64)),
            ("exact_fast_over_naive".into(), Json::Num(fast_over_naive)),
            (
                "analog_lut_cache_over_seed".into(),
                Json::Num(cache_over_seed),
            ),
            (
                "analog_lut_over_seed".into(),
                Json::Num(ratio(&seed, &lut_only)),
            ),
        ]));
    }

    // A decode step over the served model's weights (see the module
    // docs).
    let (hidden, ff, layers) = (256usize, 1024usize, 2usize);
    let layer = [(hidden, hidden); 4]
        .into_iter()
        .chain([(hidden, ff), (ff, hidden)]);
    let shapes: Vec<(usize, usize)> = layer.cycle().take(6 * layers).collect();
    let weights: Vec<Mat> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(k, n))| random_mat(k, n, 500 + i as u64))
        .collect();
    let packs: Vec<PackedB> = weights
        .iter()
        .map(|w| PackedB::pack(w.as_slice(), w.rows(), w.cols()))
        .collect();
    let f64_bytes: usize = shapes.iter().map(|&(k, n)| k * n * 8).sum();
    let macs_per_row: usize = shapes.iter().map(|&(k, n)| k * n).sum();
    for m in STEP_ROWS {
        let inputs: Vec<Mat> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(k, _))| random_mat(m, k, 600 + (m * 16 + i) as u64))
            .collect();
        let backend = AnalogGemm::new(driver.clone(), "pdac8");
        // Convert every weight once, outside the timed region.
        let (mut exact_out, mut analog_out) = (Mat::zeros(1, 1), Mat::zeros(1, 1));
        for (a, w) in inputs.iter().zip(&weights) {
            backend.matmul_batch_into(a, w, &mut analog_out);
        }
        let [exact, analog]: [BenchResult; 2] = fastest_interleaved(vec![
            (
                format!("gemm_engine/serve_step_m{m}/exact_prepacked"),
                Box::new(|| {
                    for ((a, w), pack) in inputs.iter().zip(&weights).zip(&packs) {
                        ExactGemm.matmul_batch_packed_into(
                            black_box(a),
                            black_box(w),
                            &|| pack,
                            &mut exact_out,
                        );
                    }
                }),
            ),
            (
                format!("gemm_engine/serve_step_m{m}/analog_cached"),
                Box::new(|| {
                    for (a, w) in inputs.iter().zip(&weights) {
                        backend.matmul_batch_into(black_box(a), black_box(w), &mut analog_out);
                    }
                }),
            ),
        ])
        .try_into()
        .expect("one result per variant");
        let cached_over_exact = ratio(&exact, &analog);
        // Weight bytes streamed per step: one row is a vecmat over the f64
        // weight; more rows stream the f64 panels once per 4-row tile
        // block and the code panels once per 8-row pass.
        let exact_bytes = f64_bytes * m.div_ceil(4);
        let analog_bytes = backend.cache().resident_bytes() * m.div_ceil(8);
        println!(
            "gemm_engine/serve_step_m{m}: analog cached/exact {cached_over_exact:.2}x, \
             weight bytes per step exact {exact_bytes} analog {analog_bytes} \
             (cache misses {})",
            backend.cache().misses(),
        );
        for r in [&exact, &analog] {
            records.push(record(("m", m), m * macs_per_row, r));
        }
        records.push(Json::Obj(vec![
            ("step".into(), Json::Str("serve_bench".into())),
            ("m".into(), Json::Int(m as u64)),
            ("weights".into(), Json::Int(shapes.len() as u64)),
            ("exact_weight_bytes".into(), Json::Int(exact_bytes as u64)),
            ("analog_weight_bytes".into(), Json::Int(analog_bytes as u64)),
            (
                "analog_cached_over_exact".into(),
                Json::Num(cached_over_exact),
            ),
        ]));
    }

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("gemm_engine".into())),
        ("driver".into(), Json::Str("pdac".into())),
        ("bits".into(), Json::Int(u64::from(bits))),
        ("threads".into(), Json::Int(default_threads() as u64)),
        ("results".into(), Json::Arr(records)),
    ]);
    let path = out_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_gemm.json"
    ));
    std::fs::write(&path, doc.render() + "\n").expect("write bench json");
    println!("gemm_engine: wrote {path}");
}

//! Microbenches of the conformance/fault-injection harness: the cost of
//! converting through the fault layer relative to the clean drive paths,
//! and the wall time of one full conformance matrix (what the CI step
//! pays).
//!
//! Emits `BENCH_verify.json` (override the path with `PDAC_BENCH_OUT`).

use pdac_bench::microbench::{bench, black_box, out_path, BenchResult};
use pdac_core::converter::MzmDriver;
use pdac_core::lut::ConverterLut;
use pdac_core::pdac::PDac;
use pdac_telemetry::Json;
use pdac_verify::conformance::{run_conformance, ConformanceConfig};
use pdac_verify::faults::{FaultSpec, FaultyPDac};

fn record(result: &BenchResult) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(result.name.clone())),
        ("iters".into(), Json::Int(result.iters)),
        ("mean_ns".into(), Json::Num(result.mean_ns)),
        ("min_ns".into(), Json::Num(result.min_ns)),
    ])
}

fn main() {
    let pdac = PDac::with_optimal_approx(8).unwrap();
    let lut = ConverterLut::new(&pdac);
    let clean = FaultyPDac::new(pdac.clone(), FaultSpec::none());
    let faulty = FaultyPDac::new(
        pdac.clone(),
        FaultSpec::none()
            .with_tia_gain_drift(0.05)
            .with_dark_current_ratio(0.02)
            .with_laser_droop(0.1),
    );
    let codes: Vec<i32> = (-127..=127).collect();

    let mut records = Vec::new();
    for (name, driver) in [
        ("verify/convert/pdac", &pdac as &dyn MzmDriver),
        ("verify/convert/lut", &lut),
        ("verify/convert/fault_clean", &clean),
        ("verify/convert/fault_full", &faulty),
    ] {
        let result = bench(name, || {
            codes
                .iter()
                .map(|&c| black_box(driver.convert(black_box(c))))
                .sum::<f64>()
        });
        records.push(record(&result));
    }

    // One full backend-pair matrix on trimmed shapes: the marginal cost
    // CI pays for differential conformance.
    let mut cfg = ConformanceConfig::default();
    cfg.gemm_shapes.truncate(2);
    let result = bench("verify/conformance_matrix", || {
        let report = run_conformance(black_box(&cfg));
        assert!(report.passed());
        report.checks.len()
    });
    records.push(record(&result));

    let path = out_path("BENCH_verify.json");
    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("verify".into())),
        ("records".into(), Json::Arr(records)),
    ]);
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create bench artifact dir");
        }
    }
    std::fs::write(&path, doc.render()).expect("write bench artifact");
    println!("verify: wrote {path}");
}

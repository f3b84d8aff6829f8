//! Continuous-batching serving simulation: drives a multi-request trace
//! through the [`pdac_serve::TokenServer`], reports throughput, and checks
//! what the run must show. It lives in `pdac-verify` because every run
//! arms this crate's drift sentinel and the `fault` row injects through
//! its [`pdac_verify::FaultyPDac`]; `pdac-serve` stays a library.
//!
//! ```text
//! cargo run --release -p pdac-verify --bin serve -- [--scenario <name>]
//! ```
//!
//! Each configuration is one row of [`SCENARIOS`] (`smoke` when no row
//! is named), and each row states what its run must show. The other
//! arguments only say where the run's outputs go:
//!
//! * `--metrics-out <path>` — write the Prometheus exposition (the same
//!   text `/metrics` serves) to a file
//! * `--trace-out <path>` — write a Chrome-trace JSON (load in
//!   `chrome://tracing` or Perfetto), validated through the in-tree
//!   parser before exiting (a trace with no events fails); the
//!   span-event ring then holds [`TRACE_CAPACITY`] events
//! * `--http <addr>` — serve `/metrics` + `/trace` + `/health` on the
//!   given address while running
//!
//! An unknown scenario or argument, or a flag without a value, exits 2
//! with a message naming it.
//!
//! Every row serves on the 8-bit P-DAC backend, prices the run with the
//! P-DAC [`pdac_power::meter`] under a [`POWER_BUDGET_W`] budget, and
//! uses one model (hidden 32, 2 layers, 4 heads, ff ×4, seed 42) that
//! generates [`MAX_NEW`] tokens per request. After the run the bin
//! prints a p50/p95/p99 latency table for the SLO histograms
//! (queue-wait, TTFT, ITL, e2e), a per-class energy table, the drift
//! sentinel's counts ([`pdac_verify::sentinel`]) and the health verdict
//! with its alert table, and replays every request alone through
//! `decode_step` ([`pdac_serve::solo_reference`]). It exits 1 unless
//! every request retires bit-identical to its solo replay, a row with a
//! shared prompt prefix shares KV pages, the trace file (if any)
//! validates, the exposition carries every series the row names, and a
//! critical drift alert latched exactly when the row injects a fault.

use std::collections::HashSet;
use std::time::Instant;

use pdac_telemetry::HistogramSummary;

use pdac_core::pdac::PDac;
use pdac_nn::{AnalogGemm, GemmBackend, PagedConfig, TransformerConfig, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};
use pdac_serve::{solo_reference, Request, TokenServer};

/// Span events the trace ring holds when `--trace-out` is given, so a
/// scenario's whole run fits without wrapping.
const TRACE_CAPACITY: usize = 262_144;

/// Tokens every request generates.
const MAX_NEW: usize = 4;

/// Modeled power budget of the energy meter, in watts. The served
/// model draws milliwatts, so the budget never sheds; it arms the
/// `power.budget.*` series.
const POWER_BUDGET_W: f64 = 1000.0;

/// One fixed serving configuration and what its run must show.
#[derive(Debug)]
struct Scenario {
    name: &'static str,
    requests: usize,
    /// Prompt tokens per request; the first `shared_prompt` of them are
    /// the same in every request, and the run must then share KV pages.
    prompt: usize,
    shared_prompt: usize,
    /// Batch capacity of the token server.
    batch: usize,
    kv: PagedConfig,
    /// Sampling rate of the drift sentinel.
    sentinel_rate: f64,
    /// TIA gain drift injected into the P-DAC, as a fraction. The run
    /// must latch a critical drift alert exactly when the row has one.
    tia_fault: Option<f64>,
    /// Series the run's Prometheus exposition must carry.
    must_export: &'static [&'static str],
}

impl Scenario {
    fn model_config(&self) -> TransformerConfig {
        TransformerConfig {
            name: "serve-sim".to_string(),
            layers: 2,
            hidden: 32,
            heads: 4,
            ff_mult: 4,
            seq_len: self.prompt + MAX_NEW,
        }
    }
}

const SMOKE: Scenario = Scenario {
    name: "smoke",
    requests: 6,
    prompt: 3,
    shared_prompt: 0,
    batch: 4,
    kv: PagedConfig {
        block_tokens: 16,
        budget_bytes: None,
    },
    sentinel_rate: 0.02,
    tia_fault: None,
    must_export: &[
        "pdac_serve_kv_pages",
        "pdac_power_energy_attention_j",
        "pdac_power_energy_total_j",
        "pdac_power_compute_w",
        "pdac_power_budget_headroom_w",
        "pdac_serve_energy_per_token_j",
    ],
};

/// Every configuration the bin runs. Rows differ from `smoke` only where
/// they say so.
static SCENARIOS: [Scenario; 4] = [
    SMOKE,
    Scenario {
        name: "kv",
        prompt: 5,
        shared_prompt: 4,
        batch: 3,
        kv: PagedConfig {
            block_tokens: 2,
            budget_bytes: Some(16_384),
        },
        must_export: &[
            "pdac_serve_kv_pages",
            "pdac_serve_kv_bytes",
            "pdac_serve_kv_shared",
            "pdac_power_energy_total_j",
            "pdac_power_compute_w",
        ],
        ..SMOKE
    },
    Scenario {
        name: "sentinel",
        sentinel_rate: 1.0,
        must_export: &[
            "pdac_serve_kv_pages",
            "pdac_power_energy_total_j",
            "pdac_power_compute_w",
            "pdac_health_drift_pdac_ewma",
            "pdac_health_drift_pdac_budget_frac",
            "pdac_health_drift_pdac_bucket",
        ],
        ..SMOKE
    },
    Scenario {
        name: "fault",
        requests: 4,
        sentinel_rate: 1.0,
        tia_fault: Some(0.5),
        ..SMOKE
    },
];

/// What the command line selects.
#[derive(Debug)]
struct Args {
    scenario: &'static Scenario,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    http: Option<String>,
}

/// The row named `name`.
fn scenario(name: &str) -> Result<&'static Scenario, String> {
    SCENARIOS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (use {})", names.join("|"))
    })
}

/// Parses the arguments after the program name. Every flag takes one
/// value; a missing value (including one that is itself a flag), a
/// repeated flag or any other argument is an error naming it.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut metrics_out, mut trace_out, mut http) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--scenario" => &mut name,
            "--metrics-out" => &mut metrics_out,
            "--trace-out" => &mut trace_out,
            "--http" => &mut http,
            _ => {
                return Err(format!(
                    "unknown argument {flag:?} (use --scenario <name>, --metrics-out <path>, \
                     --trace-out <path>, --http <addr>)"
                ))
            }
        };
        let value = args
            .next()
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        scenario: scenario(name.as_deref().unwrap_or("smoke"))?,
        metrics_out,
        trace_out,
        http,
    })
}

/// The requests of `row`'s trace, each with its own seeded prompt tail.
fn requests(row: &Scenario, hidden: usize) -> Vec<Request> {
    // Shared prefix drawn once so every request opens with the same
    // tokens (system-prompt shape); tails stay per-request.
    let mut shared_rng = pdac_math::rng::SplitMix64::seed_from_u64(999);
    let shared_tokens: Vec<Vec<f64>> = (0..row.shared_prompt)
        .map(|_| {
            (0..hidden)
                .map(|_| shared_rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect();
    (0..row.requests)
        .map(|id| {
            let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(1000 + id as u64);
            let prompt = (0..row.prompt)
                .map(|t| {
                    if t < row.shared_prompt {
                        shared_tokens[t].clone()
                    } else {
                        (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
                    }
                })
                .collect();
            Request {
                id: id as u64,
                prompt,
                max_new_tokens: MAX_NEW,
            }
        })
        .collect()
}

/// The 8-bit P-DAC backend, with `row`'s fault injected when it has one.
fn backend(row: &Scenario) -> Box<dyn GemmBackend> {
    let pdac = PDac::with_optimal_approx(8).expect("8-bit pdac");
    if let Some(drift) = row.tia_fault {
        println!("serve: sentinel fault injected: tia");
        let spec = pdac_verify::FaultSpec::none().with_tia_gain_drift(drift);
        return Box::new(AnalogGemm::new(
            pdac_verify::FaultyPDac::new(pdac, spec),
            "pdac-8b-faulty",
        ));
    }
    Box::new(AnalogGemm::new(pdac, "pdac-8b"))
}

/// Structural sanity checks on an emitted Chrome-trace document: the
/// round-trip gate of every `--trace-out` run. A traced run records
/// spans, so a document with no events fails. `strict_parents` is off
/// when the ring dropped events (a parent may then be truncated away).
fn validate_trace(text: &str, strict_parents: bool) -> Result<usize, String> {
    let doc = pdac_telemetry::json::parse(text).map_err(|e| format!("parse error: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(pdac_telemetry::Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("no trace events".to_string());
    }
    let mut seen_ids = HashSet::new();
    for (i, e) in events.iter().enumerate() {
        let id = e
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(pdac_telemetry::Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing args.id"))?;
        let parent = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(pdac_telemetry::Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing args.parent"))?;
        let ts = e
            .get("ts")
            .and_then(pdac_telemetry::Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let dur = e
            .get("dur")
            .and_then(pdac_telemetry::Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing dur"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        if strict_parents && parent != 0 && !seen_ids.contains(&parent) {
            return Err(format!("event {i}: parent {parent} after child {id}"));
        }
        seen_ids.insert(id);
    }
    Ok(events.len())
}

/// The names in `required` that no series of the Prometheus exposition
/// `text` carries.
fn missing_series<'a>(text: &str, required: &[&'a str]) -> Vec<&'a str> {
    let exported: HashSet<&str> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split(['{', ' ']).next())
        .collect();
    required
        .iter()
        .copied()
        .filter(|name| !exported.contains(name))
        .collect()
}

/// Prints `msg` and exits 1: the run did not show what its row requires.
fn fail(msg: &str) -> ! {
    eprintln!("serve: FAIL — {msg}");
    std::process::exit(1);
}

fn print_slo_table(histograms: &[HistogramSummary]) {
    println!(
        "serve: SLO {:<18} {:>7} {:>12} {:>12} {:>12}",
        "histogram", "count", "p50_ms", "p95_ms", "p99_ms"
    );
    for name in ["serve.queue_wait", "serve.ttft", "serve.itl", "serve.e2e"] {
        if let Some(h) = histograms.iter().find(|h| h.name == name) {
            println!(
                "serve: SLO {:<18} {:>7} {:>12.4} {:>12.4} {:>12.4}",
                h.name,
                h.count,
                h.p50 * 1e3,
                h.p95 * 1e3,
                h.p99 * 1e3
            );
        }
    }
}

fn print_energy_table(
    meter: &EnergyMeter,
    esnap: &pdac_power::meter::EnergySnapshot,
    server: &TokenServer,
    generated: u64,
) {
    println!(
        "serve: energy driver={} bits={} budget_w={POWER_BUDGET_W}",
        meter.model().power_model().driver(),
        meter.bits(),
    );
    println!(
        "serve: energy {:<10} {:>12} {:>12} {:>14} {:>12}",
        "class", "compute_uj", "movement_uj", "elementwise_uj", "total_uj"
    );
    for class in [OpClass::Attention, OpClass::Ffn, OpClass::Other] {
        if let Some(c) = esnap.breakdown.class(class) {
            println!(
                "serve: energy {:<10} {:>12.3} {:>12.3} {:>14.3} {:>12.3}",
                class.to_string(),
                c.compute_j * 1e6,
                c.movement_j * 1e6,
                c.elementwise_j * 1e6,
                c.total_j() * 1e6,
            );
        }
    }
    let attributed = server.total_energy_j();
    let jpt = server.joules_per_token();
    let tokens_per_j = if attributed > 0.0 {
        generated as f64 / attributed
    } else {
        0.0
    };
    println!(
        "serve: energy total_j={:.6e} attributed_j={:.6e} joules_per_token={:.6e} \
         tokens_per_joule={:.1} shed_steps={}",
        esnap.total_j(),
        attributed,
        jpt,
        tokens_per_j,
        server.shed_steps(),
    );
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    let row = args.scenario;
    let model = TransformerModel::random(row.model_config(), 4, 42);
    let backend = backend(row);

    // The live energy ledger, priced under the P-DAC drive path.
    let pm = PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        DriverKind::PhotonicDac,
    );
    let meter = pdac_power::meter::install(
        EnergyMeter::new(EnergyModel::new(pm), 8).with_budget_w(Some(POWER_BUDGET_W)),
    );

    // Size the span-event ring before the global collector's first use.
    if args.trace_out.is_some() {
        assert!(
            pdac_telemetry::init_trace_capacity(TRACE_CAPACITY),
            "the trace ring is sized before the collector's first use"
        );
    }
    pdac_telemetry::enable();

    // Arm the drift sentinel. It scores its samples inside the GEMM
    // calls of the run, so its gauges and alerts land in every exporter.
    let sentinel = pdac_verify::sentinel::Sentinel::install(row.sentinel_rate);

    let _http = args.http.as_deref().map(|addr| {
        let server = pdac_telemetry::http::serve_metrics(pdac_telemetry::global(), addr)
            .expect("bind metrics endpoint");
        println!("serve: metrics http on {}", server.addr());
        server
    });

    let mut server = TokenServer::new_paged(&model, row.batch, row.kv.clone());
    let trace = requests(row, model.config().hidden);
    for req in &trace {
        server.admit(req.clone());
    }

    let start = Instant::now();
    let steps = server.run(&*backend);
    let elapsed = start.elapsed().as_secs_f64();
    let completions = server.take_completions();

    let generated = server.generated_tokens();
    let fed = server.fed_tokens();
    let tok_per_s = generated as f64 / elapsed.max(1e-12);
    println!(
        "serve: backend={} requests={} prompt={} max_new={} batch_capacity={}",
        backend.name(),
        row.requests,
        row.prompt,
        MAX_NEW,
        row.batch,
    );
    println!(
        "serve: steps={steps} fed_tokens={fed} generated_tokens={generated} \
         mean_occupancy={:.2} elapsed_s={elapsed:.4} tokens_per_s={tok_per_s:.1}",
        server.mean_occupancy()
    );

    let sentinel_stats = sentinel.finish();

    // Final flush so the `power.*` gauges reflect the whole run before
    // the snapshot is taken (and exported below).
    let energy = meter.flush();

    let snap = pdac_telemetry::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    println!(
        "serve: telemetry admitted={} retired={}",
        counter("serve.admitted"),
        counter("serve.retired")
    );
    let stats = server
        .kv_stats()
        .expect("the server always pages its KV cache");
    println!(
        "serve: kv paged block={} budget={} pages={} bytes={} shared_tokens={} shared_hits={} \
         evicted={} over_budget={} deferred={}",
        row.kv.block_tokens,
        row.kv
            .budget_bytes
            .map_or("none".to_string(), |b| b.to_string()),
        stats.live_pages,
        stats.live_bytes,
        stats.shared_tokens,
        stats.shared_hits,
        stats.evicted_pages,
        stats.over_budget_pages,
        server.kv_deferred(),
    );
    print_slo_table(&snap.histograms);
    print_energy_table(&meter, &energy, &server, generated);

    println!(
        "serve: sentinel sampled={} scored={} alerts={} worst_frac={:.3}",
        sentinel_stats.sampled,
        sentinel_stats.scored,
        sentinel_stats.alerts,
        sentinel_stats.worst_frac,
    );

    let exposition = pdac_telemetry::export::prometheus_text(&snap);
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, &exposition).expect("write metrics file");
        println!("serve: metrics written to {path}");
    }

    if let Some(path) = &args.trace_out {
        let events = pdac_telemetry::global().events();
        let dropped = pdac_telemetry::global().trace_buffer().dropped();
        if dropped > 0 {
            eprintln!("serve: WARNING trace truncated, {dropped} events dropped by the ring");
        }
        let text = pdac_telemetry::export::chrome_trace_string(&events);
        std::fs::write(path, &text).expect("write trace file");
        match validate_trace(&text, dropped == 0) {
            Ok(n) => println!("serve: trace OK — {n} events written to {path}"),
            Err(e) => fail(&format!("invalid trace: {e}")),
        }
    }

    if completions.len() != row.requests || counter("serve.retired") != row.requests as u64 {
        fail(&format!(
            "{} of {} requests retired",
            completions.len(),
            row.requests
        ));
    }
    assert!(
        completions.iter().all(|c| c.hidden.len() == MAX_NEW),
        "every completion carries max_new hidden states"
    );

    // Batching, scheduling and prefix sharing must never change results:
    // replay every request alone through `decode_step` and demand
    // bit-identical completions.
    let bits =
        |rows: &[Vec<f64>]| -> Vec<u64> { rows.iter().flatten().map(|v| v.to_bits()).collect() };
    let diverged: Vec<u64> = completions
        .iter()
        .filter(|c| {
            bits(&c.hidden) != bits(&solo_reference(&model, &*backend, &trace[c.id as usize]))
        })
        .map(|c| c.id)
        .collect();
    if !diverged.is_empty() {
        fail(&format!(
            "requests {diverged:?} diverged from their solo replay"
        ));
    }
    println!(
        "serve: all {} completions bit-identical to solo decode_step",
        completions.len()
    );

    let ledger = pdac_telemetry::health::ledger();
    println!(
        "serve: health status={} alerts_raised={} warn={} critical={} dropped={}",
        ledger.status().label(),
        ledger.raised(),
        ledger.warn_count(),
        ledger.critical_count(),
        ledger.dropped(),
    );
    for a in ledger.alerts() {
        println!(
            "serve: health alert severity={} backend={} op={} measured={:.4} budget={:.4}",
            a.severity.label(),
            a.backend,
            a.op,
            a.measured,
            a.budget,
        );
    }

    if row.shared_prompt > 0 && counter("serve.kv.shared") == 0 {
        fail("shared prompts but serve.kv.shared stayed 0");
    }
    let missing = missing_series(&exposition, row.must_export);
    if !missing.is_empty() {
        fail(&format!(
            "scenario {} requires series {missing:?}, missing from the exposition",
            row.name
        ));
    }
    match (row.tia_fault.is_some(), ledger.critical_latched()) {
        (true, false) => fail(&format!(
            "scenario {} must latch a critical drift alert, and none latched",
            row.name
        )),
        (false, true) => fail("critical drift alert latched"),
        _ => {}
    }
    println!("serve: OK — all {} requests retired", row.requests);
}

#[cfg(test)]
mod tests {
    use super::{missing_series, parse_args, validate_trace, SCENARIOS};
    use std::collections::HashSet;

    fn parse(args: &[&str]) -> Result<super::Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_row_is_well_formed() {
        let names: HashSet<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), SCENARIOS.len(), "scenario names repeat");
        for row in &SCENARIOS {
            assert_eq!(row.model_config().validate(), Ok(()), "{}", row.name);
            assert!(row.batch >= 1, "{}: empty batch", row.name);
            assert!(row.shared_prompt <= row.prompt, "{}", row.name);
            assert!(!row.must_export.is_empty(), "{}", row.name);
            assert!(row.sentinel_rate > 0.0, "{}: sentinel unarmed", row.name);
            let args = parse(&["--scenario", row.name]).unwrap();
            assert_eq!(args.scenario.name, row.name);
        }
        assert!(SCENARIOS.iter().any(|s| s.tia_fault.is_some()));
    }

    #[test]
    fn no_arguments_select_smoke_and_flags_take_their_values() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.scenario.name, "smoke");
        assert_eq!((args.metrics_out, args.trace_out), (None, None));
        let args = parse(&[
            "--trace-out",
            "t.json",
            "--scenario",
            "kv",
            "--metrics-out",
            "m.txt",
        ])
        .unwrap();
        assert_eq!(args.scenario.name, "kv");
        assert_eq!(args.trace_out.as_deref(), Some("t.json"));
        assert_eq!(args.metrics_out.as_deref(), Some("m.txt"));
    }

    #[test]
    fn an_unknown_scenario_is_named() {
        let err = parse(&["--scenario", "smok"]).unwrap_err();
        assert!(err.contains("unknown scenario \"smok\""), "{err}");
        assert!(err.contains("smoke|kv|sentinel|fault"), "{err}");
    }

    #[test]
    fn an_unknown_flag_or_stray_argument_is_named() {
        for arg in ["--helth", "--health", "smoke", "--trace-out=t.json"] {
            let err = parse(&[arg]).unwrap_err();
            assert!(err.contains(&format!("unknown argument {arg:?}")), "{err}");
        }
    }

    #[test]
    fn a_flag_without_a_value_is_named() {
        for (args, flag) in [
            (&["--trace-out"][..], "--trace-out"),
            (&["--trace-out", "--health"], "--trace-out"),
            (&["--metrics-out", "m.txt", "--scenario"], "--scenario"),
        ] {
            assert_eq!(parse(args).unwrap_err(), format!("{flag} needs a value"));
        }
        let err = parse(&["--scenario", "kv", "--scenario", "smoke"]).unwrap_err();
        assert_eq!(err, "--scenario given twice");
    }

    #[test]
    fn http_takes_an_address() {
        let args = parse(&["--http", "127.0.0.1:0"]).unwrap();
        assert_eq!(args.http.as_deref(), Some("127.0.0.1:0"));
    }

    #[test]
    fn missing_series_reads_exposition_names_exactly() {
        let text = "# TYPE pdac_a gauge\npdac_a 1\npdac_b_bucket{le=\"1\"} 2\npdac_c_total 3\n";
        assert_eq!(
            missing_series(text, &["pdac_a", "pdac_b_bucket", "pdac_b", "pdac_c"]),
            ["pdac_b", "pdac_c"]
        );
    }

    #[test]
    fn a_trace_with_no_events_fails() {
        let one = r#"{"traceEvents":[{"ts":0,"dur":1,"args":{"id":1,"parent":0}}]}"#;
        assert_eq!(validate_trace(one, true), Ok(1));
        let err = validate_trace(r#"{"traceEvents":[]}"#, true).unwrap_err();
        assert_eq!(err, "no trace events");
    }
}

//! Continuous-batching serving simulation: drives a multi-request trace
//! through the [`pdac_serve::TokenServer`] and reports throughput.
//!
//! ```text
//! cargo run --release -p pdac-serve --bin serve
//! ```
//!
//! Environment knobs (all optional). A malformed value — a count that
//! is not a non-negative integer, a switch that is not `0` or `1`, a
//! zero batch, a model shape [`TransformerConfig::validate`] rejects,
//! or a bad `PDAC_KV_*`, `PDAC_POWER_BUDGET_W`, `PDAC_SENTINEL_RATE`,
//! `PDAC_SENTINEL_FAULT`, backend or meter — exits 2 with a message
//! naming the variable and the value, never falling back to the
//! default:
//!
//! * `PDAC_SERVE_REQUESTS` — number of requests in the trace (default 8)
//! * `PDAC_SERVE_PROMPT` — prompt length per request (default 4)
//! * `PDAC_SERVE_MAX_NEW` — tokens generated per request (default 8)
//! * `PDAC_SERVE_BATCH` — batch capacity (default 4, at least 1)
//! * `PDAC_SERVE_BACKEND` — `exact` | `pdac` | `edac` | `hybrid`
//!   (default `pdac`; `hybrid` runs activations on the P-DAC and
//!   weights on the e-DAC path)
//! * `PDAC_KV_BLOCK_TOKENS` / `PDAC_KV_BUDGET_BYTES` — page size in
//!   tokens (default 16) and byte budget (default unbounded) of the
//!   paged KV cache
//! * `PDAC_SERVE_SHARED_PROMPT` — first N prompt tokens identical
//!   across all requests (default 0), so the run exercises hash-consed
//!   prefix sharing
//! * `PDAC_SERVE_HIDDEN` / `PDAC_SERVE_LAYERS` / `PDAC_SERVE_HEADS` —
//!   model shape (default 64 / 2 / 4; all nonzero, heads dividing
//!   hidden)
//! * `PDAC_SERVE_METER` — `auto` | `pdac` | `edac` | `hybrid` | `off`:
//!   the [`pdac_power::meter`] driver pricing the live energy ledger
//!   (default `auto`: matched to the backend, P-DAC for `exact`)
//! * `PDAC_POWER_BUDGET_W` — arms the meter's modeled power budget, in
//!   watts (> 0); over-budget steps shed admissions (`serve.load_shed`)
//! * `PDAC_SERVE_METRICS_OUT` (or `--metrics-out <path>`) — write the
//!   Prometheus exposition (the same text `/metrics` serves) to a file
//! * `PDAC_SERVE_TRACE_OUT` (or `--trace-out <path>`) — write a
//!   Chrome-trace JSON (load in `chrome://tracing` or Perfetto) and
//!   validate it through the in-tree parser before exiting
//! * `PDAC_TRACE_CAPACITY` — span events the trace ring holds (a count;
//!   default 262144 when writing a trace file, 4096 otherwise); older
//!   events are dropped once it wraps
//! * `PDAC_SERVE_HTTP` (or `--http <addr>`, `http` feature only) —
//!   serve `/metrics` + `/trace` + `/health` on the given address while
//!   running
//! * `PDAC_SENTINEL_RATE` (`sentinel` feature) — sampling probability of
//!   the online drift sentinel (default 0.02; `0` disables it). Sampled
//!   analog GEMMs are replayed through the exact reference off the hot
//!   path and scored against the paper budgets; threshold crossings
//!   raise `health.alert.*` records
//! * `PDAC_SENTINEL_FAULT` (`sentinel` feature) — inject a deterministic
//!   device fault into the P-DAC backend:
//!   `tia|dark|droop|stuck|flipped[:magnitude]` (requires
//!   `PDAC_SERVE_BACKEND=pdac`); the sentinel must then trip the
//!   matching alert
//! * `PDAC_SENTINEL_FAILOVER` — switch (`0` | `1`, default `0`): `1`
//!   reroutes decode steps to the exact backend once a critical drift
//!   alert latches (`serve.sentinel_failover`, through
//!   [`TokenServer::with_failover`])
//! * `--health` (or the switch `PDAC_SERVE_HEALTH=1`) — print the final
//!   health verdict and alert table; exit nonzero when a critical alert
//!   latched during the run
//!
//! After the run it prints a p50/p95/p99 latency table for the SLO
//! histograms (queue-wait, TTFT, ITL, e2e) and — when a meter is
//! installed — a per-class energy table with joules/token and
//! tokens/joule, then replays every request alone through
//! `decode_step` ([`pdac_serve::solo_reference`]). Exits nonzero if any
//! request fails to retire, a completion differs from its solo replay
//! by one bit, the trace file fails validation, or the meter ran but
//! the `power.*` gauges are missing from telemetry (the CI smoke
//! gates). The replay is skipped, with a note, when sentinel failover
//! rerouted steps to the exact backend: those bits cannot match a
//! replay on the configured backend.

use std::time::Instant;

use pdac_telemetry::HistogramSummary;

use pdac_core::edac::ElectricalDac;
use pdac_core::pdac::PDac;
use pdac_nn::{
    AnalogGemm, AsymmetricGemm, ExactGemm, GemmBackend, PagedConfig, TransformerConfig,
    TransformerModel,
};
use pdac_power::meter::EnergyMeter;
use pdac_power::model::{DriverKind, PowerModel};
use pdac_power::{ArchConfig, EnergyModel, OpClass, TechParams};
use pdac_serve::{solo_reference, Request, TokenServer};

/// Prints why a knob was rejected and exits 2.
fn bad_knob(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

/// A count knob's rule on its raw value (`None` = unset): unset takes
/// `default`; a set value must be a non-negative integer.
fn parse_count(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    raw.map_or(Ok(default), |raw| {
        raw.parse()
            .map_err(|_| format!("{name}={raw:?} is not a non-negative integer"))
    })
}

/// The serving-shape rule: a batch holds at least one sequence, and the
/// model shape must pass [`TransformerConfig::validate`]. The error names
/// the knobs behind the shape and their values.
fn check_shape(batch: usize, config: &TransformerConfig) -> Result<(), String> {
    if batch == 0 {
        return Err("PDAC_SERVE_BATCH=0: a batch holds at least one sequence".into());
    }
    config.validate().map_err(|e| {
        format!(
            "PDAC_SERVE_HIDDEN={} PDAC_SERVE_LAYERS={} PDAC_SERVE_HEADS={} is not a model shape: {e}",
            config.hidden, config.layers, config.heads,
        )
    })
}

/// A switch knob's rule on its raw value (`None` = unset): unset and
/// `0` are off, `1` is on; anything else is an error, so `yes` or
/// `true` cannot silently leave the switch off.
fn parse_switch(name: &str, raw: Option<&str>) -> Result<bool, String> {
    match raw {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(raw) => Err(format!("{name}={raw:?} is not a switch (use 0 or 1)")),
    }
}

fn env_raw(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

fn env_usize(name: &str, default: usize) -> usize {
    parse_count(name, env_raw(name).as_deref(), default).unwrap_or_else(|e| bad_knob(&e))
}

fn env_switch(name: &str) -> bool {
    parse_switch(name, env_raw(name).as_deref()).unwrap_or_else(|e| bad_knob(&e))
}

/// `--flag value` from argv, falling back to the environment variable.
fn arg_or_env(flag: &str, env: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
}

/// Structural sanity checks on an emitted Chrome-trace document: the
/// round-trip gate the CI obs smoke relies on. `strict_parents` is off
/// when the ring dropped events (a parent may then be truncated away).
fn validate_trace(text: &str, strict_parents: bool) -> Result<usize, String> {
    let doc = pdac_telemetry::json::parse(text).map_err(|e| format!("parse error: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(pdac_telemetry::Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut seen_ids = std::collections::HashSet::new();
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
        "serve: energy driver={} bits={} budget_w={}",
        meter.model().power_model().driver(),
        meter.bits(),
        meter
            .budget_w()
            .map_or("none".to_string(), |w| format!("{w}")),
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
    let requests = env_usize("PDAC_SERVE_REQUESTS", 8);
    let prompt_len = env_usize("PDAC_SERVE_PROMPT", 4);
    let max_new = env_usize("PDAC_SERVE_MAX_NEW", 8);
    let batch = env_usize("PDAC_SERVE_BATCH", 4);
    let hidden = env_usize("PDAC_SERVE_HIDDEN", 64);
    let layers = env_usize("PDAC_SERVE_LAYERS", 2);
    let heads = env_usize("PDAC_SERVE_HEADS", 4);
    let backend_name = std::env::var("PDAC_SERVE_BACKEND").unwrap_or_else(|_| "pdac".to_string());
    let kv_config = PagedConfig::from_env().unwrap_or_else(|e| bad_knob(&e));
    let shared_prompt = env_usize("PDAC_SERVE_SHARED_PROMPT", 0).min(prompt_len);
    let failover = env_switch("PDAC_SENTINEL_FAILOVER");
    // Parsed even with `--health` given: a malformed switch exits 2.
    let health = env_switch("PDAC_SERVE_HEALTH") | std::env::args().any(|a| a == "--health");

    let config = TransformerConfig {
        name: "serve-sim".to_string(),
        layers,
        hidden,
        heads,
        ff_mult: 4,
        seq_len: (prompt_len + max_new).max(1),
    };
    check_shape(batch, &config).unwrap_or_else(|e| bad_knob(&e));
    let model = TransformerModel::random(config, 4, 42);

    let backend: Box<dyn GemmBackend> = match backend_name.as_str() {
        "exact" => Box::new(ExactGemm),
        "edac" => Box::new(AnalogGemm::new(
            ElectricalDac::new(8).expect("8-bit edac"),
            "edac-8b",
        )),
        "pdac" => Box::new(AnalogGemm::new(
            PDac::with_optimal_approx(8).expect("8-bit pdac"),
            "pdac-8b",
        )),
        "hybrid" => Box::new(AsymmetricGemm::new(
            PDac::with_optimal_approx(8).expect("8-bit pdac"),
            ElectricalDac::new(8).expect("8-bit edac"),
            "hybrid-8b",
        )),
        other => bad_knob(&format!(
            "unknown PDAC_SERVE_BACKEND {other:?} (use exact|pdac|edac|hybrid)"
        )),
    };

    // Deterministic fault injection for the sentinel smoke: wrap the
    // P-DAC in a FaultyPDac so the drift sentinel has something real to
    // catch. A parse error exits nonzero — a typo must not silently run
    // the clean backend and report green.
    #[cfg(feature = "sentinel")]
    let backend: Box<dyn GemmBackend> = match std::env::var("PDAC_SENTINEL_FAULT") {
        Err(_) => backend,
        Ok(raw) => match pdac_serve::sentinel::fault_spec(&raw) {
            Err(msg) => bad_knob(&msg),
            Ok(None) => backend,
            Ok(Some(spec)) => {
                if backend_name != "pdac" {
                    bad_knob("PDAC_SENTINEL_FAULT requires PDAC_SERVE_BACKEND=pdac");
                }
                println!("serve: sentinel fault injected: {raw}");
                Box::new(AnalogGemm::new(
                    pdac_serve::sentinel::FaultyPDac::new(
                        PDac::with_optimal_approx(8).expect("8-bit pdac"),
                        spec,
                    ),
                    "pdac-8b-faulty",
                ))
            }
        },
    };

    // The live energy ledger: price executed activity under the driver
    // matching the serving backend (overridable to compare drive paths
    // on identical activity).
    let meter_name = std::env::var("PDAC_SERVE_METER").unwrap_or_else(|_| "auto".to_string());
    let meter_driver = match meter_name.as_str() {
        "off" => None,
        "pdac" => Some(DriverKind::PhotonicDac),
        "edac" => Some(DriverKind::ElectricalDac),
        "hybrid" => Some(DriverKind::Hybrid),
        "auto" => Some(match backend_name.as_str() {
            "edac" => DriverKind::ElectricalDac,
            "hybrid" => DriverKind::Hybrid,
            // `pdac`, and `exact` standing in for the modeled target.
            _ => DriverKind::PhotonicDac,
        }),
        other => bad_knob(&format!(
            "unknown PDAC_SERVE_METER {other:?} (use auto|pdac|edac|hybrid|off)"
        )),
    };
    let meter = meter_driver.map(|driver| {
        let pm = PowerModel::new(ArchConfig::lt_b(), TechParams::calibrated(), driver);
        let meter = EnergyMeter::new(EnergyModel::new(pm), 8)
            .with_budget_env()
            .unwrap_or_else(|e| bad_knob(&e));
        pdac_power::meter::install(meter)
    });

    let trace_out = arg_or_env("--trace-out", "PDAC_SERVE_TRACE_OUT");
    // Size the span-event ring before the global collector's first use;
    // a run writing a trace file gets room for the whole run, so smoke
    // traces don't wrap.
    let default_capacity = if trace_out.is_some() {
        262_144
    } else {
        pdac_telemetry::registry::DEFAULT_EVENT_CAPACITY
    };
    let trace_capacity = env_usize("PDAC_TRACE_CAPACITY", default_capacity);
    assert!(
        pdac_telemetry::init_trace_capacity(trace_capacity),
        "the trace ring is sized before the collector's first use"
    );
    pdac_telemetry::enable();

    // Arm the drift sentinel (default rate 0.02; PDAC_SENTINEL_RATE=0
    // disables). It shadows the whole run and is drained before the
    // telemetry snapshot below, so its gauges and alerts land in every
    // exporter.
    #[cfg(feature = "sentinel")]
    let sentinel = pdac_serve::sentinel::install_from_env().unwrap_or_else(|e| bad_knob(&e));

    #[cfg(feature = "http")]
    let _http = arg_or_env("--http", "PDAC_SERVE_HTTP").map(|addr| {
        let server = pdac_telemetry::http::serve_metrics(pdac_telemetry::global(), &addr)
            .expect("bind metrics endpoint");
        println!("serve: metrics http on {}", server.addr());
        server
    });

    let mut server =
        TokenServer::new_paged(&model, batch, kv_config.clone()).with_failover(failover);
    // Shared prefix drawn once so every request opens with the same
    // tokens (system-prompt shape); tails stay per-request.
    let mut shared_rng = pdac_math::rng::SplitMix64::seed_from_u64(999);
    let shared_tokens: Vec<Vec<f64>> = (0..shared_prompt)
        .map(|_| {
            (0..model.config().hidden)
                .map(|_| shared_rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect();
    let trace: Vec<Request> = (0..requests)
        .map(|id| {
            let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(1000 + id as u64);
            let prompt = (0..prompt_len)
                .map(|t| {
                    if t < shared_prompt {
                        shared_tokens[t].clone()
                    } else {
                        (0..model.config().hidden)
                            .map(|_| rng.gen_range_f64(-1.0, 1.0))
                            .collect()
                    }
                })
                .collect();
            Request {
                id: id as u64,
                prompt,
                max_new_tokens: max_new,
            }
        })
        .collect();
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
        "serve: backend={} requests={requests} prompt={prompt_len} max_new={max_new} \
         batch_capacity={batch}",
        backend.name()
    );
    println!(
        "serve: steps={steps} fed_tokens={fed} generated_tokens={generated} \
         mean_occupancy={:.2} elapsed_s={elapsed:.4} tokens_per_s={tok_per_s:.1}",
        server.mean_occupancy()
    );

    // Drain the sentinel before snapshotting: every sampled GEMM is
    // replayed, scored and (if warranted) alerted by the time the
    // drift gauges are exported.
    #[cfg(feature = "sentinel")]
    let sentinel_stats = sentinel.map(pdac_serve::sentinel::SentinelHandle::finish);

    // Final flush so the `power.*` gauges reflect the whole run before
    // the snapshot is taken (and exported below).
    let energy = meter.as_ref().map(|m| m.flush());

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
        kv_config.block_tokens,
        kv_config
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
    // The paging smoke: the run must leave the kv gauges in telemetry,
    // and a shared-prompt trace must actually share.
    if !snap.gauges.iter().any(|(n, _)| n == "serve.kv.pages") {
        eprintln!("serve: FAIL — gauge serve.kv.pages missing");
        std::process::exit(1);
    }
    if shared_prompt > 0 && requests > 1 && counter("serve.kv.shared") == 0 {
        eprintln!("serve: FAIL — shared prompts but serve.kv.shared stayed 0");
        std::process::exit(1);
    }
    print_slo_table(&snap.histograms);

    if let (Some(meter), Some(esnap)) = (&meter, &energy) {
        print_energy_table(meter, esnap, &server, generated);
        // The observability smoke: a run with the meter on must leave
        // the energy gauges in telemetry (and thus in every exporter).
        for gauge in ["power.energy.total_j", "power.compute_w"] {
            if !snap.gauges.iter().any(|(n, _)| n == gauge) {
                eprintln!("serve: FAIL — meter active but gauge {gauge} missing");
                std::process::exit(1);
            }
        }
    }

    #[cfg(feature = "sentinel")]
    if let Some(stats) = &sentinel_stats {
        println!(
            "serve: sentinel sampled={} scored={} dropped={} alerts={} worst_frac={:.3} \
             failover_steps={}",
            stats.sampled,
            stats.scored,
            stats.dropped,
            stats.alerts,
            stats.worst_frac,
            server.failover_steps(),
        );
        // The sentinel smoke: a run that scored samples must leave the
        // drift gauges in telemetry (mirrors the power gauge gate).
        if stats.scored > 0
            && !snap
                .gauges
                .iter()
                .any(|(n, _)| n.starts_with("health.drift."))
        {
            eprintln!("serve: FAIL — sentinel scored samples but health.drift.* gauges missing");
            std::process::exit(1);
        }
    }

    if let Some(path) = arg_or_env("--metrics-out", "PDAC_SERVE_METRICS_OUT") {
        let text = pdac_telemetry::export::prometheus_text(&snap);
        std::fs::write(&path, &text).expect("write metrics file");
        println!("serve: metrics written to {path}");
    }

    if let Some(path) = trace_out {
        let events = pdac_telemetry::global().events();
        let dropped = pdac_telemetry::global().trace_buffer().dropped();
        if dropped > 0 {
            eprintln!("serve: WARNING trace truncated, {dropped} events dropped by the ring");
        }
        let text = pdac_telemetry::export::chrome_trace_string(&events);
        std::fs::write(&path, &text).expect("write trace file");
        match validate_trace(&text, dropped == 0) {
            Ok(n) => println!("serve: trace OK — {n} events written to {path}"),
            Err(e) => {
                eprintln!("serve: FAIL — invalid trace: {e}");
                std::process::exit(1);
            }
        }
    }

    if completions.len() != requests || counter("serve.retired") != requests as u64 {
        eprintln!(
            "serve: FAIL — {} of {requests} requests retired",
            completions.len()
        );
        std::process::exit(1);
    }
    assert!(
        completions.iter().all(|c| c.hidden.len() == max_new),
        "every completion carries max_new hidden states"
    );

    // Batching, scheduling and prefix sharing must never change results:
    // replay every request alone through `decode_step` and demand
    // bit-identical completions.
    if server.failover_steps() > 0 {
        println!(
            "serve: note — solo replay skipped: {} steps failed over to the exact backend",
            server.failover_steps()
        );
    } else {
        let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let diverged: Vec<u64> = completions
            .iter()
            .filter(|c| {
                bits(&c.hidden) != bits(&solo_reference(&model, &*backend, &trace[c.id as usize]))
            })
            .map(|c| c.id)
            .collect();
        if !diverged.is_empty() {
            eprintln!("serve: FAIL — requests {diverged:?} diverged from their solo replay");
            std::process::exit(1);
        }
        println!(
            "serve: all {} completions bit-identical to solo decode_step",
            completions.len()
        );
    }

    // The health verdict gate: mirror the ledger to stdout and exit
    // nonzero when critical drift latched (the CI sentinel smoke runs
    // this twice: clean must pass, fault-injected must fail here).
    if health {
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
        if ledger.critical_latched() {
            eprintln!("serve: FAIL — critical drift alert latched");
            std::process::exit(1);
        }
    }
    println!("serve: OK — all {requests} requests retired");
}

#[cfg(test)]
mod tests {
    use super::{check_shape, parse_count, parse_switch};
    use pdac_nn::TransformerConfig;

    #[test]
    fn count_parse_accepts_unset_and_non_negative_integers() {
        assert_eq!(parse_count("PDAC_SERVE_BATCH", None, 4), Ok(4));
        for (raw, n) in [("0", 0), ("8", 8), ("65536", 65536)] {
            assert_eq!(
                parse_count("PDAC_SERVE_BATCH", Some(raw), 4),
                Ok(n),
                "{raw}"
            );
        }
    }

    #[test]
    fn count_parse_names_the_variable_and_the_bad_value() {
        for raw in ["", "-1", "4.0", "8 ", "eight", "1e3"] {
            let err = parse_count("PDAC_SERVE_BATCH", Some(raw), 4).expect_err(raw);
            assert!(
                err.contains("PDAC_SERVE_BATCH") && err.contains(&format!("{raw:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn switch_parse_accepts_unset_zero_and_one_only() {
        let name = "PDAC_SENTINEL_FAILOVER";
        assert_eq!(parse_switch(name, None), Ok(false));
        assert_eq!(parse_switch(name, Some("0")), Ok(false));
        assert_eq!(parse_switch(name, Some("1")), Ok(true));
        for raw in ["", "yes", "true", "on", "2", " 1"] {
            let err = parse_switch(name, Some(raw)).expect_err(raw);
            assert!(
                err.contains(name) && err.contains(&format!("{raw:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn shape_check_rejects_a_zero_batch_and_bad_models_by_name() {
        let shape = |hidden, layers, heads| TransformerConfig {
            name: "serve-sim".into(),
            layers,
            hidden,
            heads,
            ff_mult: 4,
            seq_len: 12,
        };
        assert_eq!(check_shape(4, &shape(64, 2, 4)), Ok(()));
        assert_eq!(check_shape(1, &shape(32, 1, 1)), Ok(()));
        let err = check_shape(0, &shape(64, 2, 4)).unwrap_err();
        assert!(err.contains("PDAC_SERVE_BATCH=0"), "{err}");
        for (hidden, layers, heads, knob) in [
            (64, 2, 3, "PDAC_SERVE_HEADS=3"),
            (64, 0, 4, "PDAC_SERVE_LAYERS=0"),
            (0, 2, 4, "PDAC_SERVE_HIDDEN=0"),
            (64, 2, 0, "PDAC_SERVE_HEADS=0"),
        ] {
            let err = check_shape(4, &shape(hidden, layers, heads)).unwrap_err();
            assert!(err.contains(knob), "{err}");
        }
    }
}

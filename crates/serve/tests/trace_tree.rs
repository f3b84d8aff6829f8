//! Span-tree completeness for the token server: every admitted request
//! must yield exactly one `serve.request` root event tagged with its
//! request id, with `serve.queue_wait` and `serve.request.generate`
//! children parented on that root.
//!
//! Uses the process-global collector, so the whole scenario lives in a
//! single `#[test]` — this test binary must not share the global with
//! other telemetry-mutating tests.

use std::collections::HashMap;

use pdac_nn::{ExactGemm, PagedConfig, TransformerConfig, TransformerModel};
use pdac_serve::{Request, TokenServer};
use pdac_telemetry::SpanEvent;

fn prompt_rows(model: &TransformerModel, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = pdac_math::rng::SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..model.config().hidden)
                .map(|_| rng.gen_range_f64(-1.0, 1.0))
                .collect()
        })
        .collect()
}

/// Children of `root` among `events`, by name.
fn children<'e>(events: &'e [SpanEvent], root: &SpanEvent, name: &str) -> Vec<&'e SpanEvent> {
    events
        .iter()
        .filter(|e| e.name == name && e.parent == root.id)
        .collect()
}

#[test]
fn every_admitted_request_yields_one_complete_span_tree() {
    pdac_telemetry::enable();
    pdac_telemetry::set_tracing(true);
    pdac_telemetry::reset();

    let model = TransformerModel::random(TransformerConfig::tiny(), 4, 7);
    // More requests than batch slots so some requests genuinely queue,
    // including a zero-budget request that completes at admission.
    let specs = [(10u64, 0usize, 3usize), (11, 2, 4), (12, 1, 2), (13, 3, 1)];
    let mut server = TokenServer::new_paged(&model, 2, PagedConfig::default());
    for &(id, p, n) in &specs {
        server.admit(Request {
            id,
            prompt: prompt_rows(&model, p, 100 + id),
            max_new_tokens: n,
        });
    }
    server.admit(Request {
        id: 14,
        prompt: Vec::new(),
        max_new_tokens: 0,
    });

    let mut completions = Vec::new();
    let mut guard = 0;
    while !server.is_idle() {
        completions.extend(server.step(&ExactGemm));
        guard += 1;
        assert!(guard < 100, "server failed to drain");
    }
    let events = pdac_telemetry::global().events();
    let dropped = pdac_telemetry::global().trace_buffer().dropped();
    pdac_telemetry::disable();
    assert_eq!(dropped, 0, "ring overflowed; test needs a larger capacity");

    // Exactly one root per admitted id, carrying the request id as arg.
    let admitted: Vec<u64> = specs.iter().map(|s| s.0).chain([14]).collect();
    let roots: HashMap<u64, &SpanEvent> = events
        .iter()
        .filter(|e| e.name == "serve.request")
        .map(|e| (e.arg.expect("request root carries id"), e))
        .collect();
    assert_eq!(
        roots.len(),
        admitted.len(),
        "one serve.request root per admitted request"
    );
    for id in &admitted {
        let root = roots[id];
        assert_eq!(root.parent, 0, "request {id}: root must be parentless");
        assert!(root.end_ns >= root.start_ns, "request {id}: negative span");

        if *id == 14 {
            // Zero-budget requests retire at admission: no scheduling, no
            // queue wait, no generate phase — just the root.
            assert!(children(&events, root, "serve.queue_wait").is_empty());
            assert!(children(&events, root, "serve.request.generate").is_empty());
            continue;
        }
        let waits = children(&events, root, "serve.queue_wait");
        assert_eq!(waits.len(), 1, "request {id}: one queue-wait child");
        let gens = children(&events, root, "serve.request.generate");
        assert_eq!(gens.len(), 1, "request {id}: one generate child");
        // Children nest inside the root's interval, in phase order.
        for child in waits.iter().chain(&gens) {
            assert!(child.start_ns >= root.start_ns, "request {id}: child early");
            assert!(child.end_ns <= root.end_ns, "request {id}: child late");
        }
        assert!(
            waits[0].end_ns <= gens[0].start_ns,
            "request {id}: queue wait must precede generation"
        );
    }

    // Every budgeted request completed with its full token count.
    assert_eq!(completions.len(), admitted.len() - 1);
    for &(id, _, n) in &specs {
        let c = completions.iter().find(|c| c.id == id).expect("completed");
        assert_eq!(c.hidden.len(), n, "request {id}");
    }

    // Step-level spans exist and parent the decode work.
    let steps: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "serve.step").collect();
    assert!(!steps.is_empty(), "serve.step spans recorded");
    let step_ids: Vec<u64> = steps.iter().map(|e| e.id).collect();
    let decodes: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.name == "nn.inference.decode_batch")
        .collect();
    assert!(!decodes.is_empty(), "decode_batch spans recorded");
    for d in &decodes {
        assert!(
            step_ids.contains(&d.parent),
            "decode_batch span must nest under a serve.step span"
        );
    }
}

//! Chrome trace output for the traced run: spans kept in memory during
//! the run and written once at exit (load the file in `chrome://tracing`
//! or Perfetto).

use crate::json::{obj, Json};

/// Builds a Chrome-trace document in which every parent span precedes
/// its children.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Json>,
    next_id: u64,
}

impl TraceBuilder {
    /// Appends a complete span and returns its id. `parent` is 0 for a
    /// root, otherwise an id returned earlier. Times are nanoseconds.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        name: &str,
        cat: &str,
        tid: u64,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        args: Vec<(&str, Json)>,
    ) -> u64 {
        assert!(parent <= self.next_id, "parent {parent} not yet emitted");
        self.next_id += 1;
        let id = self.next_id;
        let mut all = vec![("id", Json::Int(id)), ("parent", Json::Int(parent))];
        all.extend(args);
        self.events.push(obj([
            ("name", Json::Str(name.into())),
            ("cat", Json::Str(cat.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(start_ns as f64 / 1e3)),
            (
                "dur",
                Json::Num(end_ns.saturating_sub(start_ns) as f64 / 1e3),
            ),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid)),
            ("args", obj(all)),
        ]));
        id
    }

    pub fn finish(self) -> String {
        obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
        .render()
    }
}

/// Parses a trace document and checks its structure: every event has an
/// id and a parent emitted before it, durations are non-negative, and
/// each child lies inside its parent's interval. Returns the event count.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace: missing traceEvents array")?;
    // Interval of every emitted id, in microseconds.
    let mut seen: std::collections::HashMap<u64, (f64, f64)> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("trace: event {i} lacks {k}"))
        };
        let arg = |k: &str| {
            e.get("args")
                .and_then(|a| a.get(k))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace: event {i} lacks args.{k}"))
        };
        let (ts, dur, id, parent) = (field("ts")?, field("dur")?, arg("id")?, arg("parent")?);
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("trace: event {i} has negative time"));
        }
        if parent != 0 {
            let &(p0, p1) = seen
                .get(&parent)
                .ok_or_else(|| format!("trace: event {i} precedes its parent {parent}"))?;
            // One nanosecond of slack for the microsecond float rendering.
            if ts < p0 - 1e-3 || ts + dur > p1 + 1e-3 {
                return Err(format!("trace: event {i} lies outside parent {parent}"));
            }
        }
        if seen.insert(id, (ts, ts + dur)).is_some() {
            return Err(format!("trace: duplicate id {id}"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_trace_parses_with_parents_first() {
        let mut t = TraceBuilder::default();
        let root = t.span("step", "serve", 1, 1_000, 9_000, 0, vec![]);
        t.span(
            "gemm.qkv",
            "gemm",
            1,
            2_000,
            3_000,
            root,
            vec![("layer", Json::Int(0))],
        );
        t.span("gemm.ffn_up", "gemm", 1, 4_000, 9_000, root, vec![]);
        assert_eq!(validate(&t.finish()), Ok(3));
    }

    #[test]
    fn validation_rejects_orphans_and_escapes() {
        let orphan = r#"{"traceEvents":[{"ts":1,"dur":1,"args":{"id":2,"parent":1}}]}"#;
        assert!(validate(orphan).is_err());
        let escape = r#"{"traceEvents":[{"ts":1,"dur":1,"args":{"id":1,"parent":0}},
            {"ts":1.5,"dur":1,"args":{"id":2,"parent":1}}]}"#;
        assert!(validate(escape).is_err());
    }
}

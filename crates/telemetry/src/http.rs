//! Std-only HTTP exposition endpoint.
//!
//! One background thread, one `TcpListener`, blocking request-at-a-time
//! handling — deliberately minimal (no keep-alive, no chunking, HTTP/1.0
//! semantics) because its job is to let `curl` and a Prometheus scraper
//! read the global collector, not to be a web server.
//!
//! Routes:
//! * `GET /metrics` — Prometheus text exposition of the current snapshot.
//! * `GET /trace`   — Chrome-trace-format JSON of the span-event ring.
//! * `GET /health`  — JSON health verdict (ok/degraded/critical) with the
//!   active drift alerts; HTTP 503 once a critical alert has latched so
//!   load balancers can rotate the instance out without parsing the body.
//! * anything else  — 404.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use crate::export::{chrome_trace_string, prometheus_text};
use crate::registry::Collector;

/// Handle to a running exposition endpoint. Dropping it does *not* stop
/// the thread (it is detached); the handle mainly reports the bound
/// address so callers can print it or scrape it in tests.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
}

impl MetricsServer {
    /// The address the listener actually bound (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:9090"`, port 0 for ephemeral) and serve
/// `/metrics` + `/trace` from `collector` on a detached background
/// thread until the process exits.
pub fn serve_metrics(collector: &'static Collector, addr: &str) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    thread::Builder::new()
        .name("pdac-metrics-http".into())
        .spawn(move || {
            for stream in listener.incoming().flatten() {
                // One bad client must not take the endpoint down.
                let _ = handle(stream, collector);
            }
        })?;
    Ok(MetricsServer { addr: bound })
}

fn handle(mut stream: TcpStream, collector: &Collector) -> std::io::Result<()> {
    // Read until the end of the request head (blank line) — a GET may
    // arrive split across several segments.
    let mut buf = [0u8; 1024];
    let mut n = 0;
    while n < buf.len() {
        let got = stream.read(&mut buf[n..])?;
        if got == 0 {
            break;
        }
        n += got;
        if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            prometheus_text(&collector.snapshot()),
        ),
        "/trace" => (
            "200 OK",
            "application/json",
            chrome_trace_string(&collector.events()),
        ),
        "/health" => {
            let ledger = crate::health::ledger();
            let status = if ledger.critical_latched() {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "application/json", ledger.to_json().render())
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn test_collector() -> &'static Collector {
        static C: OnceLock<Collector> = OnceLock::new();
        C.get_or_init(Collector::new)
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_trace() {
        let collector = test_collector();
        collector.add("http.test_counter", 5);
        {
            let _span = collector.span("http.test_span");
        }
        let server = serve_metrics(collector, "127.0.0.1:0").unwrap();
        let metrics = get(server.addr(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"));
        assert!(metrics.contains("pdac_http_test_counter 5"));
        let trace = get(server.addr(), "/trace");
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("http.test_span"));
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn health_endpoint_reports_and_degrades_to_503() {
        use crate::health::{self, Severity};

        let collector = test_collector();
        let server = serve_metrics(collector, "127.0.0.1:0").unwrap();
        // This test owns the global ledger for its duration; the other
        // http test never touches health.
        health::reset();
        let ok = get(server.addr(), "/health");
        assert!(ok.starts_with("HTTP/1.0 200 OK"), "{ok}");
        assert!(ok.contains("\"status\":\"ok\""));

        health::raise(Severity::Critical, "pdac-8b", "batch", 0.31, 0.15);
        let critical = get(server.addr(), "/health");
        assert!(
            critical.starts_with("HTTP/1.0 503 Service Unavailable"),
            "{critical}"
        );
        assert!(critical.contains("\"status\":\"critical\""));
        assert!(critical.contains("\"backend\":\"pdac-8b\""));
        let body = critical.split("\r\n\r\n").nth(1).unwrap();
        crate::json::parse(body).expect("health body parses as JSON");
        health::reset();
    }
}

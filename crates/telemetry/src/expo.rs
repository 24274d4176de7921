//! Prometheus text exposition and the embedded scrape endpoint.
//!
//! [`render_prometheus`] turns a [`Telemetry`] snapshot into the
//! Prometheus text format (version 0.0.4): counters and gauges as-is,
//! and the exact stage statistics of the closed spans as the `stage_ms`
//! summary with `quantile` labels.
//! [`MetricsServer`] serves it over plain HTTP/1.1 on a background
//! thread (`GET /metrics`), next to a `GET /healthz` JSON snapshot
//! published by the runner through a [`HealthBoard`].
//!
//! Everything here is **strictly read-only** over shared snapshots:
//! scraping cannot perturb the simulation, so reports stay
//! bit-identical with the server on or off.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;
use crate::{Telemetry, STAGE_MS};

/// Sanitises `name` into a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): illegal characters become `_`, and a
/// leading digit gains a `_` prefix.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if legal {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be escaped inside the quotes.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders a telemetry snapshot in the Prometheus text exposition
/// format. Counters and gauges keep their family names; the stage
/// statistics (closed spans only) render as the `stage_ms` summary with
/// p50/p90/p99 `quantile` labels plus `_count` and `_sum` series. Output
/// is deterministic (families and labels sorted).
pub fn render_prometheus(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    let registry = telemetry.registry();
    let values = registry
        .counter_values()
        .into_iter()
        .map(|(family, label, v)| ("counter", family, label, v as f64))
        .chain(
            registry
                .gauge_values()
                .into_iter()
                .map(|(family, label, v)| ("gauge", family, label, v)),
        );
    let mut last_family = None;
    for (kind, family, label, value) in values {
        let name = metric_name(family);
        if last_family.as_ref() != Some(&(kind, name.clone())) {
            header(&mut out, &name, kind, &format!("msvs {kind}"));
            last_family = Some((kind, name.clone()));
        }
        let labels: Vec<(&str, &str)> = if label.is_empty() {
            vec![]
        } else {
            vec![("label", label.as_str())]
        };
        sample(&mut out, &name, &labels, value);
    }
    let stages = telemetry.stage_stats();
    if !stages.is_empty() {
        header(&mut out, STAGE_MS, "summary", "msvs stage wall time");
    }
    for s in &stages {
        let stage = s.stage.as_str();
        for (tag, value) in [("0.5", s.p50_ms), ("0.9", s.p90_ms), ("0.99", s.p99_ms)] {
            sample(
                &mut out,
                STAGE_MS,
                &[("stage", stage), ("quantile", tag)],
                value,
            );
        }
        let labels = [("stage", stage)];
        sample(
            &mut out,
            &format!("{STAGE_MS}_count"),
            &labels,
            s.count as f64,
        );
        sample(&mut out, &format!("{STAGE_MS}_sum"), &labels, s.total_ms);
    }
    out
}

/// Per-shard row in a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    pub shard: u64,
    /// Cumulative availability in `[0, 1]`.
    pub availability: f64,
    /// Intervals this shard spent down so far.
    pub down_intervals: u64,
}

/// Point-in-time run health, published by the simulation at each
/// interval boundary and rendered as the `/healthz` JSON body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthSnapshot {
    /// `"idle"`, `"running"`, or `"finished"`.
    pub state: String,
    /// Scored intervals completed so far.
    pub intervals_completed: u64,
    /// Scored intervals the run will execute.
    pub intervals_total: u64,
    /// Live twin population.
    pub users: u64,
    /// Fresh-twin coverage entering the latest prediction.
    pub twin_coverage: Option<f64>,
    /// Whether the latest interval used the degraded prediction path.
    pub degraded: bool,
    /// Cumulative degraded intervals.
    pub degraded_intervals: u64,
    /// Per-shard availability (empty on single-shard runs).
    pub shards: Vec<ShardHealth>,
    /// Cumulative SLO breach edges (0 without a policy).
    pub slo_breaches: u64,
    /// Whether any SLO rule is currently in violation.
    pub slo_breached: bool,
}

impl HealthSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("state", Json::Str(self.state.clone())),
            (
                "intervals_completed",
                Json::Num(self.intervals_completed as f64),
            ),
            ("intervals_total", Json::Num(self.intervals_total as f64)),
            ("users", Json::Num(self.users as f64)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "degraded_intervals",
                Json::Num(self.degraded_intervals as f64),
            ),
            ("slo_breaches", Json::Num(self.slo_breaches as f64)),
            ("slo_breached", Json::Bool(self.slo_breached)),
        ];
        pairs.push((
            "twin_coverage",
            self.twin_coverage.map_or(Json::Null, Json::Num),
        ));
        pairs.push((
            "shards",
            Json::Arr(
                self.shards
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("shard", Json::Num(s.shard as f64)),
                            ("availability", Json::Num(s.availability)),
                            ("down_intervals", Json::Num(s.down_intervals as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::obj(pairs)
    }
}

/// Shared, last-write-wins home of the current [`HealthSnapshot`].
/// Cloning shares the underlying slot; the runner publishes, the
/// metrics server reads.
#[derive(Debug, Clone, Default)]
pub struct HealthBoard {
    slot: Arc<Mutex<HealthSnapshot>>,
}

impl HealthBoard {
    /// Builds a board holding the default (idle) snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the current snapshot.
    pub fn publish(&self, snapshot: HealthSnapshot) {
        *self.slot.lock().expect("health board lock poisoned") = snapshot;
    }

    /// A copy of the current snapshot.
    pub fn snapshot(&self) -> HealthSnapshot {
        self.slot
            .lock()
            .expect("health board lock poisoned")
            .clone()
    }
}

/// A minimal HTTP/1.1 scrape endpoint on a background thread.
///
/// Serves `GET /metrics` (Prometheus text format) and `GET /healthz`
/// (JSON), both rendered on demand from shared read-only handles. The
/// listener thread is joined on [`stop`](MetricsServer::stop) or drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`; port 0 picks a free port)
    /// and starts serving `telemetry` and `health`.
    ///
    /// # Errors
    /// Returns a message when the address cannot be parsed or bound.
    pub fn bind(addr: &str, telemetry: Telemetry, health: HealthBoard) -> Result<Self, String> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind metrics server on {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("metrics server local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("msvs-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // One request per connection; errors only drop
                        // the scrape, never the server.
                        let _ = serve_one(stream, &telemetry, &health);
                    }
                }
            })
            .map_err(|e| format!("cannot spawn metrics server thread: {e}"))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it. Idempotent.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_one(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    health: &HealthBoard,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request head; scrape requests have no
    // body, so a bounded single pass is enough.
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 64 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(telemetry),
            ),
            "/healthz" => (
                "200 OK",
                "application/json; charset=utf-8",
                format!("{}\n", health.snapshot().to_json()),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics or /healthz\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Issues one blocking `GET path` against `addr` and returns the raw
/// response body. Test/CLI helper — not a general HTTP client.
///
/// # Errors
/// Returns a message on connection or protocol failure.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> Result<String, String> {
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: msvs\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("non-200 response: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_sanitised() {
        assert_eq!(metric_name("events_total"), "events_total");
        assert_eq!(metric_name("stage.ms"), "stage_ms");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("a-b c"), "a_b_c");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn exposition_covers_counters_gauges_and_summaries() {
        let t = Telemetry::new();
        t.counter("events_total", "IntervalCompleted").add(3);
        t.counter("events_total", "IntervalStarted").add(5);
        t.gauge("par_utilisation", "udt_ingest").set(0.75);
        t.gauge("bare_gauge", "").set(1.5);
        for _ in 0..100 {
            t.stage_scope("kmeans_fit").stop();
        }
        // An open scope is not a sample.
        let _open = t.stage_scope("interval");
        let text = render_prometheus(&t);
        assert!(text.contains("# TYPE events_total counter"), "{text}");
        assert!(
            text.contains("events_total{label=\"IntervalCompleted\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE par_utilisation gauge"), "{text}");
        assert!(
            text.contains("par_utilisation{label=\"udt_ingest\"} 0.75"),
            "{text}"
        );
        assert!(text.contains("bare_gauge 1.5"), "{text}");
        assert!(text.contains("# TYPE stage_ms summary"), "{text}");
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                text.contains(&format!(
                    "stage_ms{{stage=\"kmeans_fit\",quantile=\"{q}\"}}"
                )),
                "{text}"
            );
        }
        assert!(
            text.contains("stage_ms_count{stage=\"kmeans_fit\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("stage_ms_sum{stage=\"kmeans_fit\"}"),
            "{text}"
        );
        assert!(!text.contains("stage=\"interval\""), "{text}");
        // One HELP/TYPE pair per family, ahead of its samples.
        assert_eq!(text.matches("# TYPE events_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE stage_ms summary").count(), 1);
    }

    #[test]
    fn every_exposed_line_is_format_conformant() {
        let t = Telemetry::new();
        t.counter("events_total", "with\"quote").inc();
        t.gauge("shard_imbalance", "").set(0.2);
        t.stage_scope("cnn_forward").stop();
        for line in render_prometheus(&t).lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let name = &line[..name_end];
            assert!(!name.is_empty(), "unnamed sample: {line}");
            for (i, c) in name.chars().enumerate() {
                let ok = c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit());
                assert!(ok, "illegal metric name char {c:?} in: {line}");
            }
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparsable value in: {line}");
        }
    }

    #[test]
    fn health_snapshot_renders_json() {
        let board = HealthBoard::new();
        board.publish(HealthSnapshot {
            state: "running".into(),
            intervals_completed: 2,
            intervals_total: 8,
            users: 100,
            twin_coverage: Some(0.97),
            degraded: false,
            degraded_intervals: 0,
            shards: vec![ShardHealth {
                shard: 1,
                availability: 0.5,
                down_intervals: 1,
            }],
            slo_breaches: 1,
            slo_breached: true,
        });
        let text = board.snapshot().to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(
            parsed.get("intervals_completed").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed.get("twin_coverage").and_then(Json::as_f64),
            Some(0.97)
        );
        assert_eq!(parsed.get("slo_breached"), Some(&Json::Bool(true)));
        match parsed.get("shards") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(
                    rows[0].get("availability").and_then(Json::as_f64),
                    Some(0.5)
                );
            }
            other => panic!("shards not an array: {other:?}"),
        }
    }

    #[test]
    fn server_serves_metrics_and_healthz_then_stops() {
        let t = Telemetry::new();
        t.counter("events_total", "IntervalStarted").add(7);
        let board = HealthBoard::new();
        board.publish(HealthSnapshot {
            state: "running".into(),
            ..HealthSnapshot::default()
        });
        let mut server = MetricsServer::bind("127.0.0.1:0", t, board).unwrap();
        let addr = server.addr();
        let metrics = http_get(addr, "/metrics").unwrap();
        assert!(metrics.contains("events_total{label=\"IntervalStarted\"} 7"));
        let health = http_get(addr, "/healthz").unwrap();
        let parsed = Json::parse(health.trim()).unwrap();
        assert_eq!(parsed.get("state").and_then(Json::as_str), Some("running"));
        assert!(http_get(addr, "/nope").is_err(), "404 path must error");
        server.stop();
        server.stop(); // idempotent
        assert!(http_get(addr, "/metrics").is_err(), "server must be down");
    }
}

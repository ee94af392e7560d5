//! Prometheus-style plaintext exposition for the metrics registry, and
//! the lightweight admin socket that serves it.
//!
//! Hand-rolled like the wire codec: the text format (version 0.0.4) is
//! simple enough that a dependency would cost more than it saves. The
//! encoder renders every counter, gauge, and histogram in a
//! [`RegistrySnapshot`]; the [`MetricsExporter`] wraps it in just enough
//! HTTP/1.0 that `curl http://…/metrics` works against a live cluster.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::{RegistrySnapshot, BUCKET_BOUNDS};

/// Maps a registry name (dotted, free-form) onto the exposition
/// alphabet `[a-zA-Z0-9_:]`, prefixed `webdis_` to namespace the fleet.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("webdis_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value for the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside `label="…"`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The `# HELP` text for a registry metric: specific wording for the
/// engine's known families, a generic fallback otherwise. HELP text
/// may not contain raw newlines or backslashes; everything returned
/// here is plain ASCII prose.
pub fn help_text(name: &str) -> String {
    const KNOWN: &[(&str, &str)] = &[
        (
            "hop_latency_us",
            "Microseconds from a query clone's send to its receive, one hop.",
        ),
        (
            "site_fanout",
            "Successor sites each processed clone forwarded to.",
        ),
        (
            "message_bytes",
            "Encoded wire size of each sent message, in bytes.",
        ),
        ("eval_rows", "Result rows produced per node-query evaluation."),
        ("eval_span_us", "Microseconds per node-query evaluation."),
        (
            "query_latency_us",
            "End-to-end microseconds from query submission to completion.",
        ),
        (
            "queue_depth_high_water",
            "Peak queued deliveries observed at any site (high-water mark; reset via /reset_high_water).",
        ),
        (
            "admission_occupancy_high_water",
            "Peak concurrently admitted queries at any server (high-water mark; reset via /reset_high_water).",
        ),
        (
            "log_len_high_water",
            "Peak log-table length observed at any site (high-water mark; reset via /reset_high_water).",
        ),
        ("cache.bytes", "Peak resident answer-cache bytes (high-water mark)."),
        ("up", "1 while the cluster's admin socket is serving."),
    ];
    if let Some((_, desc)) = KNOWN.iter().find(|(n, _)| *n == name) {
        return (*desc).to_string();
    }
    if let Some(stage) = name.strip_prefix("stage_us.") {
        return format!(
            "Microseconds attributed to the {stage} pipeline stage per processed clone."
        );
    }
    if name.starts_with("net.") {
        return format!("Transport wire accounting: {name}.");
    }
    if name.starts_with("cache.") {
        return format!("Answer-cache accounting: {name}.");
    }
    if let Some(site) = name.strip_prefix("queue_depth.") {
        return format!("Peak queued deliveries at site {site} (high-water mark).");
    }
    format!("WEBDIS registry metric {name}.")
}

impl RegistrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# HELP` and one `# TYPE` line per metric, histograms with
    /// cumulative `le` buckets ending in `+Inf`, plus `_sum` and
    /// `_count` series. Label values go through
    /// [`escape_label_value`], so a hostile bucket bound or future
    /// string label cannot break the line format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            let metric = metric_name(name);
            out.push_str(&format!(
                "# HELP {metric} {}\n# TYPE {metric} counter\n{metric} {value}\n",
                help_text(name)
            ));
        }
        for (name, value) in self.gauges() {
            let metric = metric_name(name);
            out.push_str(&format!(
                "# HELP {metric} {}\n# TYPE {metric} gauge\n{metric} {value}\n",
                help_text(name)
            ));
        }
        for (name, h) in self.histograms() {
            let metric = metric_name(name);
            out.push_str(&format!(
                "# HELP {metric} {}\n# TYPE {metric} histogram\n",
                help_text(name)
            ));
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                let le = match BUCKET_BOUNDS.get(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!(
                    "{metric}_bucket{{le=\"{}\"}} {cumulative}\n",
                    escape_label_value(&le)
                ));
            }
            out.push_str(&format!("{metric}_sum {}\n", h.sum));
            out.push_str(&format!("{metric}_count {}\n", h.count));
        }
        out
    }
}

/// The admin socket's route table. `/metrics` is always present; the
/// optional routes light up when their provider is set, and 404
/// otherwise.
#[derive(Clone)]
pub struct AdminRoutes {
    /// The `/metrics` body (Prometheus text exposition).
    pub metrics: Arc<dyn Fn() -> String + Send + Sync>,
    /// The `/status` body (JSON monitor snapshot), when a monitor runs.
    pub status: Option<Arc<dyn Fn() -> String + Send + Sync>>,
    /// The `/reset_high_water` action: zeroes every high-water gauge.
    pub reset_high_water: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// A minimal admin HTTP socket serving `/metrics` (plus the optional
/// `/status` and `/reset_high_water` admin routes).
///
/// One background thread per exporter: accept, read the request line,
/// answer with whatever the provider closure renders *right now*, close.
/// No keep-alive, no routing beyond the fixed table (anything else is
/// 404) — it exists so a live run can be scraped mid-flight, not to be
/// a web server.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds an ephemeral loopback port and starts serving the full
    /// route table.
    pub fn spawn_routes(routes: AdminRoutes) -> std::io::Result<MetricsExporter> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // A blocking accept: an idle exporter costs no wake-ups.
            // `stop` gets it out with a throwaway connection.
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    // Serve inline: one tiny request at a time is all an
                    // admin scrape needs.
                    Ok(stream) => {
                        let _ = serve_one(stream, &routes);
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(MetricsExporter {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (`127.0.0.1:<ephemeral>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for MetricsExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsExporter")
            .field("addr", &self.addr)
            .finish()
    }
}

const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn serve_one(mut stream: TcpStream, routes: &AdminRoutes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (or the buffer fills — the
    // request line is all we look at).
    let mut buf = [0u8; 1024];
    let mut len = 0;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head.split_whitespace().nth(1).unwrap_or("");
    let path_only = path.split('?').next().unwrap_or("");
    let (status, content_type, body) = match path_only {
        "/metrics" => ("200 OK", METRICS_CONTENT_TYPE, (routes.metrics)()),
        "/status" => match &routes.status {
            Some(provider) => ("200 OK", "application/json; charset=utf-8", provider()),
            None => not_found(),
        },
        "/reset_high_water" => match &routes.reset_high_water {
            Some(reset) => {
                reset();
                (
                    "200 OK",
                    "text/plain; charset=utf-8",
                    String::from("high-water marks reset\n"),
                )
            }
            None => not_found(),
        },
        _ => not_found(),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn not_found() -> (&'static str, &'static str, String) {
    (
        "404 Not Found",
        "text/plain; charset=utf-8",
        String::from("routes: /metrics, /status, /reset_high_water\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn names_sanitize_to_the_exposition_alphabet() {
        assert_eq!(metric_name("server.arrivals"), "webdis_server_arrivals");
        assert_eq!(
            metric_name("stage_us.parse.a.test"),
            "webdis_stage_us_parse_a_test"
        );
        assert_eq!(metric_name("ok_name:sub"), "webdis_ok_name:sub");
    }

    #[test]
    fn exposition_covers_counters_gauges_and_histograms() {
        let r = Registry::new();
        r.count("server.arrivals", 7);
        r.gauge_max("log_len_high_water", 4);
        r.observe("hop_latency_us", 3);
        r.observe("hop_latency_us", 5_000);
        let text = r.snapshot().render_prometheus();

        assert!(text.contains("# TYPE webdis_server_arrivals counter\n"));
        assert!(text.contains("webdis_server_arrivals 7\n"));
        assert!(text.contains("# TYPE webdis_log_len_high_water gauge\n"));
        assert!(text.contains("webdis_log_len_high_water 4\n"));
        assert!(text.contains("# TYPE webdis_hop_latency_us histogram\n"));
        // Cumulative buckets: the 3 lands in le="4"; by le="65536" both
        // observations are counted, and +Inf always equals the count.
        assert!(text.contains("webdis_hop_latency_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("webdis_hop_latency_us_bucket{le=\"65536\"} 2\n"));
        assert!(text.contains("webdis_hop_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("webdis_hop_latency_us_sum 5003\n"));
        assert!(text.contains("webdis_hop_latency_us_count 2\n"));
    }

    #[test]
    fn cumulative_buckets_never_decrease() {
        let r = Registry::new();
        for v in [0u64, 2, 17, 900, 70_000, 20_000_000] {
            r.observe("h", v);
        }
        let text = r.snapshot().render_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("webdis_h_bucket{le=") {
                let value: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(value >= last, "cumulative must be monotone: {text}");
                last = value;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, BUCKET_BOUNDS.len() + 1);
        assert_eq!(last, 6, "+Inf bucket equals the total count");
    }

    #[test]
    fn label_values_escape_the_exposition_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("+Inf"), "+Inf");
        assert_eq!(
            escape_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd",
            "quote, backslash, and newline must be escaped"
        );
    }

    #[test]
    fn golden_prometheus_rendering_is_pinned() {
        let r = Registry::new();
        r.count("server.arrivals", 7);
        r.gauge_max("log_len_high_water", 4);
        r.observe("hop_latency_us", 3);
        let expected = "\
# HELP webdis_server_arrivals WEBDIS registry metric server.arrivals.\n\
# TYPE webdis_server_arrivals counter\n\
webdis_server_arrivals 7\n\
# HELP webdis_log_len_high_water Peak log-table length observed at any site (high-water mark; reset via /reset_high_water).\n\
# TYPE webdis_log_len_high_water gauge\n\
webdis_log_len_high_water 4\n\
# HELP webdis_hop_latency_us Microseconds from a query clone's send to its receive, one hop.\n\
# TYPE webdis_hop_latency_us histogram\n\
webdis_hop_latency_us_bucket{le=\"1\"} 0\n\
webdis_hop_latency_us_bucket{le=\"4\"} 1\n\
webdis_hop_latency_us_bucket{le=\"16\"} 1\n\
webdis_hop_latency_us_bucket{le=\"64\"} 1\n\
webdis_hop_latency_us_bucket{le=\"256\"} 1\n\
webdis_hop_latency_us_bucket{le=\"1024\"} 1\n\
webdis_hop_latency_us_bucket{le=\"4096\"} 1\n\
webdis_hop_latency_us_bucket{le=\"65536\"} 1\n\
webdis_hop_latency_us_bucket{le=\"1048576\"} 1\n\
webdis_hop_latency_us_bucket{le=\"16777216\"} 1\n\
webdis_hop_latency_us_bucket{le=\"+Inf\"} 1\n\
webdis_hop_latency_us_sum 3\n\
webdis_hop_latency_us_count 1\n";
        assert_eq!(r.snapshot().render_prometheus(), expected);
    }

    #[test]
    fn every_series_has_help_and_type_lines() {
        let r = Registry::with_engine_metrics();
        r.count("query_sent", 1);
        r.gauge_max("queue_depth_high_water", 2);
        let text = r.snapshot().render_prometheus();
        let mut metrics = std::collections::BTreeSet::new();
        for line in text.lines() {
            if !line.starts_with('#') {
                let series = line.split(&['{', ' '][..]).next().unwrap();
                let base = series
                    .strip_suffix("_bucket")
                    .or_else(|| series.strip_suffix("_sum"))
                    .or_else(|| series.strip_suffix("_count"))
                    .unwrap_or(series);
                metrics.insert(base.to_string());
            }
        }
        // Histogram base names: _sum/_count stripping can over-strip a
        // metric whose own name ends in _count; none do today.
        for metric in &metrics {
            assert!(
                text.contains(&format!("# HELP {metric} ")),
                "missing HELP for {metric}:\n{text}"
            );
            assert!(
                text.contains(&format!("# TYPE {metric} ")),
                "missing TYPE for {metric}:\n{text}"
            );
        }
    }

    #[test]
    fn admin_routes_serve_status_and_reset_high_water() {
        let r = Arc::new(Registry::new());
        r.gauge_max("queue_depth_high_water", 9);
        let metrics_registry = Arc::clone(&r);
        let reset_registry = Arc::clone(&r);
        let mut exporter = MetricsExporter::spawn_routes(AdminRoutes {
            metrics: Arc::new(move || metrics_registry.snapshot().render_prometheus()),
            status: Some(Arc::new(|| String::from("{\"now_us\":0}"))),
            reset_high_water: Some(Arc::new(move || reset_registry.reset_high_water())),
        })
        .expect("exporter binds");

        let response = scrape(exporter.addr(), "/status");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("application/json"), "{response}");
        assert!(response.ends_with("{\"now_us\":0}"), "{response}");

        assert!(scrape(exporter.addr(), "/metrics").contains("webdis_queue_depth_high_water 9\n"));
        let response = scrape(exporter.addr(), "/reset_high_water");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(scrape(exporter.addr(), "/metrics").contains("webdis_queue_depth_high_water 0\n"));

        exporter.stop();
    }

    #[test]
    fn optional_routes_404_when_not_provided() {
        let mut exporter = MetricsExporter::spawn_routes(AdminRoutes {
            metrics: Arc::new(String::new),
            status: None,
            reset_high_water: None,
        })
        .expect("binds");
        assert!(scrape(exporter.addr(), "/status").starts_with("HTTP/1.0 404"));
        assert!(scrape(exporter.addr(), "/reset_high_water").starts_with("HTTP/1.0 404"));
        exporter.stop();
    }

    #[test]
    fn exporter_serves_metrics_over_a_real_socket() {
        let r = Arc::new(Registry::new());
        r.count("scrapes_seen", 1);
        let provider_registry = Arc::clone(&r);
        let mut exporter = MetricsExporter::spawn_routes(AdminRoutes {
            metrics: Arc::new(move || provider_registry.snapshot().render_prometheus()),
            status: None,
            reset_high_water: None,
        })
        .expect("exporter binds");

        let response = scrape(exporter.addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("webdis_scrapes_seen 1\n"));

        // A second scrape sees live state, not a cached body.
        r.count("scrapes_seen", 1);
        let response = scrape(exporter.addr(), "/metrics");
        assert!(response.contains("webdis_scrapes_seen 2\n"), "{response}");

        let response = scrape(exporter.addr(), "/other");
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");

        exporter.stop();
    }
}

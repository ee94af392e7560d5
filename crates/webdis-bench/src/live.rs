//! `webdis-doctor --live`: triage a *running* cluster instead of a
//! finished trace.
//!
//! Every TCP daemon serves `/metrics` (Prometheus text) and — when the
//! engine runs with a monitor — `/status` (the JSON in-flight snapshot)
//! on its admin socket. This module polls both over plain HTTP/1.0 and
//! renders the operator view: queries currently in flight with their
//! site/stage/age, the rules currently firing, and where the fleet's
//! processing time is going. `--live-smoke` drives the whole loop
//! against an in-process cluster, which is what CI runs.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use webdis_core::StatusSnapshot;
use webdis_net::tcp::MAX_FRAME;

/// One denominator of the stage-share table: a `stage_us.*` histogram's
/// exported `_sum` series.
const STAGE_SUM_PREFIX: &str = "webdis_stage_us_";

/// Fetches `path` from an admin socket with one blocking HTTP/1.0 GET.
/// Returns the response body; errors name the address and path. A
/// response longer than the transport's frame limit is refused, not
/// buffered.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("{addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").map_err(|e| format!("send {addr}{path}: {e}"))?;
    let cap = u64::from(MAX_FRAME);
    let mut response = String::new();
    stream
        .take(cap + 1)
        .read_to_string(&mut response)
        .map_err(|e| format!("read {addr}{path}: {e}"))?;
    if response.len() as u64 > cap {
        return Err(format!("{addr}{path}: response exceeds {cap} bytes"));
    }
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: malformed HTTP response"))?;
    let status_line = head.lines().next().unwrap_or_default();
    if !status_line.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status_line}"));
    }
    Ok(body.to_string())
}

/// The plain (un-suffixed) numeric series of a Prometheus text body:
/// counters, gauges, and histogram `_sum`/`_count` lines. Enough for
/// the live view; full histogram decoding stays with the offline tools.
pub fn parse_metrics(body: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.contains('{') {
            continue;
        }
        if let Some((name, value)) = line.split_once(' ') {
            if let Ok(v) = value.trim().parse::<u64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// One poll of a daemon: its live status (when the route exists) and
/// its flat metric series.
#[derive(Debug, Clone)]
pub struct LiveSample {
    /// The `/status` snapshot; `None` when the daemon runs unmonitored
    /// (the route 404s).
    pub status: Option<StatusSnapshot>,
    /// Flat series parsed from `/metrics`.
    pub metrics: BTreeMap<String, u64>,
}

/// Polls a cluster's admin socket once.
pub fn sample(addr: &str) -> Result<LiveSample, String> {
    let metrics = parse_metrics(&http_get(addr, "/metrics")?);
    let status = match http_get(addr, "/status") {
        Ok(body) => Some(StatusSnapshot::from_json(&body)?),
        Err(err) if err.contains("404") => None,
        Err(err) => return Err(err),
    };
    Ok(LiveSample { status, metrics })
}

/// Renders one poll as the operator view.
pub fn render(sample: &LiveSample) -> String {
    let mut out = String::new();
    match &sample.status {
        None => out.push_str("status: unavailable (daemon runs without a monitor)\n"),
        Some(s) => {
            out.push_str(&format!(
                "t={}us  windows closed: {}  admitted: {}  retired: {}  in flight: {}\n",
                s.now_us,
                s.windows_closed,
                s.admitted,
                s.retired,
                s.inflight.len()
            ));
            if s.active_alerts.is_empty() {
                out.push_str("alerts: none firing\n");
            } else {
                out.push_str(&format!("alerts FIRING: {}\n", s.active_alerts.join(", ")));
            }
            if !s.inflight.is_empty() {
                out.push_str("\n  query                     age_us      at site               stage hops clones fanout\n");
                for q in &s.inflight {
                    out.push_str(&format!(
                        "  {:<24} {:>9}  {:<20} {:>5} {:>4} {:>6} {:>6}\n",
                        format!("{}#{}", q.user, q.query_num),
                        q.age_us,
                        q.site,
                        q.stage,
                        q.hops,
                        q.clones_recv,
                        q.fanout
                    ));
                }
            }
        }
    }
    // Fleet stage shares from the exported stage_us sums.
    let stage_sums: Vec<(&str, u64)> = sample
        .metrics
        .iter()
        .filter_map(|(name, v)| {
            let rest = name.strip_prefix(STAGE_SUM_PREFIX)?;
            let stage = rest.strip_suffix("_sum")?;
            // Per-site variants append the sanitized host
            // (`stage_us.eval.a.test` → `webdis_stage_us_eval_a_test`),
            // which underscore-sanitizing makes indistinguishable from a
            // stage name by shape — so match the closed set of fleet-wide
            // stage histograms instead.
            let fleet_wide = webdis_trace::stage_histograms().any(|s| s == stage);
            fleet_wide.then_some((stage, *v))
        })
        .collect();
    let total: u64 = stage_sums.iter().map(|(_, v)| v).sum();
    if total > 0 {
        out.push_str("\nfleet stage shares:\n");
        for (stage, us) in &stage_sums {
            let pct = (100 * us).checked_div(total).unwrap_or(0);
            out.push_str(&format!("  {stage:<12} {us:>10}us ({pct:>3}%)\n"));
        }
    }
    for key in ["webdis_query_recv", "webdis_query_shed", "webdis_cache_hit"] {
        if let Some(v) = sample.metrics.get(key) {
            out.push_str(&format!("{key} {v}\n"));
        }
    }
    out
}

/// Polls `addr` `polls` times, `interval` apart, rendering each sample.
/// Returns the concatenated reports (the binary prints as it goes, so
/// it streams its own copies; this return value is for tests).
pub fn watch(
    addr: &str,
    polls: usize,
    interval: Duration,
    mut emit: impl FnMut(&str),
) -> Result<(), String> {
    for i in 0..polls {
        let s = sample(addr)?;
        let mut text = format!("-- poll {}/{} against {addr} --\n", i + 1, polls);
        text.push_str(&render(&s));
        emit(&text);
        if i + 1 < polls {
            std::thread::sleep(interval);
        }
    }
    Ok(())
}

/// The CI smoke: brings up a monitored loopback cluster, runs one real
/// query through it, polls the cluster's admin socket live, and
/// checks the poll saw the run. Returns the rendered polls.
pub fn live_smoke() -> Result<String, String> {
    use std::sync::Arc;

    let web = Arc::new(webdis_web::figures::campus());
    let (_collector, tracer) = webdis_trace::TraceHandle::collecting(65_536);
    let monitor = webdis_core::MonitorHandle::with_defaults(tracer.clone());
    let cfg = webdis_core::EngineConfig {
        tracer,
        monitor: Some(monitor),
        ..webdis_core::EngineConfig::default()
    };
    let cluster = webdis_core::TcpCluster::start(Arc::clone(&web), &cfg, Vec::new());
    let query = webdis_disql::parse_disql(webdis_web::figures::CAMPUS_QUERY)
        .map_err(|e| format!("smoke query: {e:?}"))?;
    let client = webdis_core::ClientProcess::new("smoke", cluster.user_site().clone(), cfg.clone());
    let at_once = webdis_core::PlannedQuery::at(0, query);
    let mut user = webdis_core::ScheduledClient::new(vec![client], vec![(0, at_once)]);
    cluster.drive(&mut cluster.user_net(), &mut user, Duration::from_secs(30));
    if !user.done() {
        return Err("smoke query did not complete within 30s".into());
    }

    let addr = cluster.admin_addr();
    let mut report = String::new();
    watch(&addr.to_string(), 2, Duration::from_millis(60), |text| {
        report.push_str(text)
    })?;
    cluster.shutdown();

    let last = sample_check(&report)?;
    Ok(format!("{report}\nlive smoke OK: {last}\n"))
}

/// The smoke's acceptance: the live view must have seen the admitted
/// query retire and the fleet's stage time.
fn sample_check(report: &str) -> Result<String, String> {
    if !report.contains("admitted: 1") || !report.contains("retired: 1") {
        return Err(format!(
            "live view never saw the query admitted and retired:\n{report}"
        ));
    }
    if !report.contains("fleet stage shares") {
        return Err(format!("live view carried no stage attribution:\n{report}"));
    }
    Ok("status reflected admit/retire and stage shares".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_get_refuses_a_response_past_the_frame_limit() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut request = [0u8; 64];
            let _ = conn.read(&mut request);
            let _ = conn.write_all(b"HTTP/1.0 200 OK\r\n\r\n");
            let chunk = vec![b'x'; 1 << 20];
            // Streams until the client, having read its fill, hangs up.
            while conn.write_all(&chunk).is_ok() {}
        });
        let err = http_get(&addr, "/status").unwrap_err();
        assert!(err.contains(&addr) && err.contains("exceeds"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn parse_metrics_keeps_plain_series_and_skips_labels() {
        let body = "# HELP webdis_query_recv x\n# TYPE webdis_query_recv counter\n\
                    webdis_query_recv 7\n\
                    webdis_hop_latency_us_bucket{le=\"1\"} 3\n\
                    webdis_hop_latency_us_sum 41\n\
                    webdis_up 1\n";
        let m = parse_metrics(body);
        assert_eq!(m.get("webdis_query_recv"), Some(&7));
        assert_eq!(m.get("webdis_hop_latency_us_sum"), Some(&41));
        assert_eq!(m.get("webdis_up"), Some(&1));
        assert!(!m.keys().any(|k| k.contains("bucket")));
    }

    #[test]
    fn render_names_firing_alerts_and_inflight_queries() {
        let mut metrics = BTreeMap::new();
        metrics.insert("webdis_stage_us_eval_sum".to_string(), 900u64);
        metrics.insert("webdis_stage_us_queue_wait_sum".to_string(), 100u64);
        metrics.insert("webdis_query_shed".to_string(), 4u64);
        let sample = LiveSample {
            status: Some(StatusSnapshot {
                now_us: 1_000_000,
                windows_closed: 10,
                admitted: 3,
                retired: 2,
                active_alerts: vec!["shed_rate_burn".into()],
                inflight: vec![webdis_core::InflightStatus {
                    user: "alice".into(),
                    host: "user.test".into(),
                    port: 9900,
                    query_num: 7,
                    submitted_us: 400_000,
                    age_us: 600_000,
                    site: "site2.test".into(),
                    stage: 3,
                    hops: 2,
                    clones_recv: 5,
                    fanout: 4,
                }],
            }),
            metrics,
        };
        let text = render(&sample);
        assert!(text.contains("alerts FIRING: shed_rate_burn"), "{text}");
        assert!(text.contains("alice#7"), "{text}");
        assert!(text.contains("site2.test"), "{text}");
        assert!(text.contains("eval"), "{text}");
        assert!(text.contains("90%"), "{text}");
        assert!(text.contains("webdis_query_shed 4"), "{text}");
    }

    #[test]
    fn live_smoke_drives_a_monitored_cluster_end_to_end() {
        let report = live_smoke().expect("live smoke");
        assert!(report.contains("live smoke OK"), "{report}");
        assert!(report.contains("poll 2/2"), "{report}");
    }
}

//! `webdis-doctor` — diagnose a JSONL query-trajectory trace, or poll a
//! live cluster.
//!
//! ```text
//! webdis-doctor <trace.jsonl> [--top <k>] [--fail-on-anomaly]
//! webdis-doctor --live <host:port> [--polls <n>] [--interval-ms <ms>]
//! webdis-doctor --live-smoke
//! ```
//!
//! Offline mode ingests a trace written by any `--trace`-capable harness
//! (or by `CollectingTracer::export_jsonl`) — streamed line-at-a-time,
//! so multi-gigabyte traces never load whole — and prints: per-query
//! critical-path hop/stage breakdowns, the top-k slowest queries with
//! their dominant stage, one line per site (queue wait vs service time,
//! utilization, a busy timeline bar, the dominant stage; saturated site
//! named), answer-cache and living-web activity, wire-byte accounting
//! per message type, the alert timeline (every `alert_fired` /
//! `alert_resolved` transition, plus rules still open at end of trace)
//! and hang/orphan detection. With `--fail-on-anomaly` the process exits
//! non-zero when any orphaned or hung trajectory is found, naming the
//! queries the anomalies are about — the CI gate over the t13 smoke
//! trace.
//!
//! `--live` polls a running cluster's admin socket (`/status` +
//! `/metrics`) and renders the in-flight query table, firing alerts,
//! and fleet stage shares. `--live-smoke` runs that loop against an
//! in-process monitored cluster — the CI smoke for the live path.

use webdis_bench::live;
use webdis_trace::doctor;

fn usage() -> ! {
    eprintln!(
        "usage: webdis-doctor <trace.jsonl> [--top <k>] [--fail-on-anomaly]\n\
         \x20      webdis-doctor --live <host:port> [--polls <n>] [--interval-ms <ms>]\n\
         \x20      webdis-doctor --live-smoke"
    );
    std::process::exit(2);
}

fn main() {
    let mut path: Option<String> = None;
    let mut top = 5usize;
    let mut fail_on_anomaly = false;
    let mut live_addr: Option<String> = None;
    let mut live_smoke = false;
    let mut polls = 3usize;
    let mut interval_ms = 500u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--top" => top = value().parse().unwrap_or_else(|_| usage()),
            "--fail-on-anomaly" => fail_on_anomaly = true,
            "--live" => live_addr = Some(value()),
            "--live-smoke" => live_smoke = true,
            "--polls" => polls = value().parse().unwrap_or_else(|_| usage()),
            "--interval-ms" => interval_ms = value().parse().unwrap_or_else(|_| usage()),
            flag if flag.starts_with("--") => usage(),
            _ => {
                if path.replace(arg).is_some() {
                    usage();
                }
            }
        }
    }

    if live_smoke {
        match live::live_smoke() {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(err) => {
                eprintln!("webdis-doctor: live smoke failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if let Some(addr) = live_addr {
        let interval = std::time::Duration::from_millis(interval_ms);
        if let Err(err) = live::watch(&addr, polls.max(1), interval, |text| print!("{text}")) {
            eprintln!("webdis-doctor: live poll failed: {err}");
            std::process::exit(1);
        }
        return;
    }

    let Some(path) = path else { usage() };
    let records = match doctor::load_trace(std::path::Path::new(&path)) {
        Ok(records) => records,
        Err(err) => {
            eprintln!("webdis-doctor: {err}");
            std::process::exit(2);
        }
    };

    let diagnosis = doctor::diagnose(&records);
    print!("{}", diagnosis.render_text(top));

    if fail_on_anomaly && !diagnosis.anomalies.is_empty() {
        // Name the offending queries so the CI log alone pins the
        // failure without re-running the doctor locally.
        let mut offenders: Vec<String> = Vec::new();
        for id in diagnosis.anomalies.iter().filter_map(|a| a.query.as_ref()) {
            let name = format!("{}#{}@{}:{}", id.user, id.query_num, id.host, id.port);
            if !offenders.contains(&name) {
                offenders.push(name);
            }
        }
        let n = diagnosis.anomalies.len();
        eprintln!(
            "webdis-doctor: {n} anomal{} found in quer{}: {}",
            if n == 1 { "y" } else { "ies" },
            if offenders.len() == 1 { "y" } else { "ies" },
            offenders.join(", ")
        );
        std::process::exit(1);
    }
}

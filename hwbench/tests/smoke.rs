//! Drives the built binary the way the benchmark driver does, with
//! `--quick` (two short rounds) so the whole file runs in seconds.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hwbench(args: &[&str], out: &str) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    Command::new(env!("CARGO_BIN_EXE_hwbench"))
        .args(args)
        .args(["--out", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("binary runs")
}

/// The last stdout line, split into `(correct, attempted, failed, metrics)`
/// where metrics is `name → (value, unit)` in printed order.
fn result(out: &Output) -> (bool, u64, u64, Vec<(String, f64, String)>) {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    let line = stdout.lines().last().expect("a result line");
    // The line is flat enough to pick apart without a JSON parser here:
    // `"name": {"value": v, "unit": "u"}` per metric.
    let correct = line.contains("\"correct\": true");
    let num = |key: &str| -> u64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[at..]
            .trim_start_matches([':', ' '])
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse().ok())
            .unwrap_or_else(|| panic!("number after {key}"))
    };
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let metrics = body
        .split("}, ")
        .filter_map(|m| {
            let (name, rest) = m.split_once("\": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": \"")?;
            Some((
                name.trim_start_matches('"').to_owned(),
                value.parse().ok()?,
                unit.trim_end_matches(['"', '}']).to_owned(),
            ))
        })
        .collect();
    (correct, num("\"attempted\""), num("\"failed\""), metrics)
}

fn quick_seeded(workload: &str, seed: &str, out: &str) -> Vec<(String, f64, String)> {
    let args = [
        "--workload",
        workload,
        "--quick",
        "--seed",
        seed,
        "--seconds",
        "20",
        "--trace",
        "0",
    ];
    let (correct, attempted, failed, metrics) = result(&hwbench(&args, out));
    assert!(
        correct && failed == 0,
        "{workload}: {failed} of {attempted} failed"
    );
    assert_eq!(attempted, 40, "{workload}: two rounds of twenty");
    metrics
}

fn quick(workload: &str, out: &str) -> Vec<(String, f64, String)> {
    quick_seeded(workload, "11", out)
}

fn value(metrics: &[(String, f64, String)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .1
}

#[test]
fn every_workload_prints_the_eight_end_to_end_metrics() {
    let declared = [
        ("setup_s", "s"),
        ("query_latency_p50_ms", "ms"),
        ("query_latency_p90_ms", "ms"),
        ("queries_per_s", "1/s"),
        ("cpu_ms_per_query", "ms"),
        ("wire_bytes_per_query", "bytes"),
        ("messages_per_query", "count"),
        ("peak_rss_mb", "MB"),
    ];
    for w in ["campus_tcp", "crawl16_sim", "crawl16_tcp", "zipf_live_tcp"] {
        let metrics = quick(w, "e2e");
        let got: Vec<(&str, &str)> = metrics
            .iter()
            .map(|m| (m.0.as_str(), m.2.as_str()))
            .collect();
        assert_eq!(got, declared, "{w}");
        for (name, v, _) in &metrics {
            // CPU is accounted in 10 ms ticks; a quick block can round to 0.
            assert!(*v > 0.0 || name == "cpu_ms_per_query", "{w}/{name} = {v}");
        }
    }
}

#[test]
fn traffic_counts_repeat_exactly_on_the_closed_loop_workloads() {
    // The web is fixed, so the counts are the same for the same seed and
    // for another one.
    for w in ["campus_tcp", "crawl16_sim", "crawl16_tcp"] {
        let (a, b, c) = (
            quick(w, "counts"),
            quick(w, "counts"),
            quick_seeded(w, "12", "counts"),
        );
        for name in ["wire_bytes_per_query", "messages_per_query"] {
            assert_eq!(value(&a, name), value(&b, name), "{w}/{name}");
            assert_eq!(value(&a, name), value(&c, name), "{w}/{name}, other seed");
        }
    }
    assert_eq!(
        value(&quick("campus_tcp", "counts"), "messages_per_query"),
        8.0
    );
}

#[test]
fn traced_run_prints_every_declared_per_layer_metric_and_writes_spans() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let per_layer = &bench[bench.find("\"per_layer\"").expect("per_layer list")..];
    let declared: Vec<&str> = per_layer
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(declared.len() > 40);
    let traced = |workload: &str| {
        let args = [
            "--workload",
            workload,
            "--quick",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ];
        let (correct, _, failed, metrics) = result(&hwbench(&args, "traced"));
        assert!(correct && failed == 0, "{workload}");
        let printed: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(printed, declared, "{workload}");
        metrics
    };
    let metrics = traced("zipf_live_tcp");
    assert!(value(&metrics, "web.live.mutations_applied") > 0.0);
    assert!(value(&metrics, "bench.host_slowdown") > 0.2);
    // A layer a workload does not run reads 0 there.
    let sim = traced("crawl16_sim");
    for (name, v, _) in &sim {
        if name.starts_with("net.tcp.")
            || name.starts_with("cache.")
            || name.starts_with("web.live.")
        {
            assert_eq!(*v, 0.0, "crawl16_sim/{name}");
        }
    }
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traced/trace_zipf_live_tcp.json");
    let text = std::fs::read_to_string(spans).expect("span file written");
    assert!(text.contains("\"name\": \"server.on_message\"") && text.contains("\"parent\": "));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "campus_tcp",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &["--workload", "campus_tcp"][..],
    ] {
        let out = hwbench(args, "bad");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}

//! From rounds to reported numbers: every timing is computed per round,
//! from samples already corrected for the host's speed, and the
//! invocation reports the median of the rounds; counts are totals over
//! all timed blocks.

use crate::drive::Round;
use crate::json::Json;
use crate::stats::{median, percentile_sorted, range_pct, sort};
use crate::sysinfo::{peak_rss_mb, Fingerprint};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared there.
    pub unit: &'static str,
    /// The measured value, all digits.
    pub value: f64,
}

impl Metric {
    /// A metric value.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// The per-round value of every timing metric, for the result file.
#[derive(Debug, Clone, Default)]
pub struct PerRound {
    /// Set-up time of each round, s.
    pub setup_s: Vec<f64>,
    /// Block p50 of each round, ms.
    pub p50_ms: Vec<f64>,
    /// Block p90 of each round, ms.
    pub p90_ms: Vec<f64>,
    /// Good queries per second of each round.
    pub qps: Vec<f64>,
    /// CPU per query of each round, ms.
    pub cpu_ms: Vec<f64>,
    /// Block p50 of each round as the clock read it, ms.
    pub raw_p50_ms: Vec<f64>,
    /// Median reading of the host's slowdown in each round.
    pub slowdown: Vec<f64>,
}

/// Per-round values of the timing metrics.
pub fn per_round(rounds: &[Round]) -> PerRound {
    let mut out = PerRound::default();
    for r in rounds {
        let mut l = r.latencies_ms.clone();
        sort(&mut l);
        out.setup_s.push(r.setup_s);
        out.p50_ms.push(percentile_sorted(&l, 0.50));
        out.p90_ms.push(percentile_sorted(&l, 0.90));
        out.qps.push(r.good as f64 / r.block_wall_s);
        out.cpu_ms.push(r.block_cpu_ms / r.attempted as f64);
        let mut raw = r.raw_latencies_ms.clone();
        sort(&mut raw);
        out.raw_p50_ms.push(percentile_sorted(&raw, 0.50));
        out.slowdown.push(median(&r.slowdowns));
    }
    out
}

/// The eight end-to-end metrics of an invocation.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let pr = per_round(rounds);
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let total = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    vec![
        Metric::new("setup_s", "s", median(&pr.setup_s)),
        Metric::new("query_latency_p50_ms", "ms", median(&pr.p50_ms)),
        Metric::new("query_latency_p90_ms", "ms", median(&pr.p90_ms)),
        Metric::new("queries_per_s", "1/s", median(&pr.qps)),
        Metric::new("cpu_ms_per_query", "ms", median(&pr.cpu_ms)),
        Metric::new(
            "wire_bytes_per_query",
            "bytes",
            total(|r| r.wire_bytes) / attempted as f64,
        ),
        Metric::new(
            "messages_per_query",
            "count",
            total(|r| r.messages) / attempted as f64,
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// `(attempted, failed)` over all timed blocks.
pub fn totals(rounds: &[Round]) -> (u64, u64) {
    (
        rounds.iter().map(|r| r.attempted).sum(),
        rounds.iter().map(|r| r.failed).sum(),
    )
}

/// Round-to-round spread of the block p50, percent of the median: above
/// 25 the invocation is flagged as disturbed.
pub fn round_spread_pct(rounds: &[Round]) -> f64 {
    range_pct(&per_round(rounds).p50_ms)
}

/// The contract's result object, printed as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// What identifies an invocation in its result file.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// Rounds run.
    pub rounds: usize,
    /// `(warm-up, timed)` queries per round.
    pub counts: (usize, usize),
    /// The CPU the run was pinned to, if it could be.
    pub cpu: Option<u32>,
    /// `/proc/stat` steal over the invocation, ms.
    pub steal_ms: f64,
    /// TIME_WAIT sockets before and after.
    pub time_wait: (u64, u64),
}

/// The result file: the contract's result plus everything needed to
/// judge afterwards whether the run was disturbed.
pub fn result_file(
    info: &RunInfo,
    fp: &Fingerprint,
    result: &Json,
    rounds: &[Round],
    extra: Vec<(String, Json)>,
) -> Json {
    let pr = per_round(rounds);
    let failures: Vec<Json> = rounds
        .iter()
        .flat_map(|r| r.failures.iter().map(Json::str))
        .collect();
    let spread = round_spread_pct(rounds);
    let mut pairs = vec![
        ("workload".to_owned(), Json::str(&info.workload)),
        ("seed".to_owned(), Json::Num(info.seed as f64)),
        ("seconds".to_owned(), Json::Num(info.seconds as f64)),
        ("trace".to_owned(), Json::Bool(info.trace)),
        ("rounds".to_owned(), Json::Num(info.rounds as f64)),
        (
            "warmup_per_round".to_owned(),
            Json::Num(info.counts.0 as f64),
        ),
        (
            "timed_per_round".to_owned(),
            Json::Num(info.counts.1 as f64),
        ),
        (
            "fingerprint".to_owned(),
            Json::obj([
                ("cpu_model", Json::str(&fp.cpu_model)),
                ("nproc", Json::Num(fp.nproc as f64)),
                ("kernel", Json::str(&fp.kernel)),
                ("rustc", Json::str(&fp.rustc)),
                ("git_commit", Json::str(&fp.git_commit)),
            ]),
        ),
        (
            "pinned_cpu".to_owned(),
            info.cpu.map_or(Json::Null, |c| Json::Num(f64::from(c))),
        ),
        (
            "undisturbed_probe_us".to_owned(),
            Json::Num(crate::host::UNDISTURBED_PROBE_US),
        ),
        ("steal_ms".to_owned(), Json::Num(info.steal_ms)),
        (
            "time_wait_sockets".to_owned(),
            Json::obj([
                ("before", Json::Num(info.time_wait.0 as f64)),
                ("after", Json::Num(info.time_wait.1 as f64)),
            ]),
        ),
        ("round_spread_pct".to_owned(), Json::Num(spread)),
        ("disturbed".to_owned(), Json::Bool(spread > 25.0)),
        (
            "per_round".to_owned(),
            Json::obj([
                ("setup_s", Json::nums(&pr.setup_s)),
                ("query_latency_p50_ms", Json::nums(&pr.p50_ms)),
                ("query_latency_p90_ms", Json::nums(&pr.p90_ms)),
                ("queries_per_s", Json::nums(&pr.qps)),
                ("cpu_ms_per_query", Json::nums(&pr.cpu_ms)),
                (
                    "uncorrected_query_latency_p50_ms",
                    Json::nums(&pr.raw_p50_ms),
                ),
                ("host_slowdown", Json::nums(&pr.slowdown)),
            ]),
        ),
        ("failures".to_owned(), Json::Arr(failures)),
        ("result".to_owned(), result.clone()),
    ];
    pairs.extend(extra);
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(lat: &[f64], wall: f64, cpu: f64, bytes: u64, msgs: u64) -> Round {
        Round {
            setup_s: wall / 100.0,
            latencies_ms: lat.to_vec(),
            raw_latencies_ms: lat.iter().map(|x| x * 1.5).collect(),
            slowdowns: vec![1.4, 1.5, 1.6],
            block_wall_s: wall,
            block_cpu_ms: cpu,
            wire_bytes: bytes,
            messages: msgs,
            attempted: lat.len() as u64,
            good: lat.len() as u64,
            ..Round::default()
        }
    }

    #[test]
    fn timings_are_round_medians_and_counts_are_totals() {
        let quiet: Vec<f64> = (1..=10).map(f64::from).collect();
        let heavy: Vec<f64> = quiet.iter().map(|x| x * 3.0).collect();
        // One of three rounds is disturbed: the median round is a quiet one.
        let rounds = [
            round(&quiet, 1.0, 50.0, 1000, 80),
            round(&heavy, 3.0, 150.0, 1000, 80),
            round(&quiet, 1.0, 50.0, 1030, 82),
        ];
        let m = end_to_end(&rounds);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("query_latency_p50_ms"), 5.0);
        assert_eq!(get("query_latency_p90_ms"), 9.0);
        assert_eq!(get("queries_per_s"), 10.0);
        assert_eq!(get("cpu_ms_per_query"), 5.0);
        assert_eq!(get("setup_s"), 0.01);
        assert_eq!(get("wire_bytes_per_query"), 3030.0 / 30.0);
        assert_eq!(get("messages_per_query"), 242.0 / 30.0);
        assert!(get("peak_rss_mb") > 0.0);
        assert_eq!(totals(&rounds), (30, 0));
        assert_eq!(round_spread_pct(&rounds), 200.0);
        let pr = per_round(&rounds);
        assert_eq!(pr.raw_p50_ms, [7.5, 22.5, 7.5]);
        assert_eq!(pr.slowdown, [1.5; 3]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", "s", 0.8127)]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }
}

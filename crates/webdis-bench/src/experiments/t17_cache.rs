use std::collections::BTreeMap;
use std::sync::Arc;

use webdis_core::{ArrivalProcess, CachePolicy, Deployment, EngineConfig, QueryMix, WorkloadSpec};
use webdis_trace::{RegistrySnapshot, TraceHandle};

use super::{
    freeze_histograms, milli, workload_web, workstation_sim, Ctx, Outcome, GLOBAL_QUERY,
    LOCAL_QUERY,
};
use crate::report::{ScenarioReport, Worse};

/// The tail template of the t17 Zipf mix: the t13 local query narrowed
/// by one extra conjunct. Its answer is derivable from the head
/// template's cached answer, so it exercises the cache's subsumption
/// path (residual-filter replay), not just exact-fingerprint hits.
const REFINED_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle" and d.url contains "doc"
"#;

/// One query's answers, `(stage, node) -> rows in report order`. Keying
/// by (stage, node) ignores the cross-site arrival interleave (which is
/// pure timing) while still pinning every row and the order within each
/// node's report (which is what the cache must preserve).
type Answers = BTreeMap<(u32, String), Vec<Vec<String>>>;

struct T17Point {
    clean: usize,
    hung: usize,
    throughput_qps: f64,
    p50_us: u64,
    p95_us: u64,
    /// `(user, query_num)` with that query's [`Answers`] — compared
    /// between the twins to prove the cache changes *when* answers
    /// arrive, never *what* they are.
    rows: Vec<(usize, u64, Answers)>,
    snapshot: RegistrySnapshot,
}

fn t17_point(cache: Option<CachePolicy>, smoke: bool) -> T17Point {
    // Document-rich sites: each site visit evaluates every reachable
    // node, so evaluation — the work the cache elides — carries the
    // site's service time, exactly the regime where a shared answer
    // cache pays (t16 shows eval cost growing with corpus size).
    let web = Arc::new(workload_web(
        if smoke { 4 } else { 8 },
        if smoke { 16 } else { 32 },
        13,
    ));
    // The t13 knee load (ia=5000µs), but as a Zipf(1.0) template mix —
    // the head-heavy popularity curve that makes cross-query answer
    // caching pay. No admission cap: every query runs to completion, so
    // the twins must produce bit-identical answer rows.
    let spec = WorkloadSpec {
        users: 4,
        queries_per_user: if smoke { 8 } else { 24 },
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: 5_000,
        },
        mix: QueryMix::zipf(1_000, &[LOCAL_QUERY, GLOBAL_QUERY, REFINED_QUERY]),
        seed: 13,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = TraceHandle::collecting(65_536);
    // No periodic log purge: forgetting a query between two of its
    // clones re-admits the later one, which re-reports rows on a schedule
    // that depends on timing — and the twins deliberately differ in timing.
    // With the log intact, every node-query reports exactly once in
    // both runs, so ordered row-for-row comparison is meaningful.
    //
    // The footnote-3 document cache is on for BOTH twins: with it off,
    // every visit re-parses its document (~1 ms/KiB) and parse — which
    // the answer cache cannot elide, because forwarding needs the
    // node's links — drowns the evaluation cost under measurement.
    let cfg = EngineConfig {
        doc_cache_size: 256,
        cache,
        tracer,
        ..EngineConfig::default()
    };
    let outcome = Deployment::new(web, cfg).workload_sim(
        workstation_sim(),
        spec.plan().expect("t17 point"),
        spec.horizon_us,
    );
    let snapshot = collector.registry().snapshot();
    let latency = snapshot
        .histogram("query_latency_us")
        .cloned()
        .unwrap_or_default();
    let rows = outcome
        .records
        .iter()
        .map(|r| {
            let mut stages = Answers::new();
            for (stage, rows) in &r.results {
                for (node, row) in rows {
                    stages
                        .entry((*stage, node.to_string()))
                        .or_default()
                        .push(row.values.iter().map(|v| v.render()).collect());
                }
            }
            (r.user, r.query_num, stages)
        })
        .collect();
    T17Point {
        clean: outcome.completed_clean(),
        hung: outcome.hung(),
        throughput_qps: outcome.completed_clean() as f64 * 1_000_000.0
            / outcome.duration_us.max(1) as f64,
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        rows,
        snapshot,
    }
}

/// t17_cache — the answer cache against its cache-off twin: the same
/// seeded Zipf(1.0) workload at the t13 knee load, run once with
/// `EngineConfig::cache = None` and once with the default
/// [`CachePolicy`]. Every metric is sim-exact. `rows_identical` pins
/// the correctness claim (identical per-query answer rows, order
/// included); the goodput/latency pairs pin the performance claim.
pub fn run(ctx: &Ctx) -> Outcome {
    let off = t17_point(None, ctx.smoke);
    let on = t17_point(Some(CachePolicy::default()), ctx.smoke);

    let mut report = ScenarioReport::default();
    report.exact(
        "rows_identical",
        u64::from(off.rows == on.rows),
        Worse::Lower,
    );
    report.exact("clean.off", off.clean as u64, Worse::Lower);
    report.exact("clean.on", on.clean as u64, Worse::Lower);
    report.exact("hung.off", off.hung as u64, Worse::Higher);
    report.exact("hung.on", on.hung as u64, Worse::Higher);
    report.exact("goodput_mqps.off", milli(off.throughput_qps), Worse::Lower);
    report.exact("goodput_mqps.on", milli(on.throughput_qps), Worse::Lower);
    report.exact(
        "speedup_milli",
        milli(on.throughput_qps / off.throughput_qps.max(f64::MIN_POSITIVE)),
        Worse::Lower,
    );
    report.exact("p50_us.off", off.p50_us, Worse::Higher);
    report.exact("p50_us.on", on.p50_us, Worse::Higher);
    report.exact("p95_us.off", off.p95_us, Worse::Higher);
    report.exact("p95_us.on", on.p95_us, Worse::Higher);
    report.exact(
        "p95_ratio_milli",
        milli(off.p95_us as f64 / on.p95_us.max(1) as f64),
        Worse::Lower,
    );
    let hits = on.snapshot.counter("cache.hit");
    let misses = on.snapshot.counter("cache.miss");
    report.exact("cache.hit", hits, Worse::Lower);
    report.exact(
        "cache.hit.subsumed",
        on.snapshot.counter("cache.hit.subsumed"),
        Worse::Lower,
    );
    report.exact("cache.miss", misses, Worse::Higher);
    report.exact(
        "cache.evict",
        on.snapshot.counter("cache.evict"),
        Worse::Higher,
    );
    report.exact(
        "hit_rate_milli",
        milli(hits as f64 / (hits + misses).max(1) as f64),
        Worse::Lower,
    );
    report.exact(
        "cache_bytes_high_water",
        on.snapshot.gauge("cache.bytes"),
        Worse::Higher,
    );
    freeze_histograms(&mut report, &on.snapshot);
    Outcome {
        report,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t17_smoke_is_bit_deterministic_and_the_cache_pays() {
        let a = run(&Ctx::new(true)).report;
        let b = run(&Ctx::new(true)).report;
        assert_eq!(a, b, "same seed must reproduce the full t17 report");
        assert_eq!(
            a.metrics["rows_identical"].value, 1,
            "cached and uncached twins must return identical rows"
        );
        assert_eq!(a.metrics["hung.off"].value, 0);
        assert_eq!(a.metrics["hung.on"].value, 0);
        assert!(
            a.metrics["cache.hit"].value > 0,
            "the Zipf head must produce repeat hits"
        );
        assert!(
            a.metrics["cache.hit.subsumed"].value > 0,
            "the refined tail template must be served by subsumption"
        );
        // The acceptance bar: >=2x goodput or >=50% p95 reduction vs the
        // cache-off twin at the knee load.
        assert!(
            a.metrics["speedup_milli"].value >= 2_000
                || a.metrics["p95_ratio_milli"].value >= 2_000,
            "cache must win decisively: speedup {} p95_ratio {}",
            a.metrics["speedup_milli"].value,
            a.metrics["p95_ratio_milli"].value
        );
        let lookup = &a.histograms["stage_us.cache_lookup"];
        assert!(lookup.count > 0, "cache_lookup stage must be populated");
    }
}

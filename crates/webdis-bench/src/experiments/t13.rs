use std::sync::Arc;

use webdis_core::{ArrivalProcess, Deployment, EngineConfig, QueryMix, WorkloadSpec};
use webdis_trace::{Histogram, RegistrySnapshot};

use super::{
    freeze_histograms, milli, workload_web, workstation_sim, Ctx, Outcome, GLOBAL_QUERY,
    LOCAL_QUERY,
};
use crate::report::{ScenarioReport, Worse};
use crate::{fmt_ms, Table};

/// The mid-sweep load the determinism gate runs twice; its run is the
/// one `--trace` shows and the report's histograms freeze.
const PROBE_US: u64 = 50_000;

/// Everything one load point observes.
struct LoadPoint {
    offered_qps: f64,
    clean: usize,
    shed: usize,
    hung: usize,
    throughput_qps: f64,
    latency: Histogram,
    snapshot: RegistrySnapshot,
}

/// One load point. The `showcase` run records into the runner's
/// collector (`--trace`).
fn t13_point(mean_interarrival_us: u64, ctx: &Ctx, showcase: bool) -> LoadPoint {
    let smoke = ctx.smoke;
    let web = Arc::new(workload_web(
        if smoke { 4 } else { 8 },
        if smoke { 2 } else { 4 },
        13,
    ));
    let spec = WorkloadSpec {
        users: if smoke { 2 } else { 4 },
        queries_per_user: if smoke { 3 } else { 12 },
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us,
        },
        mix: QueryMix::single(GLOBAL_QUERY).with(LOCAL_QUERY, 2),
        seed: 13,
        ..WorkloadSpec::default()
    };
    let (collector, tracer) = if showcase {
        ctx.tracer.collecting(65_536)
    } else {
        webdis_trace::TraceHandle::collecting(65_536)
    };
    let cfg = EngineConfig {
        admission: Some(2),
        // A server's purge, run at each arrival, retires the admission
        // slot of a query idle a whole period; the period must therefore
        // sit at the query-duration scale (~15 ms here) or slots outlive
        // their queries and the controller sheds even an idle system.
        log_purge_us: Some(50_000),
        tracer,
        ..EngineConfig::default()
    };
    let plans = spec.plan().expect("t13 workload plans");
    let deployment = Deployment::new(web, cfg);
    // The paper's workstation costs make evaluation the bottleneck —
    // that is what produces a knee at a realistic offered load.
    let outcome = deployment.workload_sim(workstation_sim(), plans, spec.horizon_us);
    let snapshot = collector.registry().snapshot();
    LoadPoint {
        offered_qps: spec.offered_qps(),
        clean: outcome.completed_clean(),
        shed: outcome.completed_shed(),
        hung: outcome.hung(),
        throughput_qps: outcome.completed_clean() as f64 * 1_000_000.0
            / outcome.duration_us.max(1) as f64,
        latency: snapshot
            .histogram("query_latency_us")
            .cloned()
            .unwrap_or_default(),
        snapshot,
    }
}

/// T13 — throughput and latency vs offered load (the
/// `webdis_core::workload` planner).
///
/// The paper's experiments ship one query at a time; its prototype is a
/// *service*. This harness offers an open-loop Poisson workload from M
/// concurrent user sites against the simulated cluster — processor costs
/// set to the paper's 1999-workstation model so evaluation capacity, not
/// the network, is the bottleneck — and sweeps the offered load upward
/// until the saturation knee appears: completed-query throughput stops
/// tracking the offered rate, per-query latency climbs, and the
/// server-side admission controller starts shedding the excess instead
/// of letting queues (and the log tables) grow without bound.
///
/// Every load point reports completions, sheds, throughput, and the
/// p50/p95/p99 of the `query_latency_us` registry histogram, plus the
/// `log_len_high_water` gauge. Two invariants are asserted: the run is
/// seed-deterministic (the mid-sweep probe point is run twice: same
/// seed, same histogram), and at *every* point **no query ever hangs**
/// — shed queries terminate with an explicit `TermReason::Shed`, never
/// silence.
///
/// `--smoke` shrinks the sweep for CI; `--trace` captures the probe
/// point's trajectory for `webdis-doctor`. The report freezes every
/// point's goodput and latency quantiles, the knee position, and the
/// probe point's stage histograms (queue wait included) plus the
/// backpressure high-water gauges.
pub fn run(ctx: &Ctx) -> Outcome {
    let smoke = ctx.smoke;
    // Offered-load sweep: per-user mean interarrival, high (idle) to low
    // (far past saturation).
    let sweep_us: &[u64] = if smoke {
        &[400_000, PROBE_US, 5_000]
    } else {
        &[
            800_000, 400_000, 200_000, 100_000, PROBE_US, 20_000, 10_000, 5_000, 2_000,
        ]
    };

    let mut table = Table::new(
        if smoke {
            "T13 (smoke): throughput vs offered load"
        } else {
            "T13: throughput and latency vs offered load (4 users, Poisson arrivals, \
             1999-workstation costs, admission limit 2/site)"
        },
        &[
            "offered q/s",
            "clean",
            "shed",
            "hung",
            "goodput q/s",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "log high-water",
        ],
    );
    let mut report = ScenarioReport::default();
    let mut points = Vec::new();
    for &mean_us in sweep_us {
        let probe = mean_us == PROBE_US;
        let p = t13_point(mean_us, ctx, probe);
        if probe {
            // Seed-determinism gate: the same point twice must agree
            // down to the latency histogram.
            let again = t13_point(mean_us, ctx, false);
            assert_eq!(
                (p.clean, p.shed, p.hung),
                (again.clean, again.shed, again.hung),
                "same seed must reproduce completion counts"
            );
            assert_eq!(
                p.latency, again.latency,
                "same seed must reproduce the latency histogram exactly"
            );
            freeze_histograms(&mut report, &p.snapshot);
            for gauge in ["queue_depth_high_water", "admission_occupancy_high_water"] {
                report.exact(gauge, p.snapshot.gauge(gauge), Worse::Higher);
            }
        }
        assert_eq!(
            p.hung, 0,
            "no query may hang at any offered load (mean interarrival {mean_us}us)"
        );
        let log_high_water = p.snapshot.gauge("log_len_high_water");
        let quantiles = [0.50, 0.95, 0.99].map(|q| p.latency.quantile(q));
        table.row(&[
            format!("{:.1}", p.offered_qps),
            p.clean.to_string(),
            p.shed.to_string(),
            p.hung.to_string(),
            format!("{:.1}", p.throughput_qps),
            fmt_ms(quantiles[0]),
            fmt_ms(quantiles[1]),
            fmt_ms(quantiles[2]),
            log_high_water.to_string(),
        ]);
        let tag = format!("ia{mean_us}");
        report.exact(&format!("clean.{tag}"), p.clean as u64, Worse::Lower);
        report.exact(&format!("shed.{tag}"), p.shed as u64, Worse::Higher);
        report.exact(&format!("hung.{tag}"), p.hung as u64, Worse::Higher);
        report.exact(
            &format!("goodput_mqps.{tag}"),
            milli(p.throughput_qps),
            Worse::Lower,
        );
        for (name, value) in ["p50_us", "p95_us", "p99_us"].iter().zip(quantiles) {
            report.exact(&format!("{name}.{tag}"), value, Worse::Higher);
        }
        report.exact(
            &format!("log_high_water.{tag}"),
            log_high_water,
            Worse::Higher,
        );
        points.push(p);
    }

    // Locate and report the saturation knee: the last point whose clean
    // throughput still tracks ≥half the offered rate. (Past the knee the
    // per-point goodput is measured over an ever-shorter burst window, so
    // the completion counts — clean collapsing, shed climbing — are the
    // honest signal there.)
    let knee = points
        .iter()
        .rev()
        .find(|p| p.throughput_qps >= p.offered_qps * 0.5);
    report.exact(
        "knee_offered_mqps",
        milli(knee.map_or(0.0, |k| k.offered_qps)),
        Worse::Lower,
    );
    let mut verdict = knee.map_or(String::new(), |k| {
        format!(
            "saturation knee near {:.1} offered q/s (goodput {:.1} q/s there); \
             beyond it the excess is shed\n",
            k.offered_qps, k.throughput_qps
        )
    });

    if !smoke {
        let knee = knee.expect("the idle end of the sweep must keep up with offered load");
        // Throughput must rise from the idle end up to the knee…
        assert!(
            knee.offered_qps > points[0].offered_qps,
            "the knee must sit beyond the idle end of the sweep"
        );
        assert!(
            knee.throughput_qps > points[0].throughput_qps * 1.5,
            "throughput must rise with offered load before the knee \
             (idle {:.2} q/s, knee {:.2} q/s)",
            points[0].throughput_qps,
            knee.throughput_qps
        );
        // …and the overloaded end must visibly shed rather than keep up.
        let last = points.last().unwrap();
        assert!(
            last.shed > 0,
            "the overloaded end must trip admission control"
        );
        assert!(
            (last.clean as f64) < 0.25 * (last.clean + last.shed) as f64,
            "the overloaded end must be past the knee \
             (clean {}, shed {})",
            last.clean,
            last.shed
        );
        verdict += "goodput rises with load, saturates, and the excess is shed — never hung ✓";
    } else {
        verdict += "smoke run: determinism and zero-hang invariants hold ✓";
    }
    Outcome {
        tables: vec![table],
        verdict,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t13_smoke_is_bit_deterministic_and_sees_backpressure() {
        let a = run(&Ctx::new(true)).report;
        let b = run(&Ctx::new(true)).report;
        assert_eq!(a, b, "same seed must reproduce the full t13 report");
        let queue = &a.histograms["stage_us.queue_wait"];
        assert!(queue.count > 0, "queue_wait histogram must be populated");
        assert!(
            a.metrics["queue_depth_high_water"].value >= 1,
            "the probe point must observe at least one queued delivery"
        );
        assert!(a.metrics["admission_occupancy_high_water"].value >= 1);
        assert_eq!(a.metrics["hung.ia5000"].value, 0, "no query may hang");
    }
}

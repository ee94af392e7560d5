//! The regression gate: baseline vs candidate under each metric's own
//! comparison policy.
//!
//! The *baseline's* policy governs — the committed file pins both the
//! noise band and the worse-direction for every metric, so a candidate
//! cannot loosen the gate it is being judged by.

use crate::report::{BenchReport, Worse};

/// What a comparison found.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    /// Hard failures: exact metrics that differ, banded metrics past
    /// their band in the worse direction, histograms that moved, and
    /// scenarios/metrics the candidate no longer reports.
    pub regressions: Vec<String>,
    /// Banded metrics that moved past their band in the *better*
    /// direction — worth a look (and a baseline refresh), never a
    /// failure.
    pub improvements: Vec<String>,
    /// Total comparisons performed (metrics + histograms).
    pub checked: usize,
}

impl CompareOutcome {
    /// True when the candidate passes the gate.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares every scenario the baseline records against the candidate.
/// Extra scenarios or metrics in the candidate are ignored: a growing
/// suite must not invalidate an old baseline.
pub fn compare(baseline: &BenchReport, candidate: &BenchReport) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    if baseline.mode != candidate.mode {
        out.regressions.push(format!(
            "mode mismatch: baseline is {:?}, candidate is {:?} — \
             a smoke candidate cannot be judged against a full baseline",
            baseline.mode, candidate.mode
        ));
        return out;
    }
    for (name, base) in &baseline.scenarios {
        let Some(cand) = candidate.scenarios.get(name) else {
            out.regressions
                .push(format!("{name}: scenario missing from candidate"));
            continue;
        };
        for (metric, b) in &base.metrics {
            out.checked += 1;
            let Some(c) = cand.metrics.get(metric) else {
                out.regressions
                    .push(format!("{name}/{metric}: metric missing from candidate"));
                continue;
            };
            if b.tol_pct == 0 {
                if c.value != b.value {
                    out.regressions.push(format!(
                        "{name}/{metric}: {} != baseline {} \
                         (sim-deterministic metric must match exactly)",
                        c.value, b.value
                    ));
                }
                continue;
            }
            // Banded: the band is anchored on the baseline value.
            let band = b.value as f64 * f64::from(b.tol_pct) / 100.0;
            let delta = c.value as f64 - b.value as f64;
            let (regressed, improved) = match b.worse {
                Worse::Higher => (delta > band, delta < -band),
                Worse::Lower => (delta < -band, delta > band),
            };
            if regressed {
                out.regressions.push(format!(
                    "{name}/{metric}: {} vs baseline {} (band ±{}%, worse={})",
                    c.value,
                    b.value,
                    b.tol_pct,
                    match b.worse {
                        Worse::Higher => "higher",
                        Worse::Lower => "lower",
                    }
                ));
            } else if improved {
                out.improvements.push(format!(
                    "{name}/{metric}: {} vs baseline {} — past the ±{}% band in the \
                     good direction; consider refreshing the baseline",
                    c.value, b.value, b.tol_pct
                ));
            }
        }
        for (hname, bh) in &base.histograms {
            out.checked += 1;
            let Some(ch) = cand.histograms.get(hname) else {
                out.regressions
                    .push(format!("{name}/{hname}: histogram missing from candidate"));
                continue;
            };
            if bh != ch {
                out.regressions.push(format!(
                    "{name}/{hname}: histogram differs \
                     (count {} -> {}, sum {} -> {}, p95 {} -> {})",
                    bh.count,
                    ch.count,
                    bh.sum,
                    ch.sum,
                    bh.quantile(0.95),
                    ch.quantile(0.95)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Metric, ScenarioReport};

    fn base() -> BenchReport {
        let mut s = ScenarioReport::default();
        s.exact("clean", 6, Worse::Lower);
        s.banded("wall_us", 1_000, 20, Worse::Higher);
        s.banded("goodput_mqps", 1_000, 20, Worse::Lower);
        BenchReport::single("smoke", "t13", s)
    }

    #[test]
    fn identical_reports_pass() {
        let b = base();
        let out = compare(&b, &b.clone());
        assert!(out.ok(), "{:?}", out.regressions);
        assert_eq!(out.checked, 3);
    }

    #[test]
    fn exact_metric_fails_on_any_drift() {
        let b = base();
        let mut c = b.clone();
        c.scenarios
            .get_mut("t13")
            .unwrap()
            .metrics
            .insert("clean".into(), Metric::exact(5, Worse::Lower));
        let out = compare(&b, &c);
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("must match exactly"));
    }

    #[test]
    fn banded_metric_fails_only_past_the_band_in_the_worse_direction() {
        let b = base();

        // +15% on a ±20% band: fine.
        let mut c = b.clone();
        c.scenarios
            .get_mut("t13")
            .unwrap()
            .metrics
            .insert("wall_us".into(), Metric::banded(1_150, 20, Worse::Higher));
        assert!(compare(&b, &c).ok());

        // +25%: regression.
        c.scenarios
            .get_mut("t13")
            .unwrap()
            .metrics
            .insert("wall_us".into(), Metric::banded(1_250, 20, Worse::Higher));
        assert!(!compare(&b, &c).ok());

        // -25% on worse=higher: an improvement, not a failure.
        c.scenarios
            .get_mut("t13")
            .unwrap()
            .metrics
            .insert("wall_us".into(), Metric::banded(750, 20, Worse::Higher));
        let out = compare(&b, &c);
        assert!(out.ok());
        assert_eq!(out.improvements.len(), 1);

        // Throughput (worse=lower) dropping 25%: regression.
        let mut c = b.clone();
        c.scenarios
            .get_mut("t13")
            .unwrap()
            .metrics
            .insert("goodput_mqps".into(), Metric::banded(750, 20, Worse::Lower));
        assert!(!compare(&b, &c).ok());
    }

    #[test]
    fn missing_scenario_metric_or_mode_mismatch_fails() {
        let b = base();
        let mut c = b.clone();
        c.scenarios.get_mut("t13").unwrap().metrics.remove("clean");
        assert!(!compare(&b, &c).ok());

        let c = BenchReport {
            mode: "smoke".into(),
            scenarios: Default::default(),
        };
        assert!(!compare(&b, &c).ok());

        let mut c = b.clone();
        c.mode = "full".into();
        assert!(compare(&b, &c).regressions[0].contains("mode mismatch"));
    }
}

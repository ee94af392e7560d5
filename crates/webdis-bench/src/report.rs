//! The BENCH report model and its deterministic JSON form.
//!
//! A report is a map of scenarios, each holding scalar metrics (every
//! one tagged with its comparison policy) and full [`Histogram`]s for
//! the per-stage quantiles. Serialisation is byte-deterministic: all
//! maps are `BTreeMap`s, every object is emitted with its keys in
//! sorted order, and histograms are written and read by [`Histogram`]
//! itself — so two same-seed simulator runs produce *identical files*,
//! which is what lets the compare gate demand exact equality for sim
//! metrics. Reading and writing go through the workspace's one JSON
//! module (`webdis_trace::json`).

use std::collections::BTreeMap;

use webdis_trace::json::{self, Map, ObjWriter, ToJson};
use webdis_trace::Histogram;

/// Current file schema. Bumped when the shape changes incompatibly;
/// [`BenchReport::from_json`] refuses files from another schema rather
/// than guessing.
pub const SCHEMA: u64 = 1;

/// Which direction of movement counts as a regression for a banded
/// metric. Exact metrics (`tol_pct == 0`) regress on *any* difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Worse {
    /// Latency, bytes, queue depth: more is worse.
    Higher,
    /// Throughput, completions: less is worse.
    Lower,
}

impl Worse {
    fn name(self) -> &'static str {
        match self {
            Worse::Higher => "higher",
            Worse::Lower => "lower",
        }
    }

    fn parse(text: &str) -> Result<Worse, String> {
        match text {
            "higher" => Ok(Worse::Higher),
            "lower" => Ok(Worse::Lower),
            other => Err(format!("unknown worse direction {other:?}")),
        }
    }
}

/// One scalar observation plus its comparison policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// The observed value. Fractional quantities are stored in fixed
    /// point (e.g. milli-queries/s) so the file never contains floats.
    pub value: u64,
    /// Noise band in percent. `0` means sim-deterministic: the compare
    /// gate demands exact equality. Nonzero means wall-clock: only a
    /// move past the band in the [`Worse`] direction fails.
    pub tol_pct: u32,
    /// Which direction is a regression.
    pub worse: Worse,
}

impl Metric {
    /// A sim-deterministic metric: must reproduce exactly.
    pub fn exact(value: u64, worse: Worse) -> Metric {
        Metric {
            value,
            tol_pct: 0,
            worse,
        }
    }

    /// A wall-clock metric with a noise band.
    pub fn banded(value: u64, tol_pct: u32, worse: Worse) -> Metric {
        Metric {
            value,
            tol_pct,
            worse,
        }
    }
}

/// One scenario's frozen observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioReport {
    /// Scalar metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Full histograms by registry name (`stage_us.queue_wait`, …).
    /// Only sim-deterministic scenarios emit these; they are compared
    /// byte-exactly.
    pub histograms: BTreeMap<String, Histogram>,
}

impl ScenarioReport {
    /// Inserts an exact (sim-deterministic) metric.
    pub fn exact(&mut self, name: &str, value: u64, worse: Worse) {
        self.metrics
            .insert(name.to_string(), Metric::exact(value, worse));
    }

    /// Inserts a banded (wall-clock) metric.
    pub fn banded(&mut self, name: &str, value: u64, tol_pct: u32, worse: Worse) {
        self.metrics
            .insert(name.to_string(), Metric::banded(value, tol_pct, worse));
    }
}

/// A full BENCH file: one or more scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// `smoke` or `full` — recorded so a smoke candidate is never
    /// compared against a full baseline by accident.
    pub mode: String,
    /// Scenarios by name (`fig7`, `t13`, `eval`, `t14_chaos`).
    pub scenarios: BTreeMap<String, ScenarioReport>,
}

impl BenchReport {
    /// A report holding a single scenario.
    pub fn single(mode: &str, name: &str, scenario: ScenarioReport) -> BenchReport {
        let mut scenarios = BTreeMap::new();
        scenarios.insert(name.to_string(), scenario);
        BenchReport {
            mode: mode.to_string(),
            scenarios,
        }
    }

    /// Serialises the report deterministically: sorted keys throughout,
    /// one line per scenario for diff-friendly committed baselines.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"mode\":");
        self.mode.write_json(&mut out);
        out.push_str(",\n\"scenarios\":{");
        for (i, (name, scenario)) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            name.write_json(&mut out);
            out.push(':');
            scenario.write_json(&mut out);
        }
        out.push_str(&format!("\n}},\n\"schema\":{SCHEMA}\n}}\n"));
        out
    }

    /// Parses a file produced by [`to_json`](BenchReport::to_json).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let schema: u64 = root.req("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema} (this build reads {SCHEMA})"));
        }
        let mut scenarios = BTreeMap::new();
        for (name, body) in root.req::<&Map>("scenarios")? {
            let mut scenario = ScenarioReport::default();
            for (mname, m) in body.opt::<&Map>("metrics")?.into_iter().flatten() {
                let metric = Metric {
                    value: m.req("value")?,
                    tol_pct: m.req("tol_pct")?,
                    worse: Worse::parse(m.req("worse")?)?,
                };
                scenario.metrics.insert(mname.clone(), metric);
            }
            for (hname, h) in body.opt::<&Map>("histograms")?.into_iter().flatten() {
                let h =
                    Histogram::from_value(h).map_err(|e| format!("histogram {hname:?}: {e}"))?;
                scenario.histograms.insert(hname.clone(), h);
            }
            scenarios.insert(name.clone(), scenario);
        }
        Ok(BenchReport {
            mode: root.req("mode")?,
            scenarios,
        })
    }
}

impl ToJson for Metric {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("tol_pct", &self.tol_pct)
            .field("value", &self.value)
            .field("worse", self.worse.name())
            .end();
    }
}

impl ToJson for ScenarioReport {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("histograms", &self.histograms)
            .field("metrics", &self.metrics)
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut s = ScenarioReport::default();
        s.exact("duration_us", 123_456, Worse::Higher);
        s.exact("goodput_mqps", 2_500, Worse::Lower);
        s.banded("wall_us", 9_000, 50, Worse::Higher);
        let mut h = Histogram::default();
        h.counts[2] = 3;
        h.count = 3;
        h.sum = 30;
        h.min = 8;
        h.max = 14;
        s.histograms.insert("stage_us.queue_wait".into(), h);
        BenchReport::single("smoke", "t13", s)
    }

    #[test]
    fn report_json_roundtrips_byte_identically() {
        let report = sample();
        let text = report.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "re-serialisation must be stable");
    }

    #[test]
    fn out_of_range_tolerance_is_an_error_not_a_truncation() {
        // `as u32` used to read a 2^32 + 50 band back as 50.
        let text = sample()
            .to_json()
            .replace("\"tol_pct\":50", "\"tol_pct\":4294967346");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(
            err.contains("tol_pct") && err.contains("out of range"),
            "{err}"
        );
    }

    #[test]
    fn report_json_rejects_other_schemas_and_garbage() {
        let text = sample().to_json().replace("\"schema\":1", "\"schema\":99");
        assert!(BenchReport::from_json(&text)
            .unwrap_err()
            .contains("schema"));
        assert!(BenchReport::from_json("").is_err());
        assert!(BenchReport::from_json("{\"mode\":\"smoke\"}").is_err());
        // A histogram whose counts disagree with its total is refused by
        // the shared Histogram validator, not silently accepted here.
        let text = sample().to_json().replace("\"count\":3", "\"count\":4");
        assert!(BenchReport::from_json(&text).is_err());
    }
}

#![warn(missing_docs)]

//! The workspace's one experiment suite.
//!
//! Every figure and table of `EXPERIMENTS.md` and every
//! `BENCH_<name>.json` is one entry of [`EXPERIMENTS`] — a
//! `pub fn run(&Ctx) -> Outcome` in `src/experiments/<name>.rs` — run by
//! the one `webdis-bench` binary (`webdis-bench list` prints the table;
//! `run`, `baseline` and `compare` are its other commands). Each
//! experiment *asserts* the claims it reproduces, so a regression fails
//! loudly rather than drifting; the ones with numbers worth freezing
//! also fill a [`ScenarioReport`], whose metrics each carry their own
//! comparison policy: `tol_pct == 0` means *sim-deterministic, must
//! match exactly*; a nonzero band means *wall-clock, regression only
//! when it moves past the band in the worse direction*. [`compare()`]
//! applies those policies between the committed `bench/baseline.json`
//! and a fresh candidate and is the CI gate.
//!
//! This file holds what the experiments share: the [`Table`] they
//! print, the runner-owned [`TraceOpt`], and the cell formatters.
//! `webdis-doctor` is the crate's second binary ([`live`] is its
//! `--live` mode; its offline diagnosis is `webdis_trace::doctor`).

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Arc;

use webdis_trace::{trajectory, CollectingTracer, TraceHandle};

pub mod compare;
pub mod experiments;
pub mod live;
pub mod report;

pub use compare::{compare, CompareOutcome};
pub use experiments::{experiment, Ctx, Experiment, Outcome, EXPERIMENTS};
pub use report::{BenchReport, Metric, ScenarioReport, Worse};

/// A fixed-width text table, the output format of every harness (the
/// repository has no plotting dependency; tables are the paper-facing
/// artifact).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The runner's `--trace <path>` option: when present, installs a
/// ring-buffer collector that the experiments with a showcase run record
/// into; [`TraceOpt::finish`] writes the captured events as JSON lines
/// to the path and prints the reconstructed per-query trajectories plus
/// the metrics registry.
pub struct TraceOpt {
    collector: Option<(Arc<CollectingTracer>, PathBuf)>,
    handle: TraceHandle,
}

impl TraceOpt {
    /// Collector capacity — generous for single-figure runs.
    const CAPACITY: usize = 65_536;

    /// A trace option with an explicit output path (`None` = disabled).
    pub fn with_path(path: Option<PathBuf>) -> TraceOpt {
        match path {
            None => TraceOpt {
                collector: None,
                handle: TraceHandle::noop(),
            },
            Some(p) => {
                let (collector, handle) = TraceHandle::collecting(Self::CAPACITY);
                TraceOpt {
                    collector: Some((collector, p)),
                    handle,
                }
            }
        }
    }

    /// The handle to install into `EngineConfig::tracer`.
    pub fn handle(&self) -> TraceHandle {
        self.handle.clone()
    }

    /// True when `--trace` was given.
    pub fn enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// The collector a run that reads its own registry records into:
    /// the runner's when `--trace` was given (so the run is the one the
    /// file shows), else a private one of `capacity` records.
    pub fn collecting(&self, capacity: usize) -> (Arc<CollectingTracer>, TraceHandle) {
        match &self.collector {
            Some((collector, _)) => (Arc::clone(collector), self.handle.clone()),
            None => TraceHandle::collecting(capacity),
        }
    }

    /// Folds engine counters (e.g. `ServerStats::counters`) into the
    /// collector's registry under `prefix`, so the registry is the one
    /// reporting surface. No-op when tracing is disabled.
    pub fn ingest(&self, prefix: &str, counters: &[(&str, u64)]) {
        if let Some((collector, _)) = &self.collector {
            collector.registry().ingest_counters(prefix, counters);
        }
    }

    /// Writes the JSONL file and prints trajectories and metrics.
    /// No-op when tracing is disabled.
    pub fn finish(&self) -> std::io::Result<()> {
        let Some((collector, path)) = &self.collector else {
            return Ok(());
        };
        let records = collector.snapshot();
        std::fs::write(path, collector.export_jsonl())?;
        println!();
        println!("trace: {} events -> {}", records.len(), path.display());
        for id in trajectory::query_ids(&records) {
            println!();
            print!("{}", trajectory::reconstruct(&records, &id).render_text());
        }
        println!();
        print!("{}", collector.registry().snapshot().render_text());
        Ok(())
    }
}

/// Formats a byte count with a thousands separator for readability.
pub fn fmt_bytes(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio to one decimal.
pub fn fmt_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}x", num as f64 / den as f64)
    }
}

/// Formats microseconds as milliseconds to one decimal.
pub fn fmt_ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["col", "value"]);
        t.row(&["a", "1"]);
        t.row(&["long-name", "22"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Both data lines have equal width.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(1234567), "1,234,567");
        assert_eq!(fmt_bytes(12), "12");
        assert_eq!(fmt_ratio(30, 10), "3.0x");
        assert_eq!(fmt_ratio(1, 0), "-");
        assert_eq!(fmt_ms(2500), "2.5");
    }
}

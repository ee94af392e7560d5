//! The unified metrics registry: named monotonic counters plus
//! fixed-bucket histograms.
//!
//! The engine's per-subsystem stats structs (`ServerStats`, `ChtStats`,
//! sim `Metrics`, …) remain the *collection* points — dozens of tests
//! read them directly — but this registry is the single *reporting*
//! surface: everything funnels here (via the tracer and via
//! `ingest_counters`) and is rendered from here.
//!
//! Traffic is not counted here: messages and bytes per kind and fate
//! live in the transports' one meter (`webdis_net::WireCounters`), which
//! both runtimes lay over a snapshot as `net.<kind>.*` counters when they
//! expose it; the registry keeps only the `message_bytes`/`dropped_bytes`
//! size histograms.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::json::{self, ObjWriter, ToJson, Value};

/// Upper bounds (inclusive) of the fixed histogram buckets, chosen to
/// straddle the paper's scales: hop latencies of hundreds of ms on a
/// 1999 WAN, message sizes of a few hundred bytes to a few KiB, row
/// counts and fan-outs in single digits.
pub const BUCKET_BOUNDS: [u64; 10] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 65_536, 1_048_576, 16_777_216,
];

/// A fixed-bucket histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// `counts[i]` holds observations `<= BUCKET_BOUNDS[i]` (and greater
    /// than the previous bound); the final slot is the overflow bucket.
    pub counts: [u64; BUCKET_BOUNDS.len() + 1],
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket holding the target rank — the standard
    /// fixed-bucket estimator. The buckets are coarse, so this is an
    /// approximation, but the edges are well-defined: an empty histogram
    /// returns 0 for every `q`, a single-sample histogram returns that
    /// sample exactly (the tracked min and max pin both bucket bounds),
    /// and `q >= 1.0` returns the tracked max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q.max(0.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            if cumulative + bucket_count >= target {
                // The overflow bucket has no upper bound; the tracked max
                // caps it (and any bucket the max falls inside). The
                // tracked min tightens the lower bound symmetrically: no
                // observation sits below it, so interpolation never
                // undershoots into empty bucket range.
                let lower = if idx == 0 { 0 } else { BUCKET_BOUNDS[idx - 1] };
                let upper = BUCKET_BOUNDS
                    .get(idx)
                    .copied()
                    .unwrap_or(self.max)
                    .min(self.max);
                let lower = lower.max(self.min).min(upper);
                let frac = (target - cumulative) as f64 / bucket_count as f64;
                let width = upper.saturating_sub(lower) as f64;
                return lower + (frac * width).round() as u64;
            }
            cumulative += bucket_count;
        }
        self.max
    }

    /// Serialises the histogram as a deterministic single-line JSON
    /// object: keys in sorted order, counts as an array, plus the
    /// derived p50/p95/p99 so BENCH files are readable without
    /// reconstructing the histogram. The quantile fields are redundant
    /// (recomputable from the counts) and are ignored by
    /// [`from_json`](Histogram::from_json).
    pub fn to_json(&self) -> String {
        json::write(self)
    }

    /// Parses a histogram serialised by [`to_json`](Histogram::to_json).
    pub fn from_json(text: &str) -> Result<Histogram, String> {
        Histogram::from_value(&json::parse(text)?)
    }

    /// Reads a histogram from its parsed JSON form. Unknown keys (the
    /// derived quantiles) are ignored; the bucket array must match the
    /// compiled bucket count and agree with the total, so a file from a
    /// different bucket vocabulary is rejected rather than silently
    /// misread.
    pub fn from_value(value: &Value) -> Result<Histogram, String> {
        let buckets: Vec<u64> = value
            .opt("counts")?
            .ok_or("histogram JSON lacks a counts array")?;
        let mut h = Histogram {
            count: value.or("count", 0)?,
            sum: value.or("sum", 0)?,
            max: value.or("max", 0)?,
            min: value.or("min", 0)?,
            ..Histogram::default()
        };
        if buckets.len() != h.counts.len() {
            return Err(format!(
                "expected {} buckets, found {}",
                h.counts.len(),
                buckets.len()
            ));
        }
        h.counts.copy_from_slice(&buckets);
        if h.counts.iter().sum::<u64>() != h.count {
            return Err("bucket counts disagree with the total count".to_string());
        }
        Ok(h)
    }
}

impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("count", &self.count)
            .field("counts", &self.counts[..])
            .field("max", &self.max)
            .field("min", &self.min)
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .field("sum", &self.sum)
            .end();
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// An immutable snapshot of the registry's contents.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl RegistrySnapshot {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// A gauge's value (0 when never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sets (overwrites) a counter in this snapshot. Scrape-time overlay
    /// for sources that live outside the registry (transport byte
    /// meters, per-daemon engine stats): overwriting keeps repeated
    /// scrapes idempotent where `ingest_counters` would accumulate.
    pub fn put_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets (overwrites) a gauge in this snapshot (see [`put_counter`]).
    ///
    /// [`put_counter`]: RegistrySnapshot::put_counter
    pub fn put_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// A histogram, if it has been registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A plain-text report: counters first, then histogram summaries
    /// with non-empty buckets.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            if *value > 0 {
                out.push_str(&format!("  {name:<28} {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<28} {value}\n"));
            }
        }
        out.push_str("histograms:\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {name:<28} count={} sum={} mean={} max={}\n",
                h.count,
                h.sum,
                h.mean(),
                h.max
            ));
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                match BUCKET_BOUNDS.get(i) {
                    Some(bound) => out.push_str(&format!("    <= {bound:<10} {c}\n")),
                    None => out.push_str(&format!(
                        "    >  {:<10} {c}\n",
                        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
                    )),
                }
            }
        }
        out
    }
}

/// A thread-safe registry of named counters and fixed-bucket histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry with the engine's standard histograms pre-registered
    /// (so reports show them even when empty): hop latency, per-clone
    /// fan-out, message size, eval row counts, and the fleet-wide
    /// per-stage latency attribution histograms.
    pub fn with_engine_metrics() -> Registry {
        let registry = Registry::new();
        let fixed = [
            "hop_latency_us",
            "site_fanout",
            "message_bytes",
            "eval_rows",
            "eval_span_us",
        ];
        // Deliberately not `cache_lookup`: the stage arrived after reports
        // that print the empty histograms were recorded (EXPERIMENTS.md,
        // the doctor's golden report), so it appears on first observation
        // and their bytes stay as they are.
        let stages = crate::stage_histograms().filter(|stage| *stage != "cache_lookup");
        let stages = stages.map(|stage| format!("stage_us.{stage}"));
        for name in fixed.map(String::from).into_iter().chain(stages) {
            registry.inner.lock().histograms.entry(name).or_default();
        }
        registry
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn count(&self, name: &str, delta: u64) {
        *self
            .inner
            .lock()
            .counters
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Raises the named gauge to `value` if larger (high-water marks
    /// like the peak log-table length). Gauges live apart from counters
    /// so the exposition format can type them honestly.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        let slot = inner.gauges.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.inner
            .lock()
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Bulk-adds counters, each name prefixed `prefix.` — the ingestion
    /// path for the engine's stats structs.
    pub fn ingest_counters(&self, prefix: &str, counters: &[(&str, u64)]) {
        let mut inner = self.inner.lock();
        for (name, value) in counters {
            *inner
                .counters
                .entry(format!("{prefix}.{name}"))
                .or_insert(0) += value;
        }
    }

    /// Resets every gauge to zero. Every gauge in this registry is a
    /// high-water mark (maintained exclusively through
    /// [`gauge_max`](Registry::gauge_max)), so the marks deliberately
    /// survive scrapes — a scrape must never mutate state — and this is
    /// the one explicit admin path that re-arms them, e.g. between
    /// phases of a soak to see each phase's own peaks.
    pub fn reset_high_water(&self) {
        for value in self.inner.lock().gauges.values_mut() {
            *value = 0;
        }
    }

    /// A point-in-time copy of everything.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        RegistrySnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_json_roundtrips_exactly() {
        let r = Registry::new();
        for v in [0u64, 1, 2, 5, 900, 70_000, 20_000_000, 3, 3, 3] {
            r.observe("h", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        let json = h.to_json();
        // The derived quantiles are present for readers…
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        // …and the roundtrip reconstructs the histogram exactly,
        // including every bucket and the min/max pins the quantile
        // estimator relies on.
        let back = Histogram::from_json(&json).unwrap();
        assert_eq!(&back, h);
        assert_eq!(back.quantile(0.95), h.quantile(0.95));
        // Serialising again is byte-identical — the property BENCH
        // files lean on for sim determinism.
        assert_eq!(back.to_json(), json);

        // The empty histogram roundtrips too.
        let empty = Histogram::default();
        assert_eq!(Histogram::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn histogram_json_rejects_malformed_input() {
        assert!(Histogram::from_json("").is_err());
        assert!(Histogram::from_json("{}").is_err(), "missing counts");
        assert!(
            Histogram::from_json("{\"count\":1,\"counts\":[1,0],\"sum\":3,\"max\":3,\"min\":3}")
                .is_err(),
            "wrong bucket arity"
        );
        let mut wrong_total = Histogram::default();
        wrong_total.counts[0] = 2;
        wrong_total.count = 1;
        let json = wrong_total.to_json();
        assert!(
            Histogram::from_json(&json).is_err(),
            "bucket/total disagreement must be rejected"
        );
    }

    #[test]
    fn counters_accumulate_and_prefix() {
        let r = Registry::new();
        r.count("a", 2);
        r.count("a", 3);
        r.ingest_counters("server", &[("clones", 7), ("a", 1)]);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("server.clones"), 7);
        assert_eq!(snap.counter("server.a"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_boundaries() {
        let r = Registry::new();
        for v in [0, 1, 2, 4, 5, 1_024, 1_025, 20_000_000] {
            r.observe("h", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 20_000_000);
        assert_eq!(h.counts[0], 2, "0 and 1 land in <=1");
        assert_eq!(h.counts[1], 2, "2 and 4 land in <=4");
        assert_eq!(h.counts[2], 1, "5 lands in <=16");
        assert_eq!(h.counts[5], 1, "1024 lands in <=1024");
        assert_eq!(h.counts[6], 1, "1025 lands in <=4096");
        assert_eq!(*h.counts.last().unwrap(), 1, "20M overflows");
        assert_eq!(h.mean(), h.sum / 8);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");

        let r = Registry::new();
        // 100 observations spread evenly over the <=1024 bucket's range.
        for v in 1..=100u64 {
            r.observe("h", 256 + v * 7);
        }
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.quantile(1.0), h.max);
        let p50 = h.quantile(0.5);
        // All mass sits in (256, 1024]; the median estimate must land
        // inside the bucket, strictly between its bounds.
        assert!(p50 > 256 && p50 < 1024, "p50 = {p50}");
        assert!(h.quantile(0.95) >= p50);

        // A single observation: every quantile collapses onto it once
        // capped by the tracked max.
        let r = Registry::new();
        r.observe("one", 5_000_000);
        let snap = r.snapshot();
        let one = snap.histogram("one").unwrap();
        assert_eq!(one.quantile(0.99), 5_000_000);
        assert_eq!(one.quantile(0.01), 5_000_000);
    }

    #[test]
    fn empty_and_single_sample_quantiles_are_well_defined() {
        let empty = Histogram::default();
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }
        assert_eq!(empty.min, 0);
        assert_eq!(empty.mean(), 0);

        // A single sample anywhere in a bucket: min and max pin both
        // interpolation bounds, so every quantile is the sample itself —
        // including values far from either bucket edge.
        for v in [0, 1, 3, 700, 5_000_000, 99_999_999] {
            let r = Registry::new();
            r.observe("one", v);
            let snap = r.snapshot();
            let one = snap.histogram("one").unwrap();
            assert_eq!(one.min, v);
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(one.quantile(q), v, "single sample {v} at q={q}");
            }
        }
    }

    #[test]
    fn gauges_are_separate_from_counters() {
        let r = Registry::new();
        r.gauge_max("log_len_high_water", 5);
        r.gauge_max("log_len_high_water", 3);
        r.count("log_len_high_water", 100);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("log_len_high_water"), 5);
        assert_eq!(snap.counter("log_len_high_water"), 100);
        assert_eq!(snap.gauges().count(), 1);
        let text = snap.render_text();
        assert!(text.contains("gauges:"), "gauge section present:\n{text}");
    }

    #[test]
    fn reset_high_water_zeroes_gauges_and_only_gauges() {
        let r = Registry::new();
        r.gauge_max("queue_depth_high_water", 7);
        r.gauge_max("log_len_high_water", 3);
        r.count("query_sent", 4);
        r.observe("message_bytes", 300);
        // Snapshots (the scrape path) never reset the marks.
        let _ = r.snapshot();
        assert_eq!(r.snapshot().gauge("queue_depth_high_water"), 7);
        r.reset_high_water();
        let snap = r.snapshot();
        assert_eq!(snap.gauge("queue_depth_high_water"), 0);
        assert_eq!(snap.gauge("log_len_high_water"), 0);
        assert_eq!(snap.counter("query_sent"), 4, "counters untouched");
        assert_eq!(snap.histogram("message_bytes").unwrap().count, 1);
        // The marks re-arm: new peaks are tracked from zero again.
        r.gauge_max("queue_depth_high_water", 2);
        assert_eq!(r.snapshot().gauge("queue_depth_high_water"), 2);
    }

    #[test]
    fn snapshot_put_overlays_are_idempotent() {
        let r = Registry::new();
        r.count("a", 2);
        let mut snap = r.snapshot();
        snap.put_counter("net.query.bytes", 41);
        snap.put_counter("net.query.bytes", 41);
        snap.put_gauge("up", 1);
        assert_eq!(snap.counter("net.query.bytes"), 41);
        assert_eq!(snap.gauge("up"), 1);
        assert_eq!(snap.counter("a"), 2);
    }

    #[test]
    fn render_text_lists_prepopulated_histograms() {
        let r = Registry::with_engine_metrics();
        r.count("query_sent", 4);
        r.observe("message_bytes", 300);
        let text = r.snapshot().render_text();
        assert!(text.contains("query_sent"));
        assert!(
            text.contains("hop_latency_us"),
            "pre-registered even when empty:\n{text}"
        );
        assert!(text.contains("<= 1024"), "bucket line present:\n{text}");
    }
}

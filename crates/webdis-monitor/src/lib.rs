//! Live observability for WEBDIS: windowed time-series, an in-flight
//! query registry, and a deterministic alert-rule engine.
//!
//! webdis-doctor is strictly post-hoc — it reads a finished JSONL trace
//! — and `/metrics` exposes only monotone counters and cumulative
//! high-water gauges. Neither can tell you, *while the system runs*,
//! that a shed storm started forty seconds ago or that one site's queue
//! has been deep for the last three windows. This crate is that layer:
//!
//! * **Windowed series** ([`WindowRow`]): the registry snapshot is
//!   sampled on a driver tick (virtual time in SimNet, wall clock on
//!   TCP) and folded into fixed-width windows — per-window counter
//!   deltas, gauge marks, and windowed histogram quantiles — kept in a
//!   bounded ring. Same seed in sim ⇒ byte-identical series.
//! * **In-flight registry** ([`InflightStatus`]): every admitted query
//!   with its current site, stage, hop depth, clone fan-out, and age,
//!   retired when its termination is recorded.
//! * **Alert rules** ([`AlertRule`]): declarative threshold and
//!   multi-window burn-rate conditions over the windowed signals. Each
//!   window close evaluates every rule in order; transitions emit
//!   `AlertFired`/`AlertResolved` trace events and append to a
//!   deterministic [`AlertLogEntry`] log.
//!
//! Everything is integer arithmetic (fixed-point milli-units for
//! fractional signals), `BTreeMap`-ordered, and driven exclusively by
//! timestamps handed in by the caller — the monitor never reads a
//! clock, which is what makes the sim-mode output reproducible.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use webdis_trace::{Histogram, QueryId, RegistrySnapshot, TraceEvent, TraceHandle, TraceRecord};

mod json;
mod status;

pub use status::{InflightStatus, StatusSnapshot};

/// The synthetic site name alert trace records carry.
pub const MONITOR_SITE: &str = "monitor";

/// One windowed signal an [`AlertRule`] watches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// A counter's per-window delta as a rate: milli-events per second.
    CounterRate(String),
    /// `num / (den[0] + den[1] + …)` over per-window deltas, in milli
    /// (0..=1000 for a true fraction). Undefined (window skipped) when
    /// the denominator delta is zero.
    CounterRatio {
        /// Numerator counter.
        num: String,
        /// Denominator counters, summed.
        den: Vec<String>,
    },
    /// A high-water gauge's mark at window close, in milli-units. The
    /// underlying gauges are cumulative marks: once raised they stay
    /// raised until `reset_high_water`, so an `Above` rule on one
    /// resolves only after an explicit reset.
    GaugeHighWater(String),
    /// The p95 of a histogram's *per-window* observations (delta
    /// counts), in milli-units of the histogram's native unit.
    HistogramP95(String),
}

impl Signal {
    /// Registry names this signal reads (so the sampler tracks them).
    fn names(&self) -> Vec<&str> {
        match self {
            Signal::CounterRate(n) | Signal::GaugeHighWater(n) | Signal::HistogramP95(n) => {
                vec![n.as_str()]
            }
            Signal::CounterRatio { num, den } => {
                let mut v = vec![num.as_str()];
                v.extend(den.iter().map(|d| d.as_str()));
                v
            }
        }
    }
}

/// The alerting comparison, against fixed-point milli-units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Breach when the signal exceeds the threshold.
    Above(u64),
    /// Breach when the signal falls below the threshold.
    Below(u64),
}

impl Condition {
    fn breached(self, value_milli: u64) -> bool {
        match self {
            Condition::Above(t) => value_milli > t,
            Condition::Below(t) => value_milli < t,
        }
    }

    /// The threshold in milli-units (for the alert log and events).
    pub fn threshold_milli(self) -> u64 {
        match self {
            Condition::Above(t) | Condition::Below(t) => t,
        }
    }
}

/// One declarative alert rule, evaluated at every window close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRule {
    /// Stable rule name (trace events and the alert log carry it).
    pub name: String,
    /// The windowed signal watched.
    pub signal: Signal,
    /// The breach condition on the signal's milli-value.
    pub condition: Condition,
    /// Consecutive breached windows required to fire.
    pub for_windows: u32,
    /// Consecutive clear windows required to resolve once fired.
    pub clear_windows: u32,
    /// Multi-window burn rate: when set, a window only counts as
    /// breached if the condition *also* holds on the average of the
    /// last `n` window values — the classic short-AND-long burn pair
    /// that keeps a single-window spike from paging.
    pub burn_windows: Option<u32>,
}

/// The default rule set: the five signals the ISSUE calls out. The
/// thresholds are deliberately conservative — they stay quiet on the
/// healthy baseline workloads and trip under the t18 overload burst.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "shed_rate_burn".into(),
            signal: Signal::CounterRate("query_shed".into()),
            condition: Condition::Above(1_000), // > 1 shed/s
            for_windows: 1,
            clear_windows: 2,
            burn_windows: Some(5),
        },
        AlertRule {
            name: "p95_latency_high".into(),
            signal: Signal::HistogramP95("query_latency_us".into()),
            condition: Condition::Above(2_000_000_000), // p95 > 2 s
            for_windows: 3,
            clear_windows: 3,
            burn_windows: None,
        },
        AlertRule {
            name: "queue_depth_high".into(),
            signal: Signal::GaugeHighWater("queue_depth_high_water".into()),
            condition: Condition::Above(64_000), // mark > 64 deliveries
            for_windows: 3,
            clear_windows: 3,
            burn_windows: None,
        },
        AlertRule {
            name: "cache_hit_rate_low".into(),
            signal: Signal::CounterRatio {
                num: "cache.hit".into(),
                den: vec!["cache.hit".into(), "cache.miss".into()],
            },
            condition: Condition::Below(100), // < 10% of lookups hit
            for_windows: 5,
            clear_windows: 5,
            burn_windows: None,
        },
        AlertRule {
            name: "log_high_water_high".into(),
            signal: Signal::GaugeHighWater("log_len_high_water".into()),
            condition: Condition::Above(512_000), // mark > 512 entries
            for_windows: 3,
            clear_windows: 3,
            burn_windows: None,
        },
    ]
}

/// Monitor configuration: window geometry, the tracked series, and the
/// rule set. Names referenced by rules are tracked automatically.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Closed windows kept in the ring (older ones age out of the
    /// series view; the alert log and counts are never truncated).
    pub ring_windows: usize,
    /// Counters tracked as per-window deltas.
    pub counters: Vec<String>,
    /// Gauges sampled at window close.
    pub gauges: Vec<String>,
    /// Histograms tracked as per-window delta quantiles.
    pub histograms: Vec<String>,
    /// The alert rules, evaluated in order at every window close.
    pub rules: Vec<AlertRule>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            window_us: 100_000,
            ring_windows: 64,
            counters: vec![
                "query_sent".into(),
                "query_recv".into(),
                "query_shed".into(),
                "termination".into(),
                "cache.hit".into(),
                "cache.miss".into(),
            ],
            gauges: vec![
                "queue_depth_high_water".into(),
                "log_len_high_water".into(),
                "admission_occupancy_high_water".into(),
            ],
            histograms: vec![
                "hop_latency_us".into(),
                "query_latency_us".into(),
                "stage_us.queue_wait".into(),
                "stage_us.eval".into(),
            ],
            rules: default_rules(),
        }
    }
}

/// Windowed quantiles of one histogram's per-window observations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowQuantiles {
    /// Observations that landed in this window.
    pub count: u64,
    /// Sum of this window's observations.
    pub sum: u64,
    /// Windowed median estimate.
    pub p50: u64,
    /// Windowed p95 estimate.
    pub p95: u64,
}

/// One closed window of the time-series ring.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowRow {
    /// Window index (`end_us = (index + 1) * window_us`).
    pub index: u64,
    /// The window's closing timestamp, µs.
    pub end_us: u64,
    /// Per-window counter deltas (zero entries are kept out).
    pub counters: BTreeMap<String, u64>,
    /// Gauge marks sampled at close (cumulative high-water values).
    pub gauges: BTreeMap<String, u64>,
    /// Windowed histogram quantiles (empty windows are kept out).
    pub quantiles: BTreeMap<String, WindowQuantiles>,
}

/// One line of the deterministic alert log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertLogEntry {
    /// Log sequence number, from 0.
    pub seq: u64,
    /// The closing timestamp of the window that transitioned the rule.
    pub time_us: u64,
    /// That window's index.
    pub window: u64,
    /// The rule's name.
    pub rule: String,
    /// True for fired, false for resolved.
    pub fired: bool,
    /// The signal value at the transition, milli-units.
    pub value_milli: u64,
    /// The rule's threshold, milli-units.
    pub threshold_milli: u64,
}

/// Sampled registry values the window bookkeeping works from.
#[derive(Debug, Clone, Default)]
struct Sampled {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

#[derive(Debug, Default)]
struct RuleState {
    firing: bool,
    breach_streak: u32,
    clear_streak: u32,
    /// Recent window values for the burn-rate average, newest last.
    history: VecDeque<u64>,
}

#[derive(Debug, Clone, Default)]
struct Inflight {
    submitted_us: u64,
    site: String,
    stage: u32,
    hops: u32,
    clones_recv: u64,
    fanout: u64,
}

#[derive(Default)]
struct MonitorState {
    /// The open window: its index and the latest sample seen inside it.
    cur: Option<(u64, Sampled)>,
    /// Cumulative values at the last closed window boundary.
    baseline: Sampled,
    windows: VecDeque<WindowRow>,
    closed: u64,
    rules: Vec<RuleState>,
    alert_log: Vec<AlertLogEntry>,
    inflight: BTreeMap<QueryId, Inflight>,
    admitted: u64,
    retired: u64,
}

/// The monitor: owns the windowed series, the alert engine, and the
/// in-flight registry. Shared through [`MonitorHandle`].
pub struct Monitor {
    cfg: MonitorConfig,
    tracer: TraceHandle,
    /// Union of configured series names and rule-referenced names.
    tracked_counters: Vec<String>,
    tracked_gauges: Vec<String>,
    tracked_hists: Vec<String>,
    state: Mutex<MonitorState>,
}

impl Monitor {
    fn new(cfg: MonitorConfig, tracer: TraceHandle) -> Monitor {
        let mut counters = cfg.counters.clone();
        let mut gauges = cfg.gauges.clone();
        let mut hists = cfg.histograms.clone();
        for rule in &cfg.rules {
            for name in rule.signal.names() {
                let list = match rule.signal {
                    Signal::GaugeHighWater(_) => &mut gauges,
                    Signal::HistogramP95(_) => &mut hists,
                    _ => &mut counters,
                };
                if !list.iter().any(|n| n == name) {
                    list.push(name.to_string());
                }
            }
        }
        counters.sort();
        gauges.sort();
        hists.sort();
        let state = MonitorState {
            rules: cfg.rules.iter().map(|_| RuleState::default()).collect(),
            ..MonitorState::default()
        };
        Monitor {
            cfg,
            tracer,
            tracked_counters: counters,
            tracked_gauges: gauges,
            tracked_hists: hists,
            state: Mutex::new(state),
        }
    }

    /// The window index `now_us` falls in, under the `(iW, (i+1)W]`
    /// convention — a sample taken exactly at a window boundary closes
    /// that window rather than opening the next.
    fn window_of(&self, now_us: u64) -> u64 {
        now_us.saturating_sub(1) / self.cfg.window_us.max(1)
    }

    fn sample(&self, snap: &RegistrySnapshot) -> Sampled {
        let mut s = Sampled::default();
        for name in &self.tracked_counters {
            let v = snap.counter(name);
            if v > 0 {
                s.counters.insert(name.clone(), v);
            }
        }
        for name in &self.tracked_gauges {
            let v = snap.gauge(name);
            if v > 0 {
                s.gauges.insert(name.clone(), v);
            }
        }
        for name in &self.tracked_hists {
            if let Some(h) = snap.histogram(name) {
                if h.count > 0 {
                    s.hists.insert(name.clone(), h.clone());
                }
            }
        }
        s
    }

    /// Folds one registry snapshot into the series. `now_us` is virtual
    /// time on the simulator, wall-clock µs on TCP; it must be
    /// monotone. Crossing a window boundary closes every window up to
    /// the current one (quiet gaps become explicit zero-delta windows,
    /// which is what lets burn rates decay and alerts resolve during
    /// silence) and evaluates the alert rules per closed window.
    pub fn ingest(&self, now_us: u64, snap: &RegistrySnapshot) {
        let sampled = self.sample(snap);
        let w = self.window_of(now_us);
        let mut state = self.state.lock();
        match state.cur.take() {
            None => state.cur = Some((w, sampled)),
            Some((cur_w, latest)) if w <= cur_w => {
                state.cur = Some((cur_w, sampled.merged_over(latest)));
            }
            Some((cur_w, latest)) => {
                self.close_window(&mut state, cur_w, latest.clone());
                // Quiet gap: no sample landed in these windows, so their
                // deltas are zero and their gauges hold the last marks.
                for gap in cur_w + 1..w {
                    self.close_window(&mut state, gap, latest.clone());
                }
                state.cur = Some((w, sampled));
            }
        }
    }

    /// Closes the open window, if any — the end-of-run flush so the
    /// final partial window reaches the series and the alert engine.
    pub fn finalize(&self, now_us: u64, snap: &RegistrySnapshot) {
        self.ingest(now_us, snap);
        let mut state = self.state.lock();
        if let Some((w, latest)) = state.cur.take() {
            self.close_window(&mut state, w, latest);
        }
    }

    fn close_window(&self, state: &mut MonitorState, index: u64, latest: Sampled) {
        let end_us = (index + 1).saturating_mul(self.cfg.window_us);
        let mut row = WindowRow {
            index,
            end_us,
            ..WindowRow::default()
        };
        for (name, &v) in &latest.counters {
            let delta = v.saturating_sub(state.baseline.counters.get(name).copied().unwrap_or(0));
            if delta > 0 {
                row.counters.insert(name.clone(), delta);
            }
        }
        row.gauges = latest.gauges.clone();
        for (name, h) in &latest.hists {
            let delta = match state.baseline.hists.get(name) {
                Some(base) => delta_histogram(h, base),
                None => h.clone(),
            };
            if delta.count > 0 {
                row.quantiles.insert(
                    name.clone(),
                    WindowQuantiles {
                        count: delta.count,
                        sum: delta.sum,
                        p50: delta.quantile(0.50),
                        p95: delta.quantile(0.95),
                    },
                );
            }
        }
        self.evaluate_rules(state, &row);
        state.baseline = latest;
        state.windows.push_back(row);
        while state.windows.len() > self.cfg.ring_windows.max(1) {
            state.windows.pop_front();
        }
        state.closed += 1;
    }

    fn signal_value(&self, row: &WindowRow, signal: &Signal) -> Option<u64> {
        match signal {
            Signal::CounterRate(name) => {
                let delta = row.counters.get(name).copied().unwrap_or(0);
                Some(delta.saturating_mul(1_000_000_000) / self.cfg.window_us.max(1))
            }
            Signal::CounterRatio { num, den } => {
                let d: u64 = den
                    .iter()
                    .map(|n| row.counters.get(n).copied().unwrap_or(0))
                    .sum();
                if d == 0 {
                    return None;
                }
                let n = row.counters.get(num).copied().unwrap_or(0);
                Some(n.saturating_mul(1_000) / d)
            }
            Signal::GaugeHighWater(name) => Some(
                row.gauges
                    .get(name)
                    .copied()
                    .unwrap_or(0)
                    .saturating_mul(1_000),
            ),
            Signal::HistogramP95(name) => Some(
                row.quantiles
                    .get(name)
                    .map(|q| q.p95)
                    .unwrap_or(0)
                    .saturating_mul(1_000),
            ),
        }
    }

    fn evaluate_rules(&self, state: &mut MonitorState, row: &WindowRow) {
        for (rule, rs) in self.cfg.rules.iter().zip(state.rules.iter_mut()) {
            let Some(value) = self.signal_value(row, &rule.signal) else {
                // Undefined this window (e.g. a ratio with no samples):
                // streaks and history hold.
                continue;
            };
            if let Some(burn) = rule.burn_windows {
                rs.history.push_back(value);
                while rs.history.len() > burn as usize {
                    rs.history.pop_front();
                }
            }
            let mut breached = rule.condition.breached(value);
            if breached {
                if let Some(_burn) = rule.burn_windows {
                    let sum: u64 = rs.history.iter().sum();
                    let avg = sum / rs.history.len().max(1) as u64;
                    breached = rule.condition.breached(avg);
                }
            }
            if breached {
                rs.breach_streak += 1;
                rs.clear_streak = 0;
            } else {
                rs.clear_streak += 1;
                rs.breach_streak = 0;
            }
            let transition = if !rs.firing && rs.breach_streak >= rule.for_windows.max(1) {
                rs.firing = true;
                Some(true)
            } else if rs.firing && rs.clear_streak >= rule.clear_windows.max(1) {
                rs.firing = false;
                Some(false)
            } else {
                None
            };
            if let Some(fired) = transition {
                let threshold_milli = rule.condition.threshold_milli();
                let entry = AlertLogEntry {
                    seq: state.alert_log.len() as u64,
                    time_us: row.end_us,
                    window: row.index,
                    rule: rule.name.clone(),
                    fired,
                    value_milli: value,
                    threshold_milli,
                };
                self.tracer.emit_with(|| TraceRecord {
                    time_us: entry.time_us,
                    site: MONITOR_SITE.to_string(),
                    query: None,
                    hop: None,
                    event: if fired {
                        TraceEvent::AlertFired {
                            rule: rule.name.clone(),
                            value_milli: value,
                            threshold_milli,
                        }
                    } else {
                        TraceEvent::AlertResolved {
                            rule: rule.name.clone(),
                            value_milli: value,
                        }
                    },
                });
                state.alert_log.push(entry);
            }
        }
    }

    // ----- in-flight registry hooks (called from the engine) -----

    /// A query was admitted at its user site.
    pub fn admit(&self, id: &QueryId, now_us: u64) {
        let mut state = self.state.lock();
        state.admitted += 1;
        state.inflight.insert(
            id.clone(),
            Inflight {
                submitted_us: now_us,
                site: id.host.to_string(),
                ..Inflight::default()
            },
        );
    }

    /// A clone of the query arrived at `site` in `stage` at hop `hop`.
    pub fn clone_recv(&self, id: &QueryId, site: &str, stage: u32, hop: u32) {
        let mut state = self.state.lock();
        if let Some(entry) = state.inflight.get_mut(id) {
            entry.site = site.to_string();
            entry.stage = entry.stage.max(stage);
            entry.hops = entry.hops.max(hop);
            entry.clones_recv += 1;
        }
    }

    /// A processed clone forwarded to `fanout` successor sites.
    pub fn clone_sent(&self, id: &QueryId, fanout: u32) {
        let mut state = self.state.lock();
        if let Some(entry) = state.inflight.get_mut(id) {
            entry.fanout += u64::from(fanout);
        }
    }

    /// The query terminated (any reason — completion, shed, expiry).
    pub fn retire(&self, id: &QueryId) {
        let mut state = self.state.lock();
        if state.inflight.remove(id).is_some() {
            state.retired += 1;
        }
    }

    // ----- read side -----

    /// The configured window width, µs.
    pub fn window_us(&self) -> u64 {
        self.cfg.window_us
    }

    /// The closed windows currently in the ring, oldest first.
    pub fn windows(&self) -> Vec<WindowRow> {
        self.state.lock().windows.iter().cloned().collect()
    }

    /// Total closed windows (including any that aged out of the ring).
    pub fn windows_closed(&self) -> u64 {
        self.state.lock().closed
    }

    /// The full alert log, oldest first.
    pub fn alert_log(&self) -> Vec<AlertLogEntry> {
        self.state.lock().alert_log.clone()
    }

    /// Fired (`fired = true`) log entries for `rule`.
    pub fn fired_count(&self, rule: &str) -> u64 {
        self.state
            .lock()
            .alert_log
            .iter()
            .filter(|e| e.fired && e.rule == rule)
            .count() as u64
    }

    /// A point-in-time status snapshot: in-flight queries, active
    /// alerts, window/admission tallies.
    pub fn status(&self, now_us: u64) -> StatusSnapshot {
        let state = self.state.lock();
        let active_alerts: Vec<String> = self
            .cfg
            .rules
            .iter()
            .zip(state.rules.iter())
            .filter(|(_, rs)| rs.firing)
            .map(|(r, _)| r.name.clone())
            .collect();
        let inflight = state
            .inflight
            .iter()
            .map(|(id, e)| InflightStatus {
                user: id.user.to_string(),
                host: id.host.to_string(),
                port: id.port,
                query_num: id.query_num,
                submitted_us: e.submitted_us,
                age_us: now_us.saturating_sub(e.submitted_us),
                site: e.site.clone(),
                stage: e.stage,
                hops: e.hops,
                clones_recv: e.clones_recv,
                fanout: e.fanout,
            })
            .collect();
        StatusSnapshot {
            now_us,
            windows_closed: state.closed,
            admitted: state.admitted,
            retired: state.retired,
            active_alerts,
            inflight,
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Monitor")
            .field("window_us", &self.cfg.window_us)
            .field("closed", &state.closed)
            .field("inflight", &state.inflight.len())
            .field("alerts", &state.alert_log.len())
            .finish()
    }
}

/// `cur - base` for cumulative histograms: the observations that landed
/// between the two snapshots. The min/max pins cannot be windowed from
/// cumulative state, so the delta carries `min = 0` and the cumulative
/// max — its quantiles are bucket estimates, deterministic but without
/// the single-sample exactness of a full histogram.
fn delta_histogram(cur: &Histogram, base: &Histogram) -> Histogram {
    let mut d = Histogram {
        max: cur.max,
        ..Histogram::default()
    };
    for (slot, (&c, &b)) in d
        .counts
        .iter_mut()
        .zip(cur.counts.iter().zip(base.counts.iter()))
    {
        *slot = c.saturating_sub(b);
    }
    d.count = cur.count.saturating_sub(base.count);
    d.sum = cur.sum.saturating_sub(base.sum);
    d
}

impl Sampled {
    /// Later sample wins (counters and gauges are monotone); `old` only
    /// fills in series the newer snapshot no longer carries (it cannot
    /// happen with a registry, but keeps the fold total).
    fn merged_over(mut self, old: Sampled) -> Sampled {
        for (k, v) in old.counters {
            self.counters.entry(k).or_insert(v);
        }
        for (k, v) in old.gauges {
            self.gauges.entry(k).or_insert(v);
        }
        for (k, v) in old.hists {
            self.hists.entry(k).or_insert(v);
        }
        self
    }
}

/// A clonable, debuggable handle to a shared [`Monitor`] — this is what
/// travels inside `EngineConfig`.
#[derive(Clone, Debug)]
pub struct MonitorHandle(Arc<Monitor>);

impl MonitorHandle {
    /// A monitor with the given config, emitting alert events into
    /// `tracer` (pass the same handle the engine traces through, so
    /// alerts land in the same stream as everything else).
    pub fn new(cfg: MonitorConfig, tracer: TraceHandle) -> MonitorHandle {
        MonitorHandle(Arc::new(Monitor::new(cfg, tracer)))
    }

    /// The default config over a tracer (the common construction).
    pub fn with_defaults(tracer: TraceHandle) -> MonitorHandle {
        MonitorHandle::new(MonitorConfig::default(), tracer)
    }

    /// The shared monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.0
    }
}

impl std::ops::Deref for MonitorHandle {
    type Target = Monitor;

    fn deref(&self) -> &Monitor {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_trace::Registry;

    fn handle() -> MonitorHandle {
        MonitorHandle::with_defaults(TraceHandle::noop())
    }

    fn qid(num: u64) -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: num,
        }
    }

    #[test]
    fn windows_hold_counter_deltas_not_totals() {
        let m = handle();
        let r = Registry::new();
        r.count("query_recv", 3);
        m.ingest(100_000, &r.snapshot());
        r.count("query_recv", 5);
        m.ingest(200_000, &r.snapshot());
        r.count("query_recv", 1);
        m.ingest(300_000, &r.snapshot());
        let rows = m.windows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].index, 0);
        assert_eq!(rows[0].end_us, 100_000);
        assert_eq!(rows[0].counters["query_recv"], 3);
        assert_eq!(rows[1].counters["query_recv"], 5);
        assert_eq!(m.windows_closed(), 2);
    }

    #[test]
    fn quiet_gaps_become_zero_delta_windows() {
        let m = handle();
        let r = Registry::new();
        r.count("query_recv", 2);
        r.gauge_max("queue_depth_high_water", 4);
        m.ingest(100_000, &r.snapshot());
        // Next sample lands four windows later.
        r.count("query_recv", 1);
        m.ingest(500_000, &r.snapshot());
        m.finalize(500_000, &r.snapshot());
        let rows = m.windows();
        assert_eq!(rows.len(), 5, "gap windows are explicit");
        assert_eq!(rows[0].counters["query_recv"], 2);
        for gap in &rows[1..4] {
            assert!(gap.counters.is_empty(), "gap windows carry no deltas");
            assert_eq!(
                gap.gauges["queue_depth_high_water"], 4,
                "gauge marks persist through gaps"
            );
        }
        assert_eq!(rows[4].counters["query_recv"], 1);
    }

    #[test]
    fn windowed_quantiles_use_per_window_observations() {
        let m = handle();
        let r = Registry::new();
        for _ in 0..10 {
            r.observe("hop_latency_us", 10);
        }
        m.ingest(100_000, &r.snapshot());
        for _ in 0..10 {
            r.observe("hop_latency_us", 50_000);
        }
        m.ingest(200_000, &r.snapshot());
        m.finalize(200_000, &r.snapshot());
        let rows = m.windows();
        let w0 = &rows[0].quantiles["hop_latency_us"];
        let w1 = &rows[1].quantiles["hop_latency_us"];
        assert_eq!(w0.count, 10);
        assert_eq!(w1.count, 10, "second window sees only its own delta");
        assert!(w1.p95 > w0.p95 * 100, "{} vs {}", w1.p95, w0.p95);
    }

    #[test]
    fn shed_burst_fires_then_resolves_the_burn_rule() {
        let (collector, tracer) = TraceHandle::collecting(256);
        let m = MonitorHandle::with_defaults(tracer);
        let r = Registry::new();
        // Three windows of heavy shedding…
        for w in 1..=3u64 {
            r.count("query_shed", 4); // 40/s at a 100 ms window
            m.ingest(w * 100_000, &r.snapshot());
        }
        // …then six quiet windows.
        for w in 4..=9u64 {
            m.ingest(w * 100_000, &r.snapshot());
        }
        m.finalize(910_000, &r.snapshot());
        let log = m.alert_log();
        let shed: Vec<&AlertLogEntry> = log.iter().filter(|e| e.rule == "shed_rate_burn").collect();
        assert_eq!(shed.len(), 2, "{log:?}");
        assert!(shed[0].fired);
        assert_eq!(shed[0].window, 0, "fires on the first breached window");
        assert_eq!(shed[0].value_milli, 40_000);
        assert!(!shed[1].fired);
        assert!(shed[1].window >= 4, "resolves after clear windows: {log:?}");
        assert_eq!(m.fired_count("shed_rate_burn"), 1);
        // The transitions also landed in the trace stream.
        let events: Vec<String> = collector
            .snapshot()
            .iter()
            .map(|rec| rec.event.name().to_string())
            .collect();
        assert!(events.contains(&"alert_fired".to_string()));
        assert!(events.contains(&"alert_resolved".to_string()));
    }

    #[test]
    fn ratio_rules_skip_windows_without_samples() {
        let mut cfg = MonitorConfig {
            rules: vec![AlertRule {
                name: "hit_low".into(),
                signal: Signal::CounterRatio {
                    num: "cache.hit".into(),
                    den: vec!["cache.hit".into(), "cache.miss".into()],
                },
                condition: Condition::Below(500),
                for_windows: 2,
                clear_windows: 1,
                burn_windows: None,
            }],
            ..MonitorConfig::default()
        };
        cfg.window_us = 100_000;
        let m = MonitorHandle::new(cfg, TraceHandle::noop());
        let r = Registry::new();
        // Window 0: all misses (ratio 0) — breach 1 of 2.
        r.count("cache.miss", 4);
        m.ingest(100_000, &r.snapshot());
        // Windows 1..=3: no lookups at all — skipped, streak holds.
        for w in 2..=4u64 {
            m.ingest(w * 100_000, &r.snapshot());
        }
        assert!(m.alert_log().is_empty(), "skipped windows must not fire");
        // Window 4: misses again — breach 2 of 2, fires.
        r.count("cache.miss", 4);
        m.ingest(500_000, &r.snapshot());
        m.ingest(600_000, &r.snapshot());
        let log = m.alert_log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(log[0].fired);
    }

    #[test]
    fn same_feed_is_byte_identical() {
        let run = || {
            let m = handle();
            let r = Registry::new();
            for w in 1..=6u64 {
                r.count("query_shed", if w <= 2 { 3 } else { 0 });
                r.count("query_recv", w);
                r.observe("hop_latency_us", 100 * w);
                r.gauge_max("queue_depth_high_water", w);
                m.ingest(w * 100_000, &r.snapshot());
            }
            m.finalize(610_000, &r.snapshot());
            m.admit(&qid(1), 50);
            (m.series_json(), m.alert_log_json(), m.status_json(700_000))
        };
        assert_eq!(run(), run(), "same feed must reproduce byte-identically");
    }

    #[test]
    fn inflight_registry_tracks_lifecycle() {
        let m = handle();
        m.admit(&qid(1), 1_000);
        m.admit(&qid(2), 2_000);
        m.clone_recv(&qid(1), "site1.test", 0, 1);
        m.clone_recv(&qid(1), "site2.test", 1, 2);
        m.clone_sent(&qid(1), 3);
        let status = m.status(5_000);
        assert_eq!(status.admitted, 2);
        assert_eq!(status.retired, 0);
        assert_eq!(status.inflight.len(), 2);
        let q1 = &status.inflight[0];
        assert_eq!(q1.query_num, 1);
        assert_eq!(q1.site, "site2.test");
        assert_eq!(q1.stage, 1);
        assert_eq!(q1.hops, 2);
        assert_eq!(q1.clones_recv, 2);
        assert_eq!(q1.fanout, 3);
        assert_eq!(q1.age_us, 4_000);
        m.retire(&qid(1));
        m.retire(&qid(1)); // idempotent
        let status = m.status(6_000);
        assert_eq!(status.retired, 1);
        assert_eq!(status.inflight.len(), 1);
        assert_eq!(status.inflight[0].query_num, 2);
    }

    #[test]
    fn ring_caps_the_series_but_not_the_counts() {
        let cfg = MonitorConfig {
            ring_windows: 4,
            ..MonitorConfig::default()
        };
        let m = MonitorHandle::new(cfg, TraceHandle::noop());
        let r = Registry::new();
        for w in 1..=10u64 {
            r.count("query_recv", 1);
            m.ingest(w * 100_000, &r.snapshot());
        }
        assert_eq!(m.windows().len(), 4);
        assert_eq!(m.windows_closed(), 9);
        assert_eq!(m.windows()[0].index, 5, "oldest windows aged out");
    }
}

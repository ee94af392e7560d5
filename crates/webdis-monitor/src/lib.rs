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
//!   retired when its termination is recorded. The engine has no hook
//!   for it: [`Monitor`] is a [`Tracer`] that wraps the run's collecting
//!   tracer and folds the records passing through it into the table.
//! * **Alert rules** ([`AlertRule`]): declarative threshold and
//!   multi-window burn-rate conditions over the windowed signals. Each
//!   window close evaluates every rule in order; transitions emit
//!   `AlertFired`/`AlertResolved` trace events and append to a
//!   deterministic [`AlertLogEntry`] log.
//!
//! Everything is integer arithmetic (fixed-point milli-units for
//! fractional signals), `BTreeMap`-ordered, and driven exclusively by
//! timestamps handed in by the caller — record times and
//! [`Tracer::tick`]s — so the monitor never reads a clock, which is what
//! makes the sim-mode output reproducible.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;
use webdis_trace::{
    Histogram, QueryId, RegistrySnapshot, TraceEvent, TraceHandle, TraceRecord, Tracer,
};

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

/// Counters every monitor tracks as per-window deltas.
const COUNTERS: [&str; 6] = [
    "query_sent",
    "query_recv",
    "query_shed",
    "termination",
    "cache.hit",
    "cache.miss",
];

/// Gauges every monitor samples at window close.
const GAUGES: [&str; 3] = [
    "queue_depth_high_water",
    "log_len_high_water",
    "admission_occupancy_high_water",
];

/// Histograms every monitor tracks as per-window delta quantiles.
const HISTOGRAMS: [&str; 4] = [
    "hop_latency_us",
    "query_latency_us",
    "stage_us.queue_wait",
    "stage_us.eval",
];

/// Monitor configuration: window geometry and the rule set. The tracked
/// series are the same for every monitor (this module's `COUNTERS`,
/// `GAUGES` and `HISTOGRAMS`), plus every name a rule references.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Window width in microseconds.
    pub window_us: u64,
    /// Closed windows kept in the ring (older ones age out of the
    /// series view; the alert log and counts are never truncated).
    pub ring_windows: usize,
    /// The alert rules, evaluated in order at every window close.
    pub rules: Vec<AlertRule>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            window_us: 100_000,
            ring_windows: 64,
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
    /// Per client (a [`QueryId`] with `query_num` 0): the highest query
    /// number admitted. A client numbers its queries in submission order.
    high_water: BTreeMap<QueryId, u64>,
    admitted: u64,
    retired: u64,
}

impl MonitorState {
    /// Folds one record into the in-flight table: a hop-0 `QuerySent`
    /// admits (the user site shipping its first clones), `QueryRecv`,
    /// `EvalStart` and a forwarded `QuerySent` move the query, and the
    /// user site's `Termination` (the one with no hop) retires it.
    fn fold(&mut self, rec: &TraceRecord) {
        let Some(id) = &rec.query else { return };
        let relevant = match rec.event {
            TraceEvent::QuerySent { .. }
            | TraceEvent::QueryRecv { .. }
            | TraceEvent::EvalStart { .. } => true,
            TraceEvent::Termination { .. } => rec.hop.is_none(),
            _ => false,
        };
        if !relevant {
            return;
        }
        let Some(entry) = self.admit(id, rec) else {
            return;
        };
        match rec.event {
            TraceEvent::QuerySent { .. } if rec.hop == Some(0) => {
                entry.submitted_us = entry.submitted_us.min(rec.time_us);
            }
            TraceEvent::QuerySent { .. } => entry.fanout += 1,
            TraceEvent::QueryRecv { .. } => {
                entry.site.clone_from(&rec.site);
                entry.hops = entry.hops.max(rec.hop.unwrap_or(0));
                entry.clones_recv += 1;
            }
            TraceEvent::EvalStart { stage, .. } => entry.stage = entry.stage.max(stage),
            _ => {
                self.inflight.remove(id);
                self.retired += 1;
            }
        }
    }

    /// `id`'s entry, admitting it now if it is new. On TCP
    /// record order is not causal order: a daemon can record a clone's
    /// arrival before the user site records its send, so a record of an
    /// unknown query above its client's mark admits it. One at or below
    /// the mark is late — a duplicate clone or a report after completion
    /// — and is ignored.
    fn admit(&mut self, id: &QueryId, rec: &TraceRecord) -> Option<&mut Inflight> {
        if self.inflight.contains_key(id) {
            return self.inflight.get_mut(id);
        }
        let client = QueryId {
            query_num: 0,
            ..id.clone()
        };
        if matches!(self.high_water.get(&client), Some(&m) if id.query_num <= m) {
            return None;
        }
        self.high_water.insert(client, id.query_num);
        self.admitted += 1;
        let entry = Inflight {
            submitted_us: rec.time_us,
            site: id.host.to_string(),
            ..Inflight::default()
        };
        Some(self.inflight.entry(id.clone()).or_insert(entry))
    }
}

/// The monitor: owns the windowed series, the alert engine, and the
/// in-flight registry. It is a [`Tracer`] around the run's collecting
/// tracer — install it as the run's `EngineConfig::tracer` (through
/// `TraceHandle::new`) and every record reaches the inner handle after
/// passing through the in-flight table; alert records go straight to
/// the inner handle.
pub struct Monitor {
    cfg: MonitorConfig,
    tracer: TraceHandle,
    /// Union of the constant series names and rule-referenced names.
    tracked_counters: Vec<String>,
    tracked_gauges: Vec<String>,
    tracked_hists: Vec<String>,
    state: Mutex<MonitorState>,
}

impl Monitor {
    /// A monitor with the given config around `tracer`, which keeps the
    /// records and the registry the windows sample.
    pub fn new(cfg: MonitorConfig, tracer: TraceHandle) -> Monitor {
        let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let (mut counters, mut gauges, mut hists) =
            (names(&COUNTERS), names(&GAUGES), names(&HISTOGRAMS));
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

    /// Folds one registry snapshot into the series ([`Tracer::tick`]
    /// samples the inner registry through it). `now_us` is virtual time
    /// on the simulator, wall-clock µs on TCP; it must be monotone. The
    /// latest sample inside a window wins. Crossing a window boundary
    /// closes every window up to the current one (quiet gaps become
    /// explicit zero-delta windows, which is what lets burn rates decay
    /// and alerts resolve during silence) and evaluates the alert rules
    /// per closed window.
    pub fn ingest(&self, now_us: u64, snap: &RegistrySnapshot) {
        let sampled = self.sample(snap);
        let w = self.window_of(now_us);
        let mut state = self.state.lock();
        match state.cur.take() {
            None => state.cur = Some((w, sampled)),
            Some((cur_w, _)) if w <= cur_w => state.cur = Some((cur_w, sampled)),
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

    /// Samples at `now_us` and closes the open window, if any — the
    /// end-of-run flush, called by the run's owner once the run has
    /// returned, so the final partial window reaches the series and the
    /// alert engine.
    pub fn finalize(&self, now_us: u64) {
        self.tick(now_us);
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

impl Tracer for Monitor {
    fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn record(&self, record: TraceRecord) {
        let mut state = self.state.lock();
        state.fold(&record);
        // Held into the inner tracer's locks: a window close emits its
        // alerts the same way, so the two paths take them in one order.
        self.tracer.emit_with(|| record);
    }

    fn observe(&self, name: &str, value: u64) {
        self.tracer.observe(name, value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.tracer.gauge_max(name, value);
    }

    fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        self.tracer.registry_snapshot()
    }

    fn reset_high_water(&self) {
        self.tracer.reset_high_water();
    }

    fn tick(&self, now_us: u64) {
        if let Some(snapshot) = self.tracer.registry_snapshot() {
            self.ingest(now_us, &snapshot);
        }
        self.tracer.tick(now_us);
    }

    fn status_json(&self, now_us: u64) -> Option<String> {
        Some(self.status(now_us).to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_trace::Registry;

    fn handle() -> Monitor {
        Monitor::new(MonitorConfig::default(), TraceHandle::noop())
    }

    fn qid(num: u64) -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: num,
        }
    }

    /// One record of query `num`, as `site` would stamp it.
    fn rec(time_us: u64, site: &str, num: u64, hop: Option<u32>, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time_us,
            site: site.into(),
            query: Some(qid(num)),
            hop,
            event,
        }
    }

    fn sent(to_site: &str) -> TraceEvent {
        TraceEvent::QuerySent {
            to_site: to_site.into(),
            nodes: 1,
        }
    }

    const RECV: TraceEvent = TraceEvent::QueryRecv { nodes: 1 };

    fn done() -> TraceEvent {
        TraceEvent::Termination {
            reason: webdis_trace::TermReason::ChtComplete,
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
        m.finalize(500_000);
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
        m.finalize(200_000);
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
        let m = Monitor::new(MonitorConfig::default(), tracer);
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
        m.ingest(910_000, &r.snapshot());
        m.finalize(910_000);
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
        let m = Monitor::new(cfg, TraceHandle::noop());
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
            m.ingest(610_000, &r.snapshot());
            m.finalize(610_000);
            m.record(rec(50, "user.test", 1, Some(0), sent("a.test")));
            (m.series_json(), m.alert_log_json(), m.status_json(700_000))
        };
        assert_eq!(run(), run(), "same feed must reproduce byte-identically");
    }

    #[test]
    fn inflight_registry_tracks_lifecycle() {
        let m = handle();
        m.record(rec(1_000, "user.test", 1, Some(0), sent("site1.test")));
        m.record(rec(2_000, "user.test", 2, Some(0), sent("site1.test")));
        m.record(rec(1_100, "site1.test", 1, Some(1), RECV));
        let eval = |stage| TraceEvent::EvalStart {
            node: "n".into(),
            stage,
        };
        m.record(rec(1_100, "site1.test", 1, Some(1), eval(0)));
        for to in ["site2.test", "site3.test", "site4.test"] {
            m.record(rec(1_200, "site1.test", 1, Some(2), sent(to)));
        }
        m.record(rec(1_300, "site2.test", 1, Some(2), RECV));
        m.record(rec(1_300, "site2.test", 1, Some(2), eval(1)));
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
        // A server's passive termination carries a hop and retires nothing.
        m.record(rec(1_400, "site2.test", 1, Some(2), done()));
        assert_eq!(m.status(5_000).retired, 0);
        m.record(rec(1_500, "user.test", 1, None, done()));
        m.record(rec(1_600, "user.test", 1, None, done())); // late: ignored
        let status = m.status(6_000);
        assert_eq!(status.retired, 1);
        assert_eq!(status.inflight.len(), 1);
        assert_eq!(status.inflight[0].query_num, 2);
    }

    /// On TCP the first daemon can record a clone's arrival before the
    /// user site records the send that shipped it.
    #[test]
    fn a_receive_recorded_before_its_send_admits_once() {
        let m = handle();
        m.record(rec(120, "site1.test", 1, Some(0), RECV));
        m.record(rec(100, "user.test", 1, Some(0), sent("site1.test")));
        m.record(rec(100, "user.test", 1, Some(0), sent("site2.test")));
        let status = m.status(1_000);
        assert_eq!((status.admitted, status.retired), (1, 0));
        let q = &status.inflight[0];
        assert_eq!((q.submitted_us, q.clones_recv, q.hops), (100, 1, 0));
        assert_eq!(q.site, "site1.test");
        assert_eq!(q.fanout, 0, "the user site's sends are not a forward");
    }

    #[test]
    fn records_after_termination_create_no_entry() {
        let m = handle();
        m.record(rec(100, "user.test", 1, Some(0), sent("site1.test")));
        m.record(rec(200, "user.test", 1, None, done()));
        m.record(rec(300, "site1.test", 1, Some(0), RECV));
        let delete = TraceEvent::ChtDelete { node: "n".into() };
        m.record(rec(300, "user.test", 1, None, delete));
        let status = m.status(1_000);
        assert!(status.inflight.is_empty(), "{status:?}");
        assert_eq!((status.admitted, status.retired), (1, 1));
    }

    /// Every StartNode send refused: the user site terminates a query no
    /// clone of which ever left.
    #[test]
    fn a_termination_with_no_send_is_admitted_and_retired() {
        let m = handle();
        m.record(rec(100, "user.test", 1, None, done()));
        let status = m.status(1_000);
        assert!(status.inflight.is_empty(), "{status:?}");
        assert_eq!((status.admitted, status.retired), (1, 1));
    }

    /// `reset_high_water` zeroes a gauge mid-window; the window must close
    /// with the reset value, not the mark sampled before it.
    #[test]
    fn a_mid_window_reset_reaches_the_window() {
        let m = handle();
        let r = Registry::new();
        r.gauge_max("queue_depth_high_water", 5);
        m.ingest(20_000, &r.snapshot());
        r.reset_high_water();
        m.ingest(60_000, &r.snapshot());
        m.finalize(100_000);
        let rows = m.windows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].gauges.is_empty(), "{:?}", rows[0].gauges);
    }

    #[test]
    fn ring_caps_the_series_but_not_the_counts() {
        let cfg = MonitorConfig {
            ring_windows: 4,
            ..MonitorConfig::default()
        };
        let m = Monitor::new(cfg, TraceHandle::noop());
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

//! Structured tracing for the WEBDIS engine (zero external
//! dependencies, like the wire codec).
//!
//! The paper's entire evaluation rests on observing *where a shipped
//! query travelled, what each site did with it, and what it cost*. This
//! crate is that observability layer: a [`TraceEvent`] vocabulary
//! covering the engine lifecycle, a [`Tracer`] trait with a no-op sink
//! (zero cost when disabled) and a bounded ring-buffer collector, a
//! JSON-lines exporter/parser on the workspace's one JSON module
//! ([`json`]), a unified
//! metrics [`registry`], a [`trajectory`] reconstructor that folds
//! an event stream back into the per-query shipping tree of the
//! paper's Figure 1, and the [`doctor`] that turns a whole trace into a
//! diagnosis (`webdis-doctor`'s report, the chaos oracle's coherence
//! check).
//!
//! Both transports record through the same [`TraceHandle`]: the
//! simulator stamps virtual microseconds, the TCP runtime wall-clock
//! microseconds — trace consumers cannot tell the difference, which is
//! the point.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

pub use webdis_net::QueryId;

pub mod doctor;
pub mod expo;
pub mod json;
pub mod registry;
pub mod trajectory;

pub use expo::{AdminRoutes, MetricsExporter};
pub use registry::{Histogram, Registry, RegistrySnapshot};
pub use trajectory::Trajectory;

/// Why a query stopped at a site (terminal [`TraceEvent::Termination`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermReason {
    /// A server's report dispatch failed: the user site is gone, the
    /// server purged the query (Section 2.8).
    Passive,
    /// The user site's CHT drained: the query is complete.
    ChtComplete,
    /// The Dijkstra–Scholten ack wave collapsed back to the root.
    AckComplete,
    /// The user site's CHT drained only because stale entries were
    /// declared failed (Section 7.1 graceful recovery): the query is
    /// concluded with an explicit list of unresolved nodes.
    Expired,
    /// At least one server refused clones of this query under admission
    /// control: the query concluded, but part of its traversal was shed
    /// rather than processed (the shed nodes are listed explicitly —
    /// load shedding is never a silent hang).
    Shed,
}

impl TermReason {
    /// Stable lowercase name (used in the JSONL encoding).
    pub fn name(self) -> &'static str {
        match self {
            TermReason::Passive => "passive",
            TermReason::ChtComplete => "cht-complete",
            TermReason::AckComplete => "ack-complete",
            TermReason::Expired => "expired",
            TermReason::Shed => "shed",
        }
    }
}

/// One engine-lifecycle event. Event-specific payloads ride in the
/// variants; site, query, hop and time ride in the enclosing
/// [`TraceRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A query clone left this site for `to_site` (the record's `hop` is
    /// the hop count the clone carries, i.e. the receiver's hop).
    QuerySent {
        /// Destination site host.
        to_site: String,
        /// Destination nodes carried by the clone (optimization 4 batch).
        nodes: u32,
    },
    /// A query clone arrived at this site.
    QueryRecv {
        /// Destination nodes carried.
        nodes: u32,
    },
    /// A node-query evaluation is starting at `node`.
    EvalStart {
        /// The node under evaluation.
        node: String,
        /// Global stage index of the node-query.
        stage: u32,
    },
    /// The evaluation at `node` finished.
    EvalFinish {
        /// The evaluated node.
        node: String,
        /// Global stage index.
        stage: u32,
        /// Result rows produced.
        rows: u32,
        /// Whether the node answered (rows > 0).
        answered: bool,
        /// Microseconds this evaluation took: observed clock advance
        /// across the begin/end stamps plus the modeled `ProcModel`
        /// cost charged for it (virtual µs in SimNet, wall-clock µs in
        /// TcpNet).
        span_us: u64,
    },
    /// The clone advanced to the next node-query at the same node
    /// (Figure 1's "node 4 acts twice").
    StageTransition {
        /// The node where the transition happened.
        node: String,
        /// Stage the clone arrived in.
        from_stage: u32,
        /// Stage it continues with.
        to_stage: u32,
    },
    /// The log table recognised a duplicate arrival and dropped it.
    LogDuplicate {
        /// The node whose arrival was dropped.
        node: String,
        /// True for exact state identity, false for subsumption.
        exact: bool,
    },
    /// The log table applied the multiple-rewrite rule (`A*m·B`
    /// subsumption) to a superset arrival.
    LogRewrite {
        /// The rewritten node arrival.
        node: String,
    },
    /// A CHT entry was sent toward / merged at the user site ("weight
    /// send" of the completion protocol).
    ChtAdd {
        /// The entry's destination node.
        node: String,
    },
    /// A CHT entry was deleted at the user site ("weight return").
    ChtDelete {
        /// The entry's node.
        node: String,
    },
    /// A document was fetched into virtual relations (or served from the
    /// footnote-3 cache).
    DocFetch {
        /// The document URL.
        url: String,
        /// True when the parsed database was cached.
        cache_hit: bool,
        /// The document's content version at this visit — the owning
        /// site's content version when the document last changed. 0 on a
        /// frozen web (nothing ever changes), so legacy traces decode
        /// losslessly.
        content_version: u64,
    },
    /// A log-table purge ran.
    Purge {
        /// Records discarded.
        records: u32,
    },
    /// The query terminated at this site.
    Termination {
        /// Why.
        reason: TermReason,
    },
    /// Transport-level: a message crossed the network (recorded by the
    /// transport, not the engine; `bytes` is the exact wire size).
    MessageSent {
        /// Message kind (`query`, `report`, `ack`, `fetch`, `fetch-reply`).
        kind: String,
        /// Destination host.
        to: String,
        /// Encoded size in bytes.
        bytes: u32,
    },
    /// Transport-level: a message was lost by fault injection *instead*
    /// of being sent (no matching `MessageSent` is recorded, so
    /// trajectory reconstruction never sees a send with no possible
    /// receive).
    MessageDropped {
        /// Message kind.
        kind: String,
        /// Destination host the message never reached.
        to: String,
        /// Encoded size in bytes (metered separately from sent traffic).
        bytes: u32,
        /// Which fault dropped it (`random`, `link`, `partition`,
        /// `injected`).
        reason: String,
    },
    /// Transport-level: fault injection delivered a *second* copy of a
    /// message that was also sent normally (the extra copy; the
    /// original rides its own `MessageSent`). Exercises log-table and
    /// report idempotence end-to-end.
    MessageDuplicated {
        /// Message kind.
        kind: String,
        /// Destination host receiving the extra copy.
        to: String,
        /// Encoded size in bytes.
        bytes: u32,
    },
    /// Transport-level: fault injection corrupted a message's bytes in
    /// flight, so the receiver could not decode it — the message is
    /// lost like a drop, but through the `WireError` decode path. No
    /// matching `MessageSent` is recorded on the simulator (the frame
    /// never decodes), so trajectory reconstruction stays orphan-free.
    MessageCorrupted {
        /// Message kind.
        kind: String,
        /// Destination host the message never (legibly) reached.
        to: String,
        /// Encoded size in bytes.
        bytes: u32,
    },
    /// The user site declared a stale CHT entry failed (Section 7.1
    /// graceful recovery): no report for `node` arrived within the
    /// expiry timeout.
    EntryExpired {
        /// The unresolved node.
        node: String,
    },
    /// Transport-level: a send hit a transient error and is being
    /// retried with backoff (`attempt` counts retries, starting at 1).
    SendRetried {
        /// Message kind.
        kind: String,
        /// Destination host.
        to: String,
        /// Retry attempt number.
        attempt: u32,
    },
    /// A server's admission control refused a clone of a not-yet-admitted
    /// query (its in-flight limit was reached) and shed the load,
    /// reporting the affected nodes back instead of processing them.
    QueryShed {
        /// Destination nodes the shed clone carried.
        nodes: u32,
    },
    /// The site's answer cache served a node-query without evaluation
    /// (exactly or through subsumption replay).
    CacheHit {
        /// The node whose answer was served.
        node: String,
        /// False for an exact fingerprint hit, true when a cached
        /// subset's bindings were replayed through residual conjuncts.
        subsumed: bool,
        /// Result rows served.
        rows: u32,
    },
    /// The site's answer cache had nothing servable; the engine fell
    /// through to full evaluation (and then inserted the answer).
    CacheMiss {
        /// The node that was looked up.
        node: String,
    },
    /// The answer cache evicted an entry to stay inside its byte
    /// budget (cheapest-to-recompute first, LRU tie-break).
    CacheEvict {
        /// The evicted entry's node.
        node: String,
        /// Bytes released by this eviction.
        bytes: u32,
        /// Bytes still resident after the eviction.
        resident_bytes: u32,
    },
    /// Where this site's microseconds went while processing one clone,
    /// attributed per pipeline stage — emitted once per processed clone
    /// after the forward fan-out. Each stage combines observed clock
    /// advance across its begin/end stamps with the modeled `ProcModel`
    /// cost charged during it, so the durations are virtual µs on the
    /// simulator and wall-clock µs on TCP.
    StageSpans {
        /// Time the triggering message spent queued at this site before
        /// processing began — the backpressure span. Modeled (virtual,
        /// bit-deterministic) on the simulator: how long the delivery
        /// waited behind the site's busy window; wall-clock µs between
        /// channel enqueue and dequeue on TCP.
        queue_us: u64,
        /// Document fetch + HTML parse into virtual relations (the
        /// user site reports its DISQL parse here too, with the other
        /// stages zero).
        parse_us: u64,
        /// Log-table lookup / subsumption checks (Section 3.1.1).
        log_us: u64,
        /// Answer-cache consults: canonicalization, exact/subsumption
        /// lookups and insertions (zero when the cache is off).
        cache_us: u64,
        /// PRE match + node-query evaluation.
        eval_us: u64,
        /// The slice of `eval_us` spent in evaluations served by index
        /// probes (the planner found at least one applicable index).
        /// `eval_probe_us + eval_scan_us <= eval_us` — the remainder is
        /// traversal overhead around the evaluator; the split is
        /// attribution detail, not an extra pipeline stage.
        eval_probe_us: u64,
        /// The slice of `eval_us` spent in evaluations that fell back to
        /// the cross-product scan on every level.
        eval_scan_us: u64,
        /// Result and report assembly + dispatch to the user site.
        build_us: u64,
        /// Clone assembly + forward fan-out to successor sites.
        forward_us: u64,
    },
    /// The monitor's alert-rule engine found a rule's condition
    /// satisfied for its required consecutive windows and opened the
    /// alert. Values are fixed-point milli-units (the registry is
    /// float-free); the record's `site` is the synthetic `monitor`
    /// site and it carries no query identity.
    AlertFired {
        /// The firing rule's name (stable, declarative).
        rule: String,
        /// The observed signal value, in milli-units.
        value_milli: u64,
        /// The rule's threshold, in milli-units.
        threshold_milli: u64,
    },
    /// A previously fired alert's condition cleared for its required
    /// consecutive windows and the alert closed.
    AlertResolved {
        /// The resolving rule's name.
        rule: String,
        /// The observed signal value at resolution, in milli-units.
        value_milli: u64,
    },
    /// The living web changed under the engine: one mutation of the
    /// seeded schedule landed. Recorded by the mutation driver (the
    /// record's `site` is the mutated site's host) with no query
    /// identity — the change is concurrent with, not caused by, any
    /// in-flight query.
    WebMutation {
        /// Operation label (`edit_page`, `delete_page`, `add_anchor`,
        /// `remove_anchor`, `create_page`, `site_leave`, `site_join`).
        op: String,
        /// Primary URL affected (a site-wide op records the site root).
        url: String,
        /// The site's content version after the mutation.
        site_version: u64,
    },
    /// A clone arrived at a page that was deleted mid-query (link rot):
    /// the traversal terminates here gracefully with a dead-link report
    /// instead of an error or a hang.
    DeadLink {
        /// The vanished destination node.
        node: String,
        /// The site content version at which the page was deleted.
        version: u64,
    },
}

/// The clone pipeline's stage names, in pipeline order — the one place
/// they are spelled; they double as registry histogram suffixes
/// (`stage_us.<name>`). `queue_wait` leads: it is the backpressure span —
/// time the clone's message waited before the pipeline started — and is
/// excluded from busy-time accounting (the site is
/// idle-or-otherwise-occupied while a message queues, not busy on it).
pub const STAGES: [&str; 7] = [
    "queue_wait",
    "parse",
    "log",
    "cache_lookup",
    "eval",
    "build",
    "forward",
];

/// The probe-vs-scan sub-spans of the `eval` stage, histogram suffixes
/// like [`STAGES`].
pub const EVAL_SPLIT: [&str; 2] = ["eval_probe", "eval_scan"];

/// Every `stage_us.*` histogram suffix: [`STAGES`], then [`EVAL_SPLIT`].
pub fn stage_histograms() -> impl Iterator<Item = &'static str> {
    STAGES.into_iter().chain(EVAL_SPLIT)
}

impl TraceEvent {
    /// The per-stage durations as `([`STAGES`] name, µs)` pairs, in
    /// pipeline order — `None` for every other event.
    ///
    /// Deliberately excludes the probe/scan *sub*-spans of `eval` (they
    /// would double-count eval time for any consumer summing stages as
    /// busy time, e.g. the doctor); see [`TraceEvent::eval_split`].
    pub fn stage_spans(&self) -> Option<[(&'static str, u64); 7]> {
        match *self {
            TraceEvent::StageSpans {
                queue_us,
                parse_us,
                log_us,
                cache_us,
                eval_us,
                build_us,
                forward_us,
                ..
            } => {
                let us = [
                    queue_us, parse_us, log_us, cache_us, eval_us, build_us, forward_us,
                ];
                Some(std::array::from_fn(|i| (STAGES[i], us[i])))
            }
            _ => None,
        }
    }

    /// The probe-vs-scan split of the `eval` stage as
    /// `([`EVAL_SPLIT`] name, µs)` pairs — `None` for every other event.
    pub fn eval_split(&self) -> Option<[(&'static str, u64); 2]> {
        match *self {
            TraceEvent::StageSpans {
                eval_probe_us,
                eval_scan_us,
                ..
            } => Some([
                (EVAL_SPLIT[0], eval_probe_us),
                (EVAL_SPLIT[1], eval_scan_us),
            ]),
            _ => None,
        }
    }
}

/// One stamped event: who, which query, which hop, when — plus the
/// event itself. `time_us` is virtual microseconds on the simulator and
/// wall-clock microseconds on TCP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event time in microseconds (virtual or wall).
    pub time_us: u64,
    /// Host of the acting site (query server host or user-site host).
    pub site: String,
    /// The query this event belongs to (None for transport events that
    /// carry no query identity, e.g. document fetches).
    pub query: Option<QueryId>,
    /// Hop number where known (clone hop count; None for user-side
    /// bookkeeping events).
    pub hop: Option<u32>,
    /// What happened.
    pub event: TraceEvent,
}

/// An event sink. Implementations must be cheap to call from the hot
/// path; expensive work belongs behind [`Tracer::enabled`].
pub trait Tracer: Send + Sync {
    /// True when records are actually kept; instrumentation skips all
    /// argument construction otherwise.
    fn enabled(&self) -> bool;
    /// Consumes one record.
    fn record(&self, record: TraceRecord);
    /// Feeds one histogram observation into the sink's metrics registry
    /// (for engine-side quantities with no natural event, like per-site
    /// fan-out). The default discards it.
    fn observe(&self, _name: &str, _value: u64) {}
    /// Raises a named high-water-mark gauge to `value` if larger (e.g.
    /// the peak log-table length under sustained load). The default
    /// discards it.
    fn gauge_max(&self, _name: &str, _value: u64) {}
    /// A point-in-time copy of the sink's metrics registry, if it keeps
    /// one — the scrape path for live exposition. The default has none.
    fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        None
    }
    /// Resets every high-water-mark gauge in the sink's registry to
    /// zero (the explicit admin path — scrapes never reset anything).
    /// The default has no registry and does nothing.
    fn reset_high_water(&self) {}
}

/// The zero-cost disabled sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _record: TraceRecord) {}
}

/// A bounded ring-buffer collector: keeps the most recent `capacity`
/// records and feeds the unified metrics [`Registry`] as events arrive.
pub struct CollectingTracer {
    inner: Mutex<Ring>,
    registry: Registry,
}

struct Ring {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position once the buffer is full.
    head: usize,
    /// Total records ever recorded (dropped = total - kept).
    total: u64,
    /// Outstanding clone sends awaiting their receive, keyed by
    /// (query, destination site, hop): the send times, oldest first, for
    /// the hop-latency histogram. One key can have several sends in
    /// flight — two parents forwarding one query to one site at one hop.
    in_flight: std::collections::BTreeMap<(QueryId, String, u32), VecDeque<u64>>,
}

impl CollectingTracer {
    /// A collector keeping the latest `capacity` records.
    pub fn new(capacity: usize) -> CollectingTracer {
        CollectingTracer {
            inner: Mutex::new(Ring {
                buf: Vec::new(),
                capacity: capacity.max(1),
                head: 0,
                total: 0,
                in_flight: std::collections::BTreeMap::new(),
            }),
            registry: Registry::with_engine_metrics(),
        }
    }

    /// The records currently held, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let ring = self.inner.lock();
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() == ring.capacity {
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
        } else {
            out.extend_from_slice(&ring.buf);
        }
        out
    }

    /// Total records recorded, including any that fell off the ring.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().total
    }

    /// The unified metrics registry fed by this tracer.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Exports the held records as JSON lines.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&json::encode_record(&r));
            out.push('\n');
        }
        out
    }
}

impl Tracer for CollectingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn observe(&self, name: &str, value: u64) {
        self.registry.observe(name, value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.registry.gauge_max(name, value);
    }

    fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        Some(self.registry.snapshot())
    }

    fn reset_high_water(&self) {
        self.registry.reset_high_water();
    }

    fn record(&self, record: TraceRecord) {
        self.registry.count(record.event.name(), 1);
        match &record.event {
            TraceEvent::MessageSent { kind, bytes, .. } => {
                self.registry.observe("message_bytes", u64::from(*bytes));
                // Per-message-type wire accounting, mirroring the
                // transport-side `WireCounters` for sinks that only see
                // the event stream.
                self.registry.count(&format!("wire.{kind}.msgs"), 1);
                self.registry
                    .count(&format!("wire.{kind}.bytes"), u64::from(*bytes));
            }
            TraceEvent::MessageDropped { kind, bytes, .. } => {
                self.registry.observe("dropped_bytes", u64::from(*bytes));
                self.registry.count(&format!("wire.{kind}.dropped_msgs"), 1);
                self.registry
                    .count(&format!("wire.{kind}.dropped_bytes"), u64::from(*bytes));
            }
            TraceEvent::MessageDuplicated { kind, bytes, .. } => {
                self.registry
                    .count(&format!("wire.{kind}.duplicated_msgs"), 1);
                self.registry
                    .count(&format!("wire.{kind}.duplicated_bytes"), u64::from(*bytes));
            }
            TraceEvent::MessageCorrupted { kind, bytes, .. } => {
                self.registry
                    .count(&format!("wire.{kind}.corrupted_msgs"), 1);
                self.registry
                    .count(&format!("wire.{kind}.corrupted_bytes"), u64::from(*bytes));
            }
            TraceEvent::EvalFinish { rows, span_us, .. } => {
                self.registry.observe("eval_rows", u64::from(*rows));
                self.registry.observe("eval_span_us", *span_us);
            }
            TraceEvent::CacheHit { subsumed, rows, .. } => {
                self.registry.count("cache.hit", 1);
                if *subsumed {
                    self.registry.count("cache.hit.subsumed", 1);
                }
                self.registry.observe("cache.hit_rows", u64::from(*rows));
            }
            TraceEvent::CacheMiss { .. } => {
                self.registry.count("cache.miss", 1);
            }
            TraceEvent::CacheEvict {
                bytes,
                resident_bytes,
                ..
            } => {
                self.registry.count("cache.evict", 1);
                self.registry
                    .count("cache.evicted_bytes", u64::from(*bytes));
                // High-water of what was resident *before* this eviction
                // freed space (eviction implies the budget was tight).
                self.registry.gauge_max(
                    "cache.bytes",
                    u64::from(*resident_bytes) + u64::from(*bytes),
                );
            }
            event @ TraceEvent::StageSpans { .. } => {
                for (stage, us) in event.stage_spans().expect("matched StageSpans") {
                    self.registry.observe(&format!("stage_us.{stage}"), us);
                    self.registry
                        .observe(&format!("stage_us.{stage}.{}", record.site), us);
                }
                for (stage, us) in event.eval_split().expect("matched StageSpans") {
                    self.registry.observe(&format!("stage_us.{stage}"), us);
                    self.registry
                        .observe(&format!("stage_us.{stage}.{}", record.site), us);
                }
            }
            _ => {}
        }
        let mut ring = self.inner.lock();
        // Hop latency: match each clone receive to the earliest
        // outstanding send of its query, site and hop.
        match (&record.event, &record.query, record.hop) {
            (TraceEvent::QuerySent { to_site, .. }, Some(id), Some(hop)) => {
                let key = (id.clone(), to_site.clone(), hop);
                ring.in_flight
                    .entry(key)
                    .or_default()
                    .push_back(record.time_us);
            }
            (TraceEvent::QueryRecv { .. }, Some(id), Some(hop)) => {
                let key = (id.clone(), record.site.clone(), hop);
                let sends = ring.in_flight.get_mut(&key);
                if let Some(sent_at) = sends.and_then(VecDeque::pop_front) {
                    if ring.in_flight[&key].is_empty() {
                        ring.in_flight.remove(&key);
                    }
                    self.registry
                        .observe("hop_latency_us", record.time_us.saturating_sub(sent_at));
                }
            }
            _ => {}
        }
        ring.total += 1;
        if ring.buf.len() < ring.capacity {
            ring.buf.push(record);
        } else {
            let head = ring.head;
            ring.buf[head] = record;
            ring.head = (head + 1) % ring.capacity;
        }
    }
}

/// A clonable, debuggable handle to a shared tracer — this is what
/// travels inside `EngineConfig` and the transports.
#[derive(Clone)]
pub struct TraceHandle(Arc<dyn Tracer>);

impl TraceHandle {
    /// The disabled handle (the default everywhere).
    pub fn noop() -> TraceHandle {
        TraceHandle(Arc::new(NoopTracer))
    }

    /// A handle around any sink.
    pub fn new(tracer: Arc<dyn Tracer>) -> TraceHandle {
        TraceHandle(tracer)
    }

    /// A fresh ring-buffer collector plus its handle.
    pub fn collecting(capacity: usize) -> (Arc<CollectingTracer>, TraceHandle) {
        let collector = Arc::new(CollectingTracer::new(capacity));
        let handle = TraceHandle(Arc::<CollectingTracer>::clone(&collector) as Arc<dyn Tracer>);
        (collector, handle)
    }

    /// True when records are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Records the event built by `make` — `make` runs only when the
    /// sink is enabled, so the disabled path costs one virtual call.
    #[inline]
    pub fn emit_with(&self, make: impl FnOnce() -> TraceRecord) {
        if self.0.enabled() {
            self.0.record(make());
        }
    }

    /// Feeds a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if self.0.enabled() {
            self.0.observe(name, value);
        }
    }

    /// Raises a high-water-mark gauge (no-op when disabled).
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if self.0.enabled() {
            self.0.gauge_max(name, value);
        }
    }

    /// A live copy of the sink's metrics registry, when it keeps one
    /// (the scrape path for `/metrics` and mid-run snapshots).
    pub fn registry_snapshot(&self) -> Option<RegistrySnapshot> {
        self.0.registry_snapshot()
    }

    /// Resets every high-water-mark gauge in the sink's registry (the
    /// explicit admin path; no-op for sinks without a registry).
    pub fn reset_high_water(&self) {
        self.0.reset_high_water();
    }
}

impl Default for TraceHandle {
    fn default() -> TraceHandle {
        TraceHandle::noop()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid(num: u64) -> QueryId {
        QueryId {
            user: "t".into(),
            host: "user.test".into(),
            port: 9,
            query_num: num,
        }
    }

    fn rec(time_us: u64, site: &str, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time_us,
            site: site.into(),
            query: Some(qid(1)),
            hop: Some(1),
            event,
        }
    }

    #[test]
    fn noop_records_nothing_and_reports_disabled() {
        let handle = TraceHandle::noop();
        assert!(!handle.enabled());
        let mut built = false;
        handle.emit_with(|| {
            built = true;
            rec(0, "a.test", TraceEvent::QueryRecv { nodes: 1 })
        });
        assert!(!built, "record constructor must not run when disabled");
    }

    /// Acceptance guard: the disabled sink must add no measurable
    /// overhead to the hot path. Timing is only meaningful with
    /// optimizations, so the test is a no-op in debug builds — run it
    /// via `cargo test --release` (CI does).
    #[test]
    fn disabled_sink_is_effectively_free() {
        if cfg!(debug_assertions) {
            return;
        }
        let handle = TraceHandle::noop();
        const N: u64 = 10_000_000;
        let start = std::time::Instant::now();
        for i in 0..N {
            std::hint::black_box(&handle)
                .emit_with(|| rec(i, "a.test", TraceEvent::QueryRecv { nodes: 1 }));
        }
        let elapsed = start.elapsed();
        // The call is one inlined flag check (~1 ns); 20 ns/call leaves
        // ample margin for noisy CI machines.
        assert!(
            elapsed.as_nanos() < u128::from(N) * 20,
            "no-op sink too slow: {elapsed:?} for {N} calls"
        );
    }

    #[test]
    fn collector_keeps_events_in_order() {
        let (collector, handle) = TraceHandle::collecting(16);
        for i in 0..5 {
            handle.emit_with(|| rec(i, "a.test", TraceEvent::QueryRecv { nodes: 1 }));
        }
        let snap = collector.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        assert_eq!(collector.total_recorded(), 5);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let (collector, handle) = TraceHandle::collecting(3);
        for i in 0..10 {
            handle.emit_with(|| rec(i, "a.test", TraceEvent::QueryRecv { nodes: 1 }));
        }
        let snap = collector.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.iter().map(|r| r.time_us).collect::<Vec<_>>(),
            vec![7, 8, 9],
            "ring keeps the newest records, oldest first"
        );
        assert_eq!(collector.total_recorded(), 10);
    }

    #[test]
    fn hop_latency_is_derived_from_send_recv_pairs() {
        let (collector, handle) = TraceHandle::collecting(16);
        handle.emit_with(|| TraceRecord {
            time_us: 100,
            site: "user.test".into(),
            query: Some(qid(1)),
            hop: Some(0),
            event: TraceEvent::QuerySent {
                to_site: "a.test".into(),
                nodes: 1,
            },
        });
        handle.emit_with(|| TraceRecord {
            time_us: 400,
            site: "a.test".into(),
            query: Some(qid(1)),
            hop: Some(0),
            event: TraceEvent::QueryRecv { nodes: 1 },
        });
        let snapshot = collector.registry().snapshot();
        let hist = snapshot
            .histogram("hop_latency_us")
            .expect("histogram exists");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 300);
    }

    /// Two sends at 0 and 5µs, received at 100 and 105µs, are two hops
    /// of 100µs each — whether two users' query #1 went to one site at
    /// one hop, or two parents forwarded one query there. Keyed by
    /// query number alone, the first shape paired the second send with
    /// the first receive (one observation of 95µs).
    #[test]
    fn hop_latency_pairs_each_receive_with_its_own_query_earliest_send() {
        let hop = |time_us, user: &str, event| TraceRecord {
            time_us,
            site: "a.test".into(),
            query: Some(QueryId {
                user: user.into(),
                ..qid(1)
            }),
            hop: Some(1),
            event,
        };
        let sent = || TraceEvent::QuerySent {
            to_site: "a.test".into(),
            nodes: 1,
        };
        let recv = || TraceEvent::QueryRecv { nodes: 1 };
        for users in [["u1", "u2"], ["u1", "u1"]] {
            let (collector, handle) = TraceHandle::collecting(16);
            handle.emit_with(|| hop(0, users[0], sent()));
            handle.emit_with(|| hop(5, users[1], sent()));
            handle.emit_with(|| hop(100, users[0], recv()));
            handle.emit_with(|| hop(105, users[1], recv()));
            let snapshot = collector.registry().snapshot();
            let hist = snapshot.histogram("hop_latency_us").unwrap();
            assert_eq!((hist.count, hist.sum), (2, 200), "{users:?}");
            assert!(collector.inner.lock().in_flight.is_empty(), "{users:?}");
        }
    }

    #[test]
    fn registry_counts_event_names() {
        let (collector, handle) = TraceHandle::collecting(8);
        handle.emit_with(|| {
            rec(
                1,
                "a.test",
                TraceEvent::LogDuplicate {
                    node: "n".into(),
                    exact: true,
                },
            )
        });
        handle.emit_with(|| {
            rec(
                2,
                "a.test",
                TraceEvent::LogDuplicate {
                    node: "m".into(),
                    exact: false,
                },
            )
        });
        assert_eq!(collector.registry().snapshot().counter("log_duplicate"), 2);
    }

    #[test]
    fn stage_spans_feed_fleet_and_per_site_histograms() {
        let (collector, handle) = TraceHandle::collecting(16);
        let spans = |p, e| TraceEvent::StageSpans {
            queue_us: 7,
            parse_us: p,
            log_us: 1,
            cache_us: 0,
            eval_us: e,
            eval_probe_us: e / 2,
            eval_scan_us: e - e / 2,
            build_us: 0,
            forward_us: 2,
        };
        handle.emit_with(|| rec(10, "a.test", spans(100, 400)));
        handle.emit_with(|| rec(20, "b.test", spans(300, 800)));
        let snap = collector.registry().snapshot();

        let queue = snap.histogram("stage_us.queue_wait").unwrap();
        assert_eq!((queue.count, queue.sum), (2, 14));

        let fleet = snap.histogram("stage_us.eval").unwrap();
        assert_eq!((fleet.count, fleet.sum), (2, 1_200));
        let a = snap.histogram("stage_us.eval.a.test").unwrap();
        assert_eq!((a.count, a.sum), (1, 400));
        let b = snap.histogram("stage_us.parse.b.test").unwrap();
        assert_eq!((b.count, b.sum), (1, 300));
        assert_eq!(snap.counter("stage_spans"), 2);

        // Fleet-wide equals the merge of the per-site histograms.
        let mut merged = snap.histogram("stage_us.eval.a.test").unwrap().clone();
        merged.merge(snap.histogram("stage_us.eval.b.test").unwrap());
        assert_eq!(&merged, fleet);
    }

    #[test]
    fn registry_snapshot_surfaces_through_the_handle() {
        assert!(TraceHandle::noop().registry_snapshot().is_none());
        let (_collector, handle) = TraceHandle::collecting(4);
        handle.emit_with(|| {
            rec(
                5,
                "a.test",
                TraceEvent::EvalFinish {
                    node: "n".into(),
                    stage: 0,
                    rows: 3,
                    answered: true,
                    span_us: 250,
                },
            )
        });
        let snap = handle.registry_snapshot().expect("collector has one");
        assert_eq!(snap.histogram("eval_span_us").unwrap().sum, 250);
        assert_eq!(snap.counter("eval_finish"), 1);
    }
}

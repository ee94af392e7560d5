//! The query-server daemon (Sections 2.4, 2.5, 4.4; Figures 3 and 4).
//!
//! A server receives a [`QueryClone`] addressed to one or more nodes it
//! hosts and, for each admitted arrival:
//!
//! 1. consults the node-query **log table** (duplicates dropped,
//!    supersets rewritten — Section 3.1.1);
//! 2. builds the node's virtual relations in memory (the Database
//!    Constructor) and, whenever the remaining PRE *contains the null
//!    link* (is nullable), evaluates the pending node-query — an empty
//!    result makes the node a **dead end** (Figure 4, lines 3–4);
//! 3. a successful evaluation with node-queries remaining *continues at
//!    the same node* with the next PRE (this is how Figure 1's node 4
//!    "acts twice"), and the PRE's derivatives determine the links to
//!    forward along;
//! 4. forwards are batched one clone per destination **site**
//!    (optimization 4), with same-site destinations processed in place
//!    (footnote 4) so their results join the same report;
//! 5. the results-plus-CHT report is dispatched to the user site *before*
//!    any clone is forwarded, and forwarding happens only if that
//!    dispatch succeeded — the ordering that makes the CHT protocol and
//!    passive termination sound (Sections 2.7.1, 2.8).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use webdis_cache::AnswerCache;
use webdis_model::{SiteAddr, Url};
use webdis_net::{
    AckMsg, CloneState, Disposition, Message, NodeReport, QueryClone, QueryId, ResultReport,
};
use webdis_rel::NodeDb;
use webdis_trace::{TermReason, TraceEvent, TraceRecord};
use webdis_web::{DocStatus, FetchOutcome, LiveWeb, WebView};

use crate::config::{CompletionMode, EngineConfig};
use crate::logtable::LogTable;
use crate::network::{query_server_addr, Network, NetworkError};
use crate::visit::{
    admit, distinct_nodes, Arrival, Forward, ForwardGroups, TraverseCounters, VisitCtx,
};

/// Declares [`ServerStats`] and [`ServerStats::counters`] from one list
/// of documented counter names.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Per-server counters, the raw material of the ablation experiments.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// The counters as `(name, value)` pairs, for ingestion into a
            /// `webdis_trace::Registry` (the unified reporting surface).
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }
    };
}

server_stats! {
    /// Clone messages received.
    clones_received,
    /// Node arrivals processed (admitted past the log table).
    arrivals,
    /// Arrivals handled without a network hop (footnote 4).
    local_arrivals,
    /// Node-query evaluations performed.
    evaluations,
    /// Arrivals that produced at least one answer.
    answered,
    /// Arrivals that ended the traversal (failed evaluation, missing
    /// document, or no matching links).
    dead_ends,
    /// Arrivals dropped by the log table.
    duplicates_dropped,
    /// Superset arrivals processed with a rewritten PRE.
    rewrites,
    /// Documents parsed (Database Constructor invocations).
    docs_parsed,
    /// Arrivals served from the footnote-3 document cache.
    doc_cache_hits,
    /// Arrivals addressed to documents this site does not host.
    missing_docs,
    /// Arrivals at documents deleted after the link was followed
    /// (living-web link rot): each one terminates its branch with an
    /// explicit dead-link report instead of a hang or a phantom row.
    dead_links,
    /// Cache flushes triggered by a site content-version bump (the
    /// living-web hook behind `invalidate_cache`).
    cache_invalidations,
    /// Clone messages forwarded to other sites.
    clones_forwarded,
    /// Clones dropped by the hop-count safety valve.
    hop_limit_drops,
    /// Queries purged after a failed result dispatch (passive
    /// termination observed).
    terminated_queries,
    /// Forward attempts to sites with no query server.
    unreachable_sites,
    /// Node-query evaluation errors (should be zero after DISQL
    /// validation).
    eval_errors,
    /// Clones refused (and reported back) by admission control.
    queries_shed,
    /// Node-queries served from the answer cache (exact + subsumed).
    cache_hits,
    /// Answer-cache consults that fell through to evaluation.
    cache_misses,
    /// Answer-cache entries evicted for space.
    cache_evictions,
}

/// Everything this site remembers about one query between messages. An
/// entry exists only while one of its parts is in use, and
/// [`ServerEngine::purge_log`] retires it once the query has been idle
/// for a purge period.
#[derive(Debug, Default)]
struct QueryState {
    /// Time of the query's last clone arrival here.
    last_seen_us: u64,
    /// Holds an admission slot (only under admission control).
    admitted: bool,
    /// Known to be terminated (a result dispatch failed): clones still
    /// arriving for it are dropped without processing.
    purged: bool,
    /// Dijkstra–Scholten bookkeeping (ack-chain mode only): currently
    /// engaged in the spawn tree,
    engaged: bool,
    /// the engager, owed an ack when the subtree drains,
    parent: Option<SiteAddr>,
    /// and the forwarded clones not yet acknowledged.
    deficit: u64,
}

/// What [`ServerEngine::node_db`] found at a destination URL.
enum NodeLookup {
    /// The document is live: its parsed virtual relations, at the
    /// content version current at visit time.
    Found(Arc<NodeDb>),
    /// The document existed but was deleted (living-web link rot); the
    /// version is the site content version of the deletion.
    Deleted(u64),
    /// No document was ever hosted at this URL (a floating link).
    Missing,
}

/// One clone in flight through the log and visit stages.
struct Flight {
    clone: QueryClone,
    /// Node reports bound for the user site, in processing order.
    reports: Vec<NodeReport>,
    /// Admitted arrivals awaiting their visit.
    queue: VecDeque<Arrival>,
    /// Forwards to other sites.
    remote: ForwardGroups,
    /// Forward dedup across all arrivals of this message, so an entry is
    /// announced at most once and its clone sent at most once.
    seen_forward: BTreeSet<(Url, CloneState, usize)>,
}

/// The trace stamp of `clone`'s events: its query and hop.
fn at(clone: &QueryClone) -> Option<(&QueryId, u32)> {
    Some((&clone.id, clone.hops))
}

/// How a clone left the pipeline — all the ack chain needs to know.
enum Exit {
    /// Refused (terminated query, empty clone, shed), dropped silently,
    /// or cut short by passive termination.
    Released,
    /// Ran to completion, having forwarded this many clones.
    Forwarded(u64),
}

/// A WEBDIS query server for one site.
pub struct ServerEngine {
    site: SiteAddr,
    /// The documents this site serves, read at the version current at
    /// visit time.
    web: WebView,
    config: EngineConfig,
    log: LogTable,
    /// Per-query state: admission slots, terminated queries, ack chains.
    queries: BTreeMap<QueryId, QueryState>,
    /// Footnote-3 cache of parsed node databases, indexed by document
    /// URL for O(1) hits and carrying the content version each build
    /// parsed. Empty when `config.doc_cache_size == 0`.
    doc_cache: HashMap<Url, (Arc<NodeDb>, u64)>,
    /// Insertion order of the cached documents — the FIFO eviction queue
    /// (footnote 3 pins FIFO, not LRU: a hit does not refresh an entry).
    doc_cache_fifo: VecDeque<Url>,
    /// Time of the last periodic log purge.
    last_purge_us: u64,
    /// Sequence number of the last result report shipped (dedupe key at
    /// the user site, paired with this site's hostname). Derived from
    /// the clock on every draw so a crash-restarted daemon never reuses
    /// a sequence number the network may still be carrying.
    report_seq: u64,
    /// Per-stage latency attribution for the clone currently being
    /// processed; reset by the receive stage and emitted as one
    /// [`TraceEvent::StageSpans`] at the pipeline's exit.
    span: StageAccum,
    /// Cross-query answer cache, present when `config.cache` is set.
    /// Consulted before every nullable-PRE evaluation; fed by every
    /// evaluation that completes.
    cache: Option<AnswerCache>,
    /// Highest site content version this engine has reacted to. Every
    /// clone arrival polls the site version; an advance flushes the
    /// answer cache (the documents its rows were derived from may have
    /// changed) and bumps `cache_invalidations`. It stays 0 while
    /// nothing mutates the web.
    seen_site_version: u64,
    /// Counters.
    pub stats: ServerStats,
    /// `admission_occupancy.<host>`, built once: the gauge is raised on
    /// every admitted clone, tracer or no tracer.
    occupancy_key: String,
    /// [`query_server_addr`] of this site (where its clones are acked)
    /// and of every site forwarded to so far: an address is rendered once
    /// per engine, not once per clone.
    daemon: SiteAddr,
    daemons: HashMap<SiteAddr, SiteAddr>,
}

/// Where one clone's processing microseconds went. Each stage records
/// the clock advance observed across its begin/end stamps plus the
/// modeled `ProcModel` cost charged during it: on the simulator the
/// clock is frozen inside a handler, so the modeled cost *is* the
/// duration; on TCP `work` is a no-op, so the wall-clock advance is.
#[derive(Debug, Default, Clone, Copy)]
struct StageAccum {
    queue_us: u64,
    parse_us: u64,
    log_us: u64,
    /// Answer-cache consults: lookups, subsumption replays, insertions
    /// (zero when the cache is off).
    cache_us: u64,
    eval_us: u64,
    /// Slice of `eval_us` spent in evaluations the planner served from
    /// index probes. Together with `eval_scan_us` this covers each
    /// evaluation's own span; the (TCP-only) remainder of `eval_us` is
    /// traversal overhead around the evaluator.
    eval_probe_us: u64,
    /// Slice of `eval_us` spent in evaluations that fell back to the
    /// cross-product scan on every level.
    eval_scan_us: u64,
    build_us: u64,
    forward_us: u64,
}

impl ServerEngine {
    /// Creates the server for `site` over `web`: documents are fetched
    /// at their version current at visit time, and a site
    /// content-version bump flushes the answer cache.
    pub fn new(site: SiteAddr, web: impl Into<WebView>, config: EngineConfig) -> ServerEngine {
        let cache = config.cache.clone().map(AnswerCache::new);
        ServerEngine {
            occupancy_key: format!("admission_occupancy.{}", site.host),
            daemon: query_server_addr(&site),
            site,
            web: web.into(),
            config,
            cache,
            log: LogTable::new(),
            queries: BTreeMap::new(),
            doc_cache: HashMap::new(),
            doc_cache_fifo: VecDeque::new(),
            last_purge_us: 0,
            report_seq: 0,
            span: StageAccum::default(),
            seen_site_version: 0,
            stats: ServerStats::default(),
            daemons: HashMap::new(),
        }
    }

    /// [`ServerEngine::new`] over a shared living web, kept under its own
    /// name because the wall-clock benchmark (`hwbench/`) calls it.
    pub fn new_live(site: SiteAddr, web: Arc<LiveWeb>, config: EngineConfig) -> ServerEngine {
        ServerEngine::new(site, web, config)
    }

    fn daemon_of(&mut self, site: &SiteAddr) -> SiteAddr {
        let known = self.daemons.entry(site.clone());
        known.or_insert_with(|| query_server_addr(site)).clone()
    }

    /// Next report sequence number. Strictly increasing across the
    /// engine's lifetime *and* across restarts: each draw is at least
    /// `now_us * 1000`, so after a crash window (during which time
    /// advances) a fresh engine's first sequence number is already past
    /// anything the dead incarnation could have shipped.
    fn next_report_seq(&mut self, now_us: u64) -> u64 {
        self.report_seq = (self.report_seq + 1).max(now_us.saturating_mul(1000));
        self.report_seq
    }

    /// Crash-restart: the daemon comes back with its volatile state —
    /// log table, per-query state (purge set, admission slots, ack
    /// bookkeeping), document cache — wiped, exactly what a process
    /// respawn loses. Counters survive (they model the harness's
    /// measurement plane, not daemon memory) and the report sequence
    /// stays monotone via the clock floor in [`next_report_seq`].
    ///
    /// [`next_report_seq`]: ServerEngine::next_report_seq
    pub fn restart(&mut self) {
        self.log = LogTable::new();
        self.queries.clear();
        self.doc_cache.clear();
        self.doc_cache_fifo.clear();
        self.last_purge_us = 0;
        self.span = StageAccum::default();
        // The answer cache is volatile daemon memory too: a respawned
        // site starts cold and recomputes until it re-warms.
        if let Some(cache) = &mut self.cache {
            cache.clear();
        }
        // A respawned daemon reads the web at whatever version it is
        // *now*; its cold caches need no catch-up invalidation for
        // mutations that happened while it was down.
        self.seen_site_version = self.web.site_version(&self.site.host);
    }

    /// Drops every answer-cache entry inserted so far by bumping the
    /// site content version — the "living web" hook a site calls when
    /// its documents change. A no-op without a cache.
    pub fn invalidate_cache(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.invalidate();
        }
    }

    /// The answer cache's counters, when one is configured.
    pub fn cache_stats(&self) -> Option<webdis_cache::CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Bytes resident in the answer cache, when one is configured.
    pub fn cache_resident_bytes(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.resident_bytes())
    }

    /// The site this server is responsible for.
    pub fn site(&self) -> &SiteAddr {
        &self.site
    }

    /// Current number of log-table records (experiment T3/T4 probe).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Purges log records older than `before_us` (the periodic purge of
    /// Section 3.1.1; the harness decides the period), and with them the
    /// per-query state of queries whose last clone arrived before the
    /// cutoff: a query idle for a whole purge period holds no work here,
    /// so keeping its admission slot would starve new arrivals forever
    /// and keeping its record would leak one entry per query. Only a
    /// live ack chain outlasts idleness — it still owes its parent an
    /// ack or is owed some. A terminated query's chain died with its
    /// user site; should a clone of it arrive after its record is gone,
    /// it is processed afresh, fails its result dispatch and is purged
    /// again: recomputation only, the log table's own bargain.
    pub fn purge_log(&mut self, before_us: u64) -> usize {
        self.queries.retain(|_, q| {
            if q.last_seen_us >= before_us {
                return true;
            }
            q.admitted = false;
            !q.purged && (q.engaged || q.deficit > 0)
        });
        self.log.purge(before_us)
    }

    /// Queries currently holding an admission slot (0 when admission
    /// control is off).
    pub fn active_queries(&self) -> usize {
        self.queries.values().filter(|q| q.admitted).count()
    }

    /// Stamps one trace event at this site and the transport's current
    /// time, for the clone `at` (query, hop) if any; built only when the
    /// tracer is on.
    fn trace(
        &self,
        net: &dyn Network,
        at: Option<(&QueryId, u32)>,
        event: impl FnOnce() -> TraceEvent,
    ) {
        self.config.tracer.emit_with(|| TraceRecord {
            time_us: net.now_us(),
            site: self.site.host.to_string(),
            query: at.map(|(id, _)| id.clone()),
            hop: at.map(|(_, hop)| hop),
            event: event(),
        });
    }

    /// Dispatches node reports to the user site under a fresh sequence
    /// number. No reports, nothing to say: no message.
    fn ship(
        &mut self,
        net: &mut dyn Network,
        id: &QueryId,
        reports: Vec<NodeReport>,
    ) -> Result<(), NetworkError> {
        if reports.is_empty() {
            return Ok(());
        }
        let report = ResultReport {
            id: id.clone(),
            origin: self.site.host.clone(),
            seq: self.next_report_seq(net.now_us()),
            reports,
        };
        net.send(&id.reply_to(), Message::Report(report))
    }

    /// Handles one incoming message.
    pub fn on_message(&mut self, net: &mut dyn Network, msg: Message) {
        // Section 3.1.1's periodic purge, driven by message arrivals (the
        // daemon has no timer of its own): entries older than one period
        // are discarded. Over-eager settings cost recomputation only.
        if let Some(period) = self.config.log_purge_us {
            let now = net.now_us();
            if now.saturating_sub(self.last_purge_us) >= period {
                self.last_purge_us = now;
                let records = self.purge_log(now.saturating_sub(period)) as u32;
                self.trace(net, None, || TraceEvent::Purge { records });
            }
        }
        match msg {
            Message::Query(clone) => self.process_clone(net, clone),
            Message::Ack(ack) => self.on_ack(net, ack.id),
            Message::Report(_) | Message::Fetch(_) | Message::FetchReply(_) => {
                // A query server answers no fetch (the site's plain web
                // server does) and receives no reports or replies.
            }
        }
    }

    /// The clone pipeline (Figures 3 and 4). Every received clone leaves
    /// by the one exit below — refused, dropped and terminated ones too,
    /// so their partial spans (queue wait, any log work) reach the
    /// `stage_us` histograms instead of admission pressure being
    /// systematically undercounted, and the ack chain is settled once.
    fn process_clone(&mut self, net: &mut dyn Network, clone: QueryClone) {
        let (id, hops, sender) = (clone.id.clone(), clone.hops, clone.ack_to());
        self.receive(net, &clone);
        let exit = self.run_stages(net, clone);
        self.emit_stage_spans(net, &id, hops);
        self.settle(net, &id, &sender, exit);
    }

    /// The stages after receive: admit → log → fetch/parse → cache/eval →
    /// build report → forward.
    fn run_stages(&mut self, net: &mut dyn Network, clone: QueryClone) -> Exit {
        if !self.admit(net, &clone) {
            return Exit::Released;
        }
        let mut flight = Flight {
            clone,
            reports: Vec::new(),
            queue: VecDeque::new(),
            remote: ForwardGroups::default(),
            seen_forward: BTreeSet::new(),
        };
        self.log_stage(net, &mut flight);
        self.visit_stage(net, &mut flight);
        let Flight {
            clone,
            reports,
            remote,
            ..
        } = flight;
        let forward_t0 = net.now_us();
        let clones = remote.sorted().into_clones(
            &clone.id,
            &clone.stages,
            clone.stage_offset,
            clone.hops + 1,
            &self.daemon,
            self.config.batch_per_site,
        );
        self.span.forward_us += net.now_us().saturating_sub(forward_t0);
        let Some(reports) = self.outbound(reports, clones.len()) else {
            return Exit::Released;
        };
        // Section 2.7.1 ordering: ship (results, CHT) first; forward only
        // if the dispatch succeeded.
        if !self.report_stage(net, &clone, reports) {
            return Exit::Released;
        }
        Exit::Forwarded(self.forward_stage(net, &clone, clones))
    }

    /// Receive stage (Figure 3's receive loop): counts the clone, reacts
    /// to a web that changed, opens the stage spans, announces the
    /// arrival.
    fn receive(&mut self, net: &mut dyn Network, clone: &QueryClone) {
        self.stats.clones_received += 1;
        // Living-web invalidation: if this site's content version moved
        // since the last clone, the answer cache's rows may no longer be
        // derivable from the current documents — flush it before any
        // lookup. (The footnote-3 doc cache is validated per-hit instead,
        // so builds of untouched documents survive the bump.)
        let version = self.web.site_version(&self.site.host);
        if version != self.seen_site_version {
            self.seen_site_version = version;
            self.stats.cache_invalidations += 1;
            self.invalidate_cache();
        }
        self.span = StageAccum {
            // Backpressure attribution: how long this clone's message sat
            // in the inbound queue before the pipeline started.
            queue_us: net.queue_wait_us(),
            ..StageAccum::default()
        };
        self.trace(net, at(clone), || TraceEvent::QueryRecv {
            nodes: clone.dest_nodes.len() as u32,
        });
        if let Some(monitor) = &self.config.monitor {
            monitor.clone_recv(&clone.id, &self.site.host, clone.stage_offset, clone.hops);
        }
    }

    /// Admit stage: says whether the clone may be processed. Clones of a
    /// terminated query and clones with nothing left to run are dead on
    /// arrival. Under admission control a clone of a query not yet in
    /// flight here is refused outright when the site is full; the
    /// refusal is never silent — every destination node is reported back
    /// as shed so the user site clears its CHT entries (or, under ack
    /// chains, the sender is released) and the query concludes with
    /// `TermReason::Shed` instead of hanging.
    fn admit(&mut self, net: &mut dyn Network, clone: &QueryClone) -> bool {
        let now = net.now_us();
        let (purged, admitted) = match self.queries.get_mut(&clone.id) {
            Some(q) => {
                q.last_seen_us = now;
                (q.purged, q.admitted)
            }
            None => (false, false),
        };
        if purged || clone.stages.is_empty() {
            return false;
        }
        let Some(max_queries) = self.config.admission else {
            return true;
        };
        let held = self.active_queries();
        if !admitted && held >= max_queries {
            self.stats.queries_shed += 1;
            let nodes = distinct_nodes(&clone.dest_nodes);
            self.trace(net, at(clone), || TraceEvent::QueryShed {
                nodes: nodes.len() as u32,
            });
            let state = clone.state();
            let reports = nodes
                .into_iter()
                .map(|node| NodeReport::empty(node, state.clone(), Disposition::Shed))
                .collect();
            let _ = self.ship(net, &clone.id, reports);
            return false;
        }
        let q = self.queries.entry(clone.id.clone()).or_default();
        q.admitted = true;
        q.last_seen_us = now;
        // Admission occupancy: in-flight queries holding a slot at this
        // site, as a high-water gauge next to the queue-depth gauges the
        // transports raise.
        let occupancy = (held + usize::from(!admitted)) as u64;
        let tracer = &self.config.tracer;
        tracer.gauge_max(&self.occupancy_key, occupancy);
        tracer.gauge_max("admission_occupancy_high_water", occupancy);
        true
    }

    /// Log stage: every distinct destination node goes through the log
    /// table — unless the clone has crossed too many sites, in which case
    /// the safety valve dead-ends them all.
    fn log_stage(&mut self, net: &mut dyn Network, flight: &mut Flight) {
        let state = flight.clone.state();
        let hop_exceeded = flight.clone.hops >= self.config.max_hops;
        for node in distinct_nodes(&flight.clone.dest_nodes) {
            if hop_exceeded {
                self.stats.hop_limit_drops += 1;
                let report = NodeReport::empty(node, state.clone(), Disposition::DeadEnd);
                flight.reports.push(report);
            } else {
                self.log_check(net, flight, node, state.clone(), 0);
            }
        }
    }

    /// Runs one arrival through the log table; admitted arrivals join the
    /// visit queue, duplicates are dropped. Drops are reported in strict
    /// CHT mode, and — in any mode — when the matching log record is a
    /// stage continuation the user's CHT never saw (the user cannot
    /// mirror such drops, so silence would leave its entry uncleared).
    fn log_check(
        &mut self,
        net: &mut dyn Network,
        flight: &mut Flight,
        node: Url,
        state: CloneState,
        stage_idx: usize,
    ) {
        let (log, mode, id) = (&mut self.log, self.config.log_mode, &flight.clone.id);
        let log_t0 = net.now_us();
        let outcome = admit(log, mode, id, node, state, stage_idx, log_t0);
        self.span.log_us += net.now_us().saturating_sub(log_t0);
        match outcome {
            Ok(arrival) => {
                if arrival.rewritten {
                    self.stats.rewrites += 1;
                    self.trace(net, at(&flight.clone), || TraceEvent::LogRewrite {
                        node: arrival.node.to_string(),
                    });
                }
                flight.queue.push_back(arrival);
            }
            Err(dup) => {
                self.stats.duplicates_dropped += 1;
                self.trace(net, at(&flight.clone), || TraceEvent::LogDuplicate {
                    node: dup.node.to_string(),
                    exact: dup.exact,
                });
                // Silence is only safe for exact-state duplicates dropped
                // via CHT-visible records: that verdict is symmetric, so
                // the user's skip rule mirrors it under any merge order.
                let strict = self.config.completion == CompletionMode::ChtStrict;
                if strict || dup.hidden || !dup.exact {
                    let report = NodeReport::empty(dup.node, dup.state, Disposition::Duplicate);
                    flight.reports.push(report);
                }
            }
        }
    }

    /// Visits every admitted arrival in turn. Forwards that stay on this
    /// site are processed in place (footnote 4), so their results join
    /// the same report.
    fn visit_stage(&mut self, net: &mut dyn Network, flight: &mut Flight) {
        while let Some(arrival) = flight.queue.pop_front() {
            self.stats.arrivals += 1;
            for forward in self.visit_arrival(net, flight, arrival) {
                self.stats.local_arrivals += 1;
                self.log_check(
                    net,
                    flight,
                    forward.target,
                    forward.state,
                    forward.stage_idx,
                );
            }
        }
    }

    /// One arrival at one node (Figure 4's `process`): the fetch/parse
    /// stage, then the cache/eval stage in the shared visit core. The
    /// node's report joins the flight's and its remote forwards the
    /// flight's groups; the forwards that stay on this site are returned.
    fn visit_arrival(
        &mut self,
        net: &mut dyn Network,
        flight: &mut Flight,
        arrival: Arrival,
    ) -> Vec<Forward> {
        let db = match self.node_db(net, &arrival.node) {
            NodeLookup::Found(db) => db,
            gone => {
                self.stats.dead_ends += 1;
                let disposition = if let NodeLookup::Deleted(version) = gone {
                    // Link rot: the page was deleted after the link
                    // pointing here was followed. The branch terminates
                    // gracefully — an explicit dead-link report clears
                    // the CHT entry, so the query completes (never hangs)
                    // and ships no phantom rows from the vanished
                    // revision.
                    self.stats.dead_links += 1;
                    self.trace(net, at(&flight.clone), || TraceEvent::DeadLink {
                        node: arrival.node.to_string(),
                        version,
                    });
                    Disposition::DeadLink
                } else {
                    // A floating link pointed here: nothing to process.
                    self.stats.missing_docs += 1;
                    Disposition::DeadEnd
                };
                let report = NodeReport::empty(arrival.node, arrival.announced_state, disposition);
                flight.reports.push(report);
                return Vec::new();
            }
        };
        let eval_t0 = net.now_us();
        let clock = || net.now_us();
        let visited = VisitCtx {
            config: &self.config,
            site: &self.site.host,
            hop: Some(flight.clone.hops),
            id: &flight.clone.id,
            db: &db,
            stages: &flight.clone.stages,
            offset: flight.clone.stage_offset,
            log: &mut self.log,
            cache: self.cache.as_mut(),
            now_us: eval_t0,
            clock: &clock,
            counters: TraverseCounters::default(),
        }
        .visit(arrival, &mut flight.seen_forward);
        self.charge(net, eval_t0, &visited.counters);
        match visited.report.disposition {
            Disposition::Answered => self.stats.answered += 1,
            Disposition::DeadEnd => self.stats.dead_ends += 1,
            _ => {}
        }
        // Announce each forward exactly once, and split local vs remote.
        let mut local = Vec::new();
        for forward in visited.forwards {
            self.trace(net, at(&flight.clone), || TraceEvent::ChtAdd {
                node: forward.target.to_string(),
            });
            if self.config.local_forwarding && forward.target.site() == self.site {
                local.push(forward);
            } else {
                flight.remote.push(forward);
            }
        }
        flight.reports.push(visited.report);
        local
    }

    /// Charges one visit's work to the processor model, the stage spans
    /// and the counters.
    fn charge(&mut self, net: &mut dyn Network, eval_t0: u64, c: &TraverseCounters) {
        let eval_us = self.config.proc.eval_us;
        net.work(eval_us * c.evaluations);
        // Cache consults are charged their own (sub-eval) modeled cost;
        // served evaluations never pay `proc.eval_us` — that skip is the
        // entire win.
        if let Some(cache) = &self.cache {
            let lookup_cost = cache.policy().lookup_us * c.cache_lookups;
            net.work(lookup_cost);
            self.span.cache_us += c.cache_wall_us + lookup_cost;
        }
        let wall = net.now_us().saturating_sub(eval_t0);
        self.span.eval_us += wall.saturating_sub(c.cache_wall_us) + eval_us * c.evaluations;
        self.span.eval_probe_us += c.probe_wall_us + eval_us * c.probed_evals;
        self.span.eval_scan_us += c.scan_wall_us + eval_us * c.scanned_evals;
        self.stats.evaluations += c.evaluations;
        self.stats.eval_errors += c.eval_errors;
        self.stats.duplicates_dropped += c.duplicates_dropped;
        self.stats.rewrites += c.rewrites;
        self.stats.cache_hits += c.cache_hits;
        self.stats.cache_misses += c.cache_misses;
        self.stats.cache_evictions += c.cache_evictions;
    }

    /// Fetch/parse stage: builds (or retrieves from the footnote-3
    /// cache) the virtual relations for one node, charging the parse
    /// cost to the processor.
    ///
    /// The consistency contract of the living web lives here: a cached
    /// build is served only if its content version still matches the
    /// document's current status, so every visit answers from the
    /// version current at visit time. Deleted documents come back as
    /// [`NodeLookup::Deleted`] so the caller can report a dead link.
    fn node_db(&mut self, net: &mut dyn Network, node: &Url) -> NodeLookup {
        let parse_t0 = net.now_us();
        let found = match self.cached_doc(net, node) {
            Some(found) => found,
            None => self.parse_doc(net, node),
        };
        self.span.parse_us += net.now_us().saturating_sub(parse_t0);
        found
    }

    /// What the footnote-3 cache can say about `node`; `None` when it
    /// holds no current build and the document must be fetched.
    fn cached_doc(&mut self, net: &mut dyn Network, node: &Url) -> Option<NodeLookup> {
        let (db, version) = self.doc_cache.get(node).cloned()?;
        // `validate_doc_cache == false` reproduces the historic
        // unvalidated hit path (the staleness bug the chaos oracle
        // demonstrates); while nothing mutates the web both answers
        // agree, since versions never move.
        let status = if self.config.validate_doc_cache {
            self.web.doc_status(node)
        } else {
            DocStatus::Present(version)
        };
        if status == DocStatus::Present(version) {
            self.stats.doc_cache_hits += 1;
            self.trace(net, None, || TraceEvent::DocFetch {
                url: node.to_string(),
                cache_hit: true,
                content_version: version,
            });
            return Some(NodeLookup::Found(db));
        }
        // Deleted, edited (version moved) or vanished: drop the stale
        // build; anything but a deletion falls through to a fresh fetch.
        self.doc_cache.remove(node);
        self.doc_cache_fifo.retain(|u| u != node);
        match status {
            DocStatus::Deleted(current) => Some(NodeLookup::Deleted(current)),
            _ => None,
        }
    }

    /// The Database Constructor: fetches and parses `node`, retaining
    /// the build when the footnote-3 cache is on.
    fn parse_doc(&mut self, net: &mut dyn Network, node: &Url) -> NodeLookup {
        let (html, version) = match self.web.fetch(node) {
            FetchOutcome::Found { html, version } => (html, version),
            FetchOutcome::Deleted { version } => return NodeLookup::Deleted(version),
            FetchOutcome::Missing => return NodeLookup::Missing,
        };
        self.stats.docs_parsed += 1;
        self.trace(net, None, || TraceEvent::DocFetch {
            url: node.to_string(),
            cache_hit: false,
            content_version: version,
        });
        let parse_cost = self.config.proc.parse_cost_us(html.len());
        net.work(parse_cost);
        self.span.parse_us += parse_cost;
        let db = Arc::new(NodeDb::parse(node, &html));
        if self.config.doc_cache_size > 0 {
            if self.doc_cache_fifo.len() >= self.config.doc_cache_size {
                if let Some(evicted) = self.doc_cache_fifo.pop_front() {
                    self.doc_cache.remove(&evicted);
                }
            }
            self.doc_cache
                .insert(node.clone(), (Arc::clone(&db), version));
            self.doc_cache_fifo.push_back(node.clone());
        }
        NodeLookup::Found(db)
    }

    /// The completion protocol's say in what a clone tells the user site
    /// — with [`settle`], the one place that knows the CHT from the ack
    /// chain. `forwards` is the number of clones about to leave; `None`
    /// means there is nothing to say or send and the clone leaves
    /// silently (the paper's CHT mode, every arrival an exact duplicate).
    ///
    /// [`settle`]: ServerEngine::settle
    fn outbound(&self, mut reports: Vec<NodeReport>, forwards: usize) -> Option<Vec<NodeReport>> {
        if self.config.completion == CompletionMode::AckChain {
            // Under ack chains no CHT travels: strip bookkeeping and only
            // ship reports that actually carry rows.
            for r in &mut reports {
                r.new_entries.clear();
            }
            reports.retain(|r| !r.results.is_empty());
        } else if reports.is_empty() && forwards == 0 {
            return None;
        }
        Some(reports)
    }

    /// Build-report stage: ships the results-plus-CHT report. A refused
    /// dispatch is the passive termination signal of Section 2.8 — the
    /// query is purged and `false` returned, so nothing is forwarded.
    fn report_stage(
        &mut self,
        net: &mut dyn Network,
        clone: &QueryClone,
        reports: Vec<NodeReport>,
    ) -> bool {
        let build_t0 = net.now_us();
        let shipped = self.ship(net, &clone.id, reports).is_ok();
        if !shipped {
            self.stats.terminated_queries += 1;
            self.trace(net, at(clone), || TraceEvent::Termination {
                reason: TermReason::Passive,
            });
            let q = self.queries.entry(clone.id.clone()).or_default();
            q.purged = true;
            q.admitted = false;
            q.last_seen_us = build_t0;
            self.log.purge_query(&clone.id);
        }
        self.span.build_us += net.now_us().saturating_sub(build_t0);
        shipped
    }

    /// Forward stage: dispatches the outgoing clones and returns how many
    /// left. A destination site with no query server does not
    /// participate (Section 7.1); the entries announced for it must not
    /// be left to dangle: in hybrid mode the nodes are handed back to
    /// the user site for centralized processing, otherwise they are
    /// reported as dead ends.
    fn forward_stage(
        &mut self,
        net: &mut dyn Network,
        clone: &QueryClone,
        clones: Vec<(SiteAddr, QueryClone)>,
    ) -> u64 {
        // Fan-out histogram: how many distinct sites this processing
        // forwarded to (0 when the traversal ended here).
        if self.config.tracer.enabled() || self.config.monitor.is_some() {
            let sites: BTreeSet<&str> = clones.iter().map(|(s, _)| &*s.host).collect();
            self.config
                .tracer
                .observe("site_fanout", sites.len() as u64);
            if let Some(monitor) = &self.config.monitor {
                monitor.clone_sent(&clone.id, sites.len() as u32);
            }
        }
        let fanout_t0 = net.now_us();
        let mut forwarded = 0;
        let mut failed: Vec<NodeReport> = Vec::new();
        let unreachable = if self.config.hybrid {
            Disposition::Handoff
        } else {
            Disposition::DeadEnd
        };
        for (site, qc) in clones {
            // Kept for the refusal below: the message is gone once sent.
            let (state, dests) = (qc.state(), qc.dest_nodes.clone());
            let daemon = self.daemon_of(&site);
            if net.send(&daemon, Message::Query(qc)).is_ok() {
                forwarded += 1;
                self.stats.clones_forwarded += 1;
                self.trace(net, Some((&clone.id, clone.hops + 1)), || {
                    TraceEvent::QuerySent {
                        to_site: site.host.to_string(),
                        nodes: dests.len() as u32,
                    }
                });
            } else {
                self.stats.unreachable_sites += 1;
                failed.extend(
                    dests
                        .into_iter()
                        .map(|dest| NodeReport::empty(dest, state.clone(), unreachable)),
                );
            }
        }
        if let Some(failed) = self.outbound(failed, 0) {
            let _ = self.ship(net, &clone.id, failed);
        }
        self.span.forward_us += net.now_us().saturating_sub(fanout_t0);
        forwarded
    }

    /// The ack chain's share of the exit (nothing under the CHT), run
    /// exactly once per received clone. Dijkstra–Scholten: the first
    /// clone of a query to run to completion here makes its sender our
    /// parent, acknowledged only when everything this site forwarded for
    /// the query has been — at once if that is nothing. Every other
    /// clone releases its sender right away: a later clone of an engaged
    /// query (the work it spawned counts against *our* engagement), and
    /// refused, dropped or terminated ones (even dead clones must be
    /// acknowledged, or the sender's subtree never drains — and with it
    /// the whole upstream tree of a dying query).
    fn settle(&mut self, net: &mut dyn Network, id: &QueryId, sender: &SiteAddr, exit: Exit) {
        if self.config.completion != CompletionMode::AckChain {
            return;
        }
        if let Exit::Forwarded(forwarded) = exit {
            let q = self.queries.entry(id.clone()).or_default();
            q.last_seen_us = net.now_us();
            q.deficit += forwarded;
            if !q.engaged {
                q.engaged = true;
                q.parent = Some(sender.clone());
                return self.disengage(net, id);
            }
        }
        let _ = net.send(sender, Message::Ack(AckMsg { id: id.clone() }));
    }

    /// Acknowledges the spawn-tree parent and disengages once the
    /// subtree has drained (ack-chain mode).
    fn disengage(&mut self, net: &mut dyn Network, id: &QueryId) {
        if let Some(q) = self.queries.get_mut(id) {
            if q.engaged && q.deficit == 0 {
                q.engaged = false;
                if let Some(parent) = q.parent.take() {
                    let _ = net.send(&parent, Message::Ack(AckMsg { id: id.clone() }));
                }
            }
        }
    }

    /// Handles a child's subtree-termination ack (ack-chain mode).
    fn on_ack(&mut self, net: &mut dyn Network, id: QueryId) {
        if let Some(q) = self.queries.get_mut(&id) {
            q.deficit = q.deficit.saturating_sub(1);
        }
        self.disengage(net, &id);
    }

    /// Emits the accumulated per-stage breakdown for the clone whose
    /// pipeline just finished, and resets the accumulator.
    fn emit_stage_spans(&mut self, net: &mut dyn Network, id: &QueryId, hop: u32) {
        let span = std::mem::take(&mut self.span);
        self.trace(net, Some((id, hop)), || TraceEvent::StageSpans {
            queue_us: span.queue_us,
            parse_us: span.parse_us,
            log_us: span.log_us,
            cache_us: span.cache_us,
            eval_us: span.eval_us,
            eval_probe_us: span.eval_probe_us,
            eval_scan_us: span.eval_scan_us,
            build_us: span.build_us,
            forward_us: span.forward_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_web::{HostedWeb, PageBuilder};

    fn web() -> Arc<HostedWeb> {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("Alpha needle")
                .para("alpha body")
                .link("/sub.html", "local")
                .link("http://b.test/", "global"),
        );
        web.insert_page("http://a.test/sub.html", PageBuilder::new("Sub needle"));
        web.insert_page("http://b.test/", PageBuilder::new("Beta"));
        Arc::new(web)
    }

    fn site(h: &str) -> SiteAddr {
        SiteAddr {
            host: h.into(),
            port: 80,
        }
    }

    fn qid() -> QueryId {
        QueryId {
            user: "t".into(),
            host: "user.test".into(),
            port: 9,
            query_num: 7,
        }
    }

    fn clone_msg(pre: &str, dests: &[&str]) -> QueryClone {
        let q = webdis_disql::parse_disql(&format!(
            r#"select d.url from document d such that "http://a.test/" {pre} d
               where d.title contains "needle""#
        ))
        .unwrap();
        QueryClone {
            id: qid(),
            dest_nodes: dests.iter().map(|d| Url::parse(d).unwrap()).collect(),
            rem_pre: q.stages[0].pre.clone(),
            stages: q.stages,
            stage_offset: 0,
            hops: 0,
            ack_host: "user.test".into(),
            ack_port: 9,
        }
    }

    fn server() -> ServerEngine {
        ServerEngine::new(site("a.test"), web(), EngineConfig::default())
    }

    fn cached_server() -> ServerEngine {
        let cfg = EngineConfig {
            cache: Some(webdis_cache::CachePolicy::default()),
            ..EngineConfig::default()
        };
        ServerEngine::new(site("a.test"), web(), cfg)
    }

    /// Sends one clone of a fresh query (`num`) and returns the node
    /// reports it shipped (the user-visible outcome, minus the per-send
    /// sequence number).
    fn run_query(s: &mut ServerEngine, num: u64) -> Vec<NodeReport> {
        let mut net = RecordingNetwork::default();
        let mut c = clone_msg("L*", &["http://a.test/"]);
        c.id.query_num = num;
        s.on_message(&mut net, Message::Query(c));
        net.sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r.reports.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn answer_cache_serves_repeat_queries_with_identical_reports() {
        let mut cached = cached_server();
        let mut uncached = server();

        let first = run_query(&mut cached, 1);
        let evals_after_first = cached.stats.evaluations;
        assert!(cached.stats.cache_misses > 0);
        assert_eq!(cached.stats.cache_hits, 0);

        let second = run_query(&mut cached, 2);
        assert_eq!(
            cached.stats.evaluations, evals_after_first,
            "an identical follow-up query must be served without evaluation"
        );
        assert!(cached.stats.cache_hits > 0);

        // The cached engine's reports match the uncached engine's exactly
        // — rows, order, dispositions, CHT entries.
        assert_eq!(first, run_query(&mut uncached, 1));
        assert_eq!(second, run_query(&mut uncached, 2));
        assert_eq!(first, second);
    }

    #[test]
    fn restart_leaves_the_answer_cache_cold() {
        let mut s = cached_server();
        run_query(&mut s, 1);
        let misses = s.stats.cache_misses;
        assert!(s.cache_resident_bytes().unwrap() > 0);

        s.restart();
        assert_eq!(s.cache_resident_bytes(), Some(0));
        let rows = run_query(&mut s, 2);
        assert_eq!(s.stats.cache_hits, 0, "cold cache recomputes");
        assert!(s.stats.cache_misses > misses);
        assert_eq!(rows, run_query(&mut server(), 2));
    }

    #[test]
    fn cache_invalidation_forces_recomputation() {
        let mut s = cached_server();
        let first = run_query(&mut s, 1);
        s.invalidate_cache();
        let evals = s.stats.evaluations;
        let second = run_query(&mut s, 2);
        assert_eq!(s.stats.cache_hits, 0, "invalidated entries cannot serve");
        assert!(s.stats.evaluations > evals);
        assert_eq!(first, second);
        // A third run hits the re-inserted entries.
        run_query(&mut s, 3);
        assert!(s.stats.cache_hits > 0);
    }

    #[test]
    fn report_is_sent_before_clones() {
        // Section 2.7.1 ordering: the (results, CHT) report must precede
        // any forwarded clone.
        let mut net = RecordingNetwork::default();
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
        );
        assert!(net.sent.len() >= 2);
        assert!(matches!(net.sent[0].1, Message::Report(_)), "report first");
        assert!(net
            .sent
            .iter()
            .skip(1)
            .all(|(_, m)| matches!(m, Message::Query(_))));
        // The clone to b.test goes to its query daemon address.
        assert_eq!(net.sent[1].0, query_server_addr(&site("b.test")));
    }

    #[test]
    fn local_destinations_fold_into_one_report() {
        let mut net = RecordingNetwork::default();
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("L*", &["http://a.test/"])),
        );
        // Both a.test documents processed in one message: one report with
        // two node reports, no clone to a.test itself.
        let Message::Report(report) = &net.sent[0].1 else {
            panic!()
        };
        assert_eq!(report.reports.len(), 2);
        assert!(net
            .sent
            .iter()
            .all(|(to, _)| to != &query_server_addr(&site("a.test"))));
        assert_eq!(s.stats.local_arrivals, 1);
    }

    #[test]
    fn failed_report_dispatch_purges_query() {
        let mut net = RecordingNetwork {
            unreachable: vec![site("user.test")],
            ..RecordingNetwork::default()
        };
        net.unreachable[0].port = 9; // the reply endpoint
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
        );
        assert!(
            net.sent.is_empty(),
            "nothing forwarded after a failed report"
        );
        assert_eq!(s.stats.terminated_queries, 1);
        // Subsequent clones of the same query are dropped outright.
        let mut net2 = RecordingNetwork::default();
        s.on_message(
            &mut net2,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/sub.html"])),
        );
        assert!(net2.sent.is_empty());
        assert_eq!(s.log_len(), 0, "log purged for the terminated query");
    }

    #[test]
    fn hop_limit_reports_dead_ends() {
        let mut net = RecordingNetwork::default();
        let cfg = EngineConfig {
            max_hops: 2,
            ..EngineConfig::default()
        };
        let mut s = ServerEngine::new(site("a.test"), web(), cfg);
        let mut clone = clone_msg("(L|G)*", &["http://a.test/"]);
        clone.hops = 2;
        s.on_message(&mut net, Message::Query(clone));
        let Message::Report(report) = &net.sent[0].1 else {
            panic!()
        };
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].disposition, Disposition::DeadEnd);
        assert_eq!(s.stats.hop_limit_drops, 1);
        assert_eq!(s.stats.arrivals, 0, "nothing was processed");
    }

    #[test]
    fn unreachable_forward_reports_dead_end_or_handoff() {
        // b.test's daemon is unreachable.
        let mut net = RecordingNetwork {
            unreachable: vec![query_server_addr(&site("b.test"))],
            ..RecordingNetwork::default()
        };
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
        );
        // Two reports: the processing report, then the supplementary one
        // clearing the b.test entry.
        let reports: Vec<_> = net
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[1].reports[0].disposition, Disposition::DeadEnd);
        assert_eq!(s.stats.unreachable_sites, 1);

        // In hybrid mode the same situation hands off instead.
        let mut net = RecordingNetwork {
            unreachable: vec![query_server_addr(&site("b.test"))],
            ..RecordingNetwork::default()
        };
        let cfg = EngineConfig {
            hybrid: true,
            ..EngineConfig::default()
        };
        let mut s = ServerEngine::new(site("a.test"), web(), cfg);
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
        );
        let reports: Vec<_> = net
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reports[1].reports[0].disposition, Disposition::Handoff);
    }

    #[test]
    fn missing_document_is_dead_end_report() {
        let mut net = RecordingNetwork::default();
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/nonexistent.html"])),
        );
        let Message::Report(report) = &net.sent[0].1 else {
            panic!()
        };
        assert_eq!(report.reports[0].disposition, Disposition::DeadEnd);
        assert_eq!(s.stats.missing_docs, 1);
    }

    #[test]
    fn duplicate_dest_nodes_processed_once() {
        let mut net = RecordingNetwork::default();
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/", "http://a.test/"])),
        );
        let Message::Report(report) = &net.sent[0].1 else {
            panic!()
        };
        let own: Vec<_> = report
            .reports
            .iter()
            .filter(|r| r.node == Url::parse("http://a.test/").unwrap())
            .collect();
        assert_eq!(own.len(), 1);
    }

    #[test]
    fn unbatched_config_sends_one_clone_per_node() {
        let mut webx = HostedWeb::new();
        webx.insert_page(
            "http://a.test/",
            PageBuilder::new("Alpha needle")
                .link("http://b.test/x", "bx")
                .link("http://b.test/y", "by"),
        );
        webx.insert_page("http://b.test/x", PageBuilder::new("BX"));
        webx.insert_page("http://b.test/y", PageBuilder::new("BY"));
        let webx = Arc::new(webx);

        let count_clones = |batch: bool| {
            let mut net = RecordingNetwork::default();
            let cfg = EngineConfig {
                batch_per_site: batch,
                ..EngineConfig::default()
            };
            let mut s = ServerEngine::new(site("a.test"), Arc::clone(&webx), cfg);
            s.on_message(
                &mut net,
                Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
            );
            net.sent
                .iter()
                .filter(|(_, m)| matches!(m, Message::Query(_)))
                .count()
        };
        assert_eq!(count_clones(true), 1, "one clone for both b.test nodes");
        assert_eq!(count_clones(false), 2, "one clone per node");
    }

    #[test]
    fn admission_sheds_new_queries_when_full() {
        let mut net = RecordingNetwork::default();
        let cfg = EngineConfig {
            admission: Some(1),
            ..EngineConfig::default()
        };
        let mut s = ServerEngine::new(site("a.test"), web(), cfg);
        s.on_message(
            &mut net,
            Message::Query(clone_msg("(L|G)*", &["http://a.test/"])),
        );
        assert_eq!(s.active_queries(), 1);
        // A second query arrives while the first still holds the slot: it
        // is refused, with one Shed report per destination node.
        let mut other = clone_msg("(L|G)*", &["http://a.test/sub.html"]);
        other.id.query_num = 8;
        let before = net.sent.len();
        s.on_message(&mut net, Message::Query(other));
        assert_eq!(s.stats.queries_shed, 1);
        assert_eq!(s.stats.arrivals, 2, "the shed clone was not processed");
        let Message::Report(report) = &net.sent[before].1 else {
            panic!()
        };
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].disposition, Disposition::Shed);
        assert!(report.reports[0].results.is_empty());
        // A purge sweep past the first query's last arrival retires its
        // slot; the next query admits.
        s.purge_log(1);
        assert_eq!(s.active_queries(), 0);
        let mut again = clone_msg("(L|G)*", &["http://a.test/sub.html"]);
        again.id.query_num = 9;
        s.on_message(&mut net, Message::Query(again));
        assert_eq!(s.stats.queries_shed, 1, "admitted after retirement");
        assert_eq!(s.active_queries(), 1);
    }

    #[test]
    fn empty_stage_clone_ignored() {
        let mut net = RecordingNetwork::default();
        let mut s = server();
        let mut clone = clone_msg("L*", &["http://a.test/"]);
        clone.stages = [].into();
        s.on_message(&mut net, Message::Query(clone));
        assert!(net.sent.is_empty());
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_web::{HostedWeb, PageBuilder};

    fn cached_server(size: usize) -> ServerEngine {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://c.test/",
            PageBuilder::new("Root needle").link("/a.html", "a"),
        );
        web.insert_page("http://c.test/a.html", PageBuilder::new("A needle"));
        let cfg = EngineConfig {
            doc_cache_size: size,
            ..EngineConfig::default()
        };
        ServerEngine::new(
            SiteAddr {
                host: "c.test".into(),
                port: 80,
            },
            Arc::new(web),
            cfg,
        )
    }

    fn query_for(n: u64) -> QueryClone {
        let q = webdis_disql::parse_disql(
            r#"select d.url from document d such that "http://c.test/" L* d
               where d.title contains "needle""#,
        )
        .unwrap();
        QueryClone {
            id: QueryId {
                user: "t".into(),
                host: "u.test".into(),
                port: 9,
                query_num: n,
            },
            dest_nodes: q.start_nodes.clone(),
            rem_pre: q.stages[0].pre.clone(),
            stages: q.stages,
            stage_offset: 0,
            hops: 0,
            ack_host: "u.test".into(),
            ack_port: 9,
        }
    }

    #[test]
    fn cache_disabled_reparses_per_query() {
        let mut s = cached_server(0);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        s.on_message(&mut net, Message::Query(query_for(2)));
        assert_eq!(s.stats.docs_parsed, 4, "2 docs x 2 queries");
        assert_eq!(s.stats.doc_cache_hits, 0);
    }

    #[test]
    fn cache_serves_repeat_queries() {
        let mut s = cached_server(8);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        s.on_message(&mut net, Message::Query(query_for(2)));
        s.on_message(&mut net, Message::Query(query_for(3)));
        assert_eq!(s.stats.docs_parsed, 2, "each doc parsed once");
        assert_eq!(s.stats.doc_cache_hits, 4);
        // Results are identical either way: the second query's report
        // matches the first's rows.
        let reports: Vec<_> = net
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 3);
        let rows = |r: &ResultReport| -> usize {
            r.reports
                .iter()
                .map(|nr| nr.results.iter().map(|s| s.rows.len()).sum::<usize>())
                .sum()
        };
        assert_eq!(rows(reports[0]), rows(reports[2]));
    }

    #[test]
    fn cache_evicts_fifo_when_full() {
        let mut s = cached_server(1);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        // Both docs visited; the 1-slot cache ends holding only the last.
        assert!(s.doc_cache.len() <= 1);
        s.on_message(&mut net, Message::Query(query_for(2)));
        // Root misses (evicted), the other hits or misses depending on
        // order — but the cache never exceeds its bound.
        assert!(s.doc_cache.len() <= 1);
        assert!(s.stats.docs_parsed >= 3);
    }
}

#[cfg(test)]
mod live_tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_web::{HostedWeb, LiveWeb, Mutation, MutationOp, PageBuilder};

    fn live_web() -> Arc<LiveWeb> {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://c.test/",
            PageBuilder::new("Root needle").link("/a.html", "a"),
        );
        web.insert_page("http://c.test/a.html", PageBuilder::new("A needle"));
        Arc::new(LiveWeb::from_hosted(&web))
    }

    fn live_server(web: &Arc<LiveWeb>, cfg: EngineConfig) -> ServerEngine {
        ServerEngine::new_live(
            SiteAddr {
                host: "c.test".into(),
                port: 80,
            },
            Arc::clone(web),
            cfg,
        )
    }

    fn query_for(n: u64) -> QueryClone {
        let q = webdis_disql::parse_disql(
            r#"select d.title from document d such that "http://c.test/" L* d
               where d.title contains "needle""#,
        )
        .unwrap();
        QueryClone {
            id: QueryId {
                user: "t".into(),
                host: "u.test".into(),
                port: 9,
                query_num: n,
            },
            dest_nodes: q.start_nodes.clone(),
            rem_pre: q.stages[0].pre.clone(),
            stages: q.stages,
            stage_offset: 0,
            hops: 0,
            ack_host: "u.test".into(),
            ack_port: 9,
        }
    }

    fn rows_of(net: &RecordingNetwork, from: usize) -> Vec<String> {
        net.sent[from..]
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .flat_map(|r| &r.reports)
            .flat_map(|nr| &nr.results)
            .flat_map(|sr| &sr.rows)
            .map(|row| format!("{:?}", row.values))
            .collect()
    }

    #[test]
    fn doc_cache_sees_edit_immediately() {
        // The satellite-1 regression: a page edit between two queries
        // must be visible to the second even though the first warmed the
        // footnote-3 cache with the old build.
        let web = live_web();
        let cfg = EngineConfig {
            doc_cache_size: 8,
            ..EngineConfig::default()
        };
        let mut s = live_server(&web, cfg);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        let before = rows_of(&net, 0);
        assert!(before.iter().any(|r| r.contains("A needle")), "{before:?}");
        let sent = net.sent.len();
        web.apply(&Mutation {
            at_us: 10,
            op: MutationOp::EditPage {
                url: Url::parse("http://c.test/a.html").unwrap(),
                token: "needle".into(),
            },
        });
        s.on_message(&mut net, Message::Query(query_for(2)));
        let after = rows_of(&net, sent);
        assert!(
            after.iter().any(|r| r.contains("A needle rev1")),
            "stale cached build served after the edit: {after:?}"
        );
        assert_eq!(s.stats.docs_parsed, 3, "only the edited page reparsed");
    }

    #[test]
    fn unvalidated_cache_reproduces_the_staleness_bug() {
        // With the guard off (the historic behaviour) the same sequence
        // serves the superseded build — the bug the chaos oracle's
        // known-bad schedule demonstrates.
        let web = live_web();
        let cfg = EngineConfig {
            doc_cache_size: 8,
            validate_doc_cache: false,
            ..EngineConfig::default()
        };
        let mut s = live_server(&web, cfg);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        let sent = net.sent.len();
        web.apply(&Mutation {
            at_us: 10,
            op: MutationOp::EditPage {
                url: Url::parse("http://c.test/a.html").unwrap(),
                token: "needle".into(),
            },
        });
        s.on_message(&mut net, Message::Query(query_for(2)));
        let after = rows_of(&net, sent);
        assert!(
            after.iter().any(|r| r.contains("\"A needle\"")),
            "expected the stale title from the cached build: {after:?}"
        );
        assert!(!after.iter().any(|r| r.contains("rev1")));
    }

    #[test]
    fn deleted_target_reports_dead_link() {
        // A clone arriving at a page deleted mid-query terminates with
        // an explicit dead-link report — never a hang or phantom rows.
        let web = live_web();
        let mut s = live_server(&web, EngineConfig::default());
        let mut net = RecordingNetwork::default();
        web.apply(&Mutation {
            at_us: 10,
            op: MutationOp::DeletePage {
                url: Url::parse("http://c.test/a.html").unwrap(),
            },
        });
        s.on_message(&mut net, Message::Query(query_for(1)));
        let reports: Vec<_> = net
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(r) => Some(r),
                _ => None,
            })
            .flat_map(|r| &r.reports)
            .collect();
        let dead: Vec<_> = reports
            .iter()
            .filter(|nr| nr.disposition == Disposition::DeadLink)
            .collect();
        assert_eq!(dead.len(), 1, "{reports:?}");
        assert_eq!(dead[0].node, Url::parse("http://c.test/a.html").unwrap());
        assert!(dead[0].results.is_empty() && dead[0].new_entries.is_empty());
        assert_eq!(s.stats.dead_links, 1);
        assert_eq!(s.stats.missing_docs, 0, "deleted is not missing");
    }

    #[test]
    fn site_version_bump_flushes_answer_cache() {
        let web = live_web();
        let cfg = EngineConfig {
            cache: Some(webdis_cache::CachePolicy::default()),
            ..EngineConfig::default()
        };
        let mut s = live_server(&web, cfg);
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(query_for(1)));
        s.on_message(&mut net, Message::Query(query_for(2)));
        assert!(s.stats.cache_hits > 0, "repeat query served from cache");
        assert_eq!(s.stats.cache_invalidations, 0);
        web.apply(&Mutation {
            at_us: 10,
            op: MutationOp::EditPage {
                url: Url::parse("http://c.test/a.html").unwrap(),
                token: "needle".into(),
            },
        });
        let hits = s.stats.cache_hits;
        s.on_message(&mut net, Message::Query(query_for(3)));
        assert_eq!(s.stats.cache_invalidations, 1, "version bump noticed");
        assert_eq!(s.stats.cache_hits, hits, "post-edit query recomputed");
    }
}

#[cfg(test)]
mod ack_tests {
    use super::*;
    use crate::config::CompletionMode;
    use crate::network::RecordingNetwork;
    use webdis_web::{HostedWeb, PageBuilder};

    fn web() -> Arc<HostedWeb> {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://m.test/",
            PageBuilder::new("Mid needle").link("http://leaf.test/", "leaf"),
        );
        web.insert_page("http://leaf.test/", PageBuilder::new("Leaf needle"));
        Arc::new(web)
    }

    fn ack_server(host: &str) -> ServerEngine {
        let cfg = EngineConfig {
            completion: CompletionMode::AckChain,
            ..EngineConfig::default()
        };
        ServerEngine::new(
            SiteAddr {
                host: host.into(),
                port: 80,
            },
            web(),
            cfg,
        )
    }

    fn qid() -> QueryId {
        QueryId {
            user: "a".into(),
            host: "user.test".into(),
            port: 9,
            query_num: 1,
        }
    }

    fn clone_from(sender: &SiteAddr, dest: &str) -> QueryClone {
        let q = webdis_disql::parse_disql(&format!(
            r#"select d.url from document d such that "{dest}" G* d
               where d.title contains "needle""#
        ))
        .unwrap();
        QueryClone {
            id: qid(),
            dest_nodes: q.start_nodes.clone(),
            rem_pre: q.stages[0].pre.clone(),
            stages: q.stages,
            stage_offset: 0,
            hops: 0,
            ack_host: sender.host.clone(),
            ack_port: sender.port,
        }
    }

    fn acks_to(net: &RecordingNetwork, to: &SiteAddr) -> usize {
        net.sent
            .iter()
            .filter(|(addr, m)| addr == to && matches!(m, Message::Ack(_)))
            .count()
    }

    #[test]
    fn engaged_server_acks_parent_only_after_child_ack() {
        // m.test forwards to leaf.test; it must not ack its parent until
        // leaf's ack arrives.
        let parent = SiteAddr {
            host: "user.test".into(),
            port: 9,
        };
        let mut s = ack_server("m.test");
        let mut net = RecordingNetwork::default();
        s.on_message(
            &mut net,
            Message::Query(clone_from(&parent, "http://m.test/")),
        );
        // One result report + one clone forward; no ack yet (deficit 1).
        assert_eq!(acks_to(&net, &parent), 0);
        assert!(net
            .sent
            .iter()
            .any(|(addr, m)| matches!(m, Message::Query(_))
                && addr
                    == &query_server_addr(&SiteAddr {
                        host: "leaf.test".into(),
                        port: 80
                    })));
        // The child's ack arrives: now the parent gets acked.
        s.on_message(&mut net, Message::Ack(AckMsg { id: qid() }));
        assert_eq!(acks_to(&net, &parent), 1);
    }

    #[test]
    fn leaf_acks_immediately() {
        let parent = query_server_addr(&SiteAddr {
            host: "m.test".into(),
            port: 80,
        });
        let mut s = ack_server("leaf.test");
        let mut net = RecordingNetwork::default();
        s.on_message(
            &mut net,
            Message::Query(clone_from(&parent, "http://leaf.test/")),
        );
        assert_eq!(
            acks_to(&net, &parent),
            1,
            "no forwards → instant subtree ack"
        );
    }

    #[test]
    fn non_engaging_clone_acked_at_once() {
        let p1 = SiteAddr {
            host: "user.test".into(),
            port: 9,
        };
        let p2 = query_server_addr(&SiteAddr {
            host: "other.test".into(),
            port: 80,
        });
        let mut s = ack_server("m.test");
        let mut net = RecordingNetwork::default();
        s.on_message(&mut net, Message::Query(clone_from(&p1, "http://m.test/")));
        assert_eq!(acks_to(&net, &p1), 0, "engager waits for the subtree");
        // A second clone from a different sender: the log drops it as a
        // duplicate, and the sender is acked immediately.
        s.on_message(&mut net, Message::Query(clone_from(&p2, "http://m.test/")));
        assert_eq!(acks_to(&net, &p2), 1);
        assert_eq!(acks_to(&net, &p1), 0, "still waiting on the child");
    }

    #[test]
    fn purged_query_clones_are_acked() {
        let parent = SiteAddr {
            host: "user.test".into(),
            port: 9,
        };
        let mut s = ack_server("m.test");
        // First the user endpoint is unreachable → purge on report.
        let mut net = RecordingNetwork {
            unreachable: vec![parent.clone()],
            ..RecordingNetwork::default()
        };
        s.on_message(
            &mut net,
            Message::Query(clone_from(&parent, "http://m.test/")),
        );
        assert_eq!(s.stats.terminated_queries, 1);
        // A late clone for the purged query still gets an ack so the
        // upstream tree unwinds.
        let other = query_server_addr(&SiteAddr {
            host: "other.test".into(),
            port: 80,
        });
        let mut net2 = RecordingNetwork::default();
        s.on_message(
            &mut net2,
            Message::Query(clone_from(&other, "http://m.test/")),
        );
        assert_eq!(acks_to(&net2, &other), 1);
        assert!(net2.sent.iter().all(|(_, m)| matches!(m, Message::Ack(_))));
    }

    #[test]
    fn per_query_state_is_retired_by_purge_sweeps() {
        // Regression: the purge set gained one entry per passively
        // terminated query and the ack bookkeeping one per ack-chain
        // query, and only `restart()` ever cleared either — a long-lived
        // daemon leaked. Both now retire with the periodic purge.
        let user = SiteAddr {
            host: "user.test".into(),
            port: 9,
        };
        let cfg = EngineConfig {
            log_purge_us: Some(10_000),
            ..EngineConfig::ack_chain()
        };
        let mut leaf = ServerEngine::new(web().sites()[0].clone(), web(), cfg.clone());
        assert_eq!(&*leaf.site().host, "leaf.test");
        let mut net = RecordingNetwork::default();
        let mut high_water = 0;
        for n in 0..1_500u64 {
            net.time_us = n * 1_000;
            // Every third query's user site is gone: its result dispatch
            // fails and the query is purged (passive termination).
            net.unreachable = if n % 3 == 0 {
                vec![user.clone()]
            } else {
                vec![]
            };
            let mut clone = clone_from(&user, "http://leaf.test/");
            clone.id.query_num = n;
            leaf.on_message(&mut net, Message::Query(clone));
            high_water = high_water.max(leaf.queries.len());
        }
        assert_eq!(leaf.stats.terminated_queries, 500);
        assert_eq!(leaf.stats.clones_received, 1_500);
        assert!(
            high_water <= 25,
            "{high_water} per-query records for a 10-query purge period"
        );

        // What must survive a sweep does: an engaged query still owed a
        // child's ack keeps its record however idle it is, and goes once
        // the ack has come and a further period has passed.
        let mut mid = ServerEngine::new(web().sites()[1].clone(), web(), cfg);
        assert_eq!(&*mid.site().host, "m.test");
        let mut net = RecordingNetwork::default();
        mid.on_message(
            &mut net,
            Message::Query(clone_from(&user, "http://m.test/")),
        );
        net.time_us += 1_000_000;
        mid.purge_log(net.time_us);
        assert_eq!(mid.queries.len(), 1, "a live ack chain is never retired");
        mid.on_message(&mut net, Message::Ack(AckMsg { id: qid() }));
        assert_eq!(acks_to(&net, &user), 1, "the parent is acked exactly once");
        mid.purge_log(net.time_us);
        assert!(mid.queries.is_empty());
    }

    #[test]
    fn ack_mode_reports_carry_no_cht_entries() {
        let parent = SiteAddr {
            host: "user.test".into(),
            port: 9,
        };
        let mut s = ack_server("m.test");
        let mut net = RecordingNetwork::default();
        s.on_message(
            &mut net,
            Message::Query(clone_from(&parent, "http://m.test/")),
        );
        for (_, m) in &net.sent {
            if let Message::Report(r) = m {
                for nr in &r.reports {
                    assert!(nr.new_entries.is_empty(), "no CHT under ack chains");
                    assert!(!nr.results.is_empty(), "only result-bearing reports travel");
                }
            }
        }
    }
}

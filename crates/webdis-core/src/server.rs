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

use webdis_cache::{AnswerCache, Lookup as CacheLookup};
use webdis_model::{SiteAddr, Url};
use webdis_net::{
    AckMsg, ChtEntry, CloneState, Disposition, FetchResponse, Message, NodeReport, QueryClone,
    QueryId, ResultReport, StageRows,
};
use webdis_pre::Pre;
use webdis_rel::{
    canonicalize, eval_node_query_with_bindings, eval_node_query_with_stats, NodeDb, ResultRow,
};
use webdis_trace::{TermReason, TraceEvent, TraceHandle, TraceRecord};
use webdis_web::{DocStatus, FetchOutcome, HostedWeb, LiveWeb, WebView};

use crate::config::{ChtMode, CompletionMode, EngineConfig};
use crate::logtable::{LogOutcome, LogTable};
use crate::network::{query_server_addr, Network};

/// Per-server counters, the raw material of the ablation experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Clone messages received.
    pub clones_received: u64,
    /// Node arrivals processed (admitted past the log table).
    pub arrivals: u64,
    /// Arrivals handled without a network hop (footnote 4).
    pub local_arrivals: u64,
    /// Node-query evaluations performed.
    pub evaluations: u64,
    /// Arrivals that produced at least one answer.
    pub answered: u64,
    /// Arrivals that ended the traversal (failed evaluation, missing
    /// document, or no matching links).
    pub dead_ends: u64,
    /// Arrivals dropped by the log table.
    pub duplicates_dropped: u64,
    /// Superset arrivals processed with a rewritten PRE.
    pub rewrites: u64,
    /// Documents parsed (Database Constructor invocations).
    pub docs_parsed: u64,
    /// Arrivals served from the footnote-3 document cache.
    pub doc_cache_hits: u64,
    /// Arrivals addressed to documents this site does not host.
    pub missing_docs: u64,
    /// Arrivals at documents deleted after the link was followed
    /// (living-web link rot): each one terminates its branch with an
    /// explicit dead-link report instead of a hang or a phantom row.
    pub dead_links: u64,
    /// Cache flushes triggered by a site content-version bump (the
    /// living-web hook behind `invalidate_cache`).
    pub cache_invalidations: u64,
    /// Clone messages forwarded to other sites.
    pub clones_forwarded: u64,
    /// Clones dropped by the hop-count safety valve.
    pub hop_limit_drops: u64,
    /// Queries purged after a failed result dispatch (passive
    /// termination observed).
    pub terminated_queries: u64,
    /// Forward attempts to sites with no query server.
    pub unreachable_sites: u64,
    /// Node-query evaluation errors (should be zero after DISQL
    /// validation).
    pub eval_errors: u64,
    /// Clones refused (and reported back) by admission control.
    pub queries_shed: u64,
    /// Node-queries served from the answer cache (exact + subsumed).
    pub cache_hits: u64,
    /// Answer-cache consults that fell through to evaluation.
    pub cache_misses: u64,
    /// Answer-cache entries evicted for space.
    pub cache_evictions: u64,
}

impl ServerStats {
    /// The counters as `(name, value)` pairs, for ingestion into a
    /// `webdis_trace::Registry` (the unified reporting surface).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("clones_received", self.clones_received),
            ("arrivals", self.arrivals),
            ("local_arrivals", self.local_arrivals),
            ("evaluations", self.evaluations),
            ("answered", self.answered),
            ("dead_ends", self.dead_ends),
            ("duplicates_dropped", self.duplicates_dropped),
            ("rewrites", self.rewrites),
            ("docs_parsed", self.docs_parsed),
            ("doc_cache_hits", self.doc_cache_hits),
            ("missing_docs", self.missing_docs),
            ("dead_links", self.dead_links),
            ("cache_invalidations", self.cache_invalidations),
            ("clones_forwarded", self.clones_forwarded),
            ("hop_limit_drops", self.hop_limit_drops),
            ("terminated_queries", self.terminated_queries),
            ("unreachable_sites", self.unreachable_sites),
            ("eval_errors", self.eval_errors),
            ("queries_shed", self.queries_shed),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
        ]
    }
}

/// Per-query Dijkstra–Scholten state (ack-chain completion mode).
#[derive(Debug, Default)]
struct AckState {
    /// Currently engaged in the spawn tree.
    engaged: bool,
    /// The engager, owed an ack when the subtree drains.
    parent: Option<SiteAddr>,
    /// Forwarded clones not yet acknowledged.
    deficit: u64,
}

/// One admitted arrival awaiting processing.
struct Arrival {
    node: Url,
    /// The state announced in the CHT (pre-rewrite) — reports must carry
    /// exactly this so the user site can match the entry.
    announced_state: CloneState,
    /// The effective remaining PRE (equals the announced one unless the
    /// log table rewrote it).
    effective_pre: Pre,
    /// Index into the clone's remaining-stages array.
    stage_idx: usize,
    rewritten: bool,
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

/// A WEBDIS query server for one site.
pub struct ServerEngine {
    site: SiteAddr,
    /// The documents this site serves: a frozen [`HostedWeb`] snapshot
    /// (the historical behaviour, content version 0 everywhere) or a
    /// shared [`LiveWeb`] evolving under a mutation schedule.
    web: WebView,
    config: EngineConfig,
    log: LogTable,
    /// Queries known to be terminated: clones arriving for them are
    /// dropped without processing.
    purged: BTreeSet<QueryId>,
    /// Footnote-3 cache of parsed node databases, indexed by document
    /// URL for O(1) hits and carrying the content version each build
    /// parsed. Empty when `config.doc_cache_size == 0`.
    doc_cache: HashMap<Url, (Arc<NodeDb>, u64)>,
    /// Insertion order of the cached documents — the FIFO eviction queue
    /// (footnote 3 pins FIFO, not LRU: a hit does not refresh an entry).
    doc_cache_fifo: VecDeque<Url>,
    /// Queries currently in flight at this site, by the virtual time of
    /// their last clone arrival. Only maintained under admission control;
    /// entries retire on passive termination and on [`purge_log`] sweeps
    /// (a query idle for a whole purge period is done here).
    ///
    /// [`purge_log`]: ServerEngine::purge_log
    active: BTreeMap<QueryId, u64>,
    /// Dijkstra–Scholten bookkeeping per query (ack-chain mode only).
    ack: BTreeMap<QueryId, AckState>,
    /// Time of the last periodic log purge.
    last_purge_us: u64,
    /// Sequence number of the last result report shipped (dedupe key at
    /// the user site, paired with this site's hostname). Derived from
    /// the clock on every draw so a crash-restarted daemon never reuses
    /// a sequence number the network may still be carrying.
    report_seq: u64,
    /// Per-stage latency attribution for the clone currently being
    /// processed; reset at the top of [`process_clone`] and emitted as
    /// one [`TraceEvent::StageSpans`] when the pipeline finishes.
    ///
    /// [`process_clone`]: ServerEngine::process_clone
    span: StageAccum,
    /// Cross-query answer cache (ROADMAP item 4), present when
    /// `config.cache` is set. Consulted before every nullable-PRE
    /// evaluation; fed by every evaluation that completes.
    cache: Option<AnswerCache>,
    /// Highest site content version this engine has reacted to. On a
    /// living web every clone arrival polls the site version; an advance
    /// flushes the answer cache (the documents its rows were derived
    /// from may have changed) and bumps `cache_invalidations`. Always 0
    /// on a frozen web.
    seen_site_version: u64,
    /// Counters.
    pub stats: ServerStats,
    /// `admission_occupancy.<host>`, built once: the gauge is raised on
    /// every admitted clone, tracer or no tracer.
    occupancy_key: String,
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
    /// Creates the server for `site`, serving documents from a frozen
    /// `web` snapshot (every page at content version 0, forever).
    pub fn new(site: SiteAddr, web: Arc<HostedWeb>, config: EngineConfig) -> ServerEngine {
        ServerEngine::with_view(site, WebView::Frozen(web), config)
    }

    /// Creates the server for `site` over a shared living web: documents
    /// are fetched at their version current at visit time, and a site
    /// content-version bump flushes the answer cache.
    pub fn new_live(site: SiteAddr, web: Arc<LiveWeb>, config: EngineConfig) -> ServerEngine {
        ServerEngine::with_view(site, WebView::Live(web), config)
    }

    fn with_view(site: SiteAddr, web: WebView, config: EngineConfig) -> ServerEngine {
        let cache = config.cache.clone().map(AnswerCache::new);
        ServerEngine {
            occupancy_key: format!("admission_occupancy.{}", site.host),
            site,
            web,
            config,
            cache,
            log: LogTable::new(),
            purged: BTreeSet::new(),
            doc_cache: HashMap::new(),
            doc_cache_fifo: VecDeque::new(),
            active: BTreeMap::new(),
            ack: BTreeMap::new(),
            last_purge_us: 0,
            report_seq: 0,
            span: StageAccum::default(),
            seen_site_version: 0,
            stats: ServerStats::default(),
        }
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
    /// log table, purge set, admission slots, document cache, ack
    /// bookkeeping — wiped, exactly what a process respawn loses.
    /// Counters survive (they model the harness's measurement plane,
    /// not daemon memory) and the report sequence stays monotone via
    /// the clock floor in [`next_report_seq`].
    ///
    /// [`next_report_seq`]: ServerEngine::next_report_seq
    pub fn restart(&mut self) {
        self.log = LogTable::new();
        self.purged.clear();
        self.doc_cache.clear();
        self.doc_cache_fifo.clear();
        self.active.clear();
        self.ack.clear();
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
        self.seen_site_version = self.web.live_site_version(&self.site.host).unwrap_or(0);
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

    /// Drops one document from the footnote-3 cache (stale or deleted
    /// build detected on a hit).
    fn evict_doc(&mut self, node: &Url) {
        if self.doc_cache.remove(node).is_some() {
            self.doc_cache_fifo.retain(|u| u != node);
        }
    }

    /// Builds (or retrieves from the footnote-3 cache) the virtual
    /// relations for one node, charging the parse cost to the processor.
    ///
    /// The consistency contract of the living web lives here: a cached
    /// build is served only if its content version still matches the
    /// document's current status, so every visit answers from the
    /// version current at visit time. Deleted documents come back as
    /// [`NodeLookup::Deleted`] so the caller can report a dead link.
    fn node_db(&mut self, net: &mut dyn Network, node: &Url) -> NodeLookup {
        let parse_t0 = net.now_us();
        if self.config.doc_cache_size > 0 {
            if let Some((db, version)) = self.doc_cache.get(node).cloned() {
                // `validate_doc_cache == false` reproduces the historic
                // unvalidated hit path (the staleness bug the chaos
                // oracle demonstrates); on a frozen web both answers
                // agree, since versions never move.
                let status = if self.config.validate_doc_cache {
                    self.web.doc_status(node)
                } else {
                    DocStatus::Present(version)
                };
                match status {
                    DocStatus::Present(current) if current == version => {
                        self.stats.doc_cache_hits += 1;
                        self.config.tracer.emit_with(|| TraceRecord {
                            time_us: net.now_us(),
                            site: self.site.host.clone(),
                            query: None,
                            hop: None,
                            event: TraceEvent::DocFetch {
                                url: node.to_string(),
                                cache_hit: true,
                                content_version: version,
                            },
                        });
                        self.span.parse_us += net.now_us().saturating_sub(parse_t0);
                        return NodeLookup::Found(db);
                    }
                    DocStatus::Deleted(current) => {
                        self.evict_doc(node);
                        self.span.parse_us += net.now_us().saturating_sub(parse_t0);
                        return NodeLookup::Deleted(current);
                    }
                    // Edited (version moved) or vanished: drop the stale
                    // build and fall through to a fresh fetch.
                    _ => self.evict_doc(node),
                }
            }
        }
        let (html, version) = match self.web.fetch(node) {
            FetchOutcome::Found { html, version } => (html, version),
            FetchOutcome::Deleted { version } => {
                self.span.parse_us += net.now_us().saturating_sub(parse_t0);
                return NodeLookup::Deleted(version);
            }
            FetchOutcome::Missing => {
                self.span.parse_us += net.now_us().saturating_sub(parse_t0);
                return NodeLookup::Missing;
            }
        };
        self.stats.docs_parsed += 1;
        self.config.tracer.emit_with(|| TraceRecord {
            time_us: net.now_us(),
            site: self.site.host.clone(),
            query: None,
            hop: None,
            event: TraceEvent::DocFetch {
                url: node.to_string(),
                cache_hit: false,
                content_version: version,
            },
        });
        let parse_cost = self.config.proc.parse_cost_us(html.len());
        net.work(parse_cost);
        let db = Arc::new(NodeDb::build(node, &webdis_html::parse_html(&html)));
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
        self.span.parse_us += net.now_us().saturating_sub(parse_t0) + parse_cost;
        NodeLookup::Found(db)
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
    /// Section 3.1.1; the harness decides the period). Also retires
    /// admission-control slots of queries whose last clone arrived before
    /// the cutoff — a query idle for a whole purge period holds no work
    /// here, so keeping its slot would starve new arrivals forever.
    pub fn purge_log(&mut self, before_us: u64) -> usize {
        self.active.retain(|_, last_seen| *last_seen >= before_us);
        self.log.purge(before_us)
    }

    /// Queries currently holding an admission slot (0 when admission
    /// control is off).
    pub fn active_queries(&self) -> usize {
        self.active.len()
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
                let records = self.purge_log(now.saturating_sub(period));
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: now,
                    site: self.site.host.clone(),
                    query: None,
                    hop: None,
                    event: TraceEvent::Purge {
                        records: records as u32,
                    },
                });
            }
        }
        match msg {
            Message::Query(clone) => self.process_clone(net, clone),
            Message::Ack(ack) => self.on_ack(net, ack.id),
            Message::Fetch(req) => {
                // Plain web-server behaviour for the data-shipping
                // baseline: ship the whole document back to the requester.
                let html = match self.web.fetch(&req.url) {
                    FetchOutcome::Found { html, .. } => Some(html),
                    FetchOutcome::Deleted { .. } | FetchOutcome::Missing => None,
                };
                let reply = Message::FetchReply(FetchResponse {
                    url: req.url.clone(),
                    html,
                });
                let _ = net.send(&req.reply_to(), reply);
            }
            Message::Report(_) | Message::FetchReply(_) => {
                // Servers neither receive reports nor fetch replies.
            }
        }
    }

    /// Acknowledges the spawn-tree parent and disengages (ack-chain mode).
    fn disengage(&mut self, net: &mut dyn Network, id: &QueryId) {
        if let Some(state) = self.ack.get_mut(id) {
            if state.engaged && state.deficit == 0 {
                state.engaged = false;
                if let Some(parent) = state.parent.take() {
                    let _ = net.send(&parent, Message::Ack(AckMsg { id: id.clone() }));
                }
            }
        }
    }

    /// Handles a child's subtree-termination ack (ack-chain mode).
    fn on_ack(&mut self, net: &mut dyn Network, id: QueryId) {
        if let Some(state) = self.ack.get_mut(&id) {
            state.deficit = state.deficit.saturating_sub(1);
        }
        self.disengage(net, &id);
    }

    /// Emits the accumulated per-stage breakdown for the clone whose
    /// pipeline just finished, and resets the accumulator.
    fn emit_stage_spans(&mut self, net: &mut dyn Network, id: &QueryId, hop: u32) {
        let span = std::mem::take(&mut self.span);
        self.config.tracer.emit_with(|| TraceRecord {
            time_us: net.now_us(),
            site: self.site.host.clone(),
            query: Some(id.clone()),
            hop: Some(hop),
            event: TraceEvent::StageSpans {
                queue_us: span.queue_us,
                parse_us: span.parse_us,
                log_us: span.log_us,
                cache_us: span.cache_us,
                eval_us: span.eval_us,
                eval_probe_us: span.eval_probe_us,
                eval_scan_us: span.eval_scan_us,
                build_us: span.build_us,
                forward_us: span.forward_us,
            },
        });
    }

    /// The clone-processing pipeline (Figures 3 and 4).
    fn process_clone(&mut self, net: &mut dyn Network, clone: QueryClone) {
        self.stats.clones_received += 1;
        // Living-web invalidation: if this site's content version moved
        // since the last clone, the answer cache's rows may no longer be
        // derivable from the current documents — flush it before any
        // lookup. (The footnote-3 doc cache is validated per-hit instead,
        // so builds of untouched documents survive the bump.) `None` on a
        // frozen web: the historical paths pay nothing.
        if let Some(version) = self.web.live_site_version(&self.site.host) {
            if version != self.seen_site_version {
                self.seen_site_version = version;
                self.stats.cache_invalidations += 1;
                self.invalidate_cache();
            }
        }
        self.span = StageAccum::default();
        // Backpressure attribution: how long this clone's message sat in
        // the inbound queue before the pipeline started.
        self.span.queue_us = net.queue_wait_us();
        self.config.tracer.emit_with(|| TraceRecord {
            time_us: net.now_us(),
            site: self.site.host.clone(),
            query: Some(clone.id.clone()),
            hop: Some(clone.hops),
            event: TraceEvent::QueryRecv {
                nodes: clone.dest_nodes.len() as u32,
            },
        });
        if let Some(monitor) = &self.config.monitor {
            monitor.clone_recv(&clone.id, &self.site.host, clone.stage_offset, clone.hops);
        }
        let ack_mode = self.config.completion == CompletionMode::AckChain;
        let sender = clone.ack_to();
        if self.purged.contains(&clone.id) || clone.stages.is_empty() {
            if ack_mode {
                // Even dead clones must be acknowledged, or the sender's
                // subtree never drains.
                let _ = net.send(
                    &sender,
                    Message::Ack(AckMsg {
                        id: clone.id.clone(),
                    }),
                );
            }
            // A dead clone still queued and was received: emit its
            // partial spans so `stage_us.queue_wait` counts the arrival
            // instead of silently dropping it.
            self.emit_stage_spans(net, &clone.id, clone.hops);
            return;
        }
        // Admission control: a clone of a query not yet in flight here is
        // refused outright when the site is full. The refusal is never
        // silent — every destination node is reported back as shed so the
        // user site clears its CHT entries (or, under ack chains, the
        // sender is released) and the query concludes with
        // `TermReason::Shed` instead of hanging.
        if let Some(policy) = self.config.admission {
            let now = net.now_us();
            if !self.active.contains_key(&clone.id) && self.active.len() >= policy.max_queries {
                self.stats.queries_shed += 1;
                let mut shed_nodes: Vec<Url> = Vec::new();
                let mut seen = BTreeSet::new();
                for node in &clone.dest_nodes {
                    let node = node.without_fragment();
                    if seen.insert(node.clone()) {
                        shed_nodes.push(node);
                    }
                }
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: now,
                    site: self.site.host.clone(),
                    query: Some(clone.id.clone()),
                    hop: Some(clone.hops),
                    event: TraceEvent::QueryShed {
                        nodes: shed_nodes.len() as u32,
                    },
                });
                let state = CloneState {
                    num_q: clone.stages.len() as u32,
                    rem_pre: clone.rem_pre.clone(),
                };
                let reports = shed_nodes
                    .into_iter()
                    .map(|node| NodeReport {
                        node,
                        state: state.clone(),
                        disposition: Disposition::Shed,
                        results: Vec::new(),
                        new_entries: Vec::new(),
                    })
                    .collect();
                let seq = self.next_report_seq(now);
                let _ = net.send(
                    &clone.id.reply_to(),
                    Message::Report(ResultReport {
                        id: clone.id.clone(),
                        origin: self.site.host.clone(),
                        seq,
                        reports,
                    }),
                );
                if ack_mode {
                    let _ = net.send(
                        &sender,
                        Message::Ack(AckMsg {
                            id: clone.id.clone(),
                        }),
                    );
                }
                // A shed clone was still received and queued: its partial
                // spans (queue wait, any purge/log work) must reach the
                // `stage_us` histograms or admission pressure is
                // systematically undercounted.
                self.emit_stage_spans(net, &clone.id, clone.hops);
                return;
            }
            self.active.insert(clone.id.clone(), now);
            // Admission occupancy: in-flight queries holding a slot at
            // this site, as a high-water gauge next to the queue-depth
            // gauges the transports raise.
            self.config
                .tracer
                .gauge_max(&self.occupancy_key, self.active.len() as u64);
            self.config
                .tracer
                .gauge_max("admission_occupancy_high_water", self.active.len() as u64);
        }
        // Dijkstra–Scholten engagement: the first clone of a query makes
        // the sender our parent; later clones are acked right after
        // processing.
        let engaging = if ack_mode {
            let state = self.ack.entry(clone.id.clone()).or_default();
            if state.engaged {
                false
            } else {
                state.engaged = true;
                state.parent = Some(sender.clone());
                true
            }
        } else {
            false
        };
        let user = clone.id.reply_to();
        let id = clone.id.clone();
        let stages = Arc::new(clone.stages);
        let offset = clone.stage_offset;
        let hops = clone.hops;

        let mut reports: Vec<NodeReport> = Vec::new();
        let mut queue: VecDeque<Arrival> = VecDeque::new();
        // Remote forwards keyed (site, state, stage index) → destination
        // node set: one clone message per key (optimization 4).
        let mut remote: BTreeMap<(SiteAddr, String, usize), (CloneState, BTreeSet<Url>)> =
            BTreeMap::new();
        // Global forward dedup across all arrivals of this message, so an
        // entry is announced at most once and its clone sent at most once.
        let mut seen_forward: BTreeSet<(Url, String, usize)> = BTreeSet::new();

        let hop_exceeded = hops >= self.config.max_hops;
        let mut seen_dest: BTreeSet<Url> = BTreeSet::new();
        for node in &clone.dest_nodes {
            let node = node.without_fragment();
            if !seen_dest.insert(node.clone()) {
                continue;
            }
            let state = CloneState {
                num_q: stages.len() as u32,
                rem_pre: clone.rem_pre.clone(),
            };
            if hop_exceeded {
                self.stats.hop_limit_drops += 1;
                reports.push(NodeReport {
                    node,
                    state,
                    disposition: Disposition::DeadEnd,
                    results: Vec::new(),
                    new_entries: Vec::new(),
                });
                continue;
            }
            self.admit(net, &id, hops, node, state, 0, &mut queue, &mut reports);
        }

        while let Some(arrival) = queue.pop_front() {
            self.stats.arrivals += 1;
            let (report, local) = self.process_arrival(
                net,
                &id,
                hops,
                &arrival,
                &stages,
                offset,
                &mut remote,
                &mut seen_forward,
            );
            reports.push(report);
            for (target, state, stage_idx) in local {
                self.stats.local_arrivals += 1;
                self.admit(
                    net,
                    &id,
                    hops,
                    target,
                    state,
                    stage_idx,
                    &mut queue,
                    &mut reports,
                );
            }
        }

        // Assemble the outgoing clone messages.
        let forward_t0 = net.now_us();
        let own_ack = query_server_addr(&self.site);
        let mut clones: Vec<(SiteAddr, QueryClone)> = Vec::new();
        for ((site, _, stage_idx), (state, dests)) in remote {
            let make = |dest_nodes: Vec<Url>| QueryClone {
                id: id.clone(),
                dest_nodes,
                rem_pre: state.rem_pre.clone(),
                stages: stages[stage_idx..].to_vec(),
                stage_offset: offset + stage_idx as u32,
                hops: hops + 1,
                ack_host: own_ack.host.clone(),
                ack_port: own_ack.port,
            };
            if self.config.batch_per_site {
                clones.push((site, make(dests.into_iter().collect())));
            } else {
                for dest in dests {
                    clones.push((site.clone(), make(vec![dest])));
                }
            }
        }
        self.span.forward_us += net.now_us().saturating_sub(forward_t0);

        if ack_mode {
            // Under ack chains no CHT travels: strip bookkeeping and only
            // ship reports that actually carry rows.
            for r in &mut reports {
                r.new_entries.clear();
            }
            reports.retain(|r| !r.results.is_empty());
        }
        if reports.is_empty() && clones.is_empty() && !ack_mode {
            self.emit_stage_spans(net, &id, hops);
            return; // everything dropped silently (paper mode)
        }

        // Section 2.7.1 ordering: ship (results, CHT) first; forward only
        // if the dispatch succeeded.
        let build_t0 = net.now_us();
        if !reports.is_empty() {
            let seq = self.next_report_seq(net.now_us());
            let report_msg = Message::Report(ResultReport {
                id: id.clone(),
                origin: self.site.host.clone(),
                seq,
                reports,
            });
            if net.send(&user, report_msg).is_err() {
                // Passive termination (Section 2.8): purge and stop.
                self.stats.terminated_queries += 1;
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: net.now_us(),
                    site: self.site.host.clone(),
                    query: Some(id.clone()),
                    hop: Some(hops),
                    event: TraceEvent::Termination {
                        reason: TermReason::Passive,
                    },
                });
                self.purged.insert(id.clone());
                self.log.purge_query(&id);
                self.active.remove(&id);
                self.span.build_us += net.now_us().saturating_sub(build_t0);
                self.emit_stage_spans(net, &id, hops);
                if ack_mode {
                    // Release the sender (and, transitively, the whole
                    // upstream tree) even though the query is dying.
                    let _ = net.send(&sender, Message::Ack(AckMsg { id }));
                }
                return;
            }
        }
        self.span.build_us += net.now_us().saturating_sub(build_t0);
        // Fan-out histogram: how many distinct sites this processing
        // forwarded to (0 when the traversal ended here).
        if self.config.tracer.enabled() {
            let fanout = clones
                .iter()
                .map(|(s, _)| &s.host)
                .collect::<BTreeSet<_>>()
                .len();
            self.config.tracer.observe("site_fanout", fanout as u64);
        }
        if let Some(monitor) = &self.config.monitor {
            let fanout = clones
                .iter()
                .map(|(s, _)| &s.host)
                .collect::<BTreeSet<_>>()
                .len();
            monitor.clone_sent(&id, fanout as u32);
        }
        let fanout_t0 = net.now_us();
        let mut failed: Vec<NodeReport> = Vec::new();
        for (site, qc) in clones {
            let state = qc.state();
            let dests = qc.dest_nodes.clone();
            let sent = net.send(&query_server_addr(&site), Message::Query(qc));
            if sent.is_ok() {
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: net.now_us(),
                    site: self.site.host.clone(),
                    query: Some(id.clone()),
                    hop: Some(hops + 1),
                    event: TraceEvent::QuerySent {
                        to_site: site.host.clone(),
                        nodes: dests.len() as u32,
                    },
                });
            }
            if ack_mode {
                if sent.is_ok() {
                    self.stats.clones_forwarded += 1;
                    self.ack.entry(id.clone()).or_default().deficit += 1;
                } else {
                    self.stats.unreachable_sites += 1;
                }
                continue;
            }
            if sent.is_err() {
                // No query server at the destination site (it does not
                // participate — Section 7.1). The announced entries must
                // not be left to dangle: in hybrid mode the nodes are
                // handed back to the user site for centralized
                // processing; otherwise they are reported as dead ends.
                self.stats.unreachable_sites += 1;
                let disposition = if self.config.hybrid {
                    Disposition::Handoff
                } else {
                    Disposition::DeadEnd
                };
                for dest in dests {
                    failed.push(NodeReport {
                        node: dest,
                        state: state.clone(),
                        disposition,
                        results: Vec::new(),
                        new_entries: Vec::new(),
                    });
                }
            } else {
                self.stats.clones_forwarded += 1;
            }
        }
        if !failed.is_empty() {
            let seq = self.next_report_seq(net.now_us());
            let _ = net.send(
                &user,
                Message::Report(ResultReport {
                    id: id.clone(),
                    origin: self.site.host.clone(),
                    seq,
                    reports: failed,
                }),
            );
        }
        self.span.forward_us += net.now_us().saturating_sub(fanout_t0);
        self.emit_stage_spans(net, &id, hops);
        if ack_mode {
            if !engaging {
                // A non-engagement clone: ack its sender right away (the
                // work it spawned counts against *our* engagement).
                let _ = net.send(&sender, Message::Ack(AckMsg { id: id.clone() }));
            } else {
                // If nothing was forwarded, this subtree is already done.
                self.disengage(net, &id);
            }
        }
    }

    /// Runs one arrival through the log table; admitted arrivals join the
    /// processing queue, duplicates are dropped. Drops are reported in
    /// strict CHT mode, and — in any mode — when the matching log record
    /// is a stage continuation the user's CHT never saw (the user cannot
    /// mirror such drops, so silence would leave its entry uncleared).
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        net: &mut dyn Network,
        id: &QueryId,
        hop: u32,
        node: Url,
        state: CloneState,
        stage_idx: usize,
        queue: &mut VecDeque<Arrival>,
        reports: &mut Vec<NodeReport>,
    ) {
        let log_t0 = net.now_us();
        let outcome = self
            .log
            .check(self.config.log_mode, id, &node, &state, true, log_t0);
        self.span.log_us += net.now_us().saturating_sub(log_t0);
        match outcome {
            LogOutcome::Drop { hidden, exact } => {
                self.stats.duplicates_dropped += 1;
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: net.now_us(),
                    site: self.site.host.clone(),
                    query: Some(id.clone()),
                    hop: Some(hop),
                    event: TraceEvent::LogDuplicate {
                        node: node.to_string(),
                        exact,
                    },
                });
                // Silence is only safe for exact-state duplicates dropped
                // via CHT-visible records: that verdict is symmetric, so
                // the user's skip rule mirrors it under any merge order.
                if self.config.cht_mode == ChtMode::Strict || hidden || !exact {
                    reports.push(NodeReport {
                        node,
                        state,
                        disposition: Disposition::Duplicate,
                        results: Vec::new(),
                        new_entries: Vec::new(),
                    });
                }
            }
            LogOutcome::Process { pre, rewritten } => {
                if rewritten {
                    self.stats.rewrites += 1;
                    self.config.tracer.emit_with(|| TraceRecord {
                        time_us: net.now_us(),
                        site: self.site.host.clone(),
                        query: Some(id.clone()),
                        hop: Some(hop),
                        event: TraceEvent::LogRewrite {
                            node: node.to_string(),
                        },
                    });
                }
                queue.push_back(Arrival {
                    node,
                    effective_pre: pre,
                    announced_state: state,
                    stage_idx,
                    rewritten,
                });
            }
        }
    }

    /// Processes one arrival at one node: evaluation, continuation, and
    /// forward generation (Figure 4's `process`).
    #[allow(clippy::too_many_arguments)]
    fn process_arrival(
        &mut self,
        net: &mut dyn Network,
        id: &QueryId,
        hop: u32,
        arrival: &Arrival,
        stages: &Arc<Vec<webdis_disql::Stage>>,
        offset: u32,
        remote: &mut BTreeMap<(SiteAddr, String, usize), (CloneState, BTreeSet<Url>)>,
        seen_forward: &mut BTreeSet<(Url, String, usize)>,
    ) -> (NodeReport, Vec<(Url, CloneState, usize)>) {
        let db = match self.node_db(net, &arrival.node) {
            NodeLookup::Found(db) => db,
            NodeLookup::Deleted(version) => {
                // Link rot: the page was deleted after the link pointing
                // here was followed. The branch terminates gracefully —
                // an explicit dead-link report clears the CHT entry, so
                // the query completes (never hangs) and ships no phantom
                // rows from the vanished revision.
                self.stats.dead_links += 1;
                self.stats.dead_ends += 1;
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: net.now_us(),
                    site: self.site.host.clone(),
                    query: Some(id.clone()),
                    hop: Some(hop),
                    event: TraceEvent::DeadLink {
                        node: arrival.node.to_string(),
                        version,
                    },
                });
                return (
                    NodeReport {
                        node: arrival.node.clone(),
                        state: arrival.announced_state.clone(),
                        disposition: Disposition::DeadLink,
                        results: Vec::new(),
                        new_entries: Vec::new(),
                    },
                    Vec::new(),
                );
            }
            NodeLookup::Missing => {
                // A floating link pointed here: nothing to process.
                self.stats.missing_docs += 1;
                self.stats.dead_ends += 1;
                return (
                    NodeReport {
                        node: arrival.node.clone(),
                        state: arrival.announced_state.clone(),
                        disposition: Disposition::DeadEnd,
                        results: Vec::new(),
                        new_entries: Vec::new(),
                    },
                    Vec::new(),
                );
            }
        };

        let eval_t0 = net.now_us();
        let now_fn = || net.now_us();
        let out = traverse_node(
            &db,
            &arrival.node,
            stages,
            offset,
            arrival.effective_pre.clone(),
            arrival.stage_idx,
            &mut self.log,
            self.config.log_mode,
            id,
            eval_t0,
            &TraceCtx {
                tracer: &self.config.tracer,
                site: &self.site.host,
                hop: Some(hop),
                now: &now_fn,
                eval_cost_us: self.config.proc.eval_us,
            },
            self.cache.as_mut(),
        );
        self.stats.evaluations += out.counters.evaluations;
        net.work(self.config.proc.eval_us * out.counters.evaluations);
        // Cache consults are charged their own (sub-eval) modeled cost;
        // served evaluations never pay `proc.eval_us` — that skip is the
        // entire win.
        if let Some(cache) = &self.cache {
            let lookup_cost = cache.policy().lookup_us * out.counters.cache_lookups;
            net.work(lookup_cost);
            self.span.cache_us += out.counters.cache_wall_us + lookup_cost;
        }
        self.span.eval_us += net
            .now_us()
            .saturating_sub(eval_t0)
            .saturating_sub(out.counters.cache_wall_us)
            + self.config.proc.eval_us * out.counters.evaluations;
        self.span.eval_probe_us +=
            out.counters.probe_wall_us + self.config.proc.eval_us * out.counters.probed_evals;
        self.span.eval_scan_us +=
            out.counters.scan_wall_us + self.config.proc.eval_us * out.counters.scanned_evals;
        self.stats.eval_errors += out.counters.eval_errors;
        self.stats.duplicates_dropped += out.counters.duplicates_dropped;
        self.stats.rewrites += out.counters.rewrites;
        self.stats.cache_hits += out.counters.cache_hits;
        self.stats.cache_misses += out.counters.cache_misses;
        self.stats.cache_evictions += out.counters.cache_evictions;

        // Dedupe forwards across the whole message, split local vs remote,
        // and announce each one exactly once.
        let mut new_entries: Vec<ChtEntry> = Vec::new();
        let mut local: Vec<(Url, CloneState, usize)> = Vec::new();
        for (target, state, idx) in out.forwards {
            let state_key = format!("{state}");
            if !seen_forward.insert((target.clone(), state_key.clone(), idx)) {
                continue;
            }
            new_entries.push(ChtEntry {
                node: target.clone(),
                state: state.clone(),
            });
            self.config.tracer.emit_with(|| TraceRecord {
                time_us: net.now_us(),
                site: self.site.host.clone(),
                query: Some(id.clone()),
                hop: Some(hop),
                event: TraceEvent::ChtAdd {
                    node: target.to_string(),
                },
            });
            if self.config.local_forwarding && target.site() == self.site {
                local.push((target, state, idx));
            } else {
                remote
                    .entry((target.site(), state_key, idx))
                    .or_insert_with(|| (state.clone(), BTreeSet::new()))
                    .1
                    .insert(target);
            }
        }

        // An arrival that answered is a ServerRouter hit; one that only
        // forwarded (including a failed evaluation with a residual PRE
        // still to follow) is a router; one with nothing to do is a dead
        // end.
        let disposition = if arrival.rewritten {
            Disposition::Rewritten
        } else if out.any_answer {
            Disposition::Answered
        } else if new_entries.is_empty() {
            Disposition::DeadEnd
        } else {
            Disposition::PureRouted
        };
        match disposition {
            Disposition::Answered => self.stats.answered += 1,
            Disposition::DeadEnd => self.stats.dead_ends += 1,
            _ => {}
        }

        (
            NodeReport {
                node: arrival.node.clone(),
                state: arrival.announced_state.clone(),
                disposition,
                results: out.results,
                new_entries,
            },
            local,
        )
    }
}

/// Trace-stamp context for [`traverse_node`]: where the traversal runs
/// and at which hop, so its events land on the right visit of the
/// shipping tree. `hop` is `None` for the hybrid user-site fallback,
/// which processes handed-off nodes outside any clone hop count.
pub(crate) struct TraceCtx<'a> {
    pub(crate) tracer: &'a TraceHandle,
    pub(crate) site: &'a str,
    pub(crate) hop: Option<u32>,
    /// Live clock for begin/end span stamps (the fixed `now_us`
    /// argument keeps log-table timestamps deterministic; spans want
    /// the advancing wall clock on TCP).
    pub(crate) now: &'a dyn Fn() -> u64,
    /// Modeled processor cost charged per evaluation, folded into each
    /// `EvalFinish` span (the sim clock is frozen inside a handler, so
    /// the modeled cost is the only duration there).
    pub(crate) eval_cost_us: u64,
}

impl TraceCtx<'_> {
    fn emit(&self, time_us: u64, id: &QueryId, event: TraceEvent) {
        self.tracer.emit_with(|| TraceRecord {
            time_us,
            site: self.site.to_string(),
            query: Some(id.clone()),
            hop: self.hop,
            event,
        });
    }
}

/// Counters produced by one node traversal.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TraverseCounters {
    pub(crate) evaluations: u64,
    /// Evaluations whose plan was served by at least one index probe
    /// (`probed_evals + scanned_evals == evaluations`; a failed
    /// evaluation counts as scanned).
    pub(crate) probed_evals: u64,
    pub(crate) scanned_evals: u64,
    /// Observed wall-clock µs inside probe-served evaluations (zero on
    /// the simulator, whose clock is frozen inside a handler).
    pub(crate) probe_wall_us: u64,
    pub(crate) scan_wall_us: u64,
    pub(crate) eval_errors: u64,
    pub(crate) duplicates_dropped: u64,
    pub(crate) rewrites: u64,
    /// Answer-cache consults (hit or miss; zero when the cache is off).
    pub(crate) cache_lookups: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    /// Observed wall-clock µs inside cache lookups and insertions (zero
    /// on the simulator, whose clock is frozen inside a handler).
    pub(crate) cache_wall_us: u64,
}

/// The outcome of one node traversal.
pub(crate) struct TraverseOutcome {
    /// Result rows per evaluated stage.
    pub(crate) results: Vec<StageRows>,
    /// Forward candidates `(target, arrival state, stage index)` in
    /// discovery order — *not* deduplicated; the caller owns that.
    pub(crate) forwards: Vec<(Url, CloneState, usize)>,
    /// True when at least one node-query answered here.
    pub(crate) any_answer: bool,
    /// Work counters.
    pub(crate) counters: TraverseCounters,
}

/// The per-node processing core (Figure 4's `process`), shared by the
/// distributed query server and by the hybrid user-site fallback: evaluate
/// the pending node-query wherever the remaining PRE contains the null
/// link, stack same-node continuations for later stages (each gated by the
/// log table as a CHT-invisible state), and derive the forward set from
/// the PRE's first-symbols.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traverse_node(
    db: &NodeDb,
    node: &Url,
    stages: &[webdis_disql::Stage],
    offset: u32,
    start_pre: Pre,
    start_idx: usize,
    log: &mut LogTable,
    log_mode: crate::config::LogMode,
    id: &QueryId,
    now_us: u64,
    trace: &TraceCtx<'_>,
    mut cache: Option<&mut AnswerCache>,
) -> TraverseOutcome {
    let mut out = TraverseOutcome {
        results: Vec::new(),
        forwards: Vec::new(),
        any_answer: false,
        counters: TraverseCounters::default(),
    };
    // Work items: (remaining PRE, stage index). Continuations at the same
    // node (Figure 1's "node 4 acts twice") stack up here.
    let mut work: Vec<(Pre, usize)> = vec![(start_pre, start_idx)];
    while let Some((pre, idx)) = work.pop() {
        if pre.nullable() {
            // The PRE contains the null link: the pending node-query is
            // answered here — from the answer cache when it can serve
            // it, by evaluation otherwise.
            let query = &stages[idx].query;
            let mut served: Option<Vec<ResultRow>> = None;
            let mut pending_insert = None;
            if let Some(c) = cache.as_deref_mut() {
                let cache_t0 = (trace.now)();
                let cq = canonicalize(query);
                out.counters.cache_lookups += 1;
                let node_str = node.to_string();
                match c.lookup(db, &node_str, query, &cq) {
                    CacheLookup::Exact(rows) => {
                        out.counters.cache_hits += 1;
                        trace.emit(
                            now_us,
                            id,
                            TraceEvent::CacheHit {
                                node: node_str,
                                subsumed: false,
                                rows: rows.len() as u32,
                            },
                        );
                        served = Some(rows);
                    }
                    CacheLookup::Subsumed(rows) => {
                        out.counters.cache_hits += 1;
                        trace.emit(
                            now_us,
                            id,
                            TraceEvent::CacheHit {
                                node: node_str,
                                subsumed: true,
                                rows: rows.len() as u32,
                            },
                        );
                        served = Some(rows);
                    }
                    CacheLookup::Miss => {
                        out.counters.cache_misses += 1;
                        trace.emit(now_us, id, TraceEvent::CacheMiss { node: node_str });
                        pending_insert = Some(cq);
                    }
                }
                out.counters.cache_wall_us += (trace.now)().saturating_sub(cache_t0);
            }
            let rows = if let Some(rows) = served {
                // Cache hit: no evaluation happens (and none is charged)
                // — the rows are identical to what evaluation would
                // produce, values and order.
                rows
            } else {
                out.counters.evaluations += 1;
                trace.emit(
                    now_us,
                    id,
                    TraceEvent::EvalStart {
                        node: node.to_string(),
                        stage: offset + idx as u32,
                    },
                );
                let eval_t0 = (trace.now)();
                // Bindings are captured only when there is a cache to
                // feed; the uncached engine runs the exact historical
                // evaluator.
                let evaluated = if pending_insert.is_some() {
                    eval_node_query_with_bindings(db, query)
                        .map(|(rows, bindings, stats)| (rows, Some(bindings), stats))
                } else {
                    eval_node_query_with_stats(db, query).map(|(rows, stats)| (rows, None, stats))
                };
                let eval_wall = (trace.now)().saturating_sub(eval_t0);
                // Probe-vs-scan attribution: a failed evaluation counts as
                // scanned (it never reached an index).
                match &evaluated {
                    Ok((_, _, stats)) if stats.used_index => {
                        out.counters.probed_evals += 1;
                        out.counters.probe_wall_us += eval_wall;
                    }
                    _ => {
                        out.counters.scanned_evals += 1;
                        out.counters.scan_wall_us += eval_wall;
                    }
                }
                if let Ok((rows, _, _)) = &evaluated {
                    trace.emit(
                        now_us,
                        id,
                        TraceEvent::EvalFinish {
                            node: node.to_string(),
                            stage: offset + idx as u32,
                            rows: rows.len() as u32,
                            answered: !rows.is_empty(),
                            span_us: eval_wall + trace.eval_cost_us,
                        },
                    );
                }
                match evaluated {
                    Err(_) => {
                        out.counters.eval_errors += 1;
                        continue;
                    }
                    Ok((rows, bindings, stats)) => {
                        if let (Some(cq), Some(c)) = (pending_insert.take(), cache.as_deref_mut()) {
                            let insert_t0 = (trace.now)();
                            let evicted = c.insert(
                                &node.to_string(),
                                &cq,
                                rows.clone(),
                                bindings.unwrap_or_default(),
                                stats.tuples_visited,
                            );
                            out.counters.cache_evictions += evicted.len() as u64;
                            for ev in evicted {
                                trace.emit(
                                    now_us,
                                    id,
                                    TraceEvent::CacheEvict {
                                        node: ev.node,
                                        bytes: ev.bytes as u32,
                                        resident_bytes: c.resident_bytes() as u32,
                                    },
                                );
                            }
                            trace.tracer.gauge_max("cache.bytes", c.resident_bytes());
                            trace.tracer.gauge_max(
                                &format!("cache.bytes.{}", trace.site),
                                c.resident_bytes(),
                            );
                            out.counters.cache_wall_us += (trace.now)().saturating_sub(insert_t0);
                        }
                        rows
                    }
                }
            };
            if rows.is_empty() {
                // Unsuccessful node-query: this node contributes no
                // answer and no next-stage continuation — but the
                // clone still travels on along the residual PRE.
                // (Figure 4's literal lines 3-4 would stop here
                // entirely, which contradicts the paper's own
                // Section 5 execution, where conveners one local
                // link past a failing lab homepage are found under
                // G·(L*1); a node is a dead end only when it also
                // has no matching links.)
            } else {
                out.any_answer = true;
                out.results.push(StageRows {
                    stage: offset + idx as u32,
                    rows,
                });
                if idx + 1 < stages.len() {
                    // Continue at this same node with the next PRE;
                    // the continuation state goes through the log
                    // table like any other arrival.
                    let cont = CloneState {
                        num_q: (stages.len() - idx - 1) as u32,
                        rem_pre: stages[idx + 1].pre.clone(),
                    };
                    match log.check(
                        log_mode, id, node, &cont,
                        false, // continuations are invisible to the CHT
                        now_us,
                    ) {
                        LogOutcome::Drop { exact, .. } => {
                            out.counters.duplicates_dropped += 1;
                            trace.emit(
                                now_us,
                                id,
                                TraceEvent::LogDuplicate {
                                    node: node.to_string(),
                                    exact,
                                },
                            );
                        }
                        LogOutcome::Process {
                            pre: cont_pre,
                            rewritten,
                        } => {
                            if rewritten {
                                out.counters.rewrites += 1;
                            }
                            trace.emit(
                                now_us,
                                id,
                                TraceEvent::StageTransition {
                                    node: node.to_string(),
                                    from_stage: offset + idx as u32,
                                    to_stage: offset + idx as u32 + 1,
                                },
                            );
                            work.push((cont_pre, idx + 1));
                        }
                    }
                }
            }
        }
        // Forward along every link type in the PRE's first-set.
        for t in pre.first().iter() {
            let derived = pre.deriv(t);
            if derived.is_never() {
                continue;
            }
            let state = CloneState {
                num_q: (stages.len() - idx) as u32,
                rem_pre: derived.clone(),
            };
            for link in db.links_of_type(t) {
                let target = link.href.without_fragment();
                out.forwards.push((target, state.clone(), idx));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_net::FetchRequest;
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
    fn serves_fetch_requests() {
        let mut net = RecordingNetwork::default();
        let mut s = server();
        s.on_message(
            &mut net,
            Message::Fetch(FetchRequest {
                url: Url::parse("http://a.test/").unwrap(),
                reply_host: "user.test".into(),
                reply_port: 9,
            }),
        );
        let Message::FetchReply(reply) = &net.sent[0].1 else {
            panic!()
        };
        assert!(reply.html.as_ref().unwrap().contains("Alpha needle"));
        // Missing documents answer with None rather than silence.
        s.on_message(
            &mut net,
            Message::Fetch(FetchRequest {
                url: Url::parse("http://a.test/gone").unwrap(),
                reply_host: "user.test".into(),
                reply_port: 9,
            }),
        );
        let Message::FetchReply(reply) = &net.sent[1].1 else {
            panic!()
        };
        assert!(reply.html.is_none());
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
        use crate::config::AdmissionPolicy;
        let mut net = RecordingNetwork::default();
        let cfg = EngineConfig {
            admission: Some(AdmissionPolicy { max_queries: 1 }),
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
        clone.stages.clear();
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

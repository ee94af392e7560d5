//! The node-visit and forwarding core, written once for everything that
//! processes a query at a node: the query server's clone pipeline, the
//! hybrid user-site fallback, and (the forwarding half) the user site's
//! initial dispatch.
//!
//! A visit is `admit` (the log-table check, Section 3.1.1) followed by
//! [`VisitCtx::visit`]: Figure 4's `process` — evaluate the pending
//! node-query wherever the remaining PRE contains the null link, stack
//! same-node continuations for later stages, derive the forward set from
//! the PRE's first-symbols — then forward dedupe, the disposition rule
//! and the [`NodeReport`]. Forwards are collected in [`ForwardGroups`],
//! which owns the (site, state, stage) → [`QueryClone`] construction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use webdis_cache::{AnswerCache, Lookup as CacheLookup};
use webdis_disql::Stage;
use webdis_model::{SiteAddr, Url};
use webdis_net::{ChtEntry, CloneState, Disposition, NodeReport, QueryClone, QueryId, StageRows};
use webdis_pre::Pre;
use webdis_rel::{NodeDb, ResultRow};
use webdis_trace::{TraceEvent, TraceRecord};

use crate::config::{EngineConfig, LogMode};
use crate::logtable::{LogOutcome, QueryLog};
use crate::network::{Network, Work};

/// The distinct nodes of a destination list, fragments stripped, in
/// first-occurrence order.
pub(crate) fn distinct_nodes(nodes: &[Url]) -> Vec<Url> {
    let mut seen = BTreeSet::new();
    let distinct = nodes
        .iter()
        .filter(|node| seen.insert(node.without_fragment()));
    distinct.map(Url::without_fragment).collect()
}

/// One node admitted past the log table, awaiting its visit.
pub(crate) struct Arrival {
    pub(crate) node: Url,
    /// The state announced in the CHT (pre-rewrite) — reports must carry
    /// exactly this so the user site can match the entry.
    pub(crate) announced_state: CloneState,
    /// The effective remaining PRE (equals the announced one unless the
    /// log table rewrote it).
    effective_pre: Pre,
    /// Index into the clone's remaining-stages array.
    stage_idx: usize,
    pub(crate) rewritten: bool,
}

/// An arrival the log table recognized as already covered.
pub(crate) struct Duplicate {
    pub(crate) node: Url,
    pub(crate) state: CloneState,
    /// See [`LogOutcome::Drop`]: whether the user site can mirror the
    /// drop (`!hidden && exact`) decides whether it may be silent.
    pub(crate) hidden: bool,
    pub(crate) exact: bool,
}

/// Runs one arrival through its query's log (a CHT-visible state).
pub(crate) fn admit(
    log: &mut QueryLog,
    mode: LogMode,
    node: Url,
    state: CloneState,
    stage_idx: usize,
) -> Result<Arrival, Duplicate> {
    match log.check(mode, &node, &state, true) {
        LogOutcome::Drop { hidden, exact } => Err(Duplicate {
            node,
            state,
            hidden,
            exact,
        }),
        LogOutcome::Process { pre, rewritten } => Ok(Arrival {
            node,
            announced_state: state,
            effective_pre: pre,
            stage_idx,
            rewritten,
        }),
    }
}

/// Counters produced by one node traversal. Each `*_us` span is the
/// clock's advance across the work plus what the runtime charged for it
/// ([`Network::charge`]): the charge alone on the simulator, whose clock
/// is frozen inside a handler; the clock alone on TCP, which charges
/// nothing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TraverseCounters {
    pub(crate) evaluations: u64,
    pub(crate) eval_errors: u64,
    pub(crate) duplicates_dropped: u64,
    pub(crate) rewrites: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    /// Every µs the runtime charged during the visit.
    pub(crate) charged_us: u64,
    /// Evaluations whose plan was served by at least one index probe.
    pub(crate) probe_us: u64,
    /// Evaluations that fell back to the scan; a failed evaluation
    /// counts here (it never reached an index).
    pub(crate) scan_us: u64,
    /// Answer-cache lookups and insertions (zero when the cache is off).
    pub(crate) cache_us: u64,
}

/// A forward that survived deduplication: a clone in `state` is due at
/// `target` for stage `stage_idx`.
pub(crate) struct Forward {
    pub(crate) target: Url,
    pub(crate) state: CloneState,
    pub(crate) stage_idx: usize,
}

/// The disposition rule: an arrival that answered is a ServerRouter hit;
/// one that only forwarded (including a failed evaluation with a residual
/// PRE still to follow) is a router; one with nothing to do is a dead
/// end. A rewritten arrival acted as a PureRouter by construction.
fn disposition(rewritten: bool, answered: bool, forwarded: bool) -> Disposition {
    match (rewritten, answered, forwarded) {
        (true, _, _) => Disposition::Rewritten,
        (_, true, _) => Disposition::Answered,
        (_, _, true) => Disposition::PureRouted,
        _ => Disposition::DeadEnd,
    }
}

/// The outcome of one visit.
pub(crate) struct Visited {
    /// What the user site is told; `new_entries` announces `forwards`.
    pub(crate) report: NodeReport,
    /// The deduplicated forwards, in discovery order.
    pub(crate) forwards: Vec<Forward>,
    pub(crate) counters: TraverseCounters,
}

/// Everything a node visit needs besides the node itself: the query
/// being run, the query's log and answer cache it runs against, and where
/// and when its trace events are stamped.
pub(crate) struct VisitCtx<'a> {
    pub(crate) config: &'a EngineConfig,
    /// Host the visit runs at (the stamp of its trace events).
    pub(crate) site: &'a str,
    /// The clone's hop count, so events land on the right visit of the
    /// shipping tree; `None` for the hybrid user-site fallback, which
    /// processes handed-off nodes outside any clone hop count.
    pub(crate) hop: Option<u32>,
    pub(crate) id: &'a QueryId,
    /// The node's virtual relations.
    pub(crate) db: &'a NodeDb,
    /// The stages still to run; `offset` is the global index of the first.
    pub(crate) stages: &'a [Stage],
    pub(crate) offset: u32,
    pub(crate) log: &'a mut QueryLog,
    /// The site's answer cache. The hybrid fallback evaluates centrally
    /// at the user site, which keeps none (the caches live at the query
    /// servers whose content they mirror).
    pub(crate) cache: Option<&'a mut AnswerCache>,
    /// Stamp of this visit's trace events.
    pub(crate) now_us: u64,
    /// The runtime: its live clock stamps span begins and ends (spans
    /// want the advancing wall clock on TCP), and it is charged each
    /// evaluation and cache consult.
    pub(crate) net: &'a mut dyn Network,
    /// The work done so far (callers start it at zero).
    pub(crate) counters: TraverseCounters,
}

impl VisitCtx<'_> {
    /// Charges `work` to the runtime and returns the charge.
    fn charge(&mut self, work: Work) -> u64 {
        let us = self.net.charge(work);
        self.counters.charged_us += us;
        us
    }

    fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        self.config.tracer.emit_with(|| TraceRecord {
            time_us: self.now_us,
            site: self.site.to_string(),
            query: Some(self.id.clone()),
            hop: self.hop,
            event: event(),
        });
    }

    /// Processes one admitted arrival — Figure 4's `process`: evaluates
    /// the pending node-query wherever the remaining PRE contains the
    /// null link, derives the forwards from the PRE's first-symbols and
    /// dedupes them against `seen` (which a caller may share across the
    /// arrivals of one message, so an entry is announced and its clone
    /// sent at most once), then decides the disposition.
    pub(crate) fn visit(
        mut self,
        arrival: Arrival,
        seen: &mut BTreeSet<(Url, CloneState, usize)>,
    ) -> Visited {
        let (stages, node) = (self.stages, &arrival.node);
        let (mut results, mut new_entries, mut forwards) = (Vec::new(), Vec::new(), Vec::new());
        // Work items: (remaining PRE, stage index). Continuations at the
        // same node (Figure 1's "node 4 acts twice") stack up here.
        let mut work: Vec<(Pre, usize)> = vec![(arrival.effective_pre, arrival.stage_idx)];
        while let Some((pre, idx)) = work.pop() {
            if pre.nullable() {
                let Some(rows) = self.answer(node, idx) else {
                    continue;
                };
                // An unsuccessful node-query contributes no answer and
                // no next-stage continuation — but the clone still
                // travels on along the residual PRE. (Figure 4's literal
                // lines 3-4 would stop here entirely, which contradicts
                // the paper's own Section 5 execution, where conveners
                // one local link past a failing lab homepage are found
                // under G·(L*1); a node is a dead end only when it also
                // has no matching links.)
                if !rows.is_empty() {
                    let stage = self.offset + idx as u32;
                    results.push(StageRows { stage, rows });
                    if idx + 1 < stages.len() {
                        work.extend(self.continuation(node, idx));
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
                    rem_pre: derived,
                };
                for link in self.db.links_of_type(t) {
                    let target = link.href.without_fragment();
                    if seen.insert((target.clone(), state.clone(), idx)) {
                        new_entries.push(ChtEntry {
                            node: target.clone(),
                            state: state.clone(),
                        });
                        forwards.push(Forward {
                            target,
                            state: state.clone(),
                            stage_idx: idx,
                        });
                    }
                }
            }
        }
        let report = NodeReport {
            disposition: disposition(arrival.rewritten, !results.is_empty(), !forwards.is_empty()),
            node: arrival.node,
            state: arrival.announced_state,
            results,
            new_entries,
        };
        Visited {
            report,
            forwards,
            counters: self.counters,
        }
    }

    /// Continues at the same node with the next stage's PRE; the
    /// continuation state goes through the log table like any other
    /// arrival, but invisibly to the CHT.
    fn continuation(&mut self, node: &Url, idx: usize) -> Option<(Pre, usize)> {
        let stages = self.stages;
        let cont = CloneState {
            num_q: (stages.len() - idx - 1) as u32,
            rem_pre: stages[idx + 1].pre.clone(),
        };
        let mode = self.config.log_mode;
        match self.log.check(mode, node, &cont, false) {
            LogOutcome::Drop { exact, .. } => {
                self.counters.duplicates_dropped += 1;
                self.emit(|| TraceEvent::LogDuplicate {
                    node: node.to_string(),
                    exact,
                });
                None
            }
            LogOutcome::Process { pre, rewritten } => {
                self.counters.rewrites += u64::from(rewritten);
                self.emit(|| TraceEvent::StageTransition {
                    node: node.to_string(),
                    from_stage: self.offset + idx as u32,
                    to_stage: self.offset + idx as u32 + 1,
                });
                Some((pre, idx + 1))
            }
        }
    }

    /// Answers stage `idx`'s node-query at `node` — from the answer cache
    /// when it can serve it, by evaluation otherwise. `None` is an
    /// evaluation error: the work item is abandoned.
    fn answer(&mut self, node: &Url, idx: usize) -> Option<Vec<ResultRow>> {
        let stage = &self.stages[idx];
        let Some(cache) = self.cache.as_deref_mut() else {
            return self.evaluate(node, idx, false);
        };
        let cache_t0 = self.net.now_us();
        let cq = stage.plan().canonical();
        let node_str = node.to_string();
        let served = match cache.lookup(self.db, &node_str, &stage.query, cq) {
            CacheLookup::Exact(rows) => Some((rows, false)),
            CacheLookup::Subsumed(rows) => Some((rows, true)),
            CacheLookup::Miss => None,
        };
        match &served {
            Some((rows, subsumed)) => {
                self.counters.cache_hits += 1;
                self.emit(|| TraceEvent::CacheHit {
                    node: node_str,
                    subsumed: *subsumed,
                    rows: rows.len() as u32,
                });
            }
            None => {
                self.counters.cache_misses += 1;
                self.emit(|| TraceEvent::CacheMiss { node: node_str });
            }
        }
        let charged = self.charge(Work::Lookup);
        self.counters.cache_us += self.net.now_us().saturating_sub(cache_t0) + charged;
        match served {
            // Cache hit: no evaluation happens (and none is charged) —
            // the rows are identical to what evaluation would produce,
            // values and order.
            Some((rows, _)) => Some(rows),
            None => self.evaluate(node, idx, true),
        }
    }

    /// Evaluates stage `idx`'s node-query by its plan, feeding the answer
    /// cache when the preceding lookup missed (`insert`).
    fn evaluate(&mut self, node: &Url, idx: usize, insert: bool) -> Option<Vec<ResultRow>> {
        let plan = self.stages[idx].plan();
        let stage = self.offset + idx as u32;
        self.counters.evaluations += 1;
        self.emit(|| TraceEvent::EvalStart {
            node: node.to_string(),
            stage,
        });
        let eval_t0 = self.net.now_us();
        // Bindings are captured only when there is a cache to feed; the
        // uncached engine runs the exact historical evaluator.
        let evaluated = if insert {
            plan.execute_with_bindings(self.db)
        } else {
            plan.execute(self.db)
                .map(|(rows, stats)| (rows, Vec::new(), stats))
        };
        let span_us = self.net.now_us().saturating_sub(eval_t0) + self.charge(Work::Eval);
        match &evaluated {
            Ok((_, _, stats)) if stats.used_index => self.counters.probe_us += span_us,
            _ => self.counters.scan_us += span_us,
        }
        let Ok((rows, bindings, stats)) = evaluated else {
            self.counters.eval_errors += 1;
            return None;
        };
        self.emit(|| TraceEvent::EvalFinish {
            node: node.to_string(),
            stage,
            rows: rows.len() as u32,
            answered: !rows.is_empty(),
            span_us,
        });
        if let (true, Some(cache)) = (insert, self.cache.as_deref_mut()) {
            let insert_t0 = self.net.now_us();
            let evicted = cache.insert(
                &node.to_string(),
                plan.canonical(),
                rows.clone(),
                bindings,
                stats.tuples_visited,
            );
            let resident = cache.resident_bytes();
            self.counters.cache_evictions += evicted.len() as u64;
            for ev in evicted {
                self.emit(|| TraceEvent::CacheEvict {
                    node: ev.node,
                    bytes: ev.bytes as u32,
                    resident_bytes: resident as u32,
                });
            }
            let tracer = &self.config.tracer;
            if tracer.enabled() {
                tracer.gauge_max("cache.bytes", resident);
                tracer.gauge_max(&format!("cache.bytes.{}", self.site), resident);
            }
            self.counters.cache_us += self.net.now_us().saturating_sub(insert_t0);
        }
        Some(rows)
    }
}

/// Forwards grouped by destination site, then by (state, stage): each
/// group travels as one clone message (optimization 4), or as one per
/// node when `batch_per_site` is off. States are compared structurally,
/// so two that print alike are still two groups.
#[derive(Default)]
pub(crate) struct ForwardGroups(BTreeMap<SiteAddr, Vec<(CloneState, usize, Vec<Url>)>>);

impl ForwardGroups {
    pub(crate) fn push(&mut self, f: Forward) {
        let groups = self.0.entry(f.target.site()).or_default();
        match groups
            .iter_mut()
            .find(|g| g.1 == f.stage_idx && g.0 == f.state)
        {
            Some((_, _, dests)) => dests.push(f.target),
            None => groups.push((f.state, f.stage_idx, vec![f.target])),
        }
    }

    /// Puts every group's destinations in URL order. Query servers have
    /// always sent them so, and the receiving site processes a clone's
    /// nodes in the order given, so the order is observable; user-site
    /// dispatches keep discovery order.
    pub(crate) fn sorted(mut self) -> ForwardGroups {
        for (_, _, dests) in self.0.values_mut().flatten() {
            dests.sort();
        }
        self
    }

    /// Builds the outgoing clones of query `id`, whose remaining `stages`
    /// start at global index `offset`; they travel at hop count `hops`
    /// and are acknowledged to `ack_to`. Clones still in the sender's
    /// stage share its stage list; a later stage's tail is copied once.
    /// They leave in site order and, within a site, in the order of
    /// their rendered states, then stages.
    pub(crate) fn into_clones(
        self,
        id: &QueryId,
        stages: &Arc<[Stage]>,
        offset: u32,
        hops: u32,
        ack_to: &SiteAddr,
        batch_per_site: bool,
    ) -> Vec<(SiteAddr, QueryClone)> {
        let mut clones = Vec::new();
        let mut tails: BTreeMap<usize, Arc<[Stage]>> = BTreeMap::new();
        for (site, mut groups) in self.0 {
            // A state is rendered only when there is an order to decide.
            if groups.len() > 1 {
                groups.sort_by_cached_key(|(state, idx, _)| (state.to_string(), *idx));
            }
            for (state, stage_idx, dests) in groups {
                let tail = match stage_idx {
                    0 => stages,
                    _ => tails
                        .entry(stage_idx)
                        .or_insert_with(|| stages[stage_idx..].into()),
                };
                let mut push = |dest_nodes| {
                    let clone = QueryClone {
                        id: id.clone(),
                        dest_nodes,
                        rem_pre: state.rem_pre.clone(),
                        stages: Arc::clone(tail),
                        stage_offset: offset + stage_idx as u32,
                        hops,
                        ack_host: ack_to.host.clone(),
                        ack_port: ack_to.port,
                    };
                    clones.push((site.clone(), clone));
                };
                if batch_per_site {
                    push(dests);
                } else {
                    dests.into_iter().for_each(|dest| push(vec![dest]));
                }
            }
        }
        clones
    }
}

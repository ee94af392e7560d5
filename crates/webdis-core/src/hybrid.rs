//! Hybrid execution — the paper's Section 7.1 "gradual migration path".
//!
//! Sites that do not run a WEBDIS query server can still be queried: when
//! a server's clone forward is refused, it hands the destination nodes
//! back to the user site ([`Disposition::Handoff`]) instead of
//! dead-ending them. The hybrid user site then behaves like the
//! traditional centralized system *for exactly those nodes*: it downloads
//! the documents from the sites' plain web servers, evaluates the
//! node-queries locally (the very same visit core the distributed
//! servers run), and — crucially — **re-enters distributed
//! processing** whenever the traversal leads back into a participating
//! site, by dispatching fresh clones.
//!
//! Completion accounting never changes: the CHT remains the single source
//! of truth. Handoff entries stay live until the local fallback processes
//! their nodes, at which point the hybrid engine synthesizes the same
//! `NodeReport` a remote server would have sent and applies it to its own
//! CHT. With zero participating sites this degenerates to data shipping;
//! with all sites participating the fallback never runs — the migration
//! path the paper promises, measured by experiment T7.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use webdis_disql::parse_disql;
use webdis_model::{SiteAddr, Url};
use webdis_net::{
    CloneState, Disposition, FetchRequest, Message, NodeReport, QueryId, ResultReport,
};
use webdis_rel::NodeDb;
use webdis_sim::{Actor, Ctx, SimConfig, SimEvent};

use webdis_trace::{TraceEvent as TrEvent, TraceRecord};

use crate::config::EngineConfig;
use crate::deploy::Deployment;
use crate::logtable::LogTable;
use crate::network::{query_server_addr, Network};
use crate::record::{QueryOutcome, QueryRecord};
use crate::simrun::{user_addr, CtxNet, SimRunError};
use crate::user::UserSite;
use crate::visit::{admit, ForwardGroups, TraverseCounters, VisitCtx};

/// Counters for the hybrid fallback path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Nodes handed back by servers (plus non-participating StartNodes).
    pub handoffs: u64,
    /// Documents downloaded by the fallback.
    pub fetches: u64,
    /// Node-query evaluations performed at the user site.
    pub local_evaluations: u64,
    /// Clones dispatched back into participating sites.
    pub reentries: u64,
    /// Fallback arrivals dropped as duplicates by the local log table.
    pub local_duplicates: u64,
}

/// The hybrid user site: a [`UserSite`] plus the centralized fallback.
pub struct HybridUser {
    /// The wrapped standard client (CHT, results, trace).
    pub user: UserSite,
    config: EngineConfig,
    self_addr: SiteAddr,
    /// Local log table for fallback arrivals (only ever sees nodes on
    /// non-participating sites, so it is disjoint from the servers').
    log: LogTable,
    /// Downloaded documents (`None` = site unreachable or 404).
    cache: HashMap<Url, Option<Rc<NodeDb>>>,
    /// Fallback work waiting on an in-flight download.
    pending: HashMap<Url, Vec<CloneState>>,
    /// Counters.
    pub stats: HybridStats,
}

impl HybridUser {
    /// Creates the hybrid client. `config.hybrid` is forced on, and the
    /// completion protocol is forced to the CHT: the handoff mechanism is
    /// *defined* in terms of CHT entries and reports (a server announces
    /// the unreachable destinations and the fallback clears them), so
    /// ack-chain completion cannot express it — under ack chains a server
    /// has no way to delegate an unreachable subtree to the user.
    pub fn new(id: QueryId, query: webdis_disql::WebQuery, mut config: EngineConfig) -> HybridUser {
        config.hybrid = true;
        config.completion = crate::config::CompletionMode::Cht;
        let self_addr = id.reply_to();
        HybridUser {
            user: UserSite::new(id, query, config.clone()),
            config,
            self_addr,
            log: LogTable::new(),
            cache: HashMap::new(),
            pending: HashMap::new(),
            stats: HybridStats::default(),
        }
    }

    /// Dispatches the query; StartNodes on non-participating sites go
    /// straight to the fallback.
    pub fn start(&mut self, net: &mut dyn Network) {
        self.user.start(net);
        self.drain_handoffs(net);
    }

    /// Feeds every node the wrapped client was handed to the fallback.
    fn drain_handoffs(&mut self, net: &mut dyn Network) {
        for (node, state) in std::mem::take(&mut self.user.handoffs) {
            self.enqueue_handoff(net, node, state);
        }
    }

    /// Handles fetch replies itself; reports go to the wrapped client,
    /// which (past its duplicate-delivery guard) sets the nodes servers
    /// handed back aside for the fallback.
    pub fn on_message(&mut self, net: &mut dyn Network, msg: Message) {
        match msg {
            Message::FetchReply(reply) => {
                let url = reply.url.without_fragment();
                if self.cache.contains_key(&url) {
                    return; // duplicate reply
                }
                let db = reply.html.map(|html| {
                    net.work(self.config.proc.parse_cost_us(html.len()));
                    Rc::new(NodeDb::parse(&url, &html))
                });
                self.config.tracer.emit_with(|| TraceRecord {
                    time_us: net.now_us(),
                    site: self.self_addr.host.to_string(),
                    query: Some(self.user.id.clone()),
                    hop: None,
                    event: TrEvent::DocFetch {
                        url: url.to_string(),
                        cache_hit: false,
                        // Fetch replies carry no version (frozen wire
                        // format): stamp the frozen-web default.
                        content_version: 0,
                    },
                });
                self.cache.insert(url.clone(), db);
                for state in self.pending.remove(&url).unwrap_or_default() {
                    self.process_handoff(net, url.clone(), state);
                }
            }
            msg => {
                self.user.on_message(net, msg);
                self.drain_handoffs(net);
            }
        }
    }

    /// Queues one handed-off node: process immediately if its document is
    /// cached, otherwise request the download.
    fn enqueue_handoff(&mut self, net: &mut dyn Network, node: Url, state: CloneState) {
        self.stats.handoffs += 1;
        if self.cache.contains_key(&node) {
            self.process_handoff(net, node, state);
            return;
        }
        let first_request = !self.pending.contains_key(&node);
        self.pending.entry(node.clone()).or_default().push(state);
        if first_request {
            self.stats.fetches += 1;
            let req = Message::Fetch(FetchRequest {
                url: node.clone(),
                reply_host: self.self_addr.host.clone(),
                reply_port: self.self_addr.port,
            });
            if net.send(&node.site(), req).is_err() {
                // Not even a web server: everything pending dead-ends.
                self.cache.insert(node.clone(), None);
                for state in self.pending.remove(&node).unwrap_or_default() {
                    self.process_handoff(net, node.clone(), state);
                }
            }
        }
    }

    /// Runs one handed-off node through the shared visit core and applies
    /// the synthesized report; forwards that reach participating sites
    /// become real clones again.
    fn process_handoff(&mut self, net: &mut dyn Network, node: Url, state: CloneState) {
        let now = net.now_us();
        let stages = Arc::clone(&self.user.query().stages);
        let stage_idx = stages.len() - state.num_q as usize;
        let id = self.user.id.clone();

        // The local log table plays the role a server's would.
        let mode = self.config.log_mode;
        let arrival = match admit(&mut self.log, mode, &id, node, state, stage_idx, now) {
            Ok(arrival) => arrival,
            Err(dup) => {
                // The local drop must still clear (or cancel) the entry.
                self.stats.local_duplicates += 1;
                let report = NodeReport::empty(dup.node, dup.state, Disposition::Duplicate);
                return self.apply_local(now, report);
            }
        };
        let Some(Some(db)) = self.cache.get(&arrival.node).cloned() else {
            let report =
                NodeReport::empty(arrival.node, arrival.announced_state, Disposition::DeadEnd);
            return self.apply_local(now, report);
        };

        let clock = || net.now_us();
        let visited = VisitCtx {
            config: &self.config,
            site: &self.self_addr.host,
            hop: None,
            id: &id,
            db: &db,
            stages: &stages,
            offset: 0,
            log: &mut self.log,
            cache: None,
            now_us: now,
            clock: &clock,
            counters: TraverseCounters::default(),
        }
        .visit(arrival, &mut BTreeSet::new());
        self.stats.local_evaluations += visited.counters.evaluations;
        net.work(self.config.proc.eval_us * visited.counters.evaluations);
        self.stats.local_duplicates += visited.counters.duplicates_dropped;

        // Announce entries (and results) before any clone leaves — the
        // same ordering discipline the servers follow.
        self.apply_local(now, visited.report);

        // Per destination site, re-enter distributed processing or keep
        // falling back.
        let mut groups = ForwardGroups::default();
        for forward in visited.forwards {
            groups.push(forward);
        }
        let batch = self.config.batch_per_site;
        let mut fallback: Vec<(Url, CloneState)> = Vec::new();
        for (site, clone) in groups.into_clones(&id, &stages, 0, 0, &self.self_addr, batch) {
            let (fstate, dests) = (clone.state(), clone.dest_nodes.clone());
            if net
                .send(&query_server_addr(&site), Message::Query(clone))
                .is_ok()
            {
                // Back into distributed processing.
                self.stats.reentries += 1;
            } else {
                fallback.extend(dests.into_iter().map(|dest| (dest, fstate.clone())));
            }
        }
        for (dest, fstate) in fallback {
            self.enqueue_handoff(net, dest, fstate);
        }
    }

    /// Applies a locally-synthesized node report to the wrapped client.
    fn apply_local(&mut self, now_us: u64, report: NodeReport) {
        let report = ResultReport {
            id: self.user.id.clone(),
            // Locally synthesized: seq 0 bypasses the duplicate guard
            // (the fallback legitimately reports many nodes in turn).
            origin: "local".into(),
            seq: 0,
            reports: vec![report],
        };
        self.user.apply_report(now_us, report);
    }
}

/// The hybrid client bound to the simulator.
pub struct SimHybridUser {
    /// The wrapped engine.
    pub hybrid: HybridUser,
}

impl Actor for SimHybridUser {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
        match event {
            SimEvent::Start => self.hybrid.start(&mut CtxNet(ctx)),
            SimEvent::Net(msg) => self.hybrid.on_message(&mut CtxNet(ctx), msg),
            SimEvent::Timer(_) => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Deployment {
    /// Runs a DISQL query in hybrid mode over the simulated network: only
    /// the participating sites run query servers; everything else is
    /// reached through the user-site fallback. `hybrid` is forced on and
    /// the completion protocol forced to the CHT on servers and user site
    /// alike; see [`HybridUser::new`].
    pub fn hybrid_sim(
        &self,
        disql: &str,
        sim_cfg: SimConfig,
    ) -> Result<(QueryOutcome, HybridStats), SimRunError> {
        let query = parse_disql(disql).map_err(SimRunError::Parse)?;
        let mut deployment = self.clone();
        deployment.config.hybrid = true;
        deployment.config.completion = crate::config::CompletionMode::Cht;

        let mut net = deployment.sim_net(sim_cfg);
        let addr = user_addr();
        let id = QueryId {
            user: "webdis".into(),
            host: addr.host.clone(),
            port: addr.port,
            query_num: 1,
        };
        let hybrid = HybridUser::new(id, query, deployment.config.clone());
        net.register(addr.clone(), Box::new(SimHybridUser { hybrid }));
        net.start(&addr);
        let duration_us = deployment.drain(&mut net);

        let user = net.actor_mut::<SimHybridUser>(&addr);
        let hybrid = &mut user.expect("hybrid user registered").hybrid;
        let (record, stats) = (QueryRecord::of(0, &mut hybrid.user), hybrid.stats);
        let server_stats = deployment.sim_server_stats(&mut net);
        let outcome = QueryOutcome::new(record, net.metrics, duration_us, server_stats);
        Ok((outcome, stats))
    }
}

/// Runs a DISQL query in hybrid mode on the frozen `web`: only
/// `participating` sites run query servers. An empty list degenerates to
/// (CHT-accounted) data shipping. [`Deployment::hybrid_sim`] with nothing
/// else said.
pub fn run_query_hybrid_sim(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    participating: &[SiteAddr],
) -> Result<(QueryOutcome, HybridStats), SimRunError> {
    let mut deployment = Deployment::new(web, engine_cfg);
    deployment.participating = Some(participating.to_vec());
    deployment.hybrid_sim(disql, sim_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_query_sim;
    use webdis_web::figures;

    fn participating_subset(web: &webdis_web::HostedWeb, keep: usize) -> Vec<SiteAddr> {
        web.sites().into_iter().take(keep).collect()
    }

    #[test]
    fn ack_chain_config_is_coerced_to_cht() {
        // Regression: hybrid handoff is defined in terms of CHT reports;
        // an ack-chain config passed in must be coerced, not honoured
        // (honouring it silently lost every server-side handoff).
        let web = Arc::new(figures::campus());
        let reference = crate::run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let csa: Vec<_> = web
            .sites()
            .into_iter()
            .filter(|s| &*s.host == "www.csa.iisc.ernet.in")
            .collect();
        let (outcome, stats) = run_query_hybrid_sim(
            web,
            figures::CAMPUS_QUERY,
            EngineConfig::ack_chain(),
            SimConfig::default(),
            &csa,
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.result_set(), reference.result_set());
        assert!(stats.handoffs > 0, "the lab sites were handed off");
    }

    #[test]
    fn zero_participation_degenerates_to_central() {
        let web = Arc::new(figures::campus());
        let reference = run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let (outcome, stats) = run_query_hybrid_sim(
            web,
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
            &[],
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.result_set(), reference.result_set());
        assert_eq!(stats.reentries, 0, "nothing to re-enter");
        assert!(stats.fetches > 0, "everything was downloaded");
    }

    #[test]
    fn full_participation_never_falls_back() {
        let web = Arc::new(figures::campus());
        let all = web.sites();
        let (outcome, stats) = run_query_hybrid_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
            &all,
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.rows_of_stage(1).len(), 3);
        assert_eq!(stats.handoffs, 0);
        assert_eq!(stats.fetches, 0);
    }

    #[test]
    fn partial_participation_agrees_and_reenters() {
        let web = Arc::new(figures::campus());
        let reference = run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let sites = web.sites();
        for keep in 1..sites.len() {
            let participating = participating_subset(&web, keep);
            let (outcome, stats) = run_query_hybrid_sim(
                Arc::clone(&web),
                figures::CAMPUS_QUERY,
                EngineConfig::default(),
                SimConfig::default(),
                &participating,
            )
            .unwrap();
            assert!(outcome.complete, "hybrid with {keep} sites must complete");
            assert_eq!(
                outcome.result_set(),
                reference.result_set(),
                "hybrid with {keep} participating sites must agree"
            );
            assert!(
                stats.handoffs > 0 || stats.fetches == 0,
                "fetches only happen for handed-off nodes"
            );
        }
    }

    #[test]
    fn more_participation_means_less_download_traffic() {
        let web = Arc::new(webdis_web::generate(&webdis_web::WebGenConfig {
            sites: 8,
            docs_per_site: 3,
            filler_words: 300,
            seed: 77,
            ..webdis_web::WebGenConfig::default()
        }));
        let disql = r#"select d.url from document d
                       such that "http://site0.test/doc0.html" (L|G)* d
                       where d.title contains "needle""#;
        let sites = web.sites();
        let mut prev_bytes = u64::MAX;
        let mut seen_decrease = false;
        for keep in [0usize, 4, 8] {
            let participating: Vec<_> = sites.iter().take(keep).cloned().collect();
            let (outcome, _) = run_query_hybrid_sim(
                Arc::clone(&web),
                disql,
                EngineConfig::default(),
                SimConfig::default(),
                &participating,
            )
            .unwrap();
            assert!(outcome.complete);
            let fetched = outcome.metrics.bytes_of("fetch-reply");
            if fetched < prev_bytes {
                seen_decrease = true;
            }
            prev_bytes = fetched;
        }
        assert!(
            seen_decrease,
            "document bytes must fall as participation grows"
        );
        assert_eq!(prev_bytes, 0, "full participation downloads nothing");
    }
}

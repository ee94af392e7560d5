//! The Section-7.1 fallback — the paper's "gradual migration path" — as
//! a private part of the one user site, present exactly when
//! `EngineConfig::hybrid` is set.
//!
//! Sites that do not run a WEBDIS query server can still be queried: when
//! a server's clone forward is refused, it hands the destination nodes
//! back to the user site ([`Disposition::Handoff`]) instead of
//! dead-ending them. The user site then behaves like the traditional
//! centralized system *for exactly those nodes*: it downloads the
//! documents from the sites' plain web servers, evaluates the
//! node-queries locally (the very same visit core the distributed
//! servers run), and — crucially — **re-enters distributed
//! processing** whenever the traversal leads back into a participating
//! site, by dispatching fresh clones.
//!
//! Completion accounting never changes: the CHT remains the single source
//! of truth. Handoff entries stay live until the fallback processes their
//! nodes, at which point it synthesizes the same `NodeReport` a remote
//! server would have sent and applies it to its own CHT — which is why
//! hybrid execution is *defined* over CHT completion (under ack chains a
//! server has no way to delegate an unreachable subtree to the user; a
//! [`Deployment`](crate::Deployment) coerces the protocol). With zero
//! participating sites this degenerates to data shipping; with all sites
//! participating the fallback never runs — the migration path the paper
//! promises, measured by experiment T7.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use webdis_model::Url;
use webdis_net::{
    CloneState, Disposition, FetchRequest, FetchResponse, Message, NodeReport, ResultReport,
};
use webdis_rel::NodeDb;
use webdis_trace::TraceEvent as TrEvent;

use super::UserSite;
use crate::logtable::QueryLog;
use crate::network::{query_server_addr, Network, Work};
use crate::visit::{admit, ForwardGroups, TraverseCounters, VisitCtx};

/// What the fallback keeps between messages.
#[derive(Default)]
pub(super) struct Fallback {
    /// Nodes awaiting local processing, their CHT entries still live:
    /// StartNodes whose sites run no query server, and nodes a server
    /// handed back. Filled while a report is applied, emptied by
    /// [`UserSite::run_fallback`] right after.
    pub(super) handoffs: Vec<(Url, CloneState)>,
    /// This query's log for fallback arrivals (only ever sees nodes on
    /// non-participating sites, so it is disjoint from the servers').
    log: QueryLog,
    /// Downloaded documents (`None` = site unreachable or 404).
    cache: HashMap<Url, Option<Arc<NodeDb>>>,
    /// Fallback work waiting on an in-flight download.
    pending: HashMap<Url, Vec<CloneState>>,
}

impl UserSite {
    /// True while this query waits for the download of `url` — what a
    /// [`ClientProcess`](crate::ClientProcess) routes a fetch reply by.
    pub fn awaits(&self, url: &Url) -> bool {
        let fallback = self.fallback.as_ref();
        fallback.is_some_and(|f| f.pending.contains_key(url))
    }

    /// Feeds every node handed to this site to the fallback; a no-op
    /// outside hybrid mode.
    pub(super) fn run_fallback(&mut self, net: &mut dyn Network) {
        let Some(fallback) = &mut self.fallback else {
            return;
        };
        for (node, state) in std::mem::take(&mut fallback.handoffs) {
            self.enqueue_handoff(net, node, state);
        }
    }

    /// A download arrived: the nodes waiting on it are processed. A reply
    /// nobody asked for — an unknown or already-downloaded URL, a
    /// duplicate, a query that runs no fallback — is ignored.
    pub(super) fn on_fetch_reply(&mut self, net: &mut dyn Network, reply: FetchResponse) {
        let url = reply.url.without_fragment();
        let Some(fallback) = &mut self.fallback else {
            return;
        };
        let Some(waiting) = fallback.pending.remove(&url) else {
            return;
        };
        let db = reply.html.map(|html| {
            net.charge(Work::Parse { bytes: html.len() });
            Arc::new(NodeDb::parse(&url, html))
        });
        fallback.cache.insert(url.clone(), db);
        self.emit(net.now_us(), None, || TrEvent::DocFetch {
            url: url.to_string(),
            cache_hit: false,
            // Fetch replies carry no version (frozen wire format): stamp
            // the frozen-web default.
            content_version: 0,
        });
        for state in waiting {
            self.process_handoff(net, url.clone(), state);
        }
    }

    /// Queues one handed-off node: process immediately if its document is
    /// cached, otherwise request the download.
    fn enqueue_handoff(&mut self, net: &mut dyn Network, node: Url, state: CloneState) {
        let fallback = self.fallback.as_mut().expect("hybrid mode");
        self.record.hybrid.handoffs += 1;
        if fallback.cache.contains_key(&node) {
            return self.process_handoff(net, node, state);
        }
        let first_request = !fallback.pending.contains_key(&node);
        let waiting = fallback.pending.entry(node.clone()).or_default();
        waiting.push(state);
        if first_request {
            self.record.hybrid.fetches += 1;
            let req = Message::Fetch(FetchRequest {
                url: node.clone(),
                reply_host: self.id.host.clone(),
                reply_port: self.id.port,
            });
            if net.send(&node.site(), req).is_err() {
                // Not even a web server: everything pending dead-ends.
                fallback.cache.insert(node.clone(), None);
                for state in fallback.pending.remove(&node).unwrap_or_default() {
                    self.process_handoff(net, node.clone(), state);
                }
            }
        }
    }

    /// Runs one handed-off node through the shared visit core and applies
    /// the synthesized report; forwards that reach participating sites
    /// become real clones again.
    fn process_handoff(&mut self, net: &mut dyn Network, node: Url, state: CloneState) {
        let Fallback { log, cache, .. } = self.fallback.as_mut().expect("hybrid mode");
        let now = net.now_us();
        let stages = Arc::clone(&self.query.stages);
        let stage_idx = stages.len() - state.num_q as usize;
        let reply_to = self.id.reply_to();

        // The local log table plays the role a server's would.
        let mode = self.config.log_mode;
        let arrival = match admit(log, mode, node, state, stage_idx) {
            Ok(arrival) => arrival,
            Err(dup) => {
                // The local drop must still clear (or cancel) the entry.
                self.record.hybrid.local_duplicates += 1;
                let report = NodeReport::empty(dup.node, dup.state, Disposition::Duplicate);
                return self.apply_local(now, report);
            }
        };
        let Some(Some(db)) = cache.get(&arrival.node).cloned() else {
            let report =
                NodeReport::empty(arrival.node, arrival.announced_state, Disposition::DeadEnd);
            return self.apply_local(now, report);
        };

        let visited = VisitCtx {
            config: &self.config,
            site: &reply_to.host,
            hop: None,
            id: &self.id,
            db: &db,
            stages: &stages,
            offset: 0,
            log,
            cache: None,
            now_us: now,
            net,
            counters: TraverseCounters::default(),
        }
        .visit(arrival, &mut BTreeSet::new());
        let stats = &mut self.record.hybrid;
        stats.local_evaluations += visited.counters.evaluations;
        stats.local_duplicates += visited.counters.duplicates_dropped;

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
        let mut fallen_back: Vec<(Url, CloneState)> = Vec::new();
        for (site, clone) in groups.into_clones(&self.id, &stages, 0, 0, &reply_to, batch) {
            let (fstate, dests) = (clone.state(), clone.dest_nodes.clone());
            if net
                .send(&query_server_addr(&site), Message::Query(clone))
                .is_ok()
            {
                // Back into distributed processing.
                self.record.hybrid.reentries += 1;
            } else {
                fallen_back.extend(dests.into_iter().map(|dest| (dest, fstate.clone())));
            }
        }
        for (dest, fstate) in fallen_back {
            self.enqueue_handoff(net, dest, fstate);
        }
    }

    /// Applies a locally-synthesized node report.
    fn apply_local(&mut self, now_us: u64, report: NodeReport) {
        let report = ResultReport {
            id: self.id.clone(),
            // Locally synthesized: seq 0 bypasses the duplicate guard
            // (the fallback legitimately reports many nodes in turn).
            origin: "local".into(),
            seq: 0,
            reports: vec![report],
        };
        self.apply_report(now_us, report);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use webdis_model::SiteAddr;
    use webdis_sim::SimConfig;

    use crate::{run_query_sim, Deployment, EngineConfig};
    use webdis_web::figures;

    fn participating_subset(web: &webdis_web::HostedWeb, keep: usize) -> Vec<SiteAddr> {
        web.sites().into_iter().take(keep).collect()
    }

    /// `web` in hybrid mode under `config`, only `participating` sites
    /// running a query server.
    fn hybrid(
        web: &Arc<webdis_web::HostedWeb>,
        config: EngineConfig,
        participating: Vec<SiteAddr>,
    ) -> Deployment {
        let config = EngineConfig {
            hybrid: true,
            ..config
        };
        let mut deployment = Deployment::new(Arc::clone(web), config);
        deployment.participating = Some(participating);
        deployment
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
        let outcome = hybrid(&web, EngineConfig::ack_chain(), csa)
            .query_sim(figures::CAMPUS_QUERY, SimConfig::default())
            .unwrap();
        let stats = outcome.hybrid;
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
        let outcome = hybrid(&web, EngineConfig::default(), Vec::new())
            .query_sim(figures::CAMPUS_QUERY, SimConfig::default())
            .unwrap();
        let stats = outcome.hybrid;
        assert!(outcome.complete);
        assert_eq!(outcome.result_set(), reference.result_set());
        assert_eq!(stats.reentries, 0, "nothing to re-enter");
        assert!(stats.fetches > 0, "everything was downloaded");
    }

    #[test]
    fn full_participation_never_falls_back() {
        let web = Arc::new(figures::campus());
        let all = web.sites();
        let outcome = hybrid(&web, EngineConfig::default(), all)
            .query_sim(figures::CAMPUS_QUERY, SimConfig::default())
            .unwrap();
        let stats = outcome.hybrid;
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
            let outcome = hybrid(&web, EngineConfig::default(), participating)
                .query_sim(figures::CAMPUS_QUERY, SimConfig::default())
                .unwrap();
            let stats = outcome.hybrid;
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
        let mut prev_bytes = u64::MAX;
        let mut seen_decrease = false;
        for keep in [0usize, 4, 8] {
            let participating = participating_subset(&web, keep);
            let deployment = hybrid(&web, EngineConfig::default(), participating);
            let outcome = deployment.query_sim(disql, SimConfig::default()).unwrap();
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

//! The engine on the deterministic simulator: the actors that bind query
//! servers and plain web servers to a [`SimNet`], the wiring of a
//! [`Deployment`] onto one, and the one loop that acts on it *at times*
//! ([`Deployment::drive_sim`]): scheduled mutations and periodic sweeps
//! are host entries of the network's own queue.

use std::collections::BTreeMap;
use std::sync::Arc;

use webdis_disql::{parse_disql, DisqlError, WebQuery};
use webdis_model::SiteAddr;
use webdis_net::{FetchRequest, FetchResponse, Message};
use webdis_sim::{Actor, Ctx, SendError, SimConfig, SimEvent, SimNet};
use webdis_trace::RegistrySnapshot;
use webdis_web::{FetchOutcome, WebView};

use crate::client::{ClientProcess, PlannedQuery, ScheduledClient, UserPlan};
use crate::config::EngineConfig;
use crate::deploy::Deployment;
use crate::network::{query_server_addr, Network, NetworkError};
use crate::record::{HybridStats, QueryOutcome, WorkloadOutcome};
use crate::server::{ServerEngine, ServerStats};

/// The address the user-site client listens on, in simulated runs and on
/// a [`TcpCluster`](crate::TcpCluster) alike.
pub fn user_addr() -> SiteAddr {
    SiteAddr {
        host: "user.test".into(),
        port: 9900,
    }
}

/// The address user `user` of a workload listens on in a simulated run.
/// Distinct hosts per user keep `QueryId`s globally unique (the id embeds
/// host and port) and give each client its own actor endpoint.
pub fn load_user_addr(user: usize) -> SiteAddr {
    SiteAddr {
        host: format!("user{user}.load.test").into(),
        port: 9900,
    }
}

/// Adapts the simulator's per-event context to the engine's network trait.
pub(crate) struct CtxNet<'a, 'b>(pub(crate) &'a mut Ctx<'b>);

impl Network for CtxNet<'_, '_> {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        self.0
            .send(to, msg)
            .map_err(|SendError::Unreachable(to)| NetworkError { to })
    }

    fn now_us(&self) -> u64 {
        self.0.now_us()
    }

    fn work(&mut self, us: u64) {
        self.0.work(us);
    }

    fn queue_wait_us(&self) -> u64 {
        self.0.queued_us()
    }

    fn post(&mut self, delay_us: u64, token: u64) {
        self.0.schedule_timer(delay_us, token);
    }
}

/// A query server bound to the simulator.
pub struct SimServer {
    /// The wrapped engine (public so harnesses can read stats).
    pub engine: ServerEngine,
}

impl Actor for SimServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
        if let SimEvent::Net(msg) = event {
            self.engine.on_message(&mut CtxNet(ctx), msg);
        }
    }

    fn on_restart(&mut self, _now_us: u64) {
        // A crash-restart window closing: the daemon respawns with its
        // volatile state (log table, caches, admission slots) wiped.
        self.engine.restart();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Plain web-server behaviour, for the data-shipping baseline and the
/// hybrid fallback: the whole document goes back to the requester
/// (`None` when it is deleted or was never there).
fn fetch_reply(web: &WebView, req: &FetchRequest) -> Message {
    let html = match web.fetch(&req.url) {
        FetchOutcome::Found { html, .. } => Some(html.to_string()),
        FetchOutcome::Deleted { .. } | FetchOutcome::Missing => None,
    };
    let url = req.url.clone();
    Message::FetchReply(FetchResponse { url, html })
}

/// A plain 1999 web server: answers document fetches, runs no query
/// daemon. Every site gets one; *participating* sites additionally run a
/// [`ServerEngine`] at their [`query_server_addr`].
pub struct PlainWebServer {
    web: WebView,
}

impl PlainWebServer {
    /// A web server for the documents of `web`, whose fetches answer
    /// from the content version current at request time.
    pub fn new(web: WebView) -> PlainWebServer {
        PlainWebServer { web }
    }
}

impl Actor for PlainWebServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
        if let SimEvent::Net(Message::Fetch(req)) = event {
            let _ = ctx.send(&req.reply_to(), fetch_reply(&self.web, &req));
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The client process [`Deployment::sim_with_client`] registered at
/// [`user_addr`] — where a hand-stepped run reads its queries
/// (`client_of(&mut net).query(1)`).
pub fn client_of(net: &mut SimNet) -> &mut ClientProcess {
    let actor = net.actor_mut::<ScheduledClient>(&user_addr());
    &mut actor.expect("client process registered").clients[0]
}

/// Tick used to drive purge sweeps when the config does not set
/// `log_purge_us` (the gauge still wants periodic samples).
const DEFAULT_TICK_US: u64 = 100_000;

impl Deployment {
    /// Wires the deployment onto a fresh simulated network: a plain web
    /// server for every site, plus a query daemon at each participating
    /// site's [`query_server_addr`]. User-site actors go on top.
    ///
    /// "Every site" is every *declared* site — including sites that
    /// currently serve no documents, since a `site_join` mutation may
    /// bring them back — and all actors share the one store: the run
    /// loops below apply the mutation schedule to it between simulation
    /// slices, and the engines observe version bumps on their next clone
    /// arrival.
    pub fn sim_net(&self, sim_cfg: SimConfig) -> SimNet {
        let mut net = SimNet::new(sim_cfg);
        net.ledger.tracer = self.config.tracer.clone();
        for site in self.web.sites() {
            // Every site serves documents...
            let documents = PlainWebServer::new(self.web.clone());
            net.register(site.clone(), Box::new(documents));
            // ...participating sites also run the query daemon.
            if self.participates(&site) {
                let engine =
                    ServerEngine::new(site.clone(), self.web.clone(), self.engine_config());
                net.register(query_server_addr(&site), Box::new(SimServer { engine }));
            }
        }
        net
    }

    /// [`Deployment::sim_net`] plus one client process, user `webdis` at
    /// [`user_addr`], that submits `queries` when the caller
    /// [`start`](SimNet::start)s that address. For harnesses that step
    /// the clock themselves; [`client_of`] reads the queries back.
    pub fn sim_with_client(&self, sim_cfg: SimConfig, queries: Vec<WebQuery>) -> SimNet {
        let mut net = self.sim_net(sim_cfg);
        let client = ClientProcess::new("webdis", user_addr(), self.engine_config());
        let plan = queries.into_iter().map(|q| (0, PlannedQuery::at(0, q)));
        let plan = plan.collect();
        let actor = ScheduledClient::new(vec![client], plan);
        net.register(user_addr(), Box::new(actor));
        net
    }

    /// User `user`'s client process in a workload run, receiving results
    /// at `addr`.
    pub(crate) fn load_client(&self, user: usize, addr: SiteAddr) -> ClientProcess {
        ClientProcess::new(&format!("load{user}"), addr, self.engine_config())
    }

    /// The one clock loop of a simulated run. Every scheduled mutation
    /// and the next periodic sweep are host entries of `net`'s queue
    /// ([`SimNet::post_host`]), so each lands at its exact virtual
    /// instant — after everything the network does up to and at that
    /// instant, *between* message deliveries, never mid-handler.
    /// `sweep(net, at_us)` runs every `tick_us` (`u64::MAX`: once, at the
    /// end); `at_us` is the tick's nominal time, the clock may read less
    /// on a quiet network. Why the sweep is the harness's act and not a
    /// timer of the servers' own: DESIGN.md §2d.
    ///
    /// The run ends at the first tick that finds the network idle and
    /// the schedule spent, or that is at or past `horizon_us`; mutations
    /// past that point are still applied (at their scheduled times) so
    /// the web's history digest always reflects the complete schedule.
    /// Returns the final virtual time.
    pub fn drive_sim(
        &self,
        net: &mut SimNet,
        tick_us: u64,
        horizon_us: u64,
        sweep: &mut dyn FnMut(&mut SimNet, u64),
    ) -> u64 {
        const TICK: u64 = u64::MAX;
        let events = &self.schedule.events;
        for (i, m) in events.iter().enumerate() {
            net.post_host(m.at_us, i as u64);
        }
        let mut applied = 0;
        let mut next_tick = tick_us;
        net.post_host(next_tick.min(horizon_us), TICK);
        while let Some((at_us, token)) = net.run_to_host() {
            if token != TICK {
                self.apply_mutation(&events[token as usize], at_us);
                applied += 1;
                continue;
            }
            sweep(net, at_us);
            if (net.idle() && applied == events.len()) || next_tick >= horizon_us {
                break;
            }
            next_tick = next_tick.saturating_add(tick_us);
            net.post_host(next_tick.min(horizon_us), TICK);
        }
        for m in &events[applied..] {
            self.apply_mutation(m, m.at_us);
        }
        net.now_us()
    }

    /// [`Deployment::drive_sim`] with nothing to sweep and no horizon: the
    /// schedule lands, the network drains.
    pub(crate) fn drain(&self, net: &mut SimNet) -> u64 {
        self.drive_sim(net, u64::MAX, u64::MAX, &mut |_, _| {})
    }

    /// Every participating site's server counters.
    pub(crate) fn sim_server_stats(&self, net: &mut SimNet) -> BTreeMap<SiteAddr, ServerStats> {
        let mut server_stats = BTreeMap::new();
        for site in self.web.sites() {
            if let Some(server) = net.actor_mut::<SimServer>(&query_server_addr(&site)) {
                server_stats.insert(site, server.engine.stats);
            }
        }
        server_stats
    }

    /// Runs one DISQL query over the simulated network and collects the
    /// outcome.
    pub fn query_sim(&self, disql: &str, sim_cfg: SimConfig) -> Result<QueryOutcome, DisqlError> {
        let query = parse_disql(disql)?;
        let mut net = self.sim_with_client(sim_cfg, vec![query]);
        net.start(&user_addr());
        let duration_us = self.drain(&mut net);
        let record = client_of(&mut net).take_records(0).remove(0);
        let server_stats = self.sim_server_stats(&mut net);
        Ok(QueryOutcome {
            record,
            metrics: net.metrics(),
            duration_us,
            server_stats,
        })
    }

    /// Runs a workload plan — one client process per user, `load<i>` at
    /// [`load_user_addr`]`(i)`, each a simulated user site of its own — in
    /// one deterministic event loop: every submission
    /// fires from a virtual timer, so M concurrent users interleave with
    /// the per-site daemons in one totally-ordered event sequence, and
    /// the same run twice is *identical*, message for message. Stops
    /// when the network drains or the clock reaches `horizon_us`.
    ///
    /// The clock loop is [`Deployment::drive_sim`] in purge-period ticks:
    /// at each tick every server runs its Section-3.1.1 `purge_log`
    /// sweep (which also retires idle admission slots; servers themselves
    /// stay timer-free) and raises the `log_len_high_water` gauge; then
    /// the monitor samples the registry and `observer` is handed the same
    /// snapshot with the virtual clock — the simulator's analogue of
    /// scraping a live daemon's `/metrics`. The observer only fires when
    /// the tracer carries a registry, and never perturbs the simulation.
    pub fn workload_sim(
        &self,
        sim_cfg: SimConfig,
        plans: Vec<UserPlan>,
        horizon_us: u64,
        observer: &mut dyn FnMut(u64, &RegistrySnapshot),
    ) -> WorkloadOutcome {
        let EngineConfig {
            tracer, monitor, ..
        } = &self.config;
        let sites = self.web.sites();

        let mut net = self.sim_net(sim_cfg);
        let users = plans.len();
        for plan in plans {
            let addr = load_user_addr(plan.user);
            let client = self.load_client(plan.user, addr.clone());
            let planned = plan.submissions.into_iter().map(|s| (0, s));
            let actor = ScheduledClient::new(vec![client], planned.collect());
            net.register(addr.clone(), Box::new(actor));
            net.start(&addr);
        }

        let purge_period = self.config.log_purge_us;
        let tick = purge_period.unwrap_or(DEFAULT_TICK_US).max(1);
        let mut sweep = |net: &mut SimNet, _tick_us: u64| {
            let now = net.now_us();
            for site in &sites {
                if let Some(server) = net.actor_mut::<SimServer>(&query_server_addr(site)) {
                    if let Some(period) = purge_period {
                        server.engine.purge_log(now.saturating_sub(period));
                    }
                    tracer.gauge_max("log_len_high_water", server.engine.log_len() as u64);
                }
            }
            if let Some(snapshot) = tracer.registry_snapshot() {
                // The monitor samples on the same tick as the observer, so
                // its window closes land at deterministic virtual times.
                if let Some(monitor) = monitor {
                    monitor.ingest(now, &snapshot);
                }
                observer(now, &net.ledger.overlay(snapshot));
            }
        };
        let duration_us = self.drive_sim(&mut net, tick, horizon_us, &mut sweep);

        let mut outcome = WorkloadOutcome {
            records: Vec::new(),
            unsubmitted: 0,
            duration_us,
            server_stats: self.sim_server_stats(&mut net),
        };
        for user in 0..users {
            let actor = net.actor_mut::<ScheduledClient>(&load_user_addr(user));
            let actor = actor.expect("client process registered");
            outcome.unsubmitted += actor.unsubmitted();
            outcome.records.extend(actor.clients[0].take_records(user));
        }
        outcome.observe_latencies(tracer);
        // Close the monitor's final partial window after the end-of-run
        // `query_latency_us` observations above, so the last window's
        // quantiles cover every completed query.
        if let Some(monitor) = monitor {
            if let Some(snapshot) = tracer.registry_snapshot() {
                monitor.finalize(duration_us, &snapshot);
            }
        }
        outcome
    }
}

/// Runs a DISQL query over the simulated network, every site of `web`
/// running a query server: [`Deployment::query_sim`] with nothing else
/// said.
pub fn run_query_sim(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<QueryOutcome, DisqlError> {
    Deployment::new(web, engine_cfg).query_sim(disql, sim_cfg)
}

/// Runs a DISQL query in hybrid mode (Section 7.1) on `web`:
/// only `participating` sites run query servers, the rest are reached
/// through the user-site fallback, whose counters are returned beside
/// the outcome they ride on. An empty list degenerates to (CHT-accounted)
/// data shipping. [`Deployment::query_sim`] with `participating` and
/// `hybrid` said.
pub fn run_query_hybrid_sim(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    mut engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    participating: &[SiteAddr],
) -> Result<(QueryOutcome, HybridStats), DisqlError> {
    engine_cfg.hybrid = true;
    let mut deployment = Deployment::new(web, engine_cfg);
    deployment.participating = Some(participating.to_vec());
    let outcome = deployment.query_sim(disql, sim_cfg)?;
    let stats = outcome.hybrid;
    Ok((outcome, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_net::Disposition;
    use webdis_web::{figures, HostedWeb, PageBuilder};

    fn two_site_web() -> Arc<HostedWeb> {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("Alpha index about needle")
                .para("welcome")
                .link("/sub.html", "sub")
                .link("http://b.test/", "to b"),
        );
        web.insert_page(
            "http://a.test/sub.html",
            PageBuilder::new("Alpha sub").para("no token"),
        );
        web.insert_page(
            "http://b.test/",
            PageBuilder::new("Beta index about needle").para("beta body"),
        );
        Arc::new(web)
    }

    #[test]
    fn single_stage_local_star_query() {
        // All documents on a.test reachable by local links whose title
        // contains "needle": only the index.
        let outcome = run_query_sim(
            two_site_web(),
            r#"select d.url, d.title
               from document d such that "http://a.test/" L* d
               where d.title contains "needle""#,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        let rows = outcome.rows_of_stage(0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.values[0].render(), "http://a.test/");
        assert!(outcome.metrics.total.messages >= 2); // clone + report
    }

    #[test]
    fn global_hop_reaches_second_site() {
        let outcome = run_query_sim(
            two_site_web(),
            r#"select d.url
               from document d such that "http://a.test/" G d
               where d.title contains "needle""#,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        let rows = outcome.rows_of_stage(0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.values[0].render(), "http://b.test/");
        // The start node itself is a PureRouter here (PRE = G, not
        // nullable).
        assert!(outcome
            .trace
            .iter()
            .any(|t| t.disposition == Disposition::PureRouted));
    }

    #[test]
    fn dead_end_on_failed_predicate_still_completes() {
        let outcome = run_query_sim(
            two_site_web(),
            r#"select d.url
               from document d such that "http://a.test/" L* d
               where d.title contains "nosuchtoken""#,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.total_rows(), 0);
        assert!(outcome.sum_stat(|s| s.dead_ends) >= 1);
    }

    #[test]
    fn campus_query_produces_figure8_rows() {
        let outcome = run_query_sim(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        // Stage 0: the Labs page.
        let labs = outcome.rows_of_stage(0);
        assert_eq!(labs.len(), 1);
        assert_eq!(
            labs[0].1.values[0].render(),
            "http://www.csa.iisc.ernet.in/Labs"
        );
        // Stage 1: the three conveners of Figure 8.
        let conveners = outcome.rows_of_stage(1);
        assert_eq!(conveners.len(), 3, "rows: {conveners:?}");
        for (expected_url, expected_title, expected_conv) in figures::CAMPUS_EXPECTED {
            let row = conveners
                .iter()
                .find(|(_, r)| r.values[0].render() == expected_url)
                .unwrap_or_else(|| panic!("missing row for {expected_url}"));
            assert_eq!(row.1.values[1].render(), expected_title);
            assert!(row.1.values[2].render().contains(expected_conv));
        }
    }

    #[test]
    fn unknown_start_site_completes_empty() {
        let outcome = run_query_sim(
            two_site_web(),
            r#"select d.url from document d such that "http://ghost.test/" L* d"#,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.total_rows(), 0);
    }

    #[test]
    fn single_query_runs_apply_the_deployments_schedule() {
        // The page behind the root's only link is deleted 1 µs into the
        // run — before the first clone can arrive — so the traversal ends
        // in a dead link, exactly as under the workload loop.
        use webdis_web::{LiveWeb, Mutation, MutationOp};
        let live = Arc::new(LiveWeb::from_hosted(&two_site_web()));
        let mut deployment = Deployment::new(Arc::clone(&live), EngineConfig::default());
        deployment.schedule.events.push(Mutation {
            at_us: 1,
            op: MutationOp::DeletePage {
                url: webdis_model::Url::parse("http://a.test/sub.html").unwrap(),
            },
        });
        let outcome = deployment
            .query_sim(
                r#"select d.url from document d such that "http://a.test/" L* d"#,
                SimConfig::default(),
            )
            .unwrap();
        assert!(outcome.complete);
        assert_eq!(live.mutations_applied(), 1);
        assert_eq!(outcome.dead_link_entries.len(), 1);
        assert_eq!(outcome.total_rows(), 1, "only the root still answers");
    }

    #[test]
    fn plain_web_servers_serve_fetch_requests() {
        /// Fetches its URLs on Start and keeps the replies.
        struct Fetcher(Vec<&'static str>, Vec<FetchResponse>);
        impl Actor for Fetcher {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
                match event {
                    SimEvent::Start => {
                        for url in &self.0 {
                            let url = webdis_model::Url::parse(url).unwrap();
                            let site = url.site();
                            let (reply_host, reply_port) = (user_addr().host, user_addr().port);
                            let req = FetchRequest {
                                url,
                                reply_host,
                                reply_port,
                            };
                            ctx.send(&site, Message::Fetch(req)).unwrap();
                        }
                    }
                    SimEvent::Net(Message::FetchReply(reply)) => self.1.push(reply),
                    SimEvent::Net(_) | SimEvent::Timer(_) => {}
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let deployment = Deployment::new(two_site_web(), EngineConfig::default());
        let mut net = deployment.sim_net(SimConfig::default());
        let urls = vec!["http://a.test/", "http://a.test/gone"];
        net.register(user_addr(), Box::new(Fetcher(urls, Vec::new())));
        net.start(&user_addr());
        net.run();
        let replies = &net.actor_mut::<Fetcher>(&user_addr()).unwrap().1;
        let html = |url: &str| {
            let reply = replies.iter().find(|r| r.url.to_string() == url);
            reply.expect("every fetch is answered").html.clone()
        };
        assert_eq!(replies.len(), 2);
        let page = html("http://a.test/").expect("a found page");
        assert!(page.contains("Alpha index about needle"), "{page}");
        // A missing document answers with None rather than silence.
        assert!(html("http://a.test/gone").is_none());
    }

    #[test]
    fn parse_error_is_reported() {
        let err = run_query_sim(
            two_site_web(),
            "select nonsense",
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, parse_disql("select nonsense").unwrap_err());
    }
}

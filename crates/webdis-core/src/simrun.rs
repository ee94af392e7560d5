//! The engine on the deterministic simulator: the plain web server
//! actor, the wiring of a [`Deployment`] onto a [`SimNet`] (query
//! servers and user sites are actors themselves), and the simulator's
//! use of the one host loop ([`Deployment::drive_sim`]): scheduled
//! mutations and periodic samples are host entries of the network's own
//! agenda, and the run ends at the first sample that finds it idle. No
//! sweep purges: each daemon forgets its idle queries as messages arrive.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use webdis_disql::{parse_disql, DisqlError, WebQuery};
use webdis_model::SiteAddr;
use webdis_net::{FetchRequest, FetchResponse, Message};
use webdis_sim::{Actor, Event, SimConfig, SimNet};
use webdis_web::{FetchOutcome, WebView};

use crate::client::{ClientProcess, PlannedQuery, ScheduledClient, UserPlan};
use crate::config::EngineConfig;
use crate::deploy::{Deployment, SAMPLE_PERIOD_US};
use crate::network::{query_server_addr, Network};
use crate::record::{QueryOutcome, WorkloadOutcome};
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
    fn handle(&mut self, net: &mut dyn Network, event: Event) {
        if let Event::Net(Message::Fetch(req)) = event {
            let _ = net.send(&req.reply_to(), fetch_reply(&self.web, &req));
        }
    }
}

/// The client process [`Deployment::sim_with_client`] registered at
/// [`user_addr`] — where a hand-stepped run reads its queries
/// (`client_of(&mut net).query(1)`).
pub fn client_of(net: &mut SimNet) -> &mut ClientProcess {
    let actor = net.actor_mut::<ScheduledClient>(&user_addr());
    &mut actor.expect("client process registered").clients[0]
}

/// The query server [`Deployment::sim_net`] registered for `site`, if it
/// participates.
pub fn server_of<'a>(net: &'a mut SimNet, site: &SiteAddr) -> Option<&'a mut ServerEngine> {
    net.actor_mut::<ServerEngine>(&query_server_addr(site))
}

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
                net.register(query_server_addr(&site), Box::new(engine));
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

    /// A simulated run on the one host loop (`Deployment::drive`), which
    /// lands each scheduled mutation at its virtual instant, between
    /// deliveries. A tick comes every `tick_us` (`u64::MAX`: once, at the
    /// end), and at each finite one the tracer is
    /// [ticked](webdis_trace::TraceHandle::tick) with the virtual clock,
    /// which the tick's nominal time may be ahead of on a quiet network;
    /// that reads the run and changes nothing in it. The run ends at the
    /// first tick that finds the network idle and the schedule spent, or
    /// at `horizon_us` (whose tick ticks the tracer first); the mutations
    /// past it still land, at their times, so the web's history holds the
    /// whole schedule. Returns the final virtual time.
    pub fn drive_sim(&self, net: &mut SimNet, tick_us: u64, horizon_us: u64) -> u64 {
        let first_tick = Some(tick_us.min(horizon_us));
        let left = self.drive(net, &mut 0, horizon_us, first_tick, |net, at_us, spent| {
            if at_us < u64::MAX {
                self.config.tracer.tick(net.now_us());
            }
            if (net.idle() && spent) || at_us >= horizon_us {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(at_us.saturating_add(tick_us).min(horizon_us))
        });
        for m in left {
            self.apply_mutation(m, m.at_us);
        }
        net.now_us()
    }

    /// Every participating site's server counters.
    pub(crate) fn sim_server_stats(&self, net: &mut SimNet) -> BTreeMap<SiteAddr, ServerStats> {
        let mut server_stats = BTreeMap::new();
        for site in self.web.sites() {
            if let Some(server) = server_of(net, &site) {
                server_stats.insert(site, server.stats);
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
        let duration_us = self.drive_sim(&mut net, u64::MAX, u64::MAX);
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
    /// The clock loop is [`Deployment::drive_sim`], ticking every
    /// `SAMPLE_PERIOD_US` (50 ms): at each tick the tracer is
    /// [ticked](webdis_trace::TraceHandle::tick) with the virtual clock (a
    /// monitor samples the registry there), which never perturbs the
    /// simulation. The servers forget their idle queries and raise their own
    /// `log_len_high_water` gauge, as each message arrives.
    pub fn workload_sim(
        &self,
        sim_cfg: SimConfig,
        plans: Vec<UserPlan>,
        horizon_us: u64,
    ) -> WorkloadOutcome {
        let mut net = self.sim_net(sim_cfg);
        let users = plans.len();
        for (user, plan) in plans.into_iter().enumerate() {
            let addr = load_user_addr(user);
            let client = self.load_client(user, addr.clone());
            let planned = plan.submissions.into_iter().map(|s| (0, s));
            let actor = ScheduledClient::new(vec![client], planned.collect());
            net.register(addr.clone(), Box::new(actor));
            net.start(&addr);
        }

        // A monitor's window closes land at deterministic virtual times.
        let duration_us = self.drive_sim(&mut net, SAMPLE_PERIOD_US, horizon_us);

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
        // Before returning, so a monitor's owner closing its last window
        // at `duration_us` sees every completed query's latency.
        outcome.observe_latencies(&self.config.tracer);
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
    fn an_unsorted_schedule_lands_each_mutation_once_at_its_time() {
        // The schedule is a public list nothing sorts: the later edit is
        // listed first. The run ends at its 1 ms horizon between the two,
        // and the one past it still lands — once, and the earlier one once.
        use webdis_web::{LiveWeb, Mutation, MutationOp};
        let live = Arc::new(LiveWeb::from_hosted(&two_site_web()));
        let mut deployment = Deployment::new(Arc::clone(&live), EngineConfig::default());
        for (at_us, url) in [(10_000_000, "http://b.test/"), (1, "http://a.test/")] {
            let url = webdis_model::Url::parse(url).unwrap();
            let op = MutationOp::EditPage {
                url,
                token: "needle".into(),
            };
            deployment.schedule.events.push(Mutation { at_us, op });
        }
        deployment.workload_sim(SimConfig::default(), Vec::new(), 1_000);
        let versions = (live.site_version("a.test"), live.site_version("b.test"));
        assert_eq!(versions, (1, 1));
    }

    #[test]
    fn plain_web_servers_serve_fetch_requests() {
        /// Fetches its URLs on Start and keeps the replies.
        struct Fetcher(Vec<&'static str>, Vec<FetchResponse>);
        impl Actor for Fetcher {
            fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
                match event {
                    Event::Start => {
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
                    Event::Net(Message::FetchReply(reply)) => self.1.push(reply),
                    Event::Net(_) | Event::Timer(_) => {}
                }
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

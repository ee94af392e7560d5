//! One-call harness: run a DISQL query on a hosted web over the
//! deterministic simulator and collect everything the experiments need.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use webdis_disql::{parse_disql, DisqlError, WebQuery};
use webdis_model::{SiteAddr, Url};
use webdis_net::{CloneState, Message, QueryId};
use webdis_rel::ResultRow;
use webdis_sim::{Actor, Ctx, Metrics, SendError, SimConfig, SimEvent, SimNet};

use crate::cht::ChtStats;
use crate::config::EngineConfig;
use crate::network::{query_server_addr, Network, NetworkError};
use crate::server::{fetch_reply, ServerEngine, ServerStats};
use crate::user::{TraceEvent, UserSite};

/// The address the user-site client listens on in simulated runs.
pub fn user_addr() -> SiteAddr {
    SiteAddr {
        host: "user.test".into(),
        port: 9900,
    }
}

/// Harness errors.
#[derive(Debug)]
pub enum SimRunError {
    /// The DISQL text did not parse/validate.
    Parse(DisqlError),
}

impl fmt::Display for SimRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimRunError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimRunError {}

/// Everything a finished run exposes.
#[derive(Debug)]
pub struct QueryOutcome {
    /// True when the CHT detected completion (it always should, absent
    /// fault injection).
    pub complete: bool,
    /// Rows per global stage, with producing node.
    pub results: BTreeMap<u32, Vec<(Url, ResultRow)>>,
    /// Node-report trace in arrival order.
    pub trace: Vec<TraceEvent>,
    /// Network traffic metrics.
    pub metrics: Metrics,
    /// Virtual makespan of the whole run, µs.
    pub duration_us: u64,
    /// Virtual time of the first result row at the user site.
    pub first_result_us: Option<u64>,
    /// Virtual time completion was detected.
    pub completed_at_us: Option<u64>,
    /// Per-site server counters.
    pub server_stats: BTreeMap<SiteAddr, ServerStats>,
    /// User-site CHT counters.
    pub cht_stats: ChtStats,
    /// Nodes written off by stale-entry expiry (Section 7.1 graceful
    /// recovery). Empty on fault-free runs.
    pub failed_entries: Vec<(Url, CloneState)>,
    /// Nodes refused by server-side admission control. Empty unless the
    /// config sets an [`AdmissionPolicy`](crate::config::AdmissionPolicy)
    /// and the offered load exceeded it.
    pub shed_entries: Vec<(Url, CloneState)>,
    /// Nodes whose documents were deleted before the clone arrived
    /// (living-web link rot, reported as dead links). Always empty on a
    /// frozen web.
    pub dead_link_entries: Vec<(Url, CloneState)>,
    /// A human-readable diagnosis when the run was not cleanly complete
    /// (still-outstanding state, or which nodes were expired). `None` for
    /// a clean run.
    pub why_incomplete: Option<String>,
}

impl QueryOutcome {
    /// Rows of one stage (empty slice if none).
    pub fn rows_of_stage(&self, stage: u32) -> &[(Url, ResultRow)] {
        self.results.get(&stage).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total rows across stages.
    pub fn total_rows(&self) -> usize {
        self.results.values().map(Vec::len).sum()
    }

    /// A canonical, order-insensitive view of the results — used to check
    /// that different engines/configurations agree.
    pub fn result_set(&self) -> BTreeSet<(u32, String, Vec<String>)> {
        let mut out = BTreeSet::new();
        for (stage, rows) in &self.results {
            for (node, row) in rows {
                out.insert((
                    *stage,
                    node.to_string(),
                    row.values.iter().map(|v| v.render()).collect(),
                ));
            }
        }
        out
    }

    /// Sum of one server counter over all sites.
    pub fn sum_stat(&self, f: impl Fn(&ServerStats) -> u64) -> u64 {
        self.server_stats.values().map(f).sum()
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

/// A plain 1999 web server: answers document fetches, runs no query
/// daemon. Every site gets one; *participating* sites additionally run a
/// [`ServerEngine`] at their [`query_server_addr`].
pub struct PlainWebServer {
    web: webdis_web::WebView,
}

impl PlainWebServer {
    /// A web server for the documents of `web`: a frozen snapshot, or a
    /// shared living web whose fetches answer from the content version
    /// current at request time.
    pub fn new(web: webdis_web::WebView) -> PlainWebServer {
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

/// The user-site client bound to the simulator.
pub struct SimUser {
    /// The wrapped client (public so harnesses can read results).
    pub user: UserSite,
}

/// Timer token for the user actor's periodic expiry sweep.
const EXPIRY_TIMER_TOKEN: u64 = 1;

impl SimUser {
    /// Arms the next expiry sweep, if the config asks for one and the
    /// query is still running.
    fn arm_expiry(&self, ctx: &mut Ctx<'_>) {
        if self.user.complete {
            return;
        }
        if let Some(policy) = self.user.expiry_policy() {
            ctx.schedule_timer(policy.period_us, EXPIRY_TIMER_TOKEN);
        }
    }
}

impl Actor for SimUser {
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
        match event {
            SimEvent::Start => {
                self.user.start(&mut CtxNet(ctx));
                self.arm_expiry(ctx);
            }
            SimEvent::Net(msg) => self.user.on_message(&mut CtxNet(ctx), msg),
            SimEvent::Timer(EXPIRY_TIMER_TOKEN) => {
                if let Some(policy) = self.user.expiry_policy() {
                    if !self.user.complete {
                        self.user.expire_stale(ctx.now_us(), policy.timeout_us);
                    }
                }
                self.arm_expiry(ctx);
            }
            SimEvent::Timer(_) => {}
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Builds a fully-wired simulation: one query server per site of `web`,
/// one user-site client for `query`. Returned net is ready to
/// [`run`](SimNet::run) after [`start`](SimNet::start)ing [`user_addr`].
pub fn build_sim(
    web: Arc<webdis_web::HostedWeb>,
    query: WebQuery,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> SimNet {
    build_sim_participating(web, query, engine_cfg, sim_cfg, None)
}

/// Like [`build_sim`], but only the listed sites run query servers; the
/// rest are plain web servers (Section 7.1's non-participating sites).
/// `None` means every site participates.
pub fn build_sim_participating(
    web: Arc<webdis_web::HostedWeb>,
    query: WebQuery,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
    participating: Option<&[SiteAddr]>,
) -> SimNet {
    let mut net = SimNet::new(sim_cfg);
    net.set_tracer(engine_cfg.tracer.clone());
    register_web_sites(&mut net, &web.into(), &engine_cfg, participating);
    let id = QueryId {
        user: "webdis".into(),
        host: user_addr().host,
        port: user_addr().port,
        query_num: 1,
    };
    let user = UserSite::new(id, query, engine_cfg);
    net.register(user_addr(), Box::new(SimUser { user }));
    net
}

/// Registers the per-site actors of `web` into `net`: a plain web server
/// for every site, plus a query daemon at each participating site's
/// [`query_server_addr`] (`None` = every site participates). Shared by
/// the single-query builders above and the `webdis-load` workload
/// driver, which registers its own user actors on top.
///
/// On a living web "every site" is every *declared* host — including
/// sites that currently serve no documents, since a `site_join` mutation
/// may bring them back — and all actors share the same evolving store:
/// the harness applies the mutation schedule to it between simulation
/// slices, and the engines observe version bumps on their next clone
/// arrival.
pub fn register_web_sites(
    net: &mut SimNet,
    web: &webdis_web::WebView,
    engine_cfg: &EngineConfig,
    participating: Option<&[SiteAddr]>,
) {
    for site in web.sites() {
        // Every site serves documents...
        net.register(site.clone(), Box::new(PlainWebServer::new(web.clone())));
        // ...participating sites also run the query daemon.
        let participates = participating.map(|p| p.contains(&site)).unwrap_or(true);
        if participates {
            let engine = ServerEngine::with_view(site.clone(), web.clone(), engine_cfg.clone());
            net.register(query_server_addr(&site), Box::new(SimServer { engine }));
        }
    }
}

/// Runs a DISQL query over the simulated network and collects the outcome.
pub fn run_query_sim(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<QueryOutcome, SimRunError> {
    let query = parse_disql(disql).map_err(SimRunError::Parse)?;
    let sites = web.sites();
    let mut net = build_sim(web, query, engine_cfg, sim_cfg);
    net.start(&user_addr());
    let duration_us = net.run();
    Ok(collect_outcome(&mut net, sites, duration_us, |net| {
        let user = net.actor_mut::<SimUser>(&user_addr());
        &user.expect("user actor registered").user
    }))
}

/// Gathers a finished single-query run: the user site's view of the
/// query (`user_of` finds it among the actors), the network's traffic
/// metrics and every participating site's server counters.
pub(crate) fn collect_outcome(
    net: &mut SimNet,
    sites: Vec<SiteAddr>,
    duration_us: u64,
    user_of: impl FnOnce(&mut SimNet) -> &UserSite,
) -> QueryOutcome {
    let mut server_stats = BTreeMap::new();
    for site in sites {
        if let Some(server) = net.actor_mut::<SimServer>(&query_server_addr(&site)) {
            server_stats.insert(site, server.engine.stats);
        }
    }
    let metrics = net.metrics.clone();
    let user = user_of(net);
    QueryOutcome {
        complete: user.complete,
        results: user.results.clone(),
        trace: user.trace.clone(),
        first_result_us: user.first_result_us,
        completed_at_us: user.completed_at_us,
        cht_stats: user.cht.stats,
        failed_entries: user.failed_entries.clone(),
        shed_entries: user.shed_entries.clone(),
        dead_link_entries: user.dead_link_entries.clone(),
        why_incomplete: user.why_incomplete(),
        metrics,
        duration_us,
        server_stats,
    }
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
    fn parse_error_is_reported() {
        let err = run_query_sim(
            two_site_web(),
            "select nonsense",
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimRunError::Parse(_)));
    }
}

//! The user-site **client process** (Section 4.3): one result endpoint,
//! many concurrent queries.
//!
//! The paper's QueryID carries `(user, IP, port, query number)` precisely
//! so one listening socket can serve several in-flight web-queries and
//! route results "into a single file" per query. [`ClientProcess`] owns
//! the per-query [`UserSite`]s, assigns query numbers, and dispatches
//! incoming reports by id. Query servers already isolate queries by id in
//! their log tables, so concurrent queries never interfere — covered by
//! `tests/multi_query.rs`.
//!
//! A single-query run is the n = 1 case: Figure 2's
//! `send_query`/`receive_results` is one [`UserSite`] inside a client
//! process. What submits and sweeps on schedule is [`ScheduledClient`],
//! the actor of the simulator and of
//! [`TcpCluster::drive`](crate::TcpCluster::drive) on TCP alike.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use webdis_disql::WebQuery;
use webdis_model::SiteAddr;
use webdis_net::{Message, QueryId};
use webdis_sim::{Actor, Event};

use crate::config::EngineConfig;
use crate::network::Network;
use crate::record::QueryRecord;
use crate::user::UserSite;

/// A multi-query user-site client.
pub struct ClientProcess {
    user: Arc<str>,
    addr: SiteAddr,
    config: EngineConfig,
    next_query_num: u64,
    queries: BTreeMap<u64, UserSite>,
}

impl ClientProcess {
    /// A client for `user`, receiving results at `addr`.
    pub fn new(user: &str, addr: SiteAddr, config: EngineConfig) -> ClientProcess {
        ClientProcess {
            user: user.into(),
            addr,
            config,
            next_query_num: 1,
            queries: BTreeMap::new(),
        }
    }

    /// Submits an already-parsed web-query; returns its query number.
    pub fn submit(&mut self, net: &mut dyn Network, query: WebQuery) -> u64 {
        let query_num = self.next_query_num;
        self.next_query_num += 1;
        let id = QueryId {
            user: self.user.clone(),
            host: self.addr.host.clone(),
            port: self.addr.port,
            query_num,
        };
        let mut site = UserSite::new(id, query, self.config.clone());
        site.start(net);
        self.queries.insert(query_num, site);
        query_num
    }

    /// The number of the query `msg` is for: the one a result report or
    /// completion ack addressed to this client names, or — a download
    /// answers one request, and names no query — the first still awaiting
    /// a fetched document.
    fn addressed(&self, msg: &Message) -> Option<u64> {
        let id = match msg {
            Message::Report(report) => &report.id,
            Message::Ack(ack) => &ack.id,
            Message::FetchReply(reply) => {
                let url = reply.url.without_fragment();
                let mut awaiting = self.queries.iter().filter(|(_, q)| q.awaits(&url));
                return awaiting.next().map(|(num, _)| *num);
            }
            _ => return None,
        };
        let ours = id.user == self.user && id.host == self.addr.host && id.port == self.addr.port;
        ours.then_some(id.query_num)
    }

    /// True when `msg` is addressed to this client — what lets several
    /// client processes share one listening endpoint.
    pub fn owns(&self, msg: &Message) -> bool {
        self.addressed(msg).is_some()
    }

    /// Routes an incoming message (result report, completion ack or
    /// fetched document) to the owning query; anyone else's, or a
    /// forgotten query's, is ignored.
    pub fn on_message(&mut self, net: &mut dyn Network, msg: Message) {
        let query_num = self.addressed(&msg);
        if let Some(site) = query_num.and_then(|num| self.queries.get_mut(&num)) {
            site.on_message(net, msg);
        }
    }

    /// The state of one query, if it exists.
    pub fn query(&self, query_num: u64) -> Option<&UserSite> {
        self.queries.get(&query_num)
    }

    /// Mutable access (e.g. to call `expire_stale`).
    pub fn query_mut(&mut self, query_num: u64) -> Option<&mut UserSite> {
        self.queries.get_mut(&query_num)
    }

    /// True when every submitted query has completed.
    pub fn all_complete(&self) -> bool {
        self.queries.values().all(|q| q.complete)
    }

    /// Discards a finished (or cancelled) query's state.
    pub fn forget(&mut self, query_num: u64) -> Option<UserSite> {
        self.queries.remove(&query_num)
    }

    /// One [`QueryRecord`] per submitted query, in query-number order,
    /// filed under client index `user`. The end of a run: the queries
    /// move into their records and the client forgets them.
    pub fn take_records(&mut self, user: usize) -> Vec<QueryRecord> {
        let sites = std::mem::take(&mut self.queries).into_values();
        sites.map(|site| site.into_record(user)).collect()
    }

    /// The expiry timeout the in-flight queries ask for
    /// ([`UserSite::expiry_us`]; they share one configuration): `None`
    /// when nothing is in flight or nothing can expire.
    pub fn expiry_us(&self) -> Option<u64> {
        let in_flight = self.queries.values().find(|q| !q.complete);
        in_flight.and_then(UserSite::expiry_us)
    }

    /// Runs the Section-7.1 expiry sweep over every in-flight query.
    /// Returns the number of entries expired across all of them.
    pub fn expire_stale_all(&mut self, now_us: u64) -> usize {
        let in_flight = self.queries.values_mut().filter(|q| !q.complete);
        in_flight
            .filter_map(|q| Some(q.expire_stale(now_us, q.expiry_us()?)))
            .sum()
    }
}

/// One planned submission.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Planned submission time, µs since the run began.
    pub at_us: u64,
    /// Index into the planner's template mix (for per-template
    /// breakdowns; 0 where there is no mix).
    pub template: usize,
    /// The (already parsed) query to submit.
    pub query: WebQuery,
}

impl PlannedQuery {
    /// `query`, submitted at `at_us`.
    pub fn at(at_us: u64, query: WebQuery) -> PlannedQuery {
        PlannedQuery {
            at_us,
            template: 0,
            query,
        }
    }
}

/// One user's schedule in a workload plan. A user is its plan's
/// position in the plan list: user `i`'s client is `load<i>`, and its
/// records carry `user` = `i`.
#[derive(Debug, Clone)]
pub struct UserPlan {
    /// Submissions, earliest first.
    pub submissions: Vec<PlannedQuery>,
}

/// The user site of either runtime: the client processes behind one
/// result endpoint (told apart by the user name in every report's id;
/// the simulator gives each user an endpoint of its own) and their two
/// timer chains — the next planned submission, and the Section-7.1
/// expiry sweep, armed while a query that can expire is in flight. It
/// asks for its timers through [`Network::post`] and is handed them back
/// by whatever runs the actor it is: the simulator (a single-query run
/// schedules one submission at t = 0; many such actors interleave
/// deterministically in one event loop), or
/// [`TcpCluster::drive`](crate::TcpCluster::drive).
pub struct ScheduledClient {
    /// The wrapped multi-query clients.
    pub clients: Vec<ClientProcess>,
    /// Remaining submissions and the index of the client each belongs
    /// to, earliest first.
    pending: VecDeque<(usize, PlannedQuery)>,
    expiry_armed: bool,
}

/// Timer token for the periodic expiry sweep.
pub(crate) const EXPIRY_TIMER_TOKEN: u64 = 1;
/// Timer token for the next scheduled submission, whose work the
/// kick-off does too.
const SUBMIT_TIMER_TOKEN: u64 = 2;

impl ScheduledClient {
    /// `clients` and their `(client index, submission)` plan, which need
    /// not be sorted.
    pub fn new(
        clients: Vec<ClientProcess>,
        mut plan: Vec<(usize, PlannedQuery)>,
    ) -> ScheduledClient {
        plan.sort_by_key(|(client, s)| (s.at_us, *client));
        ScheduledClient {
            clients,
            pending: plan.into(),
            expiry_armed: false,
        }
    }

    /// Planned submissions that have not gone out yet.
    pub fn unsubmitted(&self) -> usize {
        self.pending.len()
    }

    /// True when every planned query has gone out and completed.
    pub fn done(&self) -> bool {
        self.pending.is_empty() && self.clients.iter().all(ClientProcess::all_complete)
    }
}

/// A message goes to the client process it is addressed to. The
/// kick-off or a submission timer submits what is due and asks for the
/// next; an expiry timer sweeps (anyone else's token is ignored); either
/// then arms one expiry sweep unless one is already pending (submissions
/// and sweeps both re-arm; the flag keeps the chains from multiplying).
/// The sweep runs every quarter of the expiry timeout. A kick-off finds
/// no sweep pending: each TCP drive starts from a fresh agenda.
impl Actor for ScheduledClient {
    fn handle(&mut self, net: &mut dyn Network, event: Event) {
        let now = net.now_us();
        match event {
            Event::Net(msg) => {
                if let Some(client) = self.clients.iter_mut().find(|c| c.owns(&msg)) {
                    client.on_message(net, msg);
                }
                return;
            }
            Event::Start | Event::Timer(SUBMIT_TIMER_TOKEN) => {
                self.expiry_armed &= event != Event::Start;
                while self.pending.front().is_some_and(|(_, s)| s.at_us <= now) {
                    let (client, s) = self.pending.pop_front().expect("front checked");
                    self.clients[client].submit(net, s.query);
                }
                if let Some((_, next)) = self.pending.front() {
                    net.post(next.at_us.saturating_sub(now), SUBMIT_TIMER_TOKEN);
                }
            }
            Event::Timer(EXPIRY_TIMER_TOKEN) => {
                self.expiry_armed = false;
                for client in &mut self.clients {
                    client.expire_stale_all(now);
                }
            }
            Event::Timer(_) => return,
        }
        if !self.expiry_armed {
            if let Some(timeout_us) = self.clients.iter().find_map(ClientProcess::expiry_us) {
                net.post((timeout_us / 4).max(1), EXPIRY_TIMER_TOKEN);
                self.expiry_armed = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RecordingNetwork;
    use webdis_disql::parse_disql;

    fn addr() -> SiteAddr {
        SiteAddr {
            host: "user.test".into(),
            port: 9900,
        }
    }

    #[test]
    fn assigns_sequential_query_numbers() {
        let mut client = ClientProcess::new("u", addr(), EngineConfig::default());
        let mut net = RecordingNetwork::default();
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let n1 = client.submit(&mut net, parse_disql(q).unwrap());
        let n2 = client.submit(&mut net, parse_disql(q).unwrap());
        assert_eq!((n1, n2), (1, 2));
        assert!(client.query(1).is_some() && client.query(2).is_some());
        assert!(client.query(3).is_none());
        assert!(!client.all_complete());
        // Two clones dispatched, one per query, with distinct ids.
        let ids: Vec<u64> = net
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Report(_)
                | Message::Ack(_)
                | Message::Fetch(_)
                | Message::FetchReply(_) => None,
                Message::Query(c) => Some(c.id.query_num),
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn routes_by_query_number_and_identity() {
        let mut client = ClientProcess::new("u", addr(), EngineConfig::default());
        let mut net = RecordingNetwork::default();
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let n1 = client.submit(&mut net, parse_disql(q).unwrap());
        // A report for someone else's query (different user) is ignored.
        let foreign = webdis_net::ResultReport {
            id: QueryId {
                user: "other".into(),
                host: "user.test".into(),
                port: 9900,
                query_num: n1,
            },
            origin: "a.test".into(),
            seq: 1,
            reports: vec![],
        };
        client.on_message(&mut net, Message::Report(foreign));
        assert!(client.query(n1).unwrap().trace.is_empty());
        // A report with an unknown query number is ignored too.
        let unknown = webdis_net::ResultReport {
            id: QueryId {
                user: "u".into(),
                host: "user.test".into(),
                port: 9900,
                query_num: 42,
            },
            origin: "a.test".into(),
            seq: 2,
            reports: vec![],
        };
        client.on_message(&mut net, Message::Report(unknown));
    }

    #[test]
    fn scheduled_client_keeps_one_submission_timer_and_one_expiry_chain() {
        let cfg = EngineConfig {
            expiry_us: Some(4_000),
            ..EngineConfig::default()
        };
        let client = ClientProcess::new("u", addr(), cfg);
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let at = |at_us| (0, PlannedQuery::at(at_us, parse_disql(q).unwrap()));
        let mut user = ScheduledClient::new(vec![client], vec![at(3_000), at(500), at(1_700)]);
        let mut net = RecordingNetwork::default();
        // Play the runtime: hand back whatever is due, earliest first,
        // and look at what is outstanding after every step.
        let mut due = vec![(0, SUBMIT_TIMER_TOKEN)];
        let mut submitted_at = Vec::new();
        while let Some((at_us, token)) = due.pop() {
            net.time_us = at_us;
            let before = user.unsubmitted();
            user.handle(&mut net, Event::Timer(token));
            submitted_at.extend((user.unsubmitted()..before).map(|_| at_us));
            due.append(&mut net.posted);
            due.sort_by_key(|&timer| std::cmp::Reverse(timer));
            let outstanding = |t| due.iter().filter(|(_, token)| *token == t).count();
            // One sweep pending while something can expire, none after.
            let in_flight = usize::from(user.clients[0].expiry_us().is_some());
            assert_eq!(
                outstanding(EXPIRY_TIMER_TOKEN),
                in_flight,
                "at {at_us}: {due:?}"
            );
            let more = usize::from(user.unsubmitted() > 0);
            assert_eq!(outstanding(SUBMIT_TIMER_TOKEN), more, "at {at_us}: {due:?}");
        }
        assert_eq!(submitted_at, [500, 1_700, 3_000]);
        // Nobody answered, so the sweeps wrote all three off and stopped.
        assert!(user.done() && net.time_us > 7_000);
        // Someone else's token changes nothing.
        user.handle(&mut net, Event::Timer(99));
        assert!(net.posted.is_empty());
    }

    /// One query of `cfg`'s client, submitted at t = 0, and the network
    /// its submission went out on.
    fn one_unanswered_query(cfg: EngineConfig) -> (ScheduledClient, RecordingNetwork) {
        let client = ClientProcess::new("u", addr(), cfg);
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let plan = vec![(0, PlannedQuery::at(0, parse_disql(q).unwrap()))];
        let mut user = ScheduledClient::new(vec![client], plan);
        let mut net = RecordingNetwork::default();
        user.handle(&mut net, Event::Start);
        (user, net)
    }

    #[test]
    fn the_expiry_sweep_runs_every_quarter_of_the_timeout() {
        let cfg = EngineConfig {
            expiry_us: Some(4_000),
            ..EngineConfig::default()
        };
        let (mut user, mut net) = one_unanswered_query(cfg);
        // Nobody answers: the sweep comes back every 1 000 µs until, a
        // whole timeout in, it writes the query's one entry off.
        let mut sweeps = Vec::new();
        while let Some((at_us, token)) = net.posted.pop() {
            assert!(net.posted.is_empty(), "one chain");
            assert_eq!(token, EXPIRY_TIMER_TOKEN);
            sweeps.push(at_us);
            net.time_us = at_us;
            user.handle(&mut net, Event::Timer(token));
        }
        assert_eq!(sweeps, [1_000, 2_000, 3_000, 4_000]);
        assert!(user.done());
        assert_eq!(user.clients[0].query(1).unwrap().failed_entries.len(), 1);
    }

    #[test]
    fn ack_chain_queries_are_never_swept_and_never_expire() {
        let cfg = EngineConfig {
            expiry_us: Some(4_000),
            ..EngineConfig::ack_chain()
        };
        let (mut user, mut net) = one_unanswered_query(cfg);
        assert!(net.posted.is_empty(), "no sweep armed: {:?}", net.posted);
        assert_eq!(user.clients[0].expiry_us(), None);
        net.time_us = 1_000_000;
        user.handle(&mut net, Event::Timer(EXPIRY_TIMER_TOKEN));
        assert!(net.posted.is_empty(), "no sweep re-armed: {:?}", net.posted);
        assert_eq!(user.clients[0].expire_stale_all(net.time_us), 0);
        let query = user.clients[0].query(1).unwrap();
        assert!(!query.complete && query.failed_entries.is_empty());
    }

    #[test]
    fn stray_and_duplicated_fetch_replies_are_ignored() {
        use crate::network::query_server_addr;
        use webdis_model::Url;
        use webdis_net::FetchResponse;

        // a.test runs no query server, so the hybrid client falls back:
        // it downloads the StartNode itself.
        let cfg = EngineConfig {
            hybrid: true,
            ..EngineConfig::default()
        };
        let mut client = ClientProcess::new("u", addr(), cfg);
        let a_test = Url::parse("http://a.test/").unwrap().site();
        let mut net = RecordingNetwork {
            unreachable: vec![query_server_addr(&a_test)],
            ..RecordingNetwork::default()
        };
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let n = client.submit(&mut net, parse_disql(q).unwrap());
        assert!(matches!(&net.sent[..], [(to, Message::Fetch(_))] if *to == a_test));
        let reply = |url: &str, html: &str| {
            Message::FetchReply(FetchResponse {
                url: Url::parse(url).unwrap(),
                html: Some(html.to_owned()),
            })
        };
        let fate = |client: &ClientProcess| {
            let site = client.query(n).unwrap();
            (site.cht.stats, site.trace.len(), site.hybrid, site.complete)
        };

        // A download nobody asked for: no query awaits it.
        let before = fate(&client);
        let stray = reply("http://b.test/", "<title>B</title>");
        assert!(!client.owns(&stray));
        client.on_message(&mut net, stray);
        assert_eq!(fate(&client), before);

        // The one that was asked for is evaluated locally and completes
        // the query (the page links nowhere)...
        let page = "<title>A</title><p>no links</p>";
        client.on_message(&mut net, reply("http://a.test/", page));
        let after = fate(&client);
        assert!(after.3, "{:?}", client.query(n).unwrap().why_incomplete());
        assert_eq!(
            (after.1, after.2.fetches, after.2.local_evaluations),
            (1, 1, 1)
        );
        assert_eq!(client.query(n).unwrap().total_rows(), 1);

        // ...and its duplicate — an already-downloaded URL, a completed
        // query — touches neither the rows nor the CHT, whether it comes
        // through the client process or straight at the user site.
        let dup = reply("http://a.test/", page);
        assert!(!client.owns(&dup));
        client.on_message(&mut net, dup.clone());
        client.query_mut(n).unwrap().on_message(&mut net, dup);
        assert_eq!(fate(&client), after);
        assert_eq!(client.query(n).unwrap().total_rows(), 1);
        assert_eq!(net.sent.len(), 1, "nothing further was sent");
    }

    #[test]
    fn forget_removes_state() {
        let mut client = ClientProcess::new("u", addr(), EngineConfig::default());
        let mut net = RecordingNetwork::default();
        let q = r#"select d.url from document d such that "http://a.test/" L* d"#;
        let n = client.submit(&mut net, parse_disql(q).unwrap());
        assert!(client.forget(n).is_some());
        assert!(client.forget(n).is_none());
        assert!(client.query(n).is_none());
        assert!(client.all_complete(), "no remaining queries");
    }
}

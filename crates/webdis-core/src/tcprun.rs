//! The engine on real TCP sockets over loopback — the deployment shape of
//! the paper's Java prototype: one daemon (I/O thread + engine) per
//! site, the user-site client collecting results on its own listening
//! socket, passive termination by closing that socket. Unlike the
//! prototype, a sender keeps its connection to each peer open and
//! dials only on first use.
//!
//! Each simulated site gets an ephemeral `127.0.0.1` port; a shared
//! address map plays DNS. Experiments use the deterministic simulator;
//! this runtime exists to demonstrate (and integration-test) that the
//! identical engine code is operational over real sockets.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use webdis_disql::{parse_disql, DisqlError};
use webdis_model::SiteAddr;
use webdis_net::{
    Closer, ConnPool, Frame, Message, Received, RetryPolicy, TcpEndpoint, WireCounters,
};
use webdis_sim::{Fate, Fault, Injector, Ledger};
use webdis_trace::MetricsExporter;

use crate::client::{ClientProcess, PlannedQuery, ScheduledClient, UserPlan, SUBMIT_TIMER_TOKEN};
use crate::config::EngineConfig;
use crate::deploy::Deployment;
use crate::network::{query_server_addr, Network, NetworkError};
use crate::record::{QueryRecord, WorkloadOutcome};
use crate::server::ServerEngine;
use crate::simrun::user_addr;

/// The fault list a cluster is started with — `webdis_sim::Fault`, the
/// simulator's vocabulary. (A name kept because the wall-clock benchmark,
/// `hwbench/`, calls `TcpFaultPlan::default()`.)
pub type TcpFaultPlan = Vec<Fault>;

/// The edges of `daemon`'s [`Fault::Crash`] windows, as [`serve`]
/// deadlines.
fn crash_edges(faults: &[Fault], daemon: &SiteAddr) -> BinaryHeap<Reverse<(u64, u64)>> {
    let windows = faults.iter().filter_map(Fault::crash_edges);
    let windows = windows.filter(|(site, ..)| *site == daemon);
    let edges = windows.flat_map(|(_, down_us, up_us)| {
        [
            Some((down_us, CRASH_TOKEN)),
            up_us.map(|up_us| (up_us, RESPAWN_TOKEN)),
        ]
    });
    edges.flatten().map(Reverse).collect()
}

/// A `Network` that resolves site addresses through the shared map and
/// dispatches over its own pool of long-lived connections, one per peer,
/// dialled on first send (retried with backoff on transient failures;
/// connection-refused — the passive-termination signal — is surfaced
/// immediately). Obtained from [`TcpCluster::user_net`]; one clone per
/// thread, and a clone starts with an empty pool.
#[derive(Clone)]
pub struct TcpNet {
    map: Arc<BTreeMap<SiteAddr, SocketAddr>>,
    pool: ConnPool,
    epoch: Instant,
    /// Host name of the endpoint this handle belongs to, for trace stamps.
    from: String,
    /// That endpoint's address as the engine sends to it (`wdqs.<host>`
    /// for a daemon): the sending end of a link a rate fault names.
    addr: SiteAddr,
    retry: RetryPolicy,
    /// The run's fault decision, shared by every handle; `None` for an
    /// empty fault list, which is all a fault-free send looks at.
    faults: Option<Arc<Mutex<Injector>>>,
    /// Where every message's fate is metered and traced — one meter per
    /// cluster, so `/metrics` sees traffic from every daemon and from
    /// the user-site client alike.
    ledger: Ledger,
    /// Wall-clock queue wait of the message currently being handled,
    /// set by the daemon before `on_message` so the engine's `queue_us`
    /// span sees the channel dwell time. Always zero on client-side
    /// handles.
    queue_wait_us: u64,
    /// What has been [`post`](Network::post)ed and is not due yet,
    /// `(due_us, token)`, earliest first: the deadlines of the
    /// [`serve`] loop this handle is running under.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
}

impl TcpNet {
    /// Hands the fate `msg` met on its way to host `to` to the ledger,
    /// stamped as this endpoint at the wall clock.
    fn record(&self, fate: Fate, msg: &Message, bytes: usize, to: &str) {
        let at_us = || self.now_us();
        self.ledger.record(fate, msg, bytes, to, &self.from, at_us);
    }
}

impl Network for TcpNet {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        // Encoded once: the frame is what gets counted, damaged and sent.
        let frame = Frame::encode(&msg);
        let bytes = frame.as_ref().map_or(0, |frame| frame.payload().len());
        let refused = |net: &TcpNet| {
            net.record(Fate::Refused, &msg, bytes, &to.host);
            Err(NetworkError { to: to.clone() })
        };
        let (Some(&addr), Ok(mut frame)) = (self.map.get(to), frame) else {
            return refused(self);
        };
        let verdict = self.faults.as_ref().map_or(Ok((0, None)), |faults| {
            let now_us = self.now_us();
            faults.lock().decide(now_us, &self.addr.host, &to.host, 0)
        });
        let duplicate = match verdict {
            Ok((_, copy)) => copy.is_some(),
            Err(lost) => {
                if lost == Fate::Corrupted {
                    // Flip one byte mid-payload and push the mangled frame
                    // down the same pooled connection: the receiver's
                    // decoder rejects it, so this is loss exercised through
                    // the `WireError` path rather than a silent swallow.
                    let payload = frame.payload_mut();
                    payload[payload.len() / 2] ^= 0xff;
                    let _ = self.pool.send(addr, &frame);
                }
                // The sender believes the send succeeded, exactly like a
                // message lost in flight.
                self.record(lost, &msg, bytes, &to.host);
                return Ok(());
            }
        };
        // The retry callback traces through `&self`, so the pool steps
        // out of `self` for the duration of the send.
        let mut pool = std::mem::take(&mut self.pool);
        let sent = pool.send_retrying(addr, &frame, self.retry, |attempt| {
            let at_us = self.now_us();
            self.ledger
                .retried(&msg, &to.host, attempt, &self.from, at_us);
        });
        self.pool = pool;
        if sent.is_err() {
            return refused(self);
        }
        self.record(Fate::Sent, &msg, bytes, &to.host);
        // Deliver an identical second copy (a retransmitting network):
        // one logical send, two deliveries.
        if duplicate && self.pool.send(addr, &frame).is_ok() {
            self.record(Fate::Duplicated, &msg, bytes, &to.host);
        }
        Ok(())
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us
    }

    fn post(&mut self, delay_us: u64, token: u64) {
        self.timers.push(Reverse((self.now_us() + delay_us, token)));
    }
}

/// What a TCP runtime — each daemon, the user site — does next.
enum Due {
    /// A message off the endpoint.
    Message(Received),
    /// A token [`post`](Network::post)ed on the runtime's [`TcpNet`]
    /// whose delay has passed.
    Timer(u64),
}

/// The one wait of every TCP runtime, which is a loop around it: the
/// earliest posted token if it has come due, else the next message —
/// sleeping until whichever of the two is first, so an idle runtime
/// costs nothing. `None` once `endpoint` is closed, which wakes the
/// sleeper.
fn serve(endpoint: &TcpEndpoint, net: &mut TcpNet) -> Option<Due> {
    loop {
        let now = net.now_us();
        let next = net.timers.peek().map(|&Reverse(timer)| timer);
        if let Some((_, token)) = next.filter(|(at_us, _)| *at_us <= now) {
            net.timers.pop();
            return Some(Due::Timer(token));
        }
        let wait = next.map_or(Duration::MAX, |(at_us, _)| {
            Duration::from_micros(at_us - now)
        });
        match endpoint.recv_timeout_sized(wait) {
            Ok(received) if !endpoint.closing() => return Some(Due::Message(received)),
            Err(RecvTimeoutError::Timeout) => {}
            Ok(_) | Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// [`serve`] token of a daemon's periodic log purge.
const PURGE_TOKEN: u64 = 0;
/// [`serve`] tokens of a daemon's crash-window edges; at an equal
/// instant one window's end comes before the next one's start.
const RESPAWN_TOKEN: u64 = 1;
const CRASH_TOKEN: u64 = 2;
/// [`serve`] token of the user site's deadline.
const DEADLINE_TOKEN: u64 = u64::MAX;
/// How often the housekeeping thread feeds the monitor a registry
/// snapshot — the TCP analogue of the simulator's purge-tick sampling.
const SAMPLE_PERIOD_US: u64 = 50_000;

/// One query-server daemon: [`serve`]s `engine` on `endpoint` —
/// messages, the Section-3.1.1 periodic purge (when `log_purge_us` is
/// set; it runs even while idle — under sustained multi-query load this
/// bounds the log table and retires admission slots) and the crash
/// edges already among `net`'s deadlines — until the endpoint is
/// closed, and returns the engine for its final stats.
fn run_daemon(
    mut engine: ServerEngine,
    endpoint: TcpEndpoint,
    mut net: TcpNet,
    purge_period: Option<u64>,
) -> ServerEngine {
    if let Some(period) = purge_period {
        net.post(period, PURGE_TOKEN);
    }
    let mut crashed = false;
    while let Some(due) = serve(&endpoint, &mut net) {
        match due {
            Due::Timer(CRASH_TOKEN) => crashed = true,
            Due::Timer(RESPAWN_TOKEN) => {
                // Fresh volatile state, same socket.
                engine.restart();
                crashed = false;
            }
            Due::Timer(_purge) => {
                let period = purge_period.expect("a purge came due");
                engine.purge_log(net.now_us().saturating_sub(period));
                net.post(period, PURGE_TOKEN);
            }
            Due::Message(received) if crashed => {
                // The process is dead: the frame is read off the socket
                // but never processed. Traced as an explained drop so
                // trajectory triage never reports a false orphan.
                let fate = Fate::DeadLetter("crashed");
                net.record(fate, &received.msg, received.wire_bytes, &net.from);
            }
            Due::Message(received) => {
                // Inbound queue depth at dequeue: this message plus
                // whatever is still waiting.
                net.ledger
                    .arrival(&net.from, || endpoint.pending() as u64 + 1);
                net.queue_wait_us = received.queued.as_micros() as u64;
                engine.on_message(&mut net, received.msg);
                net.queue_wait_us = 0;
                let log_len = engine.log_len() as u64;
                net.ledger.tracer.gauge_max("log_len_high_water", log_len);
            }
        }
    }
    engine
}

/// The cluster's one housekeeping thread: feeds the monitor (if any) a
/// registry snapshot every [`SAMPLE_PERIOD_US`] so its windows close
/// (and alerts fire/resolve) while the cluster serves traffic — it only
/// reads: same workload, monitored or not — and applies each scheduled
/// mutation at its offset from the cluster epoch, so pages change while
/// daemons are mid-query. Sleeps until whichever is due next; `stop`
/// hanging up wakes it to finalize the monitor and return.
fn keep_house(deployment: &Deployment, epoch: Instant, stop: &Receiver<()>) {
    let now_us = || epoch.elapsed().as_micros() as u64;
    let (tracer, monitor) = (&deployment.config.tracer, &deployment.config.monitor);
    let mut mutations = deployment.schedule.events.iter().peekable();
    let mut next_sample_us = monitor.as_ref().map(|_| 0);
    loop {
        let now = now_us();
        while let Some(m) = mutations.next_if(|m| m.at_us <= now) {
            deployment.apply_mutation(m, now_us());
        }
        if next_sample_us.is_some_and(|at_us| at_us <= now) {
            if let (Some(monitor), Some(snapshot)) = (monitor, tracer.registry_snapshot()) {
                monitor.ingest(now, &snapshot);
            }
            next_sample_us = Some(now + SAMPLE_PERIOD_US);
        }
        let next = [mutations.peek().map(|m| m.at_us), next_sample_us];
        let wait = next
            .into_iter()
            .flatten()
            .min()
            .map_or(Duration::MAX, |at_us| {
                Duration::from_micros(at_us.saturating_sub(now_us()))
            });
        if stop.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
    if let (Some(monitor), Some(snapshot)) = (monitor, tracer.registry_snapshot()) {
        monitor.finalize(now_us(), &snapshot);
    }
}

/// A running loopback deployment: one query-server daemon thread per
/// site of the hosted web, one bound user endpoint, and the shared
/// address map playing DNS. All endpoints are bound before any daemon
/// starts, so the map is complete from the first message. The
/// single-query runners and the `webdis-load` workload driver all build
/// on this.
pub struct TcpCluster {
    user_endpoint: TcpEndpoint,
    /// The user site's network handle; every other handle of the cluster
    /// is a clone of it under another name.
    net: TcpNet,
    /// Every daemon and the handle that closes its endpoint, which is
    /// what ends (and wakes) its [`serve`] loop.
    daemons: Vec<(Closer, std::thread::JoinHandle<ServerEngine>)>,
    /// The cluster's admin socket (`/metrics`, `/status`,
    /// `/reset_high_water`).
    admin: MetricsExporter,
    /// The housekeeping thread ([`keep_house`]; clusters with a monitor
    /// or a mutation schedule) and the channel whose hanging up stops it.
    housekeeper: Option<(Sender<()>, std::thread::JoinHandle<()>)>,
}

impl TcpCluster {
    /// `web`, every site running a daemon under `engine_cfg`:
    /// [`Deployment::tcp_cluster`] with nothing else said.
    pub fn start(
        web: impl Into<webdis_web::WebView>,
        engine_cfg: &EngineConfig,
        faults: Vec<Fault>,
    ) -> TcpCluster {
        Deployment::new(web, engine_cfg.clone()).tcp_cluster(faults)
    }

    /// [`TcpCluster::start`] over a shared living web, with an optional
    /// mutation schedule; kept under its own name because the wall-clock
    /// benchmark (`hwbench/`) calls it.
    pub fn start_live(
        web: Arc<webdis_web::LiveWeb>,
        engine_cfg: &EngineConfig,
        faults: Vec<Fault>,
        schedule: Option<webdis_web::MutationSchedule>,
    ) -> TcpCluster {
        let mut deployment = Deployment::new(web, engine_cfg.clone());
        deployment.schedule = schedule.unwrap_or_default();
        deployment.tcp_cluster(faults)
    }
}

impl Deployment {
    /// Starts the deployment on loopback under `faults`: binds every
    /// endpoint and the cluster's one admin socket
    /// ([`TcpCluster::admin_addr`]), then spawns one daemon
    /// ([`run_daemon`]) per participating site, which raises the `log_len_high_water`
    /// registry gauge after every processed message. Rate and partition
    /// faults are decided per send, partition windows in µs since the
    /// cluster came up; a daemon's [`Fault::Crash`] windows are deadlines
    /// of its own wait. The daemons race for the one RNG, so rate draws
    /// are not seed-deterministic: a rate of 0 or 1 is.
    ///
    /// With a monitor or a non-empty schedule, one housekeeping thread
    /// ([`keep_house`]) samples for the former and applies each event of
    /// the latter at its wall-clock offset from the cluster epoch —
    /// pages change *while queries are in flight* — emitting one
    /// [`TraceEvent::WebMutation`](webdis_trace::TraceEvent::WebMutation)
    /// per applied event, which makes runs auditable after the fact. The
    /// thread is joined at [`TcpCluster::shutdown`].
    pub fn tcp_cluster(&self, faults: Vec<Fault>) -> TcpCluster {
        let (web, engine_cfg) = (&self.web, &self.engine_config());
        let epoch = Instant::now();
        let user_site = user_addr();
        let mut endpoints: Vec<(SiteAddr, TcpEndpoint)> = Vec::new();
        let mut map = BTreeMap::new();
        for site in web.sites().into_iter().filter(|s| self.participates(s)) {
            let ep = TcpEndpoint::bind("127.0.0.1:0").expect("bind loopback");
            map.insert(query_server_addr(&site), ep.local_addr());
            endpoints.push((site, ep));
        }
        let user_endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind loopback");
        map.insert(user_site.clone(), user_endpoint.local_addr());
        let ledger = Ledger {
            meter: Arc::default(),
            tracer: engine_cfg.tracer.clone(),
        };
        let user_net = TcpNet {
            map: Arc::new(map),
            pool: ConnPool::metered(Arc::clone(&ledger.meter)),
            epoch,
            from: user_site.host.to_string(),
            addr: user_site.clone(),
            retry: RetryPolicy::default(),
            faults: (!faults.is_empty())
                .then(|| Arc::new(Mutex::new(Injector::new(faults.clone(), 0)))),
            ledger,
            queue_wait_us: 0,
            timers: BinaryHeap::new(),
        };

        // The cluster's one admin socket: `/metrics` is the shared
        // registry snapshot (when the run is traced) overlaid with the
        // cluster-wide `net.*` wire counters and an `up` gauge, rendered
        // in Prometheus text exposition format — with a noop tracer the
        // wire counters and gauge still get exported. When a monitor
        // runs, it also serves the live `/status` snapshot.
        // `/reset_high_water` re-arms the registry's high-water gauges
        // (scrapes never reset).
        let ledger = user_net.ledger.clone();
        let metrics = Arc::new(move || {
            let snap = ledger.tracer.registry_snapshot().unwrap_or_default();
            let mut snap = ledger.overlay(snap);
            snap.put_gauge("up", 1);
            snap.render_prometheus()
        });
        let status = engine_cfg.monitor.clone().map(|monitor| {
            Arc::new(move || monitor.status_json(epoch.elapsed().as_micros() as u64))
                as Arc<dyn Fn() -> String + Send + Sync>
        });
        let tracer = engine_cfg.tracer.clone();
        let admin = MetricsExporter::spawn_routes(webdis_trace::AdminRoutes {
            metrics,
            status,
            reset_high_water: Some(Arc::new(move || tracer.reset_high_water())),
        })
        .expect("bind admin socket");

        let mut daemons = Vec::new();
        for (site, endpoint) in endpoints {
            let engine = ServerEngine::new(site.clone(), web.clone(), engine_cfg.clone());
            let addr = query_server_addr(&site);
            let net = TcpNet {
                from: site.host.to_string(),
                timers: crash_edges(&faults, &addr),
                addr,
                ..user_net.clone()
            };
            let purge_period = engine_cfg.log_purge_us;
            let closer = endpoint.closer();
            let daemon = std::thread::Builder::new()
                .name(format!("webdis-daemon-{site}"))
                .spawn(move || run_daemon(engine, endpoint, net, purge_period));
            daemons.push((closer, daemon.expect("spawn daemon")));
        }
        let housekeeper =
            (engine_cfg.monitor.is_some() || !self.schedule.events.is_empty()).then(|| {
                let deployment = self.clone();
                let (stop, stopped) = unbounded();
                let thread = std::thread::Builder::new()
                    .name("webdis-housekeeper".into())
                    .spawn(move || keep_house(&deployment, epoch, &stopped));
                (stop, thread.expect("spawn housekeeper"))
            });
        TcpCluster {
            user_endpoint,
            net: user_net,
            daemons,
            admin,
            housekeeper,
        }
    }
}

impl TcpCluster {
    /// The address daemons report results to.
    pub fn user_site(&self) -> &SiteAddr {
        &self.net.addr
    }

    /// Wall-clock µs since the cluster came up (the time base of every
    /// `TcpNet` handle and of `completed_at_us`).
    pub fn now_us(&self) -> u64 {
        self.net.now_us()
    }

    /// A network handle stamped as the user site, for client-side sends.
    pub fn user_net(&self) -> TcpNet {
        self.net.clone()
    }

    /// The cluster-wide per-kind wire meter (messages and bytes by
    /// fate, shared by every daemon and the user-site handle).
    pub fn wire_counters(&self) -> &Arc<WireCounters> {
        &self.net.ledger.meter
    }

    /// The admin socket's listen address: `/metrics` for the whole
    /// cluster, plus `/status` when a monitor runs.
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin.addr()
    }

    /// Receives one message addressed to the user endpoint, or `None` on
    /// timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.user_endpoint.recv_timeout(timeout).ok()
    }

    /// The user-site driver on TCP: runs `user` — its client processes
    /// share this cluster's one result endpoint — on the calling thread
    /// until every planned submission (times are µs since the cluster
    /// came up, the mutation schedule's clock; replayed open-loop) has
    /// gone out and completed, or `deadline` passes;
    /// [`ScheduledClient::unsubmitted`] then says how many never went out.
    ///
    /// It is one loop around [`serve`], so it sleeps until whichever is
    /// due first — a message, the next submission, the next Section-7.1
    /// expiry sweep, the deadline — and an idle driver costs nothing. The
    /// cluster stays up afterwards: shut it down, or drive it again with
    /// the same `net` (a [`TcpCluster::user_net`]), whose connections to
    /// the daemons then stay open.
    pub fn drive(&self, net: &mut TcpNet, user: &mut ScheduledClient, deadline: Duration) {
        // Whatever an earlier drive of this handle left armed is moot.
        net.timers.clear();
        net.post(deadline.as_micros() as u64, DEADLINE_TOKEN);
        let mut due = Some(Due::Timer(SUBMIT_TIMER_TOKEN));
        while let Some(now_due) = due {
            match now_due {
                Due::Timer(DEADLINE_TOKEN) => break,
                Due::Timer(token) => user.on_timer(net, token),
                Due::Message(received) => user.on_message(net, received.msg),
            }
            if user.done() {
                break;
            }
            due = serve(&self.user_endpoint, net);
        }
    }

    /// Stops the admin socket and every daemon, and returns their
    /// engines (for final stats).
    pub fn shutdown(mut self) -> Vec<ServerEngine> {
        self.admin.stop();
        if let Some((stop, housekeeper)) = self.housekeeper {
            drop(stop);
            let _ = housekeeper.join();
        }
        for (closer, _) in &self.daemons {
            closer.close();
        }
        let daemons = self.daemons.into_iter();
        daemons.filter_map(|(_, d)| d.join().ok()).collect()
    }
}

impl Deployment {
    /// Runs a workload plan over a fresh loopback cluster
    /// ([`TcpCluster::drive`]), then shuts it down: every user is a client
    /// process `load<i>` on the cluster's one result endpoint — the
    /// paper's QueryID design (`user, IP, port, query number`) exists so
    /// a single listening socket can serve many concurrent queries; here
    /// the user name in every report's id additionally tells many *users*
    /// apart. Times in the outcome are µs since the cluster came up.
    pub fn workload_tcp(
        &self,
        faults: Vec<Fault>,
        plans: Vec<UserPlan>,
        deadline: Duration,
    ) -> WorkloadOutcome {
        let (mut clients, mut planned) = (Vec::new(), Vec::new());
        for plan in plans {
            clients.push(self.load_client(plan.user, user_addr()));
            planned.extend(plan.submissions.into_iter().map(|s| (plan.user, s)));
        }
        let mut user = ScheduledClient::new(clients, planned);
        let cluster = self.tcp_cluster(faults);
        cluster.drive(&mut cluster.user_net(), &mut user, deadline);
        let duration_us = cluster.now_us();
        let engines = cluster.shutdown();
        let records = user.clients.iter_mut().enumerate();
        let outcome = WorkloadOutcome {
            records: records.flat_map(|(user, c)| c.take_records(user)).collect(),
            unsubmitted: user.unsubmitted(),
            duration_us,
            server_stats: engines
                .iter()
                .map(|e| (e.site().clone(), e.stats))
                .collect(),
        };
        outcome.observe_latencies(&self.config.tracer);
        outcome
    }

    /// Runs several DISQL queries **concurrently** through one client
    /// process over real TCP daemons: the paper's Section 4.3 deployment,
    /// where a single listening socket serves all in-flight queries.
    /// Returns the per-query records in submission order, when all have
    /// completed or `deadline` expires.
    pub fn queries_tcp(
        &self,
        disqls: &[&str],
        deadline: Duration,
        faults: Vec<Fault>,
    ) -> Result<Vec<QueryRecord>, DisqlError> {
        // Parse everything up front so errors surface before daemons start.
        let mut submissions = Vec::with_capacity(disqls.len());
        for disql in disqls {
            let query = parse_disql(disql)?;
            submissions.push((0, PlannedQuery::at(0, query)));
        }
        let client = ClientProcess::new("webdis", user_addr(), self.engine_config());
        let mut user = ScheduledClient::new(vec![client], submissions);
        let cluster = self.tcp_cluster(faults);
        cluster.drive(&mut cluster.user_net(), &mut user, deadline);
        cluster.shutdown();
        Ok(user.clients[0].take_records(0))
    }

    /// [`Deployment::queries_tcp`] for one query.
    pub fn query_tcp(
        &self,
        disql: &str,
        deadline: Duration,
        faults: Vec<Fault>,
    ) -> Result<QueryRecord, DisqlError> {
        Ok(self.queries_tcp(&[disql], deadline, faults)?.remove(0))
    }
}

/// Runs a DISQL query against `web` with a real query-server
/// daemon per site, all on loopback and fault-free:
/// [`Deployment::query_tcp`] with nothing else said.
pub fn run_query_tcp(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<QueryRecord, DisqlError> {
    Deployment::new(web, engine_cfg).query_tcp(disql, deadline, Vec::new())
}

/// [`run_query_tcp`] for several concurrent queries:
/// [`Deployment::queries_tcp`] with nothing else said.
pub fn run_queries_tcp(
    web: Arc<webdis_web::HostedWeb>,
    disqls: &[&str],
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<Vec<QueryRecord>, DisqlError> {
    Deployment::new(web, engine_cfg).queries_tcp(disqls, deadline, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::Url;
    use webdis_sim::FaultKind;
    use webdis_trace::{TraceEvent as TrEvent, TraceHandle};
    use webdis_web::figures;
    use webdis_web::{HostedWeb, LiveWeb, Mutation, MutationOp, MutationSchedule, PageBuilder};

    /// A user site with one client process and nothing planned yet.
    fn campus_user(cluster: &TcpCluster, cfg: &EngineConfig) -> ScheduledClient {
        let client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
        ScheduledClient::new(vec![client], Vec::new())
    }

    /// Drives one more campus query to completion on an already-running
    /// cluster; returns its number.
    fn drive_campus_query(
        cluster: &TcpCluster,
        net: &mut TcpNet,
        user: &mut ScheduledClient,
    ) -> u64 {
        let query = parse_disql(figures::CAMPUS_QUERY).expect("valid query");
        let at_once = PlannedQuery::at(0, query);
        *user = ScheduledClient::new(std::mem::take(&mut user.clients), vec![(0, at_once)]);
        cluster.drive(net, user, Duration::from_secs(30));
        assert!(user.done(), "query must complete over TCP");
        *user.clients[0]
            .query_nums()
            .last()
            .expect("query submitted")
    }

    fn needle_live_web() -> Arc<LiveWeb> {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://c.test/",
            PageBuilder::new("Root needle").link("/a.html", "a"),
        );
        web.insert_page("http://c.test/a.html", PageBuilder::new("A needle"));
        Arc::new(LiveWeb::from_hosted(&web))
    }

    const NEEDLE_QUERY: &str = r#"select d.title from document d
        such that "http://c.test/" L* d
        where d.title contains "needle""#;

    fn titles(outcome: &QueryRecord) -> Vec<String> {
        outcome
            .results
            .values()
            .flatten()
            .map(|(_, row)| format!("{:?}", row.values))
            .collect()
    }

    #[test]
    fn edit_is_visible_over_tcp() {
        // Satellite-1 on the real transport: an edit applied between two
        // runs is served by the daemon's next visit even when
        // an earlier query warmed the footnote-3 cache.
        let web = needle_live_web();
        let cfg = EngineConfig {
            doc_cache_size: 8,
            ..EngineConfig::default()
        };
        let before = Deployment::new(Arc::clone(&web), cfg.clone())
            .query_tcp(NEEDLE_QUERY, Duration::from_secs(30), Vec::new())
            .unwrap();
        assert!(before.complete);
        assert!(titles(&before).iter().any(|t| t.contains("A needle")));
        web.apply(&Mutation {
            at_us: 0,
            op: MutationOp::EditPage {
                url: Url::parse("http://c.test/a.html").unwrap(),
                token: "needle".into(),
            },
        });
        let after = Deployment::new(Arc::clone(&web), cfg)
            .query_tcp(NEEDLE_QUERY, Duration::from_secs(30), Vec::new())
            .unwrap();
        assert!(after.complete);
        assert!(
            titles(&after).iter().any(|t| t.contains("A needle rev1")),
            "stale title served over TCP after an edit: {:?}",
            titles(&after)
        );
    }

    #[test]
    fn dead_link_terminates_cleanly_over_tcp() {
        // Satellite-2 on the real transport: a clone forwarded to a
        // deleted page ends in an explicit dead-link disposition and the
        // query still completes — no hang, no phantom rows.
        let web = needle_live_web();
        web.apply(&Mutation {
            at_us: 0,
            op: MutationOp::DeletePage {
                url: Url::parse("http://c.test/a.html").unwrap(),
            },
        });
        let outcome = Deployment::new(Arc::clone(&web), EngineConfig::default())
            .query_tcp(NEEDLE_QUERY, Duration::from_secs(30), Vec::new())
            .unwrap();
        assert!(outcome.complete, "dead link must not hang the query");
        assert_eq!(outcome.dead_link_entries.len(), 1);
        assert_eq!(
            outcome.dead_link_entries[0].0,
            Url::parse("http://c.test/a.html").unwrap()
        );
        let t = titles(&outcome);
        assert!(
            t.iter().all(|row| !row.contains("A needle")),
            "phantom rows from a deleted page: {t:?}"
        );
    }

    #[test]
    fn scheduled_mutation_applies_during_cluster_lifetime() {
        // The housekeeping thread applies schedule events at their offsets
        // while daemons serve; by shutdown every event has landed and
        // the web's history digest reflects the full schedule.
        let web = needle_live_web();
        let schedule = MutationSchedule {
            events: vec![
                Mutation {
                    at_us: 1_000,
                    op: MutationOp::EditPage {
                        url: Url::parse("http://c.test/a.html").unwrap(),
                        token: "needle".into(),
                    },
                },
                Mutation {
                    at_us: 2_000,
                    op: MutationOp::AddAnchor {
                        url: Url::parse("http://c.test/").unwrap(),
                        href: Url::parse("http://c.test/b.html").unwrap(),
                        label: "b".into(),
                    },
                },
            ],
        };
        let cluster = TcpCluster::start_live(
            Arc::clone(&web),
            &EngineConfig::default(),
            Vec::new(),
            Some(schedule),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while web.mutations_applied() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.shutdown();
        assert_eq!(web.mutations_applied(), 2, "schedule fully applied");
        assert_eq!(web.site_version("c.test"), 2);
    }

    #[test]
    fn sleeping_runtimes_are_woken_by_shutdown() {
        // Every deadline of this cluster is a minute away — the daemons'
        // purge, the one scheduled mutation — and nothing polls: unless
        // shutdown wakes each sleeper, it takes that minute.
        let web = Arc::new(LiveWeb::from_hosted(&figures::campus()));
        let (_collector, tracer) = webdis_trace::TraceHandle::collecting(1_024);
        let cfg = EngineConfig {
            log_purge_us: Some(60_000_000),
            monitor: Some(crate::MonitorHandle::with_defaults(tracer.clone())),
            tracer,
            ..EngineConfig::default()
        };
        let mut deployment = Deployment::new(Arc::clone(&web), cfg);
        deployment.schedule.events.push(Mutation {
            at_us: 60_000_000,
            op: MutationOp::SiteLeave {
                host: "dsl.serc.iisc.ernet.in".into(),
            },
        });
        let cluster = deployment.tcp_cluster(Vec::new());
        assert!(cluster.housekeeper.is_some());
        let t0 = Instant::now();
        let engines = cluster.shutdown();
        let took = t0.elapsed();
        assert_eq!(engines.len(), web.sites().len(), "every daemon joined");
        assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
        assert_eq!(web.mutations_applied(), 0, "the mutation was never due");
    }

    #[test]
    fn one_user_schedule_runs_the_same_on_both_runtimes() {
        // Three submissions planned out of order, expiry on: the
        // simulator's actor and the TCP driver run the same
        // `ScheduledClient`, so the queries go out in the same order (their
        // numbers follow their planned times) and each is answered the
        // same; on TCP the one expiry chain is visible as at most one
        // pending sweep among the driver's deadlines.
        let web = Arc::new(figures::campus());
        let cfg = EngineConfig {
            expiry_us: Some(2_000_000),
            ..EngineConfig::default()
        };
        let plan = || {
            let planned = [
                (2_000, figures::CAMPUS_QUERY),
                (0, figures::EXAMPLE_QUERY_1),
                (1_000, figures::CAMPUS_QUERY),
            ];
            planned.map(|(at_us, disql)| {
                PlannedQuery::at(at_us, parse_disql(disql).expect("valid query"))
            })
        };
        let deployment = Deployment::new(Arc::clone(&web), cfg.clone());

        let sim_cfg = webdis_sim::SimConfig::default();
        let plans = vec![UserPlan {
            user: 0,
            submissions: plan().into(),
        }];
        let sim = deployment.workload_sim(sim_cfg, plans, u64::MAX, &mut |_, _| {});

        let cluster = deployment.tcp_cluster(Vec::new());
        let mut net = cluster.user_net();
        let client = ClientProcess::new("webdis", user_addr(), cfg.clone());
        let mut user = ScheduledClient::new(vec![client], plan().map(|s| (0, s)).into());
        cluster.drive(&mut net, &mut user, Duration::from_secs(30));
        let sweeps = net.timers.iter();
        let sweeps = sweeps.filter(|t| t.0 .1 == crate::client::EXPIRY_TIMER_TOKEN);
        assert!(sweeps.count() <= 1, "{:?}", net.timers);
        cluster.shutdown();
        let tcp = user.clients[0].take_records(0);

        assert_eq!((sim.unsubmitted, user.unsubmitted()), (0, 0));
        let answers = |records: &[QueryRecord]| -> Vec<_> {
            let answered = records.iter().inspect(|r| assert!(r.complete));
            answered.map(|r| (r.query_num, r.result_set())).collect()
        };
        assert_eq!(answers(&sim.records), answers(&tcp));
        assert_eq!(tcp.len(), 3);
        assert_ne!(
            tcp[0].result_set(),
            tcp[1].result_set(),
            "the odd one out went first"
        );
        assert_eq!(tcp[1].result_set(), tcp[2].result_set());
        for records in [&sim.records, &tcp] {
            assert!(records
                .windows(2)
                .all(|w| w[0].submitted_us <= w[1].submitted_us));
        }
    }

    #[test]
    fn campus_query_over_real_sockets() {
        let outcome = run_query_tcp(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(outcome.complete, "query must complete over TCP");
        assert_eq!(outcome.results.get(&1).map(Vec::len), Some(3));
    }

    #[test]
    fn non_participating_sites_run_no_daemon() {
        // Section 7.1 on the real transport: with no participating site
        // the StartNode's daemon does not exist, the dispatch is refused,
        // and the query completes at once, empty.
        let mut deployment = Deployment::new(Arc::new(figures::campus()), EngineConfig::default());
        deployment.participating = Some(Vec::new());
        let deadline = Duration::from_secs(30);
        let outcome = deployment
            .query_tcp(figures::CAMPUS_QUERY, deadline, Vec::new())
            .unwrap();
        assert!(outcome.complete);
        assert!(outcome.results.is_empty() && outcome.trace.is_empty());
    }

    #[test]
    fn connections_are_reused_across_queries() {
        // 200 campus queries over one cluster: every (sender, receiver)
        // pair dials at most once, and a warm cluster never dials again.
        let web = Arc::new(figures::campus());
        let cfg = EngineConfig::default();
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, Vec::new());
        let mut user = campus_user(&cluster, &cfg);
        let mut net = cluster.user_net();
        let mut connects_after = Vec::new();
        for _ in 0..200 {
            let num = drive_campus_query(&cluster, &mut net, &mut user);
            let query = user.clients[0].forget(num).expect("submitted query exists");
            assert_eq!(query.results.get(&1).map(Vec::len), Some(3));
            connects_after.push(cluster.wire_counters().connects());
        }
        // Senders: one daemon per site plus the user; receivers likewise.
        let endpoints = web.sites().len() as u64 + 1;
        assert!(
            connects_after[199] <= endpoints * (endpoints - 1),
            "{} dials for {endpoints} endpoints",
            connects_after[199]
        );
        assert_eq!(
            connects_after[99], connects_after[199],
            "a warm cluster must not dial"
        );
        cluster.shutdown();
    }

    #[test]
    fn concurrent_queries_over_tcp() {
        let web = Arc::new(figures::campus());
        let outcomes = run_queries_tcp(
            Arc::clone(&web),
            &[
                figures::CAMPUS_QUERY,
                figures::EXAMPLE_QUERY_1,
                figures::CAMPUS_QUERY,
            ],
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(o.complete, "query {i} must complete");
        }
        // Both campus submissions agree with each other.
        assert_eq!(
            outcomes[0].results.get(&1).map(Vec::len),
            outcomes[2].results.get(&1).map(Vec::len)
        );
        assert_eq!(outcomes[0].results.get(&1).map(Vec::len), Some(3));
        // The link-extraction query found the DSL site's global links.
        assert!(outcomes[1].results.get(&0).map(Vec::len).unwrap_or(0) >= 2);
    }

    #[test]
    fn batch_outcomes_report_per_query_elapsed() {
        // Regression: every outcome used to be stamped with the whole
        // batch's wall clock. Each carries its own completion stamp — the
        // instant its user site traced the query's termination — however
        // the two concurrent queries happen to finish.
        let (collector, tracer) = TraceHandle::collecting(8_192);
        let cfg = EngineConfig {
            tracer,
            ..EngineConfig::default()
        };
        let outcomes = run_queries_tcp(
            Arc::new(figures::campus()),
            &[figures::CAMPUS_QUERY, figures::EXAMPLE_QUERY_1],
            cfg,
            Duration::from_secs(30),
        )
        .unwrap();
        let records = collector.snapshot();
        for outcome in &outcomes {
            let terminated = records.iter().find(|r| {
                matches!(r.event, TrEvent::Termination { .. })
                    && r.query.as_ref().map(|q| q.query_num) == Some(outcome.query_num)
            });
            assert!(outcome.complete, "query {}", outcome.query_num);
            assert_eq!(
                outcome.completed_at_us,
                terminated.map(|r| r.time_us),
                "query {}",
                outcome.query_num
            );
        }
        assert_eq!(outcomes.len(), 2);
    }

    /// The campus CSA daemon, which forwards the query's one `G` hop.
    const CSA: &str = "wdqs.www.csa.iisc.ernet.in";

    /// The campus query over TCP under `faults` with expiry on, traced:
    /// its record, and how many trace records the run left under each
    /// event name.
    fn campus_under(faults: Vec<Fault>) -> (QueryRecord, BTreeMap<&'static str, usize>) {
        let (collector, tracer) = TraceHandle::collecting(8_192);
        let cfg = EngineConfig {
            expiry_us: Some(400_000),
            tracer,
            ..EngineConfig::default()
        };
        let outcome = Deployment::new(Arc::new(figures::campus()), cfg)
            .query_tcp(figures::CAMPUS_QUERY, Duration::from_secs(30), faults)
            .unwrap();
        let mut events = BTreeMap::new();
        for record in collector.snapshot() {
            *events.entry(record.event.name()).or_default() += 1;
        }
        (outcome, events)
    }

    /// The rows of a fault-free campus run.
    fn campus_rows() -> usize {
        let (baseline, _) = campus_under(Vec::new());
        assert!(baseline.complete && baseline.failed_entries.is_empty());
        baseline.total_rows()
    }

    #[test]
    fn injected_query_drop_recovers_via_expiry() {
        // Every clone the CSA daemon forwards to the DSL lab is lost. The
        // lost subtree never reports, so only the expiry sweep can
        // conclude the query — with the lost node in failed_entries and
        // partial results.
        let drop = Fault::rate(FaultKind::Drop, 1.0).on(CSA, "wdqs.dsl.serc.iisc.ernet.in");
        let (outcome, events) = campus_under(vec![drop]);
        assert_eq!(events.get("message_dropped"), Some(&1));
        assert!(outcome.complete, "expiry must conclude the query");
        assert!(
            !outcome.failed_entries.is_empty(),
            "the dropped clone's nodes must be written off"
        );
        let why = outcome.why_incomplete.as_deref().expect("diagnosed");
        assert!(why.contains("expiry"), "{why}");
        let (rows, baseline_rows) = (outcome.total_rows(), campus_rows());
        assert!(rows < baseline_rows, "{rows} vs baseline {baseline_rows}");
        assert!(rows > 0, "the other labs still answer");
    }

    #[test]
    fn corrupted_query_frame_recovers_via_expiry() {
        // The clone for the compiler lab goes over the real socket with a
        // byte flipped and dies in the receiver's decoder, so the loss
        // runs the wire-error path end to end. Expiry concludes the
        // query with partial results, exactly like a silent drop.
        let corrupt =
            Fault::rate(FaultKind::Corrupt, 1.0).on(CSA, "wdqs.www-compiler.csa.iisc.ernet.in");
        let (outcome, events) = campus_under(vec![corrupt]);
        assert_eq!(events.get("message_corrupted"), Some(&1));
        assert!(outcome.complete, "expiry must conclude the query");
        assert!(
            !outcome.failed_entries.is_empty(),
            "the corrupted clone's nodes must be written off"
        );
        let (rows, baseline_rows) = (outcome.total_rows(), campus_rows());
        assert!(rows < baseline_rows, "{rows} vs baseline {baseline_rows}");
    }

    #[test]
    fn duplicated_reports_do_not_double_rows() {
        // Every daemon delivers every report twice: the user site's
        // (origin, seq) dedupe must keep the row set identical to the
        // fault-free run and completion exact.
        let web = figures::campus();
        let dup = |site| {
            let daemon = query_server_addr(site).host;
            Fault::rate(FaultKind::Dup, 1.0).on(&daemon, &user_addr().host)
        };
        let (outcome, events) = campus_under(web.sites().iter().map(dup).collect());
        let (baseline, _) = campus_under(Vec::new());
        assert!(events.get("message_duplicated") > Some(&0), "{events:?}");
        assert!(outcome.complete, "dedupe must not wedge completion");
        assert_eq!(outcome.result_set(), baseline.result_set());
        assert_eq!(outcome.total_rows(), baseline.total_rows(), "no row twice");
    }

    #[test]
    fn crashed_daemon_window_recovers_via_expiry() {
        // The DSL lab's daemon is dead for the run's first 300ms — every
        // clone addressed to it in that window is discarded, and the
        // respawned engine comes back empty. Expiry writes off the lost
        // subtree; the rest of the campus still answers.
        let crash = Fault::Crash {
            site: SiteAddr {
                host: "wdqs.dsl.serc.iisc.ernet.in".into(),
                port: 80,
            },
            at_us: 0,
            down_us: Some(300_000),
        };
        let (outcome, events) = campus_under(vec![crash]);
        assert!(events.get("message_dropped") > Some(&0), "{events:?}");
        assert!(outcome.complete, "expiry must conclude the query");
        assert!(
            !outcome.failed_entries.is_empty(),
            "clones swallowed by the dead daemon must be written off"
        );
        assert!(
            outcome
                .failed_entries
                .iter()
                .all(|(node, _)| node.to_string().contains("dsl.serc")),
            "only the crashed site's nodes expire: {:?}",
            outcome.failed_entries
        );
    }

    #[test]
    fn live_metrics_scrape_covers_every_registered_metric() {
        use std::io::{Read, Write};

        let web = Arc::new(figures::campus());
        let (collector, tracer) = webdis_trace::TraceHandle::collecting(65_536);
        let cfg = EngineConfig {
            tracer,
            ..EngineConfig::default()
        };
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, Vec::new());

        let mut user = campus_user(&cluster, &cfg);
        drive_campus_query(&cluster, &mut cluster.user_net(), &mut user);

        // Raw-socket fetch from the admin socket while the daemons serve.
        let scrape = |path: &str| -> String {
            let addr = cluster.admin_addr();
            let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
            write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).expect("read response");
            body
        };
        // Snapshot first, scrape second: the daemons are still running,
        // so a metric one of them registers between the two (its last
        // stage span, say) must be in the later of them, the scrape.
        let snap = collector.registry().snapshot();
        let response = scrape("/metrics");
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");

        // Every counter, gauge, and histogram the run had registered
        // must appear in the exposition, in sanitized form.
        for (name, _) in snap.counters() {
            let metric = webdis_trace::expo::metric_name(name);
            assert!(
                response.contains(&format!("# TYPE {metric} counter")),
                "missing counter {name}"
            );
        }
        for (name, _) in snap.gauges() {
            let metric = webdis_trace::expo::metric_name(name);
            assert!(
                response.contains(&format!("# TYPE {metric} gauge")),
                "missing gauge {name}"
            );
        }
        for (name, _) in snap.histograms() {
            let metric = webdis_trace::expo::metric_name(name);
            assert!(
                response.contains(&format!("# TYPE {metric} histogram")),
                "missing histogram {name}"
            );
            assert!(
                response.contains(&format!("{metric}_bucket{{le=\"+Inf\"}}")),
                "missing +Inf bucket for {name}"
            );
        }
        // The overlays: cluster-wide wire counters and the up gauge.
        assert!(response.contains("webdis_net_query_msgs"), "{response}");
        assert!(response.contains("webdis_net_query_bytes"));
        assert!(response.contains("webdis_net_connects"), "{response}");
        assert!(response.contains("webdis_up 1"));
        // The stage histograms saw real observations.
        assert!(snap
            .histograms()
            .any(|(n, h)| n == "stage_us.eval" && h.count > 0));
        // Unknown paths 404.
        assert!(scrape("/nope").starts_with("HTTP/1.0 404"));

        cluster.shutdown();
    }

    #[test]
    fn monitored_single_query_runs_are_admitted_and_retired_once() {
        // Regression: the single-query runners built a bare `UserSite`,
        // which retired the query but never admitted it, so the monitor
        // showed `admitted 0 / retired 0` and dropped every clone event
        // of the run. Admission now lives beside retirement.
        for transport in ["tcp", "sim"] {
            let (_collector, tracer) = webdis_trace::TraceHandle::collecting(65_536);
            let monitor = crate::MonitorHandle::with_defaults(tracer.clone());
            let cfg = EngineConfig {
                tracer,
                monitor: Some(monitor.clone()),
                ..EngineConfig::default()
            };
            let web = Arc::new(figures::campus());
            let complete = match transport {
                "tcp" => {
                    let deadline = Duration::from_secs(30);
                    let outcome = run_query_tcp(web, figures::CAMPUS_QUERY, cfg, deadline);
                    outcome.unwrap().complete
                }
                _ => {
                    let sim_cfg = webdis_sim::SimConfig::default();
                    let outcome = crate::run_query_sim(web, figures::CAMPUS_QUERY, cfg, sim_cfg);
                    outcome.unwrap().complete
                }
            };
            assert!(complete, "{transport}");
            let status = monitor.monitor().status(u64::MAX);
            assert_eq!((status.admitted, status.retired), (1, 1), "{transport}");
            assert!(status.inflight.is_empty(), "{transport}");
        }
    }

    #[test]
    fn admin_socket_serves_live_status_and_resets_high_water() {
        use std::io::{Read, Write};

        let web = Arc::new(figures::campus());
        let (_collector, tracer) = webdis_trace::TraceHandle::collecting(65_536);
        let monitor = crate::MonitorHandle::with_defaults(tracer.clone());
        let cfg = EngineConfig {
            tracer,
            monitor: Some(monitor),
            ..EngineConfig::default()
        };
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, Vec::new());

        let mut user = campus_user(&cluster, &cfg);
        drive_campus_query(&cluster, &mut cluster.user_net(), &mut user);

        let scrape = |path: &str| -> String {
            let addr = cluster.admin_addr();
            let mut stream = std::net::TcpStream::connect(addr).expect("connect admin socket");
            write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).expect("read response");
            body
        };

        // /status serves the monitor snapshot: the query was admitted
        // and, once complete, retired out of the in-flight table.
        let response = scrape("/status");
        assert!(response.starts_with("HTTP/1.0 200"), "{response}");
        let json = response.split("\r\n\r\n").nth(1).expect("body");
        let status = crate::StatusSnapshot::from_json(json).expect("parse status");
        assert_eq!(status.admitted, 1, "{json}");
        assert_eq!(status.retired, 1, "{json}");
        assert!(status.inflight.is_empty(), "{json}");

        // High-water marks survive scrapes and only an explicit
        // /reset_high_water re-arms them.
        let marked = scrape("/metrics");
        assert!(
            marked.contains("webdis_queue_depth_high_water ")
                && !marked.contains("webdis_queue_depth_high_water 0\n"),
            "daemon processing must have raised the queue mark: {marked}"
        );
        let again = scrape("/metrics");
        assert!(
            !again.contains("webdis_queue_depth_high_water 0\n"),
            "a scrape must not reset the mark"
        );
        assert!(scrape("/reset_high_water").starts_with("HTTP/1.0 200"));
        let cleared = scrape("/metrics");
        assert!(
            cleared.contains("webdis_queue_depth_high_water 0\n"),
            "reset must zero the mark: {cleared}"
        );

        cluster.shutdown();
    }
}

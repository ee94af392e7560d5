//! The engine on real TCP sockets over loopback — the deployment shape of
//! the paper's Java prototype: a query-server daemon per site, each on
//! its own listening socket, the user-site client collecting results on
//! its own, passive termination by closing that socket. Unlike the
//! prototype, the daemons do not each own a thread: k reactor threads
//! ([`Deployment::reactors`], by default one) each host an equal share of
//! them on one endpoint, a listener per site, with one connection to each
//! peer listener dialled on first use. What a reactor's sites send goes
//! out when it next waits, one `write` per peer per turn, and still
//! crosses the kernel's loopback socket.
//!
//! Each simulated site gets an ephemeral `127.0.0.1` port; a shared
//! address map plays DNS. Experiments use the deterministic simulator;
//! this runtime exists to demonstrate (and integration-test) that the
//! identical engine code is operational over real sockets. Every thread
//! runs the simulator's one loop, on the wall clock, as a [`Runtime`]
//! over one agenda: a reactor until its endpoint closes, the user site
//! under [`TcpCluster::drive`]. A daemon's `queue_us` span is the time a
//! message sat read and decoded before its handler ran, which on a
//! reactor includes the time spent on co-hosted sites.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use webdis_disql::{parse_disql, DisqlError};
use webdis_model::SiteAddr;
use webdis_net::{Closer, Frame, Message, Outbox, TcpEndpoint, WireCounters};
use webdis_sim::{Actor, Agenda, Due, Event, Fate, Fault, Injector, Ledger, Runtime};
use webdis_trace::MetricsExporter;

use crate::client::{PlannedQuery, ScheduledClient, UserPlan};
use crate::config::EngineConfig;
use crate::deploy::{Deployment, SAMPLE_PERIOD_US};
use crate::network::{query_server_addr, Network, NetworkError};
use crate::record::{QueryRecord, WorkloadOutcome};
use crate::server::ServerEngine;
use crate::simrun::user_addr;

/// The fault list a cluster is started with — `webdis_sim::Fault`, the
/// simulator's vocabulary. (A name kept because the wall-clock benchmark,
/// `hwbench/`, calls `TcpFaultPlan::default()`.)
pub type TcpFaultPlan = Vec<Fault>;

/// A `Network` that resolves site addresses through the shared map and
/// dispatches over its endpoint's long-lived connections, one per peer
/// listener, dialled on first send (retried with backoff on transient
/// failures; connection-refused — the passive-termination signal — is
/// surfaced immediately). Obtained from [`TcpCluster::user_net`]; every
/// clone shares the user endpoint's connections.
#[derive(Clone)]
pub struct TcpNet {
    map: Arc<BTreeMap<SiteAddr, SocketAddr>>,
    out: Outbox,
    epoch: Instant,
    /// The address of the endpoint this handle belongs to, as the engine
    /// sends to it (`wdqs.<host>` for a daemon): the sending end of a link
    /// a rate fault names, and the name its trace records and gauges
    /// carry, as on the simulator.
    addr: SiteAddr,
    /// The run's fault decision, shared by every handle; `None` for an
    /// empty fault list, which is all a fault-free send looks at.
    faults: Option<Arc<Mutex<Injector>>>,
    /// Where every message's fate is metered and traced — one meter per
    /// cluster, so `/metrics` sees traffic from every daemon and from
    /// the user-site client alike.
    ledger: Ledger,
    /// Wall-clock queue wait of the message currently being handled,
    /// set by its endpoint's runtime so the engine's `queue_us` span sees
    /// how long it sat in the endpoint's inbox.
    queue_wait_us: u64,
}

impl TcpNet {
    /// True when the fault list has `site` down at `at_us()`, which is
    /// read only when there is a fault list.
    fn down(&self, site: &SiteAddr, at_us: impl FnOnce() -> u64) -> bool {
        let faults = self.faults.as_ref();
        faults.is_some_and(|faults| faults.lock().down(site, at_us()))
    }

    /// Hands the fate `msg` met on its way to host `to` to the ledger,
    /// stamped as this endpoint at the wall clock.
    fn record(&self, fate: Fate, msg: &Message, bytes: usize, to: &str) {
        let at_us = || self.now_us();
        self.ledger
            .record(fate, msg, bytes, to, &self.addr.host, at_us);
    }

    /// Hands `msg` to its connection's buffer; a refusal is known here.
    fn hold(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        // Encoded once: the frame is what gets counted, damaged and sent.
        let frame = Frame::encode(&msg);
        let bytes = frame.as_ref().map_or(0, |frame| frame.payload().len());
        let refused = |net: &TcpNet| {
            net.record(Fate::Refused, &msg, bytes, &to.host);
            Err(NetworkError { to: to.clone() })
        };
        let up = self
            .map
            .get(to)
            .filter(|_| !self.down(to, || self.now_us()));
        let (Some(&addr), Ok(mut frame)) = (up, frame) else {
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
                    // down the same connection: the receiver's decoder
                    // rejects it, so this is loss exercised through the
                    // `WireError` path rather than a silent swallow.
                    let payload = frame.payload_mut();
                    payload[payload.len() / 2] ^= 0xff;
                    let _ = self.out.send(addr, &frame, &self.ledger.meter, |_| {});
                }
                // The sender believes the send succeeded, exactly like a
                // message lost in flight.
                self.record(lost, &msg, bytes, &to.host);
                return Ok(());
            }
        };
        let (ledger, from, epoch) = (&self.ledger, &self.addr.host, self.epoch);
        let sent = self.out.send(addr, &frame, &ledger.meter, |attempt| {
            let at_us = epoch.elapsed().as_micros() as u64;
            ledger.retried(&msg, &to.host, attempt, from, at_us);
        });
        if sent.is_err() {
            return refused(self);
        }
        self.record(Fate::Sent, &msg, bytes, &to.host);
        // Deliver an identical second copy (a retransmitting network):
        // one logical send, two deliveries.
        if duplicate && self.out.send(addr, &frame, &ledger.meter, |_| {}).is_ok() {
            self.record(Fate::Duplicated, &msg, bytes, &to.host);
        }
        Ok(())
    }
}

/// Outside a reactor (a user-site handle on any thread), sends go at once.
impl Network for TcpNet {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        let sent = self.hold(to, msg);
        let _ = self.out.flush();
        sent
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us
    }
}

/// A hosted site's handle while its actor runs: what it sends is held on
/// its reactor's connections until the reactor next waits, and what it
/// [`post`](Network::post)s lands on the reactor's one agenda.
struct Hosted<'a> {
    net: &'a mut TcpNet,
    agenda: &'a mut Agenda,
}

impl Network for Hosted<'_> {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        self.net.hold(to, msg)
    }

    fn now_us(&self) -> u64 {
        self.net.now_us()
    }

    fn queue_wait_us(&self) -> u64 {
        self.net.queue_wait_us
    }

    fn post(&mut self, delay_us: u64, token: u64) {
        let timer = Due::Actor(self.net.addr.clone(), Event::Timer(token));
        self.agenda.push(self.net.now_us() + delay_us, timer);
    }
}

/// Sites on one endpoint — listener `i` is the `i`-th site's — as one
/// [`Runtime`] on the wall clock, drained by one thread: an entry of
/// their one agenda is taken at the instant it comes due, a frame at the
/// instant it is read, and either is handed to the site it addresses.
/// While a site is down, a frame to it is a dead letter and a timer is
/// dropped; its restart is [`Actor::on_restart`] with the same socket.
struct Reactor<'a, A> {
    endpoint: &'a TcpEndpoint,
    sites: Vec<(&'a mut A, &'a mut TcpNet)>,
    /// Every site's restarts, what their actors [`post`](Network::post)ed
    /// and the host's entries.
    agenda: Agenda,
    /// Asked of every site before each wait; true of all ends the run (a
    /// daemon's never is: its run ends when its endpoint closes).
    done: fn(&A) -> bool,
}

impl<A: Actor> Runtime for Reactor<'_, A> {
    /// The earliest agenda entry if it has come due, else the next frame
    /// of any site — sleeping until whichever is first, so an idle
    /// reactor costs nothing. `None` once `done` holds, the clock passes
    /// `limit_us`, or the endpoint is closed, which wakes the sleeper.
    fn next(&mut self, limit_us: u64) -> Option<(u64, Due)> {
        while !self.sites.iter().all(|(actor, _)| (self.done)(actor)) {
            let now = self.sites.first()?.1.now_us();
            if let Some((_, due)) = self.agenda.pop(now.min(limit_us)) {
                return Some((now, due));
            }
            if now >= limit_us {
                return None;
            }
            let wake_us = self.agenda.next_us().unwrap_or(u64::MAX).min(limit_us);
            let wait = Duration::from_micros(wake_us - now);
            let received = match self.endpoint.recv_timeout_sized(wait) {
                Ok(received) => received,
                Err(webdis_net::RecvTimeoutError::Timeout) => continue,
                Err(_disconnected) => return None,
            };
            // The endpoint has one listener per site, in `sites` order.
            let Some((_, net)) = self.sites.get_mut(received.at) else {
                continue;
            };
            let (msg, bytes, now) = (received.msg, received.wire_bytes, net.now_us());
            if net.down(&net.addr, || now) {
                // The process is dead. Traced as an explained drop so
                // trajectory triage never reports a false orphan.
                net.record(Fate::DeadLetter("dead-letter"), &msg, bytes, &net.addr.host);
                continue;
            }
            // Inbound queue depth at dequeue: this message plus whatever
            // else is still waiting for its site.
            let depth = || self.endpoint.pending(received.at) as u64 + 1;
            net.ledger.arrival(&net.addr.host, depth);
            net.queue_wait_us = received.queued.as_micros() as u64;
            let delivery = Due::Actor(net.addr.clone(), Event::Net(msg));
            return Some((now, delivery));
        }
        None
    }

    fn deliver(&mut self, at_us: u64, to: SiteAddr, event: Event) {
        let agenda = &mut self.agenda;
        let Some((actor, net)) = self.sites.iter_mut().find(|(_, net)| net.addr == to) else {
            return;
        };
        if !net.down(&to, || at_us) {
            actor.handle(&mut Hosted { net, agenda }, event);
        }
        net.queue_wait_us = 0;
    }

    fn restart(&mut self, at_us: u64, site: SiteAddr) {
        if let Some((actor, _)) = self.sites.iter_mut().find(|(_, net)| net.addr == site) {
            actor.on_restart(at_us);
        }
    }

    fn agenda(&mut self) -> &mut Agenda {
        &mut self.agenda
    }
}

/// Spawns reactor thread `name`, which runs the daemons `sites` on
/// `endpoint` (listener `i` the `i`-th's) from `agenda` until the
/// endpoint is closed; returns what closes the endpoint and the handle
/// that gives the engines back.
fn spawn(
    name: String,
    endpoint: TcpEndpoint,
    mut sites: Vec<(ServerEngine, TcpNet)>,
    agenda: Agenda,
) -> (Closer, JoinHandle<Vec<ServerEngine>>) {
    let closer = endpoint.closer();
    let thread = std::thread::Builder::new().name(name).spawn(move || {
        let hosted = sites.iter_mut().map(|(engine, net)| (engine, net));
        Reactor {
            sites: hosted.collect(),
            endpoint: &endpoint,
            agenda,
            done: |_| false,
        }
        .run_to_host(u64::MAX);
        sites.into_iter().map(|(engine, _)| engine).collect()
    });
    (closer, thread.expect("spawn cluster thread"))
}

/// A running loopback deployment: the query-server daemons of the hosted
/// web's sites on [`Deployment::reactors`] reactor threads, one bound user
/// endpoint, and the shared address map playing DNS. All endpoints are
/// bound before any daemon starts, so the map is complete from the first
/// message. The single-query runners and the workload driver all build on
/// this.
pub struct TcpCluster {
    user_endpoint: TcpEndpoint,
    /// The user site's network handle; every other handle of the cluster
    /// is a clone of it under another name.
    net: TcpNet,
    /// Every reactor: the handle that closes its endpoint, which is what
    /// ends (and wakes) its loop, and the thread that gives its daemons'
    /// engines back.
    reactors: Vec<(Closer, JoinHandle<Vec<ServerEngine>>)>,
    /// The cluster's admin socket (`/metrics`, `/status`,
    /// `/reset_high_water`).
    admin: MetricsExporter,
    /// What was deployed: the tracer a drive ticks and the schedule it
    /// applies.
    deployment: Deployment,
    /// How many of the schedule's mutations have landed.
    mutated: usize,
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
    /// cluster, plus `/status` when the tracer is a monitor.
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
    /// came up, the mutation schedule's clock) has gone out and
    /// completed, or `deadline` passes. It is the one host loop on a fresh
    /// agenda of the user site's: each scheduled mutation not yet applied
    /// lands at its offset (one already overdue before the kick-off
    /// submits anything), and a traced run's tracer
    /// [ticks](webdis_trace::TraceHandle::tick) every `SAMPLE_PERIOD_US`
    /// (50 ms), so a monitor's windows close while the cluster serves. The
    /// cluster stays up afterwards; a later drive with the same `net` (a
    /// [`TcpCluster::user_net`]) keeps its connections and lands only the
    /// mutations not yet applied.
    pub fn drive(&mut self, net: &mut TcpNet, user: &mut ScheduledClient, deadline: Duration) {
        // Whatever an earlier drive of this handle left queued is moot;
        // the user site's kick-off is queued now, as `SimNet::start` does.
        let (mut agenda, now) = (Agenda::default(), net.now_us());
        agenda.push(now, Due::Actor(net.addr.clone(), Event::Start));
        let stop_us = now + deadline.as_micros() as u64;
        let tracer = &self.deployment.config.tracer;
        let mut site = Reactor {
            endpoint: &self.user_endpoint,
            sites: vec![(user, net)],
            agenda,
            done: ScheduledClient::done,
        };
        let tick = |_: &mut Reactor<_>, at_us, _| {
            tracer.tick(at_us);
            ControlFlow::Continue(at_us + SAMPLE_PERIOD_US)
        };
        let first_tick = tracer.enabled().then_some(now);
        let cursor = &mut self.mutated;
        self.deployment
            .drive(&mut site, cursor, stop_us, first_tick, tick);
    }

    /// Stops the admin socket and every reactor, and returns the engines
    /// (for final stats); a monitor's owner closes its last window after
    /// this. The user endpoint closes first, so a daemon whose write
    /// waits on a user site that stopped reading fails that write rather
    /// than waiting on.
    pub fn shutdown(mut self) -> Vec<ServerEngine> {
        self.user_endpoint.close();
        self.admin.stop();
        for (closer, _) in &self.reactors {
            closer.close();
        }
        let reactors = self.reactors.into_iter();
        reactors
            .filter_map(|(_, r)| r.join().ok())
            .flatten()
            .collect()
    }
}

impl Deployment {
    /// Starts the deployment on loopback under `faults`: binds every
    /// endpoint and the cluster's one admin socket
    /// ([`TcpCluster::admin_addr`]), then spawns [`Deployment::reactors`]
    /// reactor threads, each hosting the [`ServerEngine`]s of an equal
    /// share of the participating sites, in site order, on one endpoint
    /// with a listener per site. Each daemon, and the user site, sends
    /// through its endpoint's [`Outbox`], which the endpoint's waiting
    /// thread reads while a write waits for room. Faults are decided per
    /// send, a [`Fault::Crash`] of any endpoint also per arrival, in µs
    /// since the cluster came up; a daemon's restarts are its reactor's.
    /// The daemons race for the one RNG, so rate draws are not
    /// seed-deterministic: a rate of 0 or 1 is. The tracer is ticked, and
    /// the schedule applied, by [`TcpCluster::drive`].
    pub fn tcp_cluster(&self, faults: Vec<Fault>) -> TcpCluster {
        let (web, engine_cfg) = (&self.web, &self.engine_config());
        let epoch = Instant::now();
        let user_site = user_addr();
        let sites: Vec<SiteAddr> = web
            .sites()
            .into_iter()
            .filter(|s| self.participates(s))
            .collect();
        let n = sites.len();
        let k = self.reactors.max(1).min(n);
        let mut endpoints = Vec::new();
        let mut map = BTreeMap::new();
        for r in 0..k {
            let hosted = &sites[r * n / k..(r + 1) * n / k];
            let ep = TcpEndpoint::bind_all(hosted.iter().map(|_| "127.0.0.1:0"));
            let ep = ep.expect("bind loopback");
            for (site, addr) in hosted.iter().zip(ep.local_addrs()) {
                map.insert(query_server_addr(site), *addr);
            }
            endpoints.push((hosted, ep));
        }
        let user_endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind loopback");
        map.insert(user_site.clone(), user_endpoint.local_addr());
        let ledger = Ledger {
            meter: Arc::default(),
            tracer: engine_cfg.tracer.clone(),
        };
        let user_net = TcpNet {
            map: Arc::new(map),
            out: user_endpoint.outbox(),
            epoch,
            addr: user_site.clone(),
            faults: (!faults.is_empty())
                .then(|| Arc::new(Mutex::new(Injector::new(faults.clone(), 0)))),
            ledger,
            queue_wait_us: 0,
        };

        // The cluster's one admin socket: `/metrics` is the shared
        // registry snapshot (when the run is traced) overlaid with the
        // cluster-wide `net.*` wire counters and an `up` gauge, rendered
        // in Prometheus text exposition format — with a noop tracer the
        // wire counters and gauge still get exported. `/status` is the
        // tracer's live snapshot, when it keeps one (a monitor does).
        // `/reset_high_water` re-arms the registry's high-water gauges
        // (scrapes never reset).
        let ledger = user_net.ledger.clone();
        let metrics = Arc::new(move || {
            let snap = ledger.tracer.registry_snapshot().unwrap_or_default();
            let mut snap = ledger.overlay(snap);
            snap.put_gauge("up", 1);
            snap.render_prometheus()
        });
        let tracer = engine_cfg.tracer.clone();
        let status = Arc::new(move || tracer.status_json(epoch.elapsed().as_micros() as u64));
        let tracer = engine_cfg.tracer.clone();
        let admin = MetricsExporter::spawn_routes(webdis_trace::AdminRoutes {
            metrics,
            status,
            reset_high_water: Some(Arc::new(move || tracer.reset_high_water())),
        })
        .expect("bind admin socket");

        let mut reactors = Vec::new();
        for (r, (hosted, endpoint)) in endpoints.into_iter().enumerate() {
            let addrs: Vec<SiteAddr> = hosted.iter().map(query_server_addr).collect();
            let out = endpoint.outbox();
            let daemons = hosted.iter().zip(&addrs).map(|(site, addr)| {
                let engine = ServerEngine::new(site.clone(), web.clone(), engine_cfg.clone());
                let net = TcpNet {
                    addr: addr.clone(),
                    out: out.clone(),
                    ..user_net.clone()
                };
                (engine, net)
            });
            let daemons = daemons.collect();
            let agenda = Agenda::new(&faults, |site| addrs.contains(site));
            let name = format!("webdis-reactor-{r}");
            reactors.push(spawn(name, endpoint, daemons, agenda));
        }
        TcpCluster {
            user_endpoint,
            net: user_net,
            reactors,
            admin,
            deployment: self.clone(),
            mutated: 0,
        }
    }

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
        for (user, plan) in plans.into_iter().enumerate() {
            clients.push(self.load_client(user, user_addr()));
            planned.extend(plan.submissions.into_iter().map(|s| (user, s)));
        }
        let mut user = ScheduledClient::new(clients, planned);
        let mut cluster = self.tcp_cluster(faults);
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

    /// Runs one DISQL query over a fresh loopback cluster: a workload of
    /// one user, `load0`, submitting it at t = 0
    /// ([`Deployment::workload_tcp`]). Returns its record when it
    /// completes or `deadline` expires.
    pub fn query_tcp(
        &self,
        disql: &str,
        deadline: Duration,
        faults: Vec<Fault>,
    ) -> Result<QueryRecord, DisqlError> {
        let submissions = vec![PlannedQuery::at(0, parse_disql(disql)?)];
        let plans = vec![UserPlan { submissions }];
        Ok(self.workload_tcp(faults, plans, deadline).records.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientProcess;
    use webdis_model::Url;
    use webdis_sim::FaultKind;
    use webdis_trace::{TraceEvent as TrEvent, TraceHandle};
    use webdis_web::figures;
    use webdis_web::{HostedWeb, LiveWeb, Mutation, MutationOp, MutationSchedule, PageBuilder};

    /// The two ways a cluster can host its daemons: every daemon on one
    /// reactor thread, and a thread per daemon.
    const LAYOUTS: [usize; 2] = [1, usize::MAX];

    /// `web` under `cfg`, its daemons hosted on `reactors` threads.
    fn cluster_at(web: HostedWeb, cfg: &EngineConfig, reactors: usize) -> TcpCluster {
        let mut deployment = Deployment::new(Arc::new(web), cfg.clone());
        deployment.reactors = reactors;
        deployment.tcp_cluster(Vec::new())
    }

    /// A user site with one client process and nothing planned yet.
    fn campus_user(cluster: &TcpCluster, cfg: &EngineConfig) -> ScheduledClient {
        let client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
        ScheduledClient::new(vec![client], Vec::new())
    }

    /// Drives one more query, planned `at_us` after the cluster came up,
    /// to completion on an already-running cluster; returns its record,
    /// which the client forgets.
    fn drive_query(
        cluster: &mut TcpCluster,
        net: &mut TcpNet,
        user: &mut ScheduledClient,
        (at_us, disql): (u64, &str),
    ) -> QueryRecord {
        let planned = PlannedQuery::at(at_us, parse_disql(disql).expect("valid query"));
        *user = ScheduledClient::new(std::mem::take(&mut user.clients), vec![(0, planned)]);
        cluster.drive(net, user, Duration::from_secs(30));
        assert!(user.done(), "query must complete over TCP");
        let mut records = user.clients[0].take_records(0);
        records.pop().expect("query submitted")
    }

    /// The campus query, due at once.
    const CAMPUS_NOW: (u64, &str) = (0, figures::CAMPUS_QUERY);

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

    /// A cluster over [`needle_live_web`] whose schedule edits `a.html`
    /// at `edit_us` and adds an anchor to the root at `anchor_us`, with a
    /// user site that has planned nothing yet.
    fn needle_cluster_mutated_at(
        edit_us: u64,
        anchor_us: u64,
    ) -> (Arc<LiveWeb>, TcpCluster, ScheduledClient) {
        let web = needle_live_web();
        let schedule = MutationSchedule {
            events: vec![
                Mutation {
                    at_us: edit_us,
                    op: MutationOp::EditPage {
                        url: Url::parse("http://c.test/a.html").unwrap(),
                        token: "needle".into(),
                    },
                },
                Mutation {
                    at_us: anchor_us,
                    op: MutationOp::AddAnchor {
                        url: Url::parse("http://c.test/").unwrap(),
                        href: Url::parse("http://c.test/b.html").unwrap(),
                        label: "b".into(),
                    },
                },
            ],
        };
        let cfg = EngineConfig::default();
        let cluster = TcpCluster::start_live(Arc::clone(&web), &cfg, Vec::new(), Some(schedule));
        let user = campus_user(&cluster, &cfg);
        (web, cluster, user)
    }

    #[test]
    fn scheduled_mutation_applies_during_cluster_lifetime() {
        // The drive applies schedule events at their offsets while daemons
        // serve, so a query planned after both sees the edited page; by
        // shutdown the web's history reflects the full schedule.
        let (web, mut cluster, mut user) = needle_cluster_mutated_at(1_000, 2_000);
        let mut net = cluster.user_net();
        let after = drive_query(&mut cluster, &mut net, &mut user, (100_000, NEEDLE_QUERY));
        cluster.shutdown();
        assert_eq!(web.mutations_applied(), 2, "schedule fully applied");
        assert_eq!(web.site_version("c.test"), 2);
        assert!(
            titles(&after).iter().any(|t| t.contains("A needle rev1")),
            "the query planned after the edit saw the old page: {:?}",
            titles(&after)
        );
    }

    #[test]
    fn each_scheduled_mutation_lands_once_however_many_drives() {
        // The first drive ends between the two mutations, the second one
        // outlasts the later; a third finds nothing left to apply.
        let (web, mut cluster, mut user) = needle_cluster_mutated_at(0, 300_000);
        let mut net = cluster.user_net();
        drive_query(&mut cluster, &mut net, &mut user, (0, NEEDLE_QUERY));
        assert_eq!(web.mutations_applied(), 1, "only the due mutation landed");
        drive_query(&mut cluster, &mut net, &mut user, (400_000, NEEDLE_QUERY));
        drive_query(&mut cluster, &mut net, &mut user, (0, NEEDLE_QUERY));
        cluster.shutdown();
        assert_eq!(web.mutations_applied(), 2, "each mutation landed once");
        assert_eq!(web.site_version("c.test"), 2);
    }

    #[test]
    fn an_unsorted_schedule_lands_each_mutation_once_across_drives() {
        // The anchor (listed second) is due at once, the edit (listed
        // first) 300 ms in: the first drive lands the anchor only, the
        // second the edit, which its query then sees at the site's second
        // version.
        let (web, mut cluster, mut user) = needle_cluster_mutated_at(300_000, 0);
        let mut net = cluster.user_net();
        drive_query(&mut cluster, &mut net, &mut user, (0, NEEDLE_QUERY));
        assert_eq!(web.mutations_applied(), 1);
        let after = drive_query(&mut cluster, &mut net, &mut user, (400_000, NEEDLE_QUERY));
        cluster.shutdown();
        assert_eq!(web.mutations_applied(), 2, "each mutation landed once");
        assert!(
            titles(&after).iter().any(|t| t.contains("A needle rev2")),
            "the edit never landed: {:?}",
            titles(&after)
        );
    }

    #[test]
    fn an_overdue_mutation_lands_before_the_drives_first_submission() {
        // The drive starts 5 ms after the edit's offset: the edit is
        // overdue, so it lands before the kick-off sends the query's
        // first clone. The driving thread records both.
        let (collector, tracer) = TraceHandle::collecting(8_192);
        let cfg = EngineConfig {
            tracer,
            ..EngineConfig::default()
        };
        let mut deployment = Deployment::new(needle_live_web(), cfg.clone());
        deployment.schedule.events.push(Mutation {
            at_us: 0,
            op: MutationOp::EditPage {
                url: Url::parse("http://c.test/a.html").unwrap(),
                token: "needle".into(),
            },
        });
        let mut cluster = deployment.tcp_cluster(Vec::new());
        let (mut user, mut net) = (campus_user(&cluster, &cfg), cluster.user_net());
        std::thread::sleep(Duration::from_millis(5));
        drive_query(&mut cluster, &mut net, &mut user, (0, NEEDLE_QUERY));
        cluster.shutdown();
        let records = collector.snapshot();
        let first = |what: &dyn Fn(&TrEvent) -> bool| records.iter().position(|r| what(&r.event));
        let mutation = first(&|e| matches!(e, TrEvent::WebMutation { .. }));
        let clone = first(&|e| matches!(e, TrEvent::MessageSent { kind, .. } if kind == "query"));
        assert!(
            matches!((mutation, clone), (Some(m), Some(c)) if m < c),
            "mutation record {mutation:?}, first clone record {clone:?}"
        );
    }

    #[test]
    fn a_second_drive_keeps_the_expiry_sweep() {
        // Every clone the CSA daemon forwards to the DSL lab is lost, so
        // only expiry sweeps conclude the two campus queries. The first
        // drive ends with a sweep pending; the second one must sweep too.
        let cfg = EngineConfig {
            expiry_us: Some(400_000),
            ..EngineConfig::default()
        };
        let drop = Fault::rate(FaultKind::Drop, 1.0).on(CSA, "wdqs.dsl.serc.iisc.ernet.in");
        let mut cluster = TcpCluster::start(Arc::new(figures::campus()), &cfg, vec![drop]);
        let client = ClientProcess::new("webdis", user_addr(), cfg.clone());
        let plan = [0, 300_000].map(|at_us| {
            let query = parse_disql(figures::CAMPUS_QUERY).expect("valid query");
            (0, PlannedQuery::at(at_us, query))
        });
        let mut user = ScheduledClient::new(vec![client], plan.into());
        let mut net = cluster.user_net();
        cluster.drive(&mut net, &mut user, Duration::from_millis(50));
        cluster.drive(&mut net, &mut user, Duration::from_secs(5));
        cluster.shutdown();
        assert!(user.done(), "expiry must conclude both queries");
    }

    #[test]
    fn sleeping_runtimes_are_woken_by_shutdown() {
        // A daemon has no deadline — it purges as messages arrive, so
        // even with a purge period set it posts no timer — the one
        // scheduled mutation is a minute away, and nothing polls: unless
        // shutdown wakes each sleeper, it waits for a frame forever.
        let web = Arc::new(LiveWeb::from_hosted(&figures::campus()));
        let (_collector, tracer) = webdis_trace::TraceHandle::collecting(1_024);
        let cfg = EngineConfig {
            log_purge_us: Some(60_000_000),
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
        let t0 = Instant::now();
        let engines = cluster.shutdown();
        let took = t0.elapsed();
        assert_eq!(engines.len(), web.sites().len(), "every daemon joined");
        assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
        assert_eq!(web.mutations_applied(), 0, "the mutation was never due");
    }

    #[test]
    fn shutdown_returns_while_a_daemon_writes_to_a_user_that_stopped_reading() {
        // One result row larger than the socket buffers hold, at a user
        // site that never reads: the daemon's write waits for room until
        // shutdown closes the user endpoint, which fails it — also when
        // it waits in turns of a reactor it shares with another daemon.
        let mut web = HostedWeb::new();
        web.insert_page("http://c.test/", PageBuilder::new(&"x".repeat(4 << 20)));
        web.insert_page("http://d.test/", PageBuilder::new("idle"));
        let cfg = EngineConfig::default();
        for reactors in LAYOUTS {
            let cluster = cluster_at(web.clone(), &cfg, reactors);
            let mut client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
            let disql = r#"select d.title from document d such that "http://c.test/" L* d"#;
            client.submit(&mut cluster.user_net(), parse_disql(disql).unwrap());
            let meter = Arc::clone(cluster.wire_counters());
            let deadline = Instant::now() + Duration::from_secs(10);
            // The clone went out; give the daemon time to fill the buffers.
            while meter.msgs_of("query") == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(200));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || done_tx.send(cluster.shutdown().len()));
            let joined = done_rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(
                joined,
                Ok(2),
                "{reactors:?}: shutdown waited on a daemon's write"
            );
            stopper.join().unwrap().unwrap();
        }
    }

    #[test]
    fn a_report_to_a_closed_user_endpoint_is_refused_in_either_layout() {
        // Section 2.8 over real sockets: the user site has closed its
        // endpoint, so the StartNode daemon's report dial is refused, the
        // daemon purges the query, and nothing is forwarded.
        let cfg = EngineConfig::default();
        for reactors in LAYOUTS {
            let mut cluster = cluster_at(figures::campus(), &cfg, reactors);
            let mut client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
            cluster.user_endpoint.close();
            let query = parse_disql(figures::CAMPUS_QUERY).unwrap();
            client.submit(&mut cluster.user_net(), query);
            let meter = Arc::clone(cluster.wire_counters());
            let refused = webdis_net::meter::FATES
                .iter()
                .position(|&f| f == "refused");
            let refused = refused.expect("a refused fate");
            let deadline = Instant::now() + Duration::from_secs(10);
            while meter.get(refused, "report").0 == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let engines = cluster.shutdown();
            let terminated: u64 = engines.iter().map(|e| e.stats.terminated_queries).sum();
            assert_eq!(terminated, 1, "{reactors:?}");
            assert_eq!(
                meter.msgs_of("query"),
                1,
                "{reactors:?}: only the user's clone"
            );
        }
    }

    #[test]
    fn one_user_schedule_runs_the_same_on_both_runtimes() {
        // Three submissions planned out of order, expiry on: the
        // simulator's actor and the TCP driver run the same
        // `ScheduledClient`, so the queries go out in the same order (their
        // numbers follow their planned times) and each is answered the
        // same.
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
            submissions: plan().into(),
        }];
        let sim = deployment.workload_sim(sim_cfg, plans, u64::MAX);

        let mut cluster = deployment.tcp_cluster(Vec::new());
        let mut net = cluster.user_net();
        let client = ClientProcess::new("webdis", user_addr(), cfg.clone());
        let mut user = ScheduledClient::new(vec![client], plan().map(|s| (0, s)).into());
        cluster.drive(&mut net, &mut user, Duration::from_secs(30));
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
    fn a_single_query_is_a_workload_of_one() {
        // The campus query over real sockets. `query_tcp` is
        // `workload_tcp` with one user submitting at t = 0: the same rows,
        // and its latency observed once, as every workload run observes
        // each completed query's.
        let web = Arc::new(figures::campus());
        let deadline = Duration::from_secs(30);
        let (collector, tracer) = TraceHandle::collecting(8_192);
        let cfg = EngineConfig {
            tracer,
            ..EngineConfig::default()
        };
        let record = Deployment::new(Arc::clone(&web), cfg)
            .query_tcp(figures::CAMPUS_QUERY, deadline, Vec::new())
            .unwrap();
        assert!(record.complete, "query must complete over TCP");
        assert_eq!(record.results.get(&1).map(Vec::len), Some(3));

        let query = parse_disql(figures::CAMPUS_QUERY).unwrap();
        let plans = vec![UserPlan {
            submissions: vec![PlannedQuery::at(0, query)],
        }];
        let workload = Deployment::new(web, EngineConfig::default())
            .workload_tcp(Vec::new(), plans, deadline)
            .records;
        assert_eq!(workload.len(), 1);
        assert_eq!(record.result_set(), workload[0].result_set());

        let registry = collector.registry().snapshot();
        let latency = registry.histogram("query_latency_us").expect("observed");
        assert_eq!(
            (latency.count, latency.sum),
            (1, record.latency_us().unwrap())
        );
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
        // 200 campus queries over one cluster: each sending endpoint — a
        // reactor or the user's — dials each listener at most once, since
        // the daemons sharing a reactor share its connections, and a warm
        // cluster never dials again.
        let cfg = EngineConfig::default();
        for reactors in LAYOUTS {
            let mut cluster = cluster_at(figures::campus(), &cfg, reactors);
            let mut user = campus_user(&cluster, &cfg);
            let mut net = cluster.user_net();
            let mut connects_after = Vec::new();
            for _ in 0..200 {
                let query = drive_query(&mut cluster, &mut net, &mut user, CAMPUS_NOW);
                assert_eq!(query.results.get(&1).map(Vec::len), Some(3));
                connects_after.push(cluster.wire_counters().connects());
            }
            // Senders: the reactors plus the user; listeners: one per site
            // plus the user's.
            let sites = figures::campus().sites().len();
            let senders = reactors.min(sites) as u64 + 1;
            let listeners = sites as u64 + 1;
            assert!(
                connects_after[199] <= senders * listeners,
                "{reactors:?}: {} dials, {senders} senders, {listeners} listeners",
                connects_after[199]
            );
            assert_eq!(
                connects_after[99], connects_after[199],
                "{reactors:?}: a warm cluster must not dial"
            );
            cluster.shutdown();
        }
    }

    #[test]
    fn a_generated_sixteen_site_web_answers_as_data_shipping_in_either_layout() {
        // The crawl the wall-clock benchmark times: many clones and
        // reports per turn of a reactor, so many frames share a write.
        let web = webdis_web::generate(&webdis_web::WebGenConfig {
            sites: 16,
            docs_per_site: 6,
            extra_local_links: 2,
            extra_global_links: 2,
            title_needle_prob: 0.2,
            filler_words: 40,
            seed: 4242,
            ..webdis_web::WebGenConfig::default()
        });
        let disql = r#"select d.url, d.title from document d
            such that "http://site0.test/doc0.html" (L|G)* d
            where d.title contains "needle""#;
        let cfg = EngineConfig::default();
        let deployment = Deployment::new(Arc::new(web), cfg.clone());
        let sim_cfg = webdis_sim::SimConfig::default();
        let reference = deployment.datashipping_sim(disql, sim_cfg).unwrap();
        assert!(reference.complete && !reference.results.is_empty());
        for reactors in LAYOUTS {
            let mut deployment = deployment.clone();
            deployment.reactors = reactors;
            let record = deployment.query_tcp(disql, Duration::from_secs(30), Vec::new());
            let record = record.unwrap();
            assert!(record.complete, "{reactors:?}");
            assert_eq!(record.result_set(), reference.result_set(), "{reactors:?}");
        }
    }

    #[test]
    fn concurrent_queries_over_tcp() {
        let web = Arc::new(figures::campus());
        let queries = [
            figures::CAMPUS_QUERY,
            figures::EXAMPLE_QUERY_1,
            figures::CAMPUS_QUERY,
        ];
        let plans = vec![UserPlan {
            submissions: queries
                .map(|q| PlannedQuery::at(0, parse_disql(q).unwrap()))
                .into(),
        }];
        let outcomes = Deployment::new(Arc::clone(&web), EngineConfig::default())
            .workload_tcp(Vec::new(), plans, Duration::from_secs(30))
            .records;
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
        let queries = [figures::CAMPUS_QUERY, figures::EXAMPLE_QUERY_1];
        let plans = vec![UserPlan {
            submissions: queries
                .map(|q| PlannedQuery::at(0, parse_disql(q).unwrap()))
                .into(),
        }];
        let outcomes = Deployment::new(Arc::new(figures::campus()), cfg)
            .workload_tcp(Vec::new(), plans, Duration::from_secs(30))
            .records;
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
    fn live_metrics_scrape_covers_every_registered_metric() {
        use std::io::{Read, Write};

        let web = Arc::new(figures::campus());
        let (collector, tracer) = webdis_trace::TraceHandle::collecting(65_536);
        let cfg = EngineConfig {
            tracer,
            ..EngineConfig::default()
        };
        let mut cluster = TcpCluster::start(Arc::clone(&web), &cfg, Vec::new());

        let mut user = campus_user(&cluster, &cfg);
        let mut net = cluster.user_net();
        drive_query(&mut cluster, &mut net, &mut user, CAMPUS_NOW);

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
    fn every_hop_of_a_traced_tcp_run_is_timed() {
        // A daemon can record a clone's arrival before its sender records
        // the send; the hop-latency match must pair it all the same.
        for run in 0..20 {
            let (collector, tracer) = TraceHandle::collecting(65_536);
            let cfg = EngineConfig {
                tracer,
                ..EngineConfig::default()
            };
            let web = Arc::new(figures::campus());
            let deadline = Duration::from_secs(30);
            let deployment = Deployment::new(web, cfg);
            let record = deployment.query_tcp(figures::CAMPUS_QUERY, deadline, Vec::new());
            let record = record.unwrap();
            assert!(record.complete, "run {run}");
            let records = collector.snapshot();
            let receives = records.iter().filter(|r| r.event.name() == "query_recv");
            let receives = receives.count() as u64;
            let registry = collector.registry().snapshot();
            let hops = registry.histogram("hop_latency_us").map_or(0, |h| h.count);
            assert_eq!(hops, receives, "run {run}");
        }
    }

    #[test]
    fn both_runtimes_gauge_the_user_sites_arrivals() {
        // Regression: TCP's user-site driver handed messages to the client
        // without `Ledger::arrival`, so only the simulator had the gauge.
        for transport in ["tcp", "sim"] {
            let (_collector, tracer) = TraceHandle::collecting(65_536);
            let cfg = EngineConfig {
                tracer: tracer.clone(),
                ..EngineConfig::default()
            };
            let deployment = Deployment::new(Arc::new(figures::campus()), cfg);
            let query = figures::CAMPUS_QUERY;
            let complete = match transport {
                "tcp" => {
                    let deadline = Duration::from_secs(30);
                    let record = deployment.query_tcp(query, deadline, Vec::new());
                    record.unwrap().complete
                }
                _ => {
                    let sim_cfg = webdis_sim::SimConfig::default();
                    deployment.query_sim(query, sim_cfg).unwrap().complete
                }
            };
            assert!(complete, "{transport}");
            let registry = tracer.registry_snapshot().expect("a collecting tracer");
            let depth = registry.gauge("queue_depth.user.test");
            assert!(depth >= 1, "{transport}: user-site queue depth {depth}");
            // A daemon is gauged under the one name both runtimes give it.
            let depth = registry.gauge(&format!("queue_depth.{CSA}"));
            assert!(depth >= 1, "{transport}: {CSA} queue depth {depth}");
        }
    }
}

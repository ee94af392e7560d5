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

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdis_disql::parse_disql;
use webdis_model::SiteAddr;
use webdis_net::{ConnPool, Frame, Message, RetryPolicy, TcpEndpoint, WireCounters};
use webdis_trace::{MetricsExporter, TraceEvent as TrEvent, TraceHandle, TraceRecord};

use crate::client::{ClientProcess, ScheduledSubmission};
use crate::config::EngineConfig;
use crate::deploy::Deployment;
use crate::network::{query_server_addr, Network, NetworkError};
use crate::record::{QueryRecord, WorkloadOutcome};
use crate::server::ServerEngine;
use crate::simrun::{user_addr, SimRunError};

/// A crash-restart window for one site's daemon: messages arriving
/// within `[start, start + down)` of the cluster epoch are discarded
/// (the process is dead), and the first poll past the window respawns
/// the engine via [`ServerEngine::restart`] — volatile state wiped,
/// exactly what a process respawn loses.
#[derive(Clone, Debug)]
pub struct CrashWindow {
    /// Host whose query daemon crashes.
    pub host: String,
    /// Window start, measured from cluster start.
    pub start: Duration,
    /// How long the daemon stays dead.
    pub down: Duration,
}

/// What the fault plan decided for one outgoing message.
enum FaultAction {
    None,
    /// Swallow the message; the sender believes the send succeeded.
    Drop,
    /// Flip a byte in the encoded frame before writing it, so the
    /// receiver's decode path rejects it (loss through `WireError`).
    Corrupt,
    /// Deliver the message, then deliver an identical second copy.
    Duplicate,
}

/// Deterministic send-fault injection for the TCP runtime: of all
/// `query`-kind messages dispatched across the whole run (user dispatch
/// and daemon forwards share one global counter), each fault kind claims
/// its own ordinal range `[skip, skip + n)`. Report-kind messages have
/// their own counter for duplication (the idempotence path under test).
/// Cloning shares the counters — every `TcpNet` handle in a run sees the
/// same plan. Crash-restart windows ride along and are consumed by the
/// daemon poll loops.
#[derive(Clone, Default)]
pub struct TcpFaultPlan {
    inner: Arc<FaultPlanInner>,
}

#[derive(Default)]
struct FaultPlanInner {
    skip_queries: usize,
    drop_queries: usize,
    corrupt_skip: usize,
    corrupt_queries: usize,
    dup_skip: usize,
    dup_reports: usize,
    crashes: Vec<CrashWindow>,
    counter: AtomicUsize,
    report_counter: AtomicUsize,
    dropped: AtomicUsize,
    corrupted: AtomicUsize,
    duplicated: AtomicUsize,
}

impl TcpFaultPlan {
    /// A plan that drops `drop_queries` query clones after letting the
    /// first `skip_queries` through.
    pub fn drop_queries(skip_queries: usize, drop_queries: usize) -> TcpFaultPlan {
        TcpFaultPlan::default().with_query_drops(skip_queries, drop_queries)
    }

    /// Adds a query-clone drop range to the plan.
    pub fn with_query_drops(self, skip: usize, n: usize) -> TcpFaultPlan {
        self.edit(|inner| {
            inner.skip_queries = skip;
            inner.drop_queries = n;
        })
    }

    /// Adds a query-clone byte-corruption range: the frames are encoded,
    /// one byte is flipped, and the mangled payload goes over the real
    /// socket so the receiver's decode error path runs.
    pub fn with_query_corruption(self, skip: usize, n: usize) -> TcpFaultPlan {
        self.edit(|inner| {
            inner.corrupt_skip = skip;
            inner.corrupt_queries = n;
        })
    }

    /// Adds a result-report duplication range: the affected reports are
    /// delivered twice, exercising the user site's `(origin, seq)`
    /// dedupe.
    pub fn with_report_dups(self, skip: usize, n: usize) -> TcpFaultPlan {
        self.edit(|inner| {
            inner.dup_skip = skip;
            inner.dup_reports = n;
        })
    }

    /// Adds a crash-restart window for one site's daemon.
    pub fn with_crash_window(self, host: &str, start: Duration, down: Duration) -> TcpFaultPlan {
        self.edit(|inner| {
            inner.crashes.push(CrashWindow {
                host: host.to_string(),
                start,
                down,
            })
        })
    }

    fn edit(mut self, f: impl FnOnce(&mut FaultPlanInner)) -> TcpFaultPlan {
        let inner = Arc::get_mut(&mut self.inner)
            .expect("fault plans are configured before the cluster starts");
        f(inner);
        self
    }

    /// How many messages the plan has swallowed so far.
    pub fn dropped_so_far(&self) -> usize {
        self.inner.dropped.load(Ordering::SeqCst)
    }

    /// How many frames the plan has corrupted so far.
    pub fn corrupted_so_far(&self) -> usize {
        self.inner.corrupted.load(Ordering::SeqCst)
    }

    /// How many reports the plan has delivered twice so far.
    pub fn duplicated_so_far(&self) -> usize {
        self.inner.duplicated.load(Ordering::SeqCst)
    }

    /// The crash windows scheduled for `host`, ordered by start.
    fn crash_windows_for(&self, host: &str) -> Vec<CrashWindow> {
        let mut windows: Vec<CrashWindow> = self
            .inner
            .crashes
            .iter()
            .filter(|w| w.host == host)
            .cloned()
            .collect();
        windows.sort_by_key(|w| w.start);
        windows
    }

    fn action_for(&self, msg: &Message) -> FaultAction {
        match msg {
            Message::Query(_) => {
                let has_faults = self.inner.drop_queries > 0 || self.inner.corrupt_queries > 0;
                if !has_faults {
                    return FaultAction::None;
                }
                let ordinal = self.inner.counter.fetch_add(1, Ordering::SeqCst);
                if self.inner.drop_queries > 0
                    && ordinal >= self.inner.skip_queries
                    && ordinal < self.inner.skip_queries + self.inner.drop_queries
                {
                    self.inner.dropped.fetch_add(1, Ordering::SeqCst);
                    return FaultAction::Drop;
                }
                if self.inner.corrupt_queries > 0
                    && ordinal >= self.inner.corrupt_skip
                    && ordinal < self.inner.corrupt_skip + self.inner.corrupt_queries
                {
                    self.inner.corrupted.fetch_add(1, Ordering::SeqCst);
                    return FaultAction::Corrupt;
                }
                FaultAction::None
            }
            Message::Report(_) => {
                if self.inner.dup_reports == 0 {
                    return FaultAction::None;
                }
                let ordinal = self.inner.report_counter.fetch_add(1, Ordering::SeqCst);
                if ordinal >= self.inner.dup_skip
                    && ordinal < self.inner.dup_skip + self.inner.dup_reports
                {
                    self.inner.duplicated.fetch_add(1, Ordering::SeqCst);
                    return FaultAction::Duplicate;
                }
                FaultAction::None
            }
            _ => FaultAction::None,
        }
    }
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
    tracer: TraceHandle,
    retry: RetryPolicy,
    faults: TcpFaultPlan,
    /// Shared per-kind wire meter — one per cluster, so `/metrics` sees
    /// traffic from every daemon and from the user-site client alike.
    wire: Arc<WireCounters>,
    /// Wall-clock queue wait of the message currently being handled,
    /// set by the daemon poll loop before `on_message` so the engine's
    /// `queue_us` span sees the channel dwell time. Always zero on
    /// client-side handles.
    queue_wait_us: u64,
}

impl TcpNet {
    /// Traces the event `make` builds; `make` and its `String`s run only
    /// when the tracer is enabled.
    fn emit(&self, msg: &Message, make: impl FnOnce() -> TrEvent) {
        self.tracer.emit_with(|| {
            let (query, hop) = match msg {
                Message::Query(c) => (Some(c.id.clone()), Some(c.hops)),
                Message::Report(r) => (Some(r.id.clone()), None),
                Message::Ack(a) => (Some(a.id.clone()), None),
                Message::Fetch(_) | Message::FetchReply(_) => (None, None),
            };
            TraceRecord {
                time_us: self.epoch.elapsed().as_micros() as u64,
                site: self.from.clone(),
                query,
                hop,
                event: make(),
            }
        });
    }
}

impl Network for TcpNet {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        let undeliverable = || NetworkError { to: to.clone() };
        let addr = *self.map.get(to).ok_or_else(undeliverable)?;
        // Encoded once: the frame is what gets counted, damaged and sent.
        let mut frame = Frame::encode(&msg).map_err(|_| undeliverable())?;
        let bytes = frame.payload().len() as u64;
        let mut duplicate = false;
        match self.faults.action_for(&msg) {
            FaultAction::None => {}
            FaultAction::Drop => {
                // Injected loss: the sender believes the send succeeded,
                // exactly like a message lost in flight.
                self.wire.record_dropped(msg.kind(), bytes);
                self.emit(&msg, || TrEvent::MessageDropped {
                    kind: msg.kind().to_string(),
                    to: to.host.to_string(),
                    bytes: bytes as u32,
                    reason: "injected".into(),
                });
                return Ok(());
            }
            FaultAction::Corrupt => {
                // Flip one byte mid-payload and push the mangled frame
                // down the same pooled connection: the receiver's decoder
                // rejects it, so this is loss exercised through the
                // `WireError` path rather than a silent swallow. No
                // `MessageSent` is emitted — the message never arrives.
                let payload = frame.payload_mut();
                payload[payload.len() / 2] ^= 0xff;
                let _ = self.pool.send(addr, &frame);
                self.wire.record_dropped(msg.kind(), bytes);
                self.emit(&msg, || TrEvent::MessageCorrupted {
                    kind: msg.kind().to_string(),
                    to: to.host.to_string(),
                    bytes: bytes as u32,
                });
                return Ok(());
            }
            FaultAction::Duplicate => duplicate = true,
        }
        // The retry callback traces through `&self`, so the pool steps
        // out of `self` for the duration of the send.
        let mut pool = std::mem::take(&mut self.pool);
        let sent = pool.send_retrying(addr, &frame, self.retry, |attempt| {
            self.emit(&msg, || TrEvent::SendRetried {
                kind: msg.kind().to_string(),
                to: to.host.to_string(),
                attempt,
            });
        });
        self.pool = pool;
        sent.map_err(|_| undeliverable())?;
        self.wire.record_sent(msg.kind(), bytes);
        self.emit(&msg, || TrEvent::MessageSent {
            kind: msg.kind().to_string(),
            to: to.host.to_string(),
            bytes: bytes as u32,
        });
        if duplicate {
            // Deliver an identical second copy (a retransmitting network).
            // The extra copy is metered as sent but traced as
            // `MessageDuplicated`, never as a second `MessageSent` — one
            // logical send, two deliveries.
            if self.pool.send(addr, &frame).is_ok() {
                self.wire.record_sent(msg.kind(), bytes);
                self.emit(&msg, || TrEvent::MessageDuplicated {
                    kind: msg.kind().to_string(),
                    to: to.host.to_string(),
                    bytes: bytes as u32,
                });
            }
        }
        Ok(())
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn queue_wait_us(&self) -> u64 {
        self.queue_wait_us
    }
}

/// A running loopback deployment: one query-server daemon thread per
/// site of the hosted web, one bound user endpoint, and the shared
/// address map playing DNS. All endpoints are bound before any daemon
/// starts, so the map is complete from the first message. The
/// single-query runners and the `webdis-load` workload driver all build
/// on this.
pub struct TcpCluster {
    epoch: Instant,
    user_site: SiteAddr,
    user_endpoint: TcpEndpoint,
    map: Arc<BTreeMap<SiteAddr, SocketAddr>>,
    stop: Arc<AtomicBool>,
    daemons: Vec<std::thread::JoinHandle<ServerEngine>>,
    tracer: TraceHandle,
    faults: TcpFaultPlan,
    wire: Arc<WireCounters>,
    exporters: Vec<(SiteAddr, MetricsExporter)>,
    sampler: Option<std::thread::JoinHandle<()>>,
    /// The living-web mutator thread (clusters started with
    /// [`TcpCluster::start_live`] and a schedule), joined at shutdown.
    mutator: Option<std::thread::JoinHandle<()>>,
}

impl TcpCluster {
    /// `web` frozen in time, every site running a daemon under
    /// `engine_cfg`: [`Deployment::tcp_cluster`] with nothing else said.
    pub fn start(
        web: Arc<webdis_web::HostedWeb>,
        engine_cfg: &EngineConfig,
        faults: TcpFaultPlan,
    ) -> TcpCluster {
        Deployment::new(web, engine_cfg.clone()).tcp_cluster(faults)
    }

    /// [`TcpCluster::start`] over a shared living web, with an optional
    /// mutation schedule. (A frozen web is this with no schedule; the two
    /// entry points differ only in the web type, and both stay beside
    /// [`Deployment::tcp_cluster`] because the wall-clock benchmark,
    /// `hwbench/`, calls them by name.)
    pub fn start_live(
        web: Arc<webdis_web::LiveWeb>,
        engine_cfg: &EngineConfig,
        faults: TcpFaultPlan,
        schedule: Option<webdis_web::MutationSchedule>,
    ) -> TcpCluster {
        let mut deployment = Deployment::new(web, engine_cfg.clone());
        deployment.schedule = schedule.unwrap_or_default();
        deployment.tcp_cluster(faults)
    }
}

impl Deployment {
    /// Starts the deployment on loopback under `faults`: binds every
    /// endpoint, then spawns one daemon per participating site. Each
    /// daemon's poll loop also runs the Section-3.1.1 periodic purge
    /// (when `log_purge_us` is set) even while idle — under sustained
    /// multi-query load this bounds the log table and retires admission
    /// slots — and raises the `log_len_high_water` registry gauge after
    /// every processed message.
    ///
    /// When the schedule is not empty, a mutator thread applies each
    /// event at its wall-clock offset from the cluster epoch — pages
    /// change *while queries are in flight* — emitting one
    /// [`TrEvent::WebMutation`] per applied event. The thread is joined
    /// at [`TcpCluster::shutdown`].
    pub fn tcp_cluster(&self, faults: TcpFaultPlan) -> TcpCluster {
        let (web, engine_cfg) = (&self.web, &self.config);
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
        let map = Arc::new(map);
        let stop = Arc::new(AtomicBool::new(false));
        let wire = Arc::new(WireCounters::new());

        let mut daemons = Vec::new();
        let mut exporters = Vec::new();
        for (site, endpoint) in endpoints {
            // Each daemon serves its own `/metrics` endpoint: the shared
            // registry snapshot (when the run is traced) overlaid with
            // the cluster-wide `net.*` wire counters and an `up` gauge,
            // rendered in Prometheus text exposition format. With a noop
            // tracer the wire counters and gauge still get exported.
            let provider: Arc<dyn Fn() -> String + Send + Sync> = {
                let tracer = engine_cfg.tracer.clone();
                let wire = Arc::clone(&wire);
                Arc::new(move || {
                    let mut snap = tracer.registry_snapshot().unwrap_or_default();
                    for (name, value) in wire.counters() {
                        snap.put_counter(&format!("net.{name}"), value);
                    }
                    snap.put_gauge("up", 1);
                    snap.render_prometheus()
                })
            };
            // When a monitor runs, the same admin socket also serves its
            // live `/status` snapshot, and `/reset_high_water` re-arms
            // the registry's high-water gauges (scrapes never reset).
            let status = engine_cfg.monitor.clone().map(|monitor| {
                Arc::new(move || monitor.status_json(epoch.elapsed().as_micros() as u64))
                    as Arc<dyn Fn() -> String + Send + Sync>
            });
            let reset_high_water = {
                let tracer = engine_cfg.tracer.clone();
                Some(Arc::new(move || tracer.reset_high_water()) as Arc<dyn Fn() + Send + Sync>)
            };
            let exporter = MetricsExporter::spawn_routes(webdis_trace::AdminRoutes {
                metrics: provider,
                status,
                reset_high_water,
            })
            .expect("bind metrics endpoint");
            exporters.push((query_server_addr(&site), exporter));

            let mut engine = ServerEngine::with_view(site.clone(), web.clone(), engine_cfg.clone());
            let mut net = TcpNet {
                map: Arc::clone(&map),
                pool: ConnPool::metered(Arc::clone(&wire)),
                epoch,
                from: site.host.to_string(),
                tracer: engine_cfg.tracer.clone(),
                retry: RetryPolicy::default(),
                faults: faults.clone(),
                wire: Arc::clone(&wire),
                queue_wait_us: 0,
            };
            let stop = Arc::clone(&stop);
            let purge_period = engine_cfg.log_purge_us;
            // Crash-restart schedule for this daemon, consumed in order.
            let windows = faults.crash_windows_for(&site.host);
            daemons.push(
                std::thread::Builder::new()
                    .name(format!("webdis-daemon-{site}"))
                    .spawn(move || {
                        let endpoint = endpoint; // owned by the daemon
                        let depth_key = format!("queue_depth.{}", net.from);
                        let mut last_purge = Instant::now();
                        let mut win_idx = 0usize;
                        while !stop.load(Ordering::SeqCst) {
                            // A window whose end has passed respawns the
                            // daemon: fresh volatile state, same socket.
                            while win_idx < windows.len()
                                && epoch.elapsed() >= windows[win_idx].start + windows[win_idx].down
                            {
                                engine.restart();
                                win_idx += 1;
                            }
                            if let Ok(received) =
                                endpoint.recv_timeout_sized(Duration::from_millis(20))
                            {
                                let msg = received.msg;
                                let now = epoch.elapsed();
                                let crashed = win_idx < windows.len()
                                    && now >= windows[win_idx].start
                                    && now < windows[win_idx].start + windows[win_idx].down;
                                if crashed {
                                    // The process is dead: the frame is
                                    // read off the socket but never
                                    // processed. Traced as an explained
                                    // drop so trajectory triage never
                                    // reports a false orphan.
                                    let bytes = received.wire_bytes as u32;
                                    net.emit(&msg, || TrEvent::MessageDropped {
                                        kind: msg.kind().to_string(),
                                        to: net.from.clone(),
                                        bytes,
                                        reason: "crashed".into(),
                                    });
                                    continue;
                                }
                                // Inbound queue depth at dequeue: this
                                // message plus whatever is still waiting.
                                let depth = endpoint.pending() as u64 + 1;
                                net.tracer.gauge_max(&depth_key, depth);
                                net.tracer.gauge_max("queue_depth_high_water", depth);
                                net.queue_wait_us = received.queued.as_micros() as u64;
                                engine.on_message(&mut net, msg);
                                net.queue_wait_us = 0;
                                net.tracer
                                    .gauge_max("log_len_high_water", engine.log_len() as u64);
                            }
                            if let Some(period) = purge_period {
                                if last_purge.elapsed() >= Duration::from_micros(period) {
                                    last_purge = Instant::now();
                                    engine.purge_log(net.now_us().saturating_sub(period));
                                }
                            }
                        }
                        engine
                    })
                    .expect("spawn daemon"),
            );
        }
        // The TCP analogue of the simulator's purge-tick sampling: a
        // wall-clock thread feeds the monitor a registry snapshot every
        // 50 ms so its windows close (and alerts fire/resolve) while the
        // cluster serves traffic. The thread only reads — same workload,
        // monitored or not.
        let sampler = engine_cfg.monitor.clone().map(|monitor| {
            let tracer = engine_cfg.tracer.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("webdis-monitor-sampler".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        if let Some(snapshot) = tracer.registry_snapshot() {
                            monitor.ingest(epoch.elapsed().as_micros() as u64, &snapshot);
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    if let Some(snapshot) = tracer.registry_snapshot() {
                        monitor.finalize(epoch.elapsed().as_micros() as u64, &snapshot);
                    }
                })
                .expect("spawn monitor sampler")
        });
        // Living-web mutator: replays the schedule against the shared
        // store at each event's wall-clock offset from the cluster
        // epoch, so pages change while daemons are mid-query. Every
        // applied event is stamped into the trace as a `WebMutation`
        // from the mutated host, making runs auditable after the fact.
        let mutator = (!self.schedule.events.is_empty()).then(|| {
            // Checked here because a panic inside the thread would only
            // surface as mutations that silently never happen.
            assert!(
                matches!(web, webdis_web::WebView::Live(_)),
                "a mutation schedule needs a living web; this one is frozen"
            );
            let deployment = self.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("webdis-mutator".into())
                .spawn(move || {
                    for m in &deployment.schedule.events {
                        let due = Duration::from_micros(m.at_us);
                        loop {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            let elapsed = epoch.elapsed();
                            if elapsed >= due {
                                break;
                            }
                            // Short slices keep shutdown prompt even
                            // with far-future events.
                            std::thread::sleep((due - elapsed).min(Duration::from_millis(20)));
                        }
                        deployment.apply_mutation(m, epoch.elapsed().as_micros() as u64);
                    }
                })
                .expect("spawn mutator")
        });
        TcpCluster {
            epoch,
            user_site,
            user_endpoint,
            map,
            stop,
            daemons,
            mutator,
            tracer: engine_cfg.tracer.clone(),
            faults,
            wire,
            exporters,
            sampler,
        }
    }
}

impl TcpCluster {
    /// The address daemons report results to.
    pub fn user_site(&self) -> &SiteAddr {
        &self.user_site
    }

    /// Wall-clock µs since the cluster came up (the time base of every
    /// `TcpNet` handle and of `completed_at_us`).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A network handle stamped as the user site, for client-side sends.
    pub fn user_net(&self) -> TcpNet {
        TcpNet {
            map: Arc::clone(&self.map),
            pool: ConnPool::metered(Arc::clone(&self.wire)),
            epoch: self.epoch,
            from: self.user_site.host.to_string(),
            tracer: self.tracer.clone(),
            retry: RetryPolicy::default(),
            faults: self.faults.clone(),
            wire: Arc::clone(&self.wire),
            queue_wait_us: 0,
        }
    }

    /// The cluster-wide per-kind wire meter (messages/bytes sent and
    /// dropped, shared by every daemon and the user-site handle).
    pub fn wire_counters(&self) -> &Arc<WireCounters> {
        &self.wire
    }

    /// The `/metrics` listen address of `site`'s daemon, if that site
    /// exists.
    pub fn metrics_addr(&self, site: &SiteAddr) -> Option<SocketAddr> {
        self.exporters
            .iter()
            .find(|(s, _)| s == site)
            .map(|(_, e)| e.addr())
    }

    /// Every daemon's `/metrics` listen address, in site order.
    pub fn metrics_addrs(&self) -> Vec<(SiteAddr, SocketAddr)> {
        self.exporters
            .iter()
            .map(|(s, e)| (s.clone(), e.addr()))
            .collect()
    }

    /// Receives one message addressed to the user endpoint, or `None` on
    /// timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.user_endpoint.recv_timeout(timeout).ok()
    }

    /// The user-site driver on TCP: runs `clients` — client processes
    /// sharing this cluster's one result endpoint, told apart by the user
    /// name in every report's id — on the calling thread until every
    /// submission has gone out and completed, or `deadline` passes.
    /// `submissions` (client index, query and time in µs since the cluster
    /// came up — the mutation schedule's clock; any order) are replayed
    /// open-loop. Returns how many never went out.
    ///
    /// The loop sleeps until whichever is due first — a message, the next
    /// submission, the next Section-7.1 expiry sweep (armed while a query
    /// that can expire is in flight, as the simulated client arms its
    /// timer), the deadline — so an idle driver costs nothing. The
    /// cluster stays up afterwards: shut it down, or drive it again with
    /// the same `net` (a [`TcpCluster::user_net`]), whose connections to
    /// the daemons then stay open.
    pub fn drive(
        &self,
        net: &mut TcpNet,
        clients: &mut [ClientProcess],
        mut submissions: Vec<(usize, ScheduledSubmission)>,
        deadline: Duration,
    ) -> usize {
        let deadline_us = self.now_us() + deadline.as_micros() as u64;
        submissions.sort_by_key(|(client, s)| (s.at_us, *client));
        let mut pending = VecDeque::from(submissions);
        let mut next_sweep_us = None;
        loop {
            let now = self.now_us();
            while pending.front().is_some_and(|(_, s)| s.at_us <= now) {
                let (client, s) = pending.pop_front().expect("front checked");
                clients[client].submit(net, s.query);
            }
            if next_sweep_us.is_some_and(|at| at <= now) {
                for client in clients.iter_mut() {
                    client.expire_stale_all(now);
                }
                next_sweep_us = None;
            }
            let idle = pending.is_empty() && clients.iter().all(ClientProcess::all_complete);
            if idle || now >= deadline_us {
                return pending.len();
            }
            if next_sweep_us.is_none() {
                let policy = clients.iter().find_map(ClientProcess::expiry_policy);
                next_sweep_us = policy.map(|p| now + p.period_us);
            }
            let next_submission = pending.front().map(|(_, s)| s.at_us);
            let wake_us = [next_submission, next_sweep_us].into_iter().flatten();
            let wake_us = wake_us.fold(deadline_us, u64::min);
            if let Some(msg) = self.recv_timeout(Duration::from_micros(wake_us - now)) {
                if let Some(client) = clients.iter_mut().find(|c| c.owns(&msg)) {
                    client.on_message(net, msg);
                }
            }
        }
    }

    /// Stops every daemon (and its metrics exporter) and returns their
    /// engines (for final stats).
    pub fn shutdown(self) -> Vec<ServerEngine> {
        self.stop.store(true, Ordering::SeqCst);
        for (_, mut exporter) in self.exporters {
            exporter.stop();
        }
        if let Some(mutator) = self.mutator {
            let _ = mutator.join();
        }
        if let Some(sampler) = self.sampler {
            let _ = sampler.join();
        }
        self.daemons
            .into_iter()
            .filter_map(|d| d.join().ok())
            .collect()
    }
}

impl Deployment {
    /// Runs client processes and their planned submissions over a fresh
    /// loopback cluster ([`TcpCluster::drive`]), then shuts it down.
    /// Times in the outcome are µs since the cluster came up.
    pub fn workload_tcp(
        &self,
        faults: TcpFaultPlan,
        mut clients: Vec<ClientProcess>,
        submissions: Vec<(usize, ScheduledSubmission)>,
        deadline: Duration,
    ) -> WorkloadOutcome {
        let cluster = self.tcp_cluster(faults);
        let mut net = cluster.user_net();
        let unsubmitted = cluster.drive(&mut net, &mut clients, submissions, deadline);
        let duration_us = cluster.now_us();
        let engines = cluster.shutdown();
        let records = clients.iter().enumerate();
        let outcome = WorkloadOutcome {
            records: records.flat_map(|(user, c)| c.records(user)).collect(),
            unsubmitted,
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
        faults: TcpFaultPlan,
    ) -> Result<Vec<QueryRecord>, SimRunError> {
        // Parse everything up front so errors surface before daemons start.
        let mut submissions = Vec::with_capacity(disqls.len());
        for disql in disqls {
            let query = parse_disql(disql).map_err(SimRunError::Parse)?;
            submissions.push((0, ScheduledSubmission { at_us: 0, query }));
        }
        let mut client = [ClientProcess::new(
            "webdis",
            user_addr(),
            self.config.clone(),
        )];
        let cluster = self.tcp_cluster(faults);
        cluster.drive(&mut cluster.user_net(), &mut client, submissions, deadline);
        cluster.shutdown();
        Ok(client[0].records(0))
    }

    /// [`Deployment::queries_tcp`] for one query.
    pub fn query_tcp(
        &self,
        disql: &str,
        deadline: Duration,
        faults: TcpFaultPlan,
    ) -> Result<QueryRecord, SimRunError> {
        Ok(self.queries_tcp(&[disql], deadline, faults)?.remove(0))
    }
}

/// Runs a DISQL query against the frozen `web` with a real query-server
/// daemon per site, all on loopback and fault-free:
/// [`Deployment::query_tcp`] with nothing else said.
pub fn run_query_tcp(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<QueryRecord, SimRunError> {
    Deployment::new(web, engine_cfg).query_tcp(disql, deadline, TcpFaultPlan::default())
}

/// [`run_query_tcp`] for several concurrent queries:
/// [`Deployment::queries_tcp`] with nothing else said.
pub fn run_queries_tcp(
    web: Arc<webdis_web::HostedWeb>,
    disqls: &[&str],
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<Vec<QueryRecord>, SimRunError> {
    Deployment::new(web, engine_cfg).queries_tcp(disqls, deadline, TcpFaultPlan::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::Url;
    use webdis_web::figures;
    use webdis_web::{HostedWeb, LiveWeb, Mutation, MutationOp, MutationSchedule, PageBuilder};

    /// Drives one campus query to completion on an already-running
    /// cluster; returns its number.
    fn drive_campus_query(
        cluster: &TcpCluster,
        net: &mut TcpNet,
        client: &mut ClientProcess,
    ) -> u64 {
        let query = parse_disql(figures::CAMPUS_QUERY).expect("valid query");
        let at_once = ScheduledSubmission { at_us: 0, query };
        let clients = std::slice::from_mut(client);
        cluster.drive(net, clients, vec![(0, at_once)], Duration::from_secs(30));
        let num = *client.query_nums().last().expect("query submitted");
        assert!(client.all_complete(), "query must complete over TCP");
        num
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
        // Satellite-1 on the real transport: an edit applied by the
        // mutator thread is served by the daemon's next visit even when
        // an earlier query warmed the footnote-3 cache.
        let web = needle_live_web();
        let cfg = EngineConfig {
            doc_cache_size: 8,
            ..EngineConfig::default()
        };
        let before = Deployment::new(Arc::clone(&web), cfg.clone())
            .query_tcp(
                NEEDLE_QUERY,
                Duration::from_secs(30),
                TcpFaultPlan::default(),
            )
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
            .query_tcp(
                NEEDLE_QUERY,
                Duration::from_secs(30),
                TcpFaultPlan::default(),
            )
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
            .query_tcp(
                NEEDLE_QUERY,
                Duration::from_secs(30),
                TcpFaultPlan::default(),
            )
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
        // The mutator thread applies schedule events at their offsets
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
            TcpFaultPlan::default(),
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
            .query_tcp(figures::CAMPUS_QUERY, deadline, TcpFaultPlan::default())
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
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, TcpFaultPlan::default());
        let mut client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg);
        let mut net = cluster.user_net();
        let mut connects_after = Vec::new();
        for _ in 0..200 {
            let num = drive_campus_query(&cluster, &mut net, &mut client);
            let user = client.forget(num).expect("submitted query exists");
            assert_eq!(user.results.get(&1).map(Vec::len), Some(3));
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
        // batch's wall clock. The single-site link query finishes long
        // before the multi-hop campus query; its elapsed must be its own.
        let web = Arc::new(figures::campus());
        let outcomes = run_queries_tcp(
            Arc::clone(&web),
            &[figures::CAMPUS_QUERY, figures::EXAMPLE_QUERY_1],
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(outcomes[0].complete && outcomes[1].complete);
        assert!(
            outcomes[1].completed_us < outcomes[0].completed_us,
            "single-site query ({:?}) must complete before the campus query ({:?})",
            outcomes[1].completed_us,
            outcomes[0].completed_us,
        );
    }

    #[test]
    fn injected_query_drop_recovers_via_expiry() {
        // Drop the first query clone forwarded by a daemon (ordinal 1;
        // ordinal 0 is the user's initial dispatch). The lost subtree
        // never reports, so only the expiry sweep can conclude the query
        // — with the lost nodes in failed_entries and partial results.
        let web = Arc::new(figures::campus());
        let baseline = run_query_tcp(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(baseline.complete && baseline.failed_entries.is_empty());
        let baseline_rows: usize = baseline.results.values().map(Vec::len).sum();

        let cfg = EngineConfig {
            expiry: Some(crate::config::ExpiryPolicy::with_timeout(400_000)),
            ..EngineConfig::default()
        };
        let faults = TcpFaultPlan::drop_queries(1, 1);
        let outcome = Deployment::new(Arc::clone(&web), cfg)
            .query_tcp(
                figures::CAMPUS_QUERY,
                Duration::from_secs(30),
                faults.clone(),
            )
            .unwrap();
        assert_eq!(faults.dropped_so_far(), 1);
        assert!(outcome.complete, "expiry must conclude the query");
        assert!(
            !outcome.failed_entries.is_empty(),
            "the dropped clone's nodes must be written off"
        );
        let why = outcome.why_incomplete.expect("expired run is diagnosed");
        assert!(why.contains("expiry"), "{why}");
        let rows: usize = outcome.results.values().map(Vec::len).sum();
        assert!(
            rows < baseline_rows,
            "partial results expected ({rows} vs baseline {baseline_rows})"
        );
        assert!(rows > 0, "the report preceding the forwards still lands");
    }

    #[test]
    fn corrupted_query_frame_recovers_via_expiry() {
        // Corrupt the first daemon-forwarded clone (ordinal 1; ordinal 0
        // is the user's dispatch): the mangled frame goes over the real
        // socket and dies in the receiver's decoder, so the loss runs
        // the wire-error path end to end. Expiry concludes the query
        // with partial results, exactly like a silent drop.
        let web = Arc::new(figures::campus());
        let baseline = run_query_tcp(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        let baseline_rows: usize = baseline.results.values().map(Vec::len).sum();

        let cfg = EngineConfig {
            expiry: Some(crate::config::ExpiryPolicy::with_timeout(400_000)),
            ..EngineConfig::default()
        };
        let faults = TcpFaultPlan::default().with_query_corruption(1, 1);
        let outcome = Deployment::new(Arc::clone(&web), cfg)
            .query_tcp(
                figures::CAMPUS_QUERY,
                Duration::from_secs(30),
                faults.clone(),
            )
            .unwrap();
        assert_eq!(faults.corrupted_so_far(), 1);
        assert!(outcome.complete, "expiry must conclude the query");
        assert!(
            !outcome.failed_entries.is_empty(),
            "the corrupted clone's nodes must be written off"
        );
        let rows: usize = outcome.results.values().map(Vec::len).sum();
        assert!(rows < baseline_rows, "{rows} vs baseline {baseline_rows}");
    }

    #[test]
    fn duplicated_reports_do_not_double_rows() {
        // Deliver every result report twice: the user site's
        // (origin, seq) dedupe must keep the row set identical to the
        // fault-free run and completion exact.
        let web = Arc::new(figures::campus());
        let baseline = run_query_tcp(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            Duration::from_secs(30),
        )
        .unwrap();
        let faults = TcpFaultPlan::default().with_report_dups(0, usize::MAX / 2);
        let outcome = Deployment::new(Arc::clone(&web), EngineConfig::default())
            .query_tcp(
                figures::CAMPUS_QUERY,
                Duration::from_secs(30),
                faults.clone(),
            )
            .unwrap();
        assert!(faults.duplicated_so_far() > 0, "reports were duplicated");
        assert!(outcome.complete, "dedupe must not wedge completion");
        assert_eq!(outcome.result_set(), baseline.result_set());
        assert_eq!(
            outcome.results.values().map(Vec::len).sum::<usize>(),
            baseline.results.values().map(Vec::len).sum::<usize>(),
            "no row arrived twice"
        );
    }

    #[test]
    fn crashed_daemon_window_recovers_via_expiry() {
        // The DSL lab's daemon is dead for the run's first 300ms — every
        // clone addressed to it in that window is discarded, and the
        // respawned engine comes back empty. Expiry writes off the lost
        // subtree; the rest of the campus still answers.
        let web = Arc::new(figures::campus());
        let cfg = EngineConfig {
            expiry: Some(crate::config::ExpiryPolicy::with_timeout(500_000)),
            ..EngineConfig::default()
        };
        let faults = TcpFaultPlan::default().with_crash_window(
            "dsl.serc.iisc.ernet.in",
            Duration::from_millis(0),
            Duration::from_millis(300),
        );
        let outcome = Deployment::new(Arc::clone(&web), cfg)
            .query_tcp(figures::CAMPUS_QUERY, Duration::from_secs(30), faults)
            .unwrap();
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
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, TcpFaultPlan::default());

        let mut client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg);
        drive_campus_query(&cluster, &mut cluster.user_net(), &mut client);

        // Raw-socket fetch from a daemon that is still up and serving.
        let scrape = |path: &str| -> String {
            let (_, addr) = cluster.metrics_addrs()[0].clone();
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
        let cluster = TcpCluster::start(Arc::clone(&web), &cfg, TcpFaultPlan::default());

        let mut client = ClientProcess::new("webdis", cluster.user_site().clone(), cfg.clone());
        drive_campus_query(&cluster, &mut cluster.user_net(), &mut client);

        let scrape = |path: &str| -> String {
            let (_, addr) = cluster.metrics_addrs()[0].clone();
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

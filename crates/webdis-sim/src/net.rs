//! The event loop: actors, virtual clock, latency model, delivery.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_model::SiteAddr;
use webdis_net::{encode_message, Message, Wire};
use webdis_trace::{TraceEvent, TraceHandle, TraceRecord};

use crate::metrics::Metrics;

/// Latency of one message as a function of its encoded size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-message cost (connection setup, propagation) in µs.
    pub base_us: u64,
    /// Transfer cost per KiB of payload in µs (inverse bandwidth).
    pub per_kib_us: u64,
}

impl LatencyModel {
    /// A 1999-campus-LAN-ish default: 2 ms per message, ~10 Mbit/s.
    pub fn lan() -> LatencyModel {
        LatencyModel {
            base_us: 2_000,
            per_kib_us: 800,
        }
    }

    /// A wide-area default: 80 ms per message, ~1 Mbit/s.
    pub fn wan() -> LatencyModel {
        LatencyModel {
            base_us: 80_000,
            per_kib_us: 8_000,
        }
    }

    /// Zero latency (pure traffic counting).
    pub fn zero() -> LatencyModel {
        LatencyModel {
            base_us: 0,
            per_kib_us: 0,
        }
    }

    /// Latency of a message of `bytes` encoded bytes.
    pub fn latency_us(&self, bytes: usize) -> u64 {
        self.base_us + (bytes as u64 * self.per_kib_us) / 1024
    }
}

/// A per-link drop rate: messages from `from_host` to `to_host` are
/// dropped with probability `rate` (a flaky route between two specific
/// endpoints, on top of the uniform [`SimConfig::drop_rate`]).
#[derive(Debug, Clone)]
pub struct LinkDrop {
    /// Sender host (exact match).
    pub from_host: String,
    /// Receiver host (exact match).
    pub to_host: String,
    /// Drop probability on this link.
    pub rate: f64,
}

/// A network partition window: while `start_us <= now < end_us`, every
/// message crossing between a host in `side_a` and a host in `side_b`
/// (either direction) is dropped. Hosts listed nowhere are unaffected.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Partition onset, virtual µs.
    pub start_us: u64,
    /// Partition healing time, virtual µs (exclusive).
    pub end_us: u64,
    /// Hosts on one side of the cut.
    pub side_a: Vec<String>,
    /// Hosts on the other side.
    pub side_b: Vec<String>,
}

impl Partition {
    /// True when a message departing at `at_us` from `from` to `to`
    /// crosses the cut while it is open.
    fn severs(&self, at_us: u64, from: &str, to: &str) -> bool {
        if at_us < self.start_us || at_us >= self.end_us {
            return false;
        }
        let a = |h: &str| self.side_a.iter().any(|x| x == h);
        let b = |h: &str| self.side_b.iter().any(|x| x == h);
        (a(from) && b(to)) || (b(from) && a(to))
    }
}

/// A per-link fault rate shared by the duplication and corruption
/// injectors: messages from `from_host` to `to_host` are affected with
/// probability `rate` (exact host match, one direction — the same
/// shape as [`LinkDrop`], kept separate so a chaos plan can carry the
/// three fault kinds as distinct, individually removable entries).
#[derive(Debug, Clone)]
pub struct LinkFault {
    /// Sender host (exact match).
    pub from_host: String,
    /// Receiver host (exact match).
    pub to_host: String,
    /// Fault probability on this link.
    pub rate: f64,
}

/// A crash-restart window: the site's endpoint deregisters at `at_us`
/// (in-flight deliveries dead-letter, sends are refused — a process
/// death) and re-registers at `at_us + down_us` with
/// [`Actor::on_restart`] invoked first, so the actor comes back with
/// fresh volatile state (e.g. an empty log table). Deterministic.
#[derive(Debug, Clone)]
pub struct CrashRestart {
    /// The site that crashes.
    pub site: SiteAddr,
    /// Crash onset, virtual µs.
    pub at_us: u64,
    /// How long the site stays down before re-registering.
    pub down_us: u64,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network latency model.
    pub latency: LatencyModel,
    /// Random jitter added to each delivery, uniform in `0..=jitter_us`.
    /// Non-zero jitter lets messages overtake each other — the
    /// out-of-order corner the CHT tombstone logic exists for.
    pub jitter_us: u64,
    /// Probability of silently dropping a message (fault injection; the
    /// real transport is TCP, so the default is 0).
    pub drop_rate: f64,
    /// Per-link drop rates, checked before the uniform `drop_rate`.
    pub link_drops: Vec<LinkDrop>,
    /// Partition windows severing traffic between two host groups.
    pub partitions: Vec<Partition>,
    /// Site crashes: each endpoint is deregistered once the virtual
    /// clock reaches its time — in-flight deliveries to it become dead
    /// letters and later sends are refused, exactly as if the process
    /// died. Deterministic (no randomness involved).
    pub crashes: Vec<(SiteAddr, u64)>,
    /// Crash-restart windows: unlike `crashes`, the site comes back
    /// after its `down_us` with fresh volatile state (the
    /// [`Actor::on_restart`] hook runs at the re-registration edge).
    pub restarts: Vec<CrashRestart>,
    /// Probability of delivering a *second* copy of a message (the
    /// original is delivered normally; the extra copy draws its own
    /// latency jitter and is traced as `message_duplicated`).
    pub dup_rate: f64,
    /// Per-link duplication rates, checked before the uniform
    /// `dup_rate`.
    pub link_dups: Vec<LinkFault>,
    /// Probability of corrupting a message in flight: the receiver
    /// cannot decode it, so it is lost like a drop but traced as
    /// `message_corrupted` (the simulator's analogue of the TCP
    /// transport's byte-flip injection).
    pub corrupt_rate: f64,
    /// Per-link corruption rates, checked before the uniform
    /// `corrupt_rate`.
    pub link_corrupts: Vec<LinkFault>,
    /// Seed for jitter/drop decisions — same seed, same run.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            latency: LatencyModel::lan(),
            jitter_us: 0,
            drop_rate: 0.0,
            link_drops: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            dup_rate: 0.0,
            link_dups: Vec::new(),
            corrupt_rate: 0.0,
            link_corrupts: Vec::new(),
            seed: 42,
        }
    }
}

/// Why a send failed synchronously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// No endpoint is registered at the destination — the simulator's
    /// "connection refused". Query servers treat this on a result
    /// dispatch as the passive termination signal.
    Unreachable(SiteAddr),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Unreachable(s) => write!(f, "endpoint {s} unreachable"),
        }
    }
}

impl std::error::Error for SendError {}

/// What an actor receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// Kick-off event posted by [`SimNet::start`].
    Start,
    /// A delivered network message.
    Net(Message),
    /// A timer previously armed with [`Ctx::schedule_timer`] fired; the
    /// payload is the caller's token.
    Timer(u64),
}

/// A protocol participant bound to one site address.
pub trait Actor: Any {
    /// Handles one event. Outbound messages go through [`Ctx::send`].
    fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent);

    /// Downcasting support so harnesses can extract final actor state.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Invoked when a [`CrashRestart`] window ends and this actor's
    /// endpoint re-registers: the process came back up, so volatile
    /// state (log table, in-flight bookkeeping) must reset as if the
    /// daemon had just been spawned. The default keeps everything —
    /// correct for stateless actors like plain web servers.
    fn on_restart(&mut self, _now_us: u64) {}
}

/// The per-event context handed to an actor.
pub struct Ctx<'a> {
    now_us: u64,
    self_addr: SiteAddr,
    registry: &'a BTreeSet<SiteAddr>,
    outbox: Vec<(SiteAddr, Message)>,
    timers: Vec<(u64, u64)>,
    close_self: bool,
    work_us: u64,
    queued_us: u64,
}

impl Ctx<'_> {
    /// Virtual time, microseconds since simulation start.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// How long the event being handled sat in this endpoint's inbound
    /// queue before processing began — the modeled backpressure delay:
    /// zero when the endpoint was idle at arrival, the tail of the busy
    /// window otherwise. Only network deliveries queue; kick-offs and
    /// timers report zero. Purely a function of the deterministic
    /// schedule, so same seed ⇒ same waits.
    pub fn queued_us(&self) -> u64 {
        self.queued_us
    }

    /// This actor's own address.
    pub fn self_addr(&self) -> &SiteAddr {
        &self.self_addr
    }

    /// Sends a message. Fails synchronously when the destination endpoint
    /// is not registered (connection refused). A successful return means
    /// the message was accepted by the network, not that it was processed
    /// — exactly TCP's guarantee.
    pub fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), SendError> {
        if !self.registry.contains(to) {
            return Err(SendError::Unreachable(to.clone()));
        }
        self.outbox.push((to.clone(), msg));
        Ok(())
    }

    /// Arms a one-shot timer: this actor receives
    /// [`SimEvent::Timer`]`(token)` after `delay_us` of virtual time
    /// (measured from the end of the current event's work). Timers are
    /// local — no traffic is metered and no drop injection applies —
    /// and die silently if the endpoint closes before they fire.
    pub fn schedule_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.push((delay_us, token));
    }

    /// Closes this actor's endpoint after the current event: subsequent
    /// sends to it are refused and queued deliveries become dead letters.
    /// This is the user-site's passive query termination.
    pub fn close_endpoint(&mut self) {
        self.close_self = true;
    }

    /// Accounts `us` microseconds of local processing for this event.
    /// The endpoint is busy for that long: messages sent from this
    /// handler depart only after the work completes, and later deliveries
    /// to this endpoint queue behind it (each endpoint is one sequential
    /// processor, like the paper's single Query Processor thread).
    pub fn work(&mut self, us: u64) {
        self.work_us += us;
    }
}

/// What a queue entry carries to its destination.
enum Payload {
    /// The [`SimEvent::Start`] kick-off.
    Start,
    /// A network message (metered, droppable).
    Net(Message),
    /// A local timer (free, undroppable, dies with the endpoint).
    Timer(u64),
}

/// The trace identity a message carries: the query it belongs to (if
/// any) and the clone's hop count — stamped on loss records so triage
/// can match them back to in-flight visits.
fn message_meta(msg: &Message) -> (Option<webdis_trace::QueryId>, Option<u32>) {
    match msg {
        Message::Query(c) => (Some(c.id.clone()), Some(c.hops)),
        Message::Report(r) => (Some(r.id.clone()), None),
        Message::Ack(a) => (Some(a.id.clone()), None),
        Message::Fetch(_) | Message::FetchReply(_) => (None, None),
    }
}

/// One transition of a [`CrashRestart`] window.
enum RestartEdge {
    /// The site's endpoint deregisters (process death).
    Down(SiteAddr),
    /// The site re-registers with fresh volatile state.
    Up(SiteAddr),
}

/// One scheduled delivery.
struct Event {
    at_us: u64,
    seq: u64,
    to: SiteAddr,
    payload: Payload,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// The simulated network: a registry of actors and a time-ordered event
/// queue.
pub struct SimNet {
    config: SimConfig,
    actors: BTreeMap<SiteAddr, Box<dyn Actor>>,
    registry: BTreeSet<SiteAddr>,
    queue: BinaryHeap<Reverse<Event>>,
    clock_us: u64,
    seq: u64,
    rng: StdRng,
    /// Crash schedule from the config, sorted by time; `next_crash`
    /// indexes the first crash not yet applied.
    crash_schedule: Vec<(SiteAddr, u64)>,
    next_crash: usize,
    /// Crash-restart edges (down/up transitions) from the config,
    /// sorted by time; `next_restart` indexes the first not yet applied.
    restart_schedule: Vec<(u64, RestartEdge)>,
    next_restart: usize,
    /// Per-endpoint processor availability: an event delivered before
    /// this time waits for the endpoint's previous work to finish.
    busy_until: BTreeMap<SiteAddr, u64>,
    /// Traffic metrics, readable during and after the run.
    pub metrics: Metrics,
    /// Trace sink for transport-level `message_sent` events (no-op by
    /// default; harnesses install the engine's tracer so transport and
    /// engine events share one stream and one virtual clock).
    tracer: TraceHandle,
    /// Where every outgoing message is encoded to be measured.
    scratch: Vec<u8>,
}

impl SimNet {
    /// Creates an empty network.
    pub fn new(config: SimConfig) -> SimNet {
        let rng = StdRng::seed_from_u64(config.seed);
        let mut crash_schedule = config.crashes.clone();
        crash_schedule.sort_by_key(|(_, t)| *t);
        // Each restart window contributes a down edge and an up edge;
        // the stable sort keeps down-before-up for zero-length windows.
        let mut restart_schedule: Vec<(u64, RestartEdge)> = Vec::new();
        for r in &config.restarts {
            restart_schedule.push((r.at_us, RestartEdge::Down(r.site.clone())));
            restart_schedule.push((r.at_us + r.down_us, RestartEdge::Up(r.site.clone())));
        }
        restart_schedule.sort_by_key(|(t, _)| *t);
        SimNet {
            config,
            actors: BTreeMap::new(),
            registry: BTreeSet::new(),
            queue: BinaryHeap::new(),
            clock_us: 0,
            seq: 0,
            rng,
            crash_schedule,
            next_crash: 0,
            restart_schedule,
            next_restart: 0,
            busy_until: BTreeMap::new(),
            metrics: Metrics::default(),
            tracer: TraceHandle::noop(),
            scratch: Vec::new(),
        }
    }

    /// Installs the trace sink used for transport-level events.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    /// Registers an actor at an address (replacing any previous one).
    pub fn register(&mut self, addr: SiteAddr, actor: Box<dyn Actor>) {
        self.registry.insert(addr.clone());
        self.actors.insert(addr, actor);
    }

    /// Removes an actor, returning it for state inspection. Pending
    /// deliveries to the address become dead letters.
    pub fn deregister(&mut self, addr: &SiteAddr) -> Option<Box<dyn Actor>> {
        self.registry.remove(addr);
        self.actors.remove(addr)
    }

    /// Mutable access to a registered actor, downcast to its concrete
    /// type. Panics if the type does not match (a harness bug).
    pub fn actor_mut<T: Actor>(&mut self, addr: &SiteAddr) -> Option<&mut T> {
        self.actors.get_mut(addr).map(|a| {
            a.as_any_mut()
                .downcast_mut::<T>()
                .expect("actor registered under this address has a different type")
        })
    }

    /// Posts the [`SimEvent::Start`] kick-off to an actor at the current
    /// virtual time.
    pub fn start(&mut self, addr: &SiteAddr) {
        // Model the kick-off as a zero-size local event: deliver through
        // the queue for deterministic ordering, but without traffic.
        let ev = Event {
            at_us: self.clock_us,
            seq: self.next_seq(),
            to: addr.clone(),
            payload: Payload::Start,
        };
        self.queue.push(Reverse(ev));
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Runs until the event queue is empty. Returns the final virtual
    /// time in microseconds.
    pub fn run(&mut self) -> u64 {
        self.run_until(u64::MAX);
        self.clock_us
    }

    /// Processes events with timestamps `<= limit_us`; returns true when
    /// events remain queued beyond the limit. Lets harnesses intervene
    /// mid-run (e.g. cancel a query by closing the user endpoint).
    pub fn run_until(&mut self, limit_us: u64) -> bool {
        while let Some(Reverse(peek)) = self.queue.peek() {
            if peek.at_us > limit_us {
                return true;
            }
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.clock_us = self.clock_us.max(ev.at_us);
            self.apply_crashes(ev.at_us);
            self.apply_restarts(ev.at_us);
            let is_net = matches!(ev.payload, Payload::Net(_));
            if !self.registry.contains(&ev.to) || !self.actors.contains_key(&ev.to) {
                // Lost traffic is a dead letter; a timer or kick-off to a
                // closed endpoint just evaporates. The loss is traced as
                // a drop so trajectory triage can explain the in-flight
                // clone instead of reporting a false hang.
                if let Payload::Net(msg) = &ev.payload {
                    self.metrics.dead_letters += 1;
                    self.trace_msg(ev.at_us, &ev.to, msg, |kind| TraceEvent::MessageDropped {
                        kind,
                        to: ev.to.host.to_string(),
                        bytes: encode_message(msg).len() as u32,
                        reason: "dead-letter".to_string(),
                    });
                }
                continue;
            }
            let Some(mut actor) = self.actors.remove(&ev.to) else {
                continue;
            };
            if is_net {
                self.metrics.record_delivery(&ev.to, ev.at_us);
            }
            // A sequential processor per endpoint: if earlier work is
            // still running, this event waits for it.
            let start_us = self
                .busy_until
                .get(&ev.to)
                .copied()
                .unwrap_or(0)
                .max(ev.at_us);
            self.clock_us = self.clock_us.max(start_us);
            if is_net && self.tracer.enabled() {
                // Inbound queue depth at processing start: this message
                // plus every other network delivery to the same endpoint
                // that has already arrived but not yet been processed.
                // The heap is small (one entry per in-flight event), so
                // the scan costs less than maintaining a second index.
                let depth = 1 + self
                    .queue
                    .iter()
                    .filter(|Reverse(e)| {
                        e.to == ev.to && e.at_us <= start_us && matches!(e.payload, Payload::Net(_))
                    })
                    .count() as u64;
                self.tracer
                    .gauge_max(&format!("queue_depth.{}", ev.to.host), depth);
                self.tracer.gauge_max("queue_depth_high_water", depth);
            }
            let mut ctx = Ctx {
                now_us: start_us,
                self_addr: ev.to.clone(),
                registry: &self.registry,
                outbox: Vec::new(),
                timers: Vec::new(),
                close_self: false,
                work_us: 0,
                queued_us: if is_net {
                    start_us.saturating_sub(ev.at_us)
                } else {
                    0
                },
            };
            let event = match ev.payload {
                Payload::Start => SimEvent::Start,
                Payload::Net(msg) => SimEvent::Net(msg),
                Payload::Timer(token) => SimEvent::Timer(token),
            };
            actor.handle(&mut ctx, event);
            let Ctx {
                outbox,
                timers,
                close_self,
                work_us,
                ..
            } = ctx;
            let done_us = start_us + work_us;
            if work_us > 0 {
                self.busy_until.insert(ev.to.clone(), done_us);
                self.clock_us = self.clock_us.max(done_us);
                self.metrics.last_delivery_us = self.metrics.last_delivery_us.max(done_us);
                self.metrics.record_work(&ev.to, work_us);
            }
            if close_self {
                self.registry.remove(&ev.to);
            }
            let from = ev.to;
            self.actors.insert(from.clone(), actor);
            for (to, msg) in outbox {
                self.dispatch_at(done_us, &from, to, msg);
            }
            for (delay_us, token) in timers {
                let ev = Event {
                    at_us: done_us + delay_us,
                    seq: self.next_seq(),
                    to: from.clone(),
                    payload: Payload::Timer(token),
                };
                self.queue.push(Reverse(ev));
            }
        }
        // The queue drained before every restart edge fired: apply the
        // remainder up to the limit so a site whose window ends in a
        // quiet stretch is back up when the harness resumes the run.
        self.apply_restarts(limit_us);
        false
    }

    /// Deregisters every endpoint whose scheduled crash time has been
    /// reached. The actor stays inspectable via [`SimNet::actor_mut`];
    /// its pending deliveries dead-letter and later sends are refused.
    fn apply_crashes(&mut self, now_us: u64) {
        while let Some((site, t)) = self.crash_schedule.get(self.next_crash) {
            if *t > now_us {
                break;
            }
            self.registry.remove(site);
            self.next_crash += 1;
        }
    }

    /// Applies every crash-restart edge whose time has been reached:
    /// down edges deregister the endpoint (like [`Self::apply_crashes`]),
    /// up edges run the actor's [`Actor::on_restart`] hook and
    /// re-register it — the site is back, with fresh volatile state.
    fn apply_restarts(&mut self, now_us: u64) {
        loop {
            let (t, site, up) = match self.restart_schedule.get(self.next_restart) {
                Some((t, RestartEdge::Down(s))) if *t <= now_us => (*t, s.clone(), false),
                Some((t, RestartEdge::Up(s))) if *t <= now_us => (*t, s.clone(), true),
                _ => break,
            };
            if up {
                if let Some(actor) = self.actors.get_mut(&site) {
                    actor.on_restart(t);
                    self.registry.insert(site);
                }
            } else {
                self.registry.remove(&site);
            }
            self.next_restart += 1;
        }
    }

    /// Decides whether the configured faults claim a message departing at
    /// `at_us` from `from` to `to`. Partition windows are checked first
    /// (deterministic), then the per-link rate, then the uniform rate;
    /// the RNG is only consulted for rates actually configured, so adding
    /// an inert knob does not perturb an existing seed's run.
    fn drop_reason(&mut self, at_us: u64, from: &SiteAddr, to: &SiteAddr) -> Option<&'static str> {
        if self
            .config
            .partitions
            .iter()
            .any(|p| p.severs(at_us, &from.host, &to.host))
        {
            return Some("partition");
        }
        let link_rate = self
            .config
            .link_drops
            .iter()
            .find(|l| *l.from_host == *from.host && *l.to_host == *to.host)
            .map(|l| l.rate);
        if let Some(rate) = link_rate {
            if rate > 0.0 && self.rng.gen_bool(rate) {
                return Some("link");
            }
        }
        if self.config.drop_rate > 0.0 && self.rng.gen_bool(self.config.drop_rate) {
            return Some("random");
        }
        None
    }

    /// One per-link-then-uniform fault decision, shared by the
    /// duplication (`dup == true`) and corruption injectors. Same RNG
    /// discipline as [`Self::drop_reason`]: rates of 0 (and absent link
    /// entries) draw nothing, so inert knobs never perturb an existing
    /// seed's run.
    fn fault_claims(&mut self, dup: bool, from: &str, to: &str) -> bool {
        let (links, uniform) = if dup {
            (&self.config.link_dups, self.config.dup_rate)
        } else {
            (&self.config.link_corrupts, self.config.corrupt_rate)
        };
        let link_rate = links
            .iter()
            .find(|l| l.from_host == from && l.to_host == to)
            .map(|l| l.rate);
        if let Some(rate) = link_rate {
            if rate > 0.0 && self.rng.gen_bool(rate) {
                return true;
            }
        }
        uniform > 0.0 && self.rng.gen_bool(uniform)
    }

    /// Schedules a message departing at `base_us`: applies fault
    /// injection, meters it, and picks the delivery time from the latency
    /// model plus jitter. A dropped message is metered separately and
    /// traced as `message_dropped` — it never becomes a `message_sent`
    /// record, so trajectory reconstruction does not see phantom sends.
    fn dispatch_at(&mut self, base_us: u64, from: &SiteAddr, to: SiteAddr, msg: Message) {
        // Metered as what the wire would carry: the message's encoding,
        // written into one buffer the whole run reuses.
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        let bytes = self.scratch.len();
        let wire = bytes as u32;
        let dest = || to.host.to_string();
        if let Some(reason) = self.drop_reason(base_us, from, &to) {
            self.metrics.record_drop(bytes as u64);
            self.trace_msg(base_us, from, &msg, |kind| TraceEvent::MessageDropped {
                kind,
                to: dest(),
                bytes: wire,
                reason: reason.to_string(),
            });
            return;
        }
        // Corruption is a loss through the decode path: the frame
        // crosses the wire but the receiver cannot read it, so no
        // `message_sent` is recorded (trajectory reconstruction must
        // not see a send that can never be received).
        if self.fault_claims(false, &from.host, &to.host) {
            self.metrics.record_corrupt(bytes as u64);
            self.trace_msg(base_us, from, &msg, |kind| TraceEvent::MessageCorrupted {
                kind,
                to: dest(),
                bytes: wire,
            });
            return;
        }
        self.metrics.record_send(msg.kind(), bytes as u64);
        self.trace_msg(base_us, from, &msg, |kind| TraceEvent::MessageSent {
            kind,
            to: dest(),
            bytes: wire,
        });
        let at_us = base_us + self.config.latency.latency_us(bytes) + self.jitter();
        // Duplication delivers a *second* copy with its own jitter draw
        // (the copies may overtake each other), traced as
        // `message_duplicated` — never a second `message_sent`.
        let duplicate = if self.fault_claims(true, &from.host, &to.host) {
            self.metrics.record_dup(bytes as u64);
            self.trace_msg(base_us, from, &msg, |kind| TraceEvent::MessageDuplicated {
                kind,
                to: dest(),
                bytes: wire,
            });
            let dup_at_us = base_us + self.config.latency.latency_us(bytes) + self.jitter();
            Some((dup_at_us, msg.clone()))
        } else {
            None
        };
        let ev = Event {
            at_us,
            seq: self.next_seq(),
            to: to.clone(),
            payload: Payload::Net(msg),
        };
        self.queue.push(Reverse(ev));
        if let Some((dup_at_us, copy)) = duplicate {
            let ev = Event {
                at_us: dup_at_us,
                seq: self.next_seq(),
                to,
                payload: Payload::Net(copy),
            };
            self.queue.push(Reverse(ev));
        }
    }

    /// One delivery's jitter draw (none drawn when jitter is off, so the
    /// knob at zero does not perturb a seeded run).
    fn jitter(&mut self) -> u64 {
        if self.config.jitter_us > 0 {
            self.rng.gen_range(0..=self.config.jitter_us)
        } else {
            0
        }
    }

    /// Stamps one transport event about `msg` at `site`; `event` gets the
    /// message's kind label. Nothing is built unless the tracer is on.
    fn trace_msg(
        &self,
        time_us: u64,
        site: &SiteAddr,
        msg: &Message,
        event: impl FnOnce(String) -> TraceEvent,
    ) {
        self.tracer.emit_with(|| {
            let (query, hop) = message_meta(msg);
            TraceRecord {
                time_us,
                site: site.host.to_string(),
                query,
                hop,
                event: event(msg.kind().to_string()),
            }
        });
    }

    /// Current virtual time.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// Closes an endpoint from outside the event loop (the user pressing
    /// "cancel"): the actor stays inspectable via [`SimNet::actor_mut`],
    /// but subsequent sends to the address are refused and queued
    /// deliveries become dead letters.
    pub fn close_endpoint(&mut self, addr: &SiteAddr) {
        self.registry.remove(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::Url;
    use webdis_net::{FetchRequest, FetchResponse};

    fn addr(h: &str) -> SiteAddr {
        SiteAddr {
            host: h.into(),
            port: 80,
        }
    }

    /// Echoes every fetch back as a fetch-reply to a fixed peer.
    struct Echo {
        peer: SiteAddr,
        seen: usize,
    }

    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            if let SimEvent::Net(Message::Fetch(req)) = event {
                self.seen += 1;
                let _ = ctx.send(
                    &self.peer,
                    Message::FetchReply(FetchResponse {
                        url: req.url,
                        html: None,
                    }),
                );
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `n` fetches on Start; counts replies; closes its endpoint
    /// after `close_after` replies if set.
    struct Client {
        server: SiteAddr,
        n: usize,
        replies: usize,
        close_after: Option<usize>,
    }

    impl Actor for Client {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            match event {
                SimEvent::Start => {
                    for i in 0..self.n {
                        ctx.send(
                            &self.server,
                            Message::Fetch(FetchRequest {
                                url: Url::from_parts("s", 80, &format!("/{i}")),
                                reply_host: "client".into(),
                                reply_port: 80,
                            }),
                        )
                        .unwrap();
                    }
                }
                SimEvent::Net(Message::FetchReply(_)) => {
                    self.replies += 1;
                    if Some(self.replies) == self.close_after {
                        ctx.close_endpoint();
                    }
                }
                SimEvent::Net(_) | SimEvent::Timer(_) => {}
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn request_reply_round_trip() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        let end = net.run();
        assert!(end > 0);
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 3);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 3);
        assert_eq!(net.metrics.messages_of("fetch"), 3);
        assert_eq!(net.metrics.messages_of("fetch-reply"), 3);
        assert!(net.metrics.total.bytes > 0);
    }

    /// A client and its echo server, `n` requests, under `tracer`.
    fn round_trip_under(tracer: TraceHandle, n: usize) -> SimNet {
        let mut net = SimNet::new(SimConfig::default());
        net.set_tracer(tracer);
        let (c, s) = (addr("client"), addr("server"));
        let client = Client {
            server: s.clone(),
            n,
            replies: 0,
            close_after: None,
        };
        net.register(c.clone(), Box::new(client));
        let echo = Echo {
            peer: c.clone(),
            seen: 0,
        };
        net.register(s, Box::new(echo));
        net.start(&c);
        net.run();
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, n);
        net
    }

    #[test]
    fn a_disabled_tracer_is_never_handed_anything() {
        struct Off;
        impl webdis_trace::Tracer for Off {
            fn enabled(&self) -> bool {
                false
            }
            fn record(&self, record: TraceRecord) {
                panic!("recorded {record:?} with tracing off");
            }
            fn observe(&self, name: &str, _value: u64) {
                panic!("observed {name} with tracing off");
            }
            fn gauge_max(&self, name: &str, _value: u64) {
                panic!("raised gauge {name} with tracing off");
            }
        }
        let net = round_trip_under(TraceHandle::new(std::sync::Arc::new(Off)), 3);
        assert_eq!(net.metrics.total.messages, 6);
    }

    #[test]
    fn metered_bytes_are_the_encoded_length_of_each_message() {
        // Requests /0 … /11: two lengths of request and of reply.
        let (collector, tracer) = TraceHandle::collecting(64);
        let net = round_trip_under(tracer, 12);
        let mut metered: Vec<u32> = Vec::new();
        for r in collector.snapshot() {
            if let TraceEvent::MessageSent { bytes, .. } = r.event {
                metered.push(bytes);
            }
        }
        let mut encoded: Vec<u32> = Vec::new();
        for i in 0..12 {
            let url = Url::from_parts("s", 80, &format!("/{i}"));
            let request = Message::Fetch(FetchRequest {
                url: url.clone(),
                reply_host: "client".into(),
                reply_port: 80,
            });
            let reply = Message::FetchReply(FetchResponse { url, html: None });
            encoded.extend([&request, &reply].map(|m| encode_message(m).len() as u32));
        }
        metered.sort_unstable();
        encoded.sort_unstable();
        assert_eq!(metered, encoded);
        assert_eq!(
            net.metrics.total.bytes,
            encoded.iter().map(|&b| u64::from(b)).sum::<u64>()
        );
    }

    #[test]
    fn send_to_unregistered_is_refused() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        struct TryUnreachable;
        impl Actor for TryUnreachable {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
                if matches!(event, SimEvent::Start) {
                    let err = ctx
                        .send(
                            &SiteAddr {
                                host: "ghost".into(),
                                port: 80,
                            },
                            Message::Fetch(FetchRequest {
                                url: Url::from_parts("g", 80, "/"),
                                reply_host: "c".into(),
                                reply_port: 80,
                            }),
                        )
                        .unwrap_err();
                    assert!(matches!(err, SendError::Unreachable(_)));
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        net.register(c.clone(), Box::new(TryUnreachable));
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.total.messages, 0);
    }

    #[test]
    fn close_endpoint_makes_pending_deliveries_dead_letters() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        // Client closes after the first reply; the remaining replies are
        // already in flight and become dead letters.
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 5,
                replies: 0,
                close_after: Some(1),
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.dead_letters, 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = SimNet::new(SimConfig {
                jitter_us: 500,
                seed,
                ..SimConfig::default()
            });
            let c = addr("client");
            let s = addr("server");
            net.register(
                c.clone(),
                Box::new(Client {
                    server: s.clone(),
                    n: 8,
                    replies: 0,
                    close_after: None,
                }),
            );
            net.register(
                s.clone(),
                Box::new(Echo {
                    peer: c.clone(),
                    seen: 0,
                }),
            );
            net.start(&c);
            let end = net.run();
            (end, net.metrics.total.bytes)
        };
        assert_eq!(run(7), run(7));
        // Different seed shifts jitter, hence (almost surely) the makespan.
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn drop_injection_loses_messages() {
        let mut net = SimNet::new(SimConfig {
            drop_rate: 1.0,
            ..SimConfig::default()
        });
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 4,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.dropped, 4);
        assert!(net.metrics.dropped_bytes > 0);
        // Dropped traffic is metered separately, not as sent messages.
        assert_eq!(net.metrics.total.messages, 0);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 0);
    }

    /// Schedules a timer on Start and records when it fires.
    struct TimerProbe {
        delay_us: u64,
        token: u64,
        fired: Vec<(u64, u64)>,
        close_before_fire: bool,
    }

    impl Actor for TimerProbe {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            match event {
                SimEvent::Start => {
                    ctx.schedule_timer(self.delay_us, self.token);
                    if self.close_before_fire {
                        ctx.close_endpoint();
                    }
                }
                SimEvent::Timer(token) => self.fired.push((ctx.now_us(), token)),
                SimEvent::Net(_) => {}
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timer_fires_at_scheduled_time_with_token() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        net.register(
            c.clone(),
            Box::new(TimerProbe {
                delay_us: 7_500,
                token: 42,
                fired: vec![],
                close_before_fire: false,
            }),
        );
        net.start(&c);
        let end = net.run();
        assert_eq!(end, 7_500);
        assert_eq!(
            net.actor_mut::<TimerProbe>(&c).unwrap().fired,
            vec![(7_500, 42)]
        );
        // Timers are local: no traffic, no drops, no dead letters.
        assert_eq!(net.metrics.total.messages, 0);
        assert_eq!(net.metrics.dead_letters, 0);
    }

    #[test]
    fn timer_to_closed_endpoint_evaporates() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        net.register(
            c.clone(),
            Box::new(TimerProbe {
                delay_us: 5_000,
                token: 1,
                fired: vec![],
                close_before_fire: true,
            }),
        );
        net.start(&c);
        net.run();
        assert!(net.actor_mut::<TimerProbe>(&c).unwrap().fired.is_empty());
        assert_eq!(net.metrics.dead_letters, 0, "timers are not dead letters");
    }

    #[test]
    fn link_drop_severs_one_direction_only() {
        // Client→server is perfectly lossy; server→client (unused here
        // beyond replies that never happen) is clean.
        let mut net = SimNet::new(SimConfig {
            link_drops: vec![LinkDrop {
                from_host: "client".into(),
                to_host: "server".into(),
                rate: 1.0,
            }],
            ..SimConfig::default()
        });
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.dropped, 3);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 0);

        // The reverse link is unaffected: flip the drop direction and
        // requests get through while replies are lost.
        let mut net = SimNet::new(SimConfig {
            link_drops: vec![LinkDrop {
                from_host: "server".into(),
                to_host: "client".into(),
                rate: 1.0,
            }],
            ..SimConfig::default()
        });
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 3);
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 0);
        assert_eq!(net.metrics.dropped, 3);
    }

    /// Sends one fetch on Start and one more per timer fire.
    struct RetrySender {
        server: SiteAddr,
        retry_at_us: u64,
    }

    impl Actor for RetrySender {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            let send = |ctx: &mut Ctx<'_>| {
                let _ = ctx.send(
                    &self.server,
                    Message::Fetch(FetchRequest {
                        url: Url::from_parts("s", 80, "/"),
                        reply_host: "client".into(),
                        reply_port: 80,
                    }),
                );
            };
            match event {
                SimEvent::Start => {
                    send(ctx);
                    ctx.schedule_timer(self.retry_at_us, 0);
                }
                SimEvent::Timer(_) => send(ctx),
                SimEvent::Net(_) => {}
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn partition_window_severs_then_heals() {
        // Partition covers t in [0, 5ms): the Start-time send is cut,
        // the timer-driven resend at 10ms goes through.
        let mut net = SimNet::new(SimConfig {
            partitions: vec![Partition {
                start_us: 0,
                end_us: 5_000,
                side_a: vec!["client".into()],
                side_b: vec!["server".into()],
            }],
            ..SimConfig::default()
        });
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(RetrySender {
                server: s.clone(),
                retry_at_us: 10_000,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.dropped, 1);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 1);
    }

    #[test]
    fn crash_at_time_dead_letters_in_flight_and_refuses_later_sends() {
        let run = || {
            // Requests depart at t=0 and arrive at ~2ms (LAN base); a
            // crash at 1ms kills the server while they are in flight.
            let mut net = SimNet::new(SimConfig {
                crashes: vec![(addr("server"), 1_000)],
                ..SimConfig::default()
            });
            let c = addr("client");
            let s = addr("server");
            net.register(
                c.clone(),
                Box::new(Client {
                    server: s.clone(),
                    n: 3,
                    replies: 0,
                    close_after: None,
                }),
            );
            net.register(
                s.clone(),
                Box::new(Echo {
                    peer: c.clone(),
                    seen: 0,
                }),
            );
            net.start(&c);
            net.run();
            let seen = net.actor_mut::<Echo>(&s).unwrap().seen;
            (net.metrics.dead_letters, seen, net.metrics.total.messages)
        };
        assert_eq!(run(), (3, 0, 3));
        // No randomness involved: the crash is deterministic.
        assert_eq!(run(), run());
    }

    #[test]
    fn dead_letters_are_traced_as_drops() {
        let (collector, tracer) = TraceHandle::collecting(1_024);
        let mut net = SimNet::new(SimConfig {
            crashes: vec![(addr("server"), 1_000)],
            ..SimConfig::default()
        });
        net.set_tracer(tracer);
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 2,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.metrics.dead_letters, 2);
        let dead: Vec<_> = collector
            .snapshot()
            .into_iter()
            .filter(|r| {
                matches!(
                    &r.event,
                    TraceEvent::MessageDropped { reason, to, .. }
                        if reason == "dead-letter" && to == "server"
                )
            })
            .collect();
        assert_eq!(dead.len(), 2, "every dead letter leaves a drop record");
    }

    #[test]
    fn duplication_delivers_a_second_copy() {
        let mut net = SimNet::new(SimConfig {
            dup_rate: 1.0,
            ..SimConfig::default()
        });
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 2,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        // 2 requests → 4 arrivals; each arrival echoes a reply, and
        // every reply is itself duplicated → 8 replies at the client.
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 4);
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 8);
        // The originals alone count as sent traffic.
        assert_eq!(net.metrics.messages_of("fetch"), 2);
        assert_eq!(net.metrics.duplicated, 6);
        assert!(net.metrics.duplicated_bytes > 0);
    }

    #[test]
    fn corruption_loses_messages_like_a_drop() {
        let mut net = SimNet::new(SimConfig {
            link_corrupts: vec![LinkFault {
                from_host: "client".into(),
                to_host: "server".into(),
                rate: 1.0,
            }],
            ..SimConfig::default()
        });
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run();
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 0);
        assert_eq!(net.metrics.corrupted, 3);
        assert!(net.metrics.corrupted_bytes > 0);
        // Corrupted frames are neither sent traffic nor clean drops.
        assert_eq!(net.metrics.total.messages, 0);
        assert_eq!(net.metrics.dropped, 0);
    }

    #[test]
    fn inert_fault_knobs_do_not_perturb_a_seeded_run() {
        let run = |cfg: SimConfig| {
            let mut net = SimNet::new(cfg);
            let c = addr("client");
            let s = addr("server");
            net.register(
                c.clone(),
                Box::new(Client {
                    server: s.clone(),
                    n: 6,
                    replies: 0,
                    close_after: None,
                }),
            );
            net.register(
                s.clone(),
                Box::new(Echo {
                    peer: c.clone(),
                    seen: 0,
                }),
            );
            net.start(&c);
            let end = net.run();
            (end, net.metrics.total.bytes)
        };
        let base = SimConfig {
            jitter_us: 700,
            seed: 11,
            ..SimConfig::default()
        };
        let with_inert_knobs = SimConfig {
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            link_dups: vec![LinkFault {
                from_host: "client".into(),
                to_host: "server".into(),
                rate: 0.0,
            }],
            link_corrupts: vec![LinkFault {
                from_host: "nobody".into(),
                to_host: "server".into(),
                rate: 1.0,
            }],
            restarts: vec![CrashRestart {
                site: addr("ghost"),
                at_us: 1,
                down_us: 1,
            }],
            ..base.clone()
        };
        assert_eq!(run(base), run(with_inert_knobs));
    }

    #[test]
    fn crash_restart_window_loses_then_recovers() {
        // Requests at t=0 arrive ~2ms into the [1ms, 6ms) down window
        // and dead-letter; the timer-driven resend at 10ms finds the
        // server back up.
        let run = || {
            let mut net = SimNet::new(SimConfig {
                restarts: vec![CrashRestart {
                    site: addr("server"),
                    at_us: 1_000,
                    down_us: 5_000,
                }],
                ..SimConfig::default()
            });
            let c = addr("client");
            let s = addr("server");
            net.register(
                c.clone(),
                Box::new(RetrySender {
                    server: s.clone(),
                    retry_at_us: 10_000,
                }),
            );
            net.register(
                s.clone(),
                Box::new(Echo {
                    peer: c.clone(),
                    seen: 0,
                }),
            );
            net.start(&c);
            net.run();
            let seen = net.actor_mut::<Echo>(&s).unwrap().seen;
            (net.metrics.dead_letters, seen)
        };
        assert_eq!(run(), (1, 1));
        assert_eq!(run(), run(), "restart windows are deterministic");
    }

    #[test]
    fn restart_invokes_the_actor_hook() {
        struct Resettable {
            restarts: Vec<u64>,
        }
        impl Actor for Resettable {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _event: SimEvent) {}
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn on_restart(&mut self, now_us: u64) {
                self.restarts.push(now_us);
            }
        }
        let mut net = SimNet::new(SimConfig {
            restarts: vec![CrashRestart {
                site: addr("srv"),
                at_us: 2_000,
                down_us: 3_000,
            }],
            ..SimConfig::default()
        });
        let s = addr("srv");
        net.register(s.clone(), Box::new(Resettable { restarts: vec![] }));
        // No traffic at all: the trailing apply in run_until still
        // brings the site back up by the horizon.
        net.run_until(20_000);
        assert_eq!(
            net.actor_mut::<Resettable>(&s).unwrap().restarts,
            vec![5_000]
        );
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 4,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        // Requests take >= 2ms (LAN base latency); pausing at 1ms leaves
        // everything queued.
        let more = net.run_until(1_000);
        assert!(more, "events must remain past the limit");
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 0);
        // Resuming to the end delivers everything exactly once.
        let end = net.run();
        assert!(end >= 2_000);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 4);
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 4);
        assert!(!net.run_until(u64::MAX), "queue is drained");
    }

    #[test]
    fn run_until_matches_uninterrupted_run() {
        let outcome = |pauses: &[u64]| {
            let mut net = SimNet::new(SimConfig {
                jitter_us: 300,
                ..SimConfig::default()
            });
            let c = addr("client");
            let s = addr("server");
            net.register(
                c.clone(),
                Box::new(Client {
                    server: s.clone(),
                    n: 6,
                    replies: 0,
                    close_after: None,
                }),
            );
            net.register(
                s.clone(),
                Box::new(Echo {
                    peer: c.clone(),
                    seen: 0,
                }),
            );
            net.start(&c);
            for p in pauses {
                net.run_until(*p);
            }
            let end = net.run();
            (
                end,
                net.metrics.total.bytes,
                net.actor_mut::<Client>(&c).unwrap().replies,
            )
        };
        assert_eq!(outcome(&[]), outcome(&[500, 2_100, 3_000]));
    }

    #[test]
    fn external_close_endpoint_refuses_and_dead_letters() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
                close_after: None,
            }),
        );
        net.register(
            s.clone(),
            Box::new(Echo {
                peer: c.clone(),
                seen: 0,
            }),
        );
        net.start(&c);
        net.run_until(2_500); // requests delivered, replies in flight
        net.close_endpoint(&c);
        net.run();
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 0);
        assert!(
            net.metrics.dead_letters > 0,
            "in-flight replies dead-letter"
        );
    }

    #[test]
    fn latency_model_scales_with_size() {
        let m = LatencyModel {
            base_us: 100,
            per_kib_us: 1000,
        };
        assert_eq!(m.latency_us(0), 100);
        assert_eq!(m.latency_us(1024), 1100);
        assert_eq!(m.latency_us(2048), 2100);
        assert!(LatencyModel::wan().latency_us(1024) > LatencyModel::lan().latency_us(1024));
        assert_eq!(LatencyModel::zero().latency_us(4096), 0);
    }
}

#[cfg(test)]
mod work_tests {
    use super::*;
    use std::any::Any;
    use webdis_model::Url;
    use webdis_net::{FetchRequest, FetchResponse};

    fn addr(h: &str) -> SiteAddr {
        SiteAddr {
            host: h.into(),
            port: 80,
        }
    }

    /// A server that burns fixed CPU per request.
    struct SlowEcho {
        peer: SiteAddr,
        work_us: u64,
    }

    impl Actor for SlowEcho {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            if let SimEvent::Net(Message::Fetch(req)) = event {
                ctx.work(self.work_us);
                let _ = ctx.send(
                    &self.peer,
                    Message::FetchReply(FetchResponse {
                        url: req.url,
                        html: None,
                    }),
                );
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Burst {
        server: SiteAddr,
        n: usize,
        reply_times: Vec<u64>,
    }

    impl Actor for Burst {
        fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
            match event {
                SimEvent::Start => {
                    for i in 0..self.n {
                        ctx.send(
                            &self.server,
                            Message::Fetch(FetchRequest {
                                url: Url::from_parts("s", 80, &format!("/{i}")),
                                reply_host: "client".into(),
                                reply_port: 80,
                            }),
                        )
                        .unwrap();
                    }
                }
                SimEvent::Net(Message::FetchReply(_)) => self.reply_times.push(ctx.now_us()),
                SimEvent::Net(_) | SimEvent::Timer(_) => {}
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn work_serializes_a_burst_through_one_endpoint() {
        // 5 requests arrive (nearly) simultaneously; a 10ms-per-request
        // server must answer them ~10ms apart, not all at once.
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Burst {
                server: s.clone(),
                n: 5,
                reply_times: vec![],
            }),
        );
        net.register(
            s.clone(),
            Box::new(SlowEcho {
                peer: c.clone(),
                work_us: 10_000,
            }),
        );
        net.start(&c);
        let end = net.run();
        let times = net.actor_mut::<Burst>(&c).unwrap().reply_times.clone();
        assert_eq!(times.len(), 5);
        // Total span covers 5 sequential work units.
        assert!(end >= 50_000, "5 x 10ms of serial work, got {end}");
        // Consecutive replies are at least one work unit apart.
        for pair in times.windows(2) {
            assert!(pair[1] >= pair[0] + 10_000, "replies too close: {times:?}");
        }
    }

    #[test]
    fn zero_work_preserves_instant_semantics() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Burst {
                server: s.clone(),
                n: 3,
                reply_times: vec![],
            }),
        );
        net.register(
            s.clone(),
            Box::new(SlowEcho {
                peer: c.clone(),
                work_us: 0,
            }),
        );
        net.start(&c);
        net.run();
        let times = net.actor_mut::<Burst>(&c).unwrap().reply_times.clone();
        // All replies arrive at (nearly) the same virtual time: request
        // sizes differ by a byte or two at most.
        let spread = times.iter().max().unwrap() - times.iter().min().unwrap();
        assert!(
            spread < 100,
            "no work model → no serialization, spread {spread}"
        );
    }

    #[test]
    fn work_on_different_endpoints_runs_in_parallel() {
        // Two independent servers with 10ms work each: a client fanning
        // out to both finishes in ~one work unit, not two.
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        struct Fan {
            servers: Vec<SiteAddr>,
            replies: usize,
        }
        impl Actor for Fan {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
                match event {
                    SimEvent::Start => {
                        for (i, s) in self.servers.clone().iter().enumerate() {
                            ctx.send(
                                s,
                                Message::Fetch(FetchRequest {
                                    url: Url::from_parts("s", 80, &format!("/{i}")),
                                    reply_host: "client".into(),
                                    reply_port: 80,
                                }),
                            )
                            .unwrap();
                        }
                    }
                    SimEvent::Net(_) => self.replies += 1,
                    SimEvent::Timer(_) => {}
                }
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let servers = vec![addr("s1"), addr("s2")];
        for s in &servers {
            net.register(
                s.clone(),
                Box::new(SlowEcho {
                    peer: c.clone(),
                    work_us: 10_000,
                }),
            );
        }
        net.register(
            c.clone(),
            Box::new(Fan {
                servers,
                replies: 0,
            }),
        );
        net.start(&c);
        let end = net.run();
        assert_eq!(net.actor_mut::<Fan>(&c).unwrap().replies, 2);
        assert!(
            end < 20_000,
            "parallel servers must overlap work, got {end}"
        );
    }
}

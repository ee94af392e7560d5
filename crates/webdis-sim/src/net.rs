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

/// What a rate fault does to the message it claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message vanishes silently.
    Drop,
    /// The receiver cannot decode the message, so it is lost like a drop
    /// but traced as `message_corrupted` (the simulator's analogue of
    /// the TCP transport's byte-flip injection).
    Corrupt,
    /// A *second* copy is delivered (the original arrives normally; the
    /// extra copy draws its own latency jitter and is traced as
    /// `message_duplicated`).
    Dup,
}

/// One thing the network does wrong. A run's faults are one list,
/// [`SimConfig::faults`]; entries are independent and individually
/// removable (which is what a chaos shrinker does to them).
#[derive(Debug, Clone)]
pub enum Fault {
    /// Messages are claimed with probability `rate` — on every link, or
    /// with `link: Some((from, to))` only from host `from` to host `to`
    /// (exact match, one direction). For one message and one kind the
    /// first entry naming its link is drawn first, then the sum of the
    /// uniform entries (clamped to 1); a rate of 0 draws nothing, so an
    /// inert entry does not perturb an existing seed's run.
    Rate {
        /// What happens to a claimed message.
        kind: FaultKind,
        /// The one link affected; `None` = every link.
        link: Option<(String, String)>,
        /// Probability per message.
        rate: f64,
    },
    /// A network partition window: while `start_us <= now < end_us`,
    /// every message crossing between a host in `side_a` and a host in
    /// `side_b` (either direction) is dropped. Hosts listed nowhere are
    /// unaffected.
    Partition {
        /// Partition onset, virtual µs.
        start_us: u64,
        /// Partition healing time, virtual µs (exclusive).
        end_us: u64,
        /// Hosts on one side of the cut.
        side_a: Vec<String>,
        /// Hosts on the other side.
        side_b: Vec<String>,
    },
    /// A site crash: the endpoint deregisters at `at_us` (in-flight
    /// deliveries dead-letter, sends are refused — a process death).
    /// With `down_us` it re-registers that much later, with
    /// [`Actor::on_restart`] invoked first, so the actor comes back with
    /// fresh volatile state (e.g. an empty log table); without, it stays
    /// down. Deterministic.
    Crash {
        /// The site that crashes.
        site: SiteAddr,
        /// Crash onset, virtual µs.
        at_us: u64,
        /// How long the site stays down; `None` = for good.
        down_us: Option<u64>,
    },
}

impl Fault {
    /// A rate fault on every link.
    pub fn rate(kind: FaultKind, rate: f64) -> Fault {
        let link = None;
        Fault::Rate { kind, link, rate }
    }

    /// This rate fault, on the link from host `from` to host `to` only.
    pub fn on(mut self, from: &str, to: &str) -> Fault {
        if let Fault::Rate { link, .. } = &mut self {
            *link = Some((from.to_owned(), to.to_owned()));
        }
        self
    }
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
    /// What the network does wrong (the real transport is TCP, so the
    /// default is nothing).
    pub faults: Vec<Fault>,
    /// Seed for jitter/fault decisions — same seed, same run.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            latency: LatencyModel::lan(),
            jitter_us: 0,
            faults: Vec::new(),
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

    /// Invoked when a [`Fault::Crash`] window ends and this actor's
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

/// What an actor entry carries to its destination.
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

/// Everything that happens at a time. The variants are declared in the
/// order they take at one instant: the control edges of a
/// [`Fault::Crash`] first (a site that crashes at `t` is down for a
/// delivery at `t`), then what actors see, then the host's own entries
/// (the harness acts at `t` on a network that has done all of `t`).
/// Only actor entries advance the clock.
enum What {
    /// The site's endpoint deregisters (process death).
    Down(SiteAddr),
    /// The site re-registers with fresh volatile state.
    Up(SiteAddr),
    /// An event for the actor at this address.
    Actor(SiteAddr, Payload),
    /// A [`SimNet::post_host`] token, handed back by
    /// [`SimNet::run_to_host`].
    Host(u64),
}

/// One entry of the queue.
struct Entry {
    at_us: u64,
    seq: u64,
    what: What,
}

impl Entry {
    fn key(&self) -> (u64, u8, u64) {
        let class = match self.what {
            What::Down(_) | What::Up(_) => 0,
            What::Actor(..) => 1,
            What::Host(_) => 2,
        };
        (self.at_us, class, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulated network: a registry of actors and one time-ordered
/// queue of everything that is going to happen.
pub struct SimNet {
    config: SimConfig,
    actors: BTreeMap<SiteAddr, Box<dyn Actor>>,
    registry: BTreeSet<SiteAddr>,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Actor entries in `queue`.
    queued_actor_entries: usize,
    clock_us: u64,
    seq: u64,
    rng: StdRng,
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
    /// Creates an empty network; the crash edges of `config.faults` are
    /// its queue's first entries (in list order, down before up, which
    /// is the order they keep at an equal instant).
    pub fn new(config: SimConfig) -> SimNet {
        let mut net = SimNet {
            rng: StdRng::seed_from_u64(config.seed),
            actors: BTreeMap::new(),
            registry: BTreeSet::new(),
            queue: BinaryHeap::new(),
            queued_actor_entries: 0,
            clock_us: 0,
            seq: 0,
            busy_until: BTreeMap::new(),
            metrics: Metrics::default(),
            tracer: TraceHandle::noop(),
            scratch: Vec::new(),
            config,
        };
        let faults = std::mem::take(&mut net.config.faults);
        for fault in &faults {
            if let Fault::Crash {
                site,
                at_us,
                down_us,
            } = fault
            {
                net.push(*at_us, What::Down(site.clone()));
                if let Some(down_us) = down_us {
                    net.push(at_us + down_us, What::Up(site.clone()));
                }
            }
        }
        net.config.faults = faults;
        net
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
        self.push(self.clock_us, What::Actor(addr.clone(), Payload::Start));
    }

    /// Queues a host entry: [`SimNet::run_to_host`] hands `(at_us,
    /// token)` back once everything the network does up to and at
    /// `at_us` has happened — how a harness acts *at a time* (a web
    /// mutation, a purge sweep) between deliveries, never mid-handler.
    /// A host entry neither advances the clock nor counts as activity.
    pub fn post_host(&mut self, at_us: u64, token: u64) {
        self.push(at_us, What::Host(token));
    }

    fn push(&mut self, at_us: u64, what: What) {
        if matches!(what, What::Actor(..)) {
            self.queued_actor_entries += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry { at_us, seq, what }));
    }

    /// Runs until the queue is empty. Returns the final virtual time in
    /// microseconds — the end of the last actor event; crash edges and
    /// host entries later than that do not move it.
    pub fn run(&mut self) -> u64 {
        self.run_until(u64::MAX);
        self.clock_us
    }

    /// Processes entries with timestamps `<= limit_us`; returns true when
    /// actor events remain queued beyond the limit. Lets harnesses
    /// intervene mid-run (e.g. cancel a query by closing the user
    /// endpoint). For callers that post no host entries: one that comes
    /// due here is dropped.
    pub fn run_until(&mut self, limit_us: u64) -> bool {
        while self.advance(limit_us).is_some() {}
        !self.idle()
    }

    /// Runs to the next host entry and returns its `(at_us, token)`;
    /// `None` once the queue is empty.
    pub fn run_to_host(&mut self) -> Option<(u64, u64)> {
        self.advance(u64::MAX)
    }

    /// True when no actor event — delivery, timer, kick-off — is queued:
    /// left to itself the network would do nothing more.
    pub fn idle(&self) -> bool {
        self.queued_actor_entries == 0
    }

    /// The one loop: pops entries `<= limit_us` in order, up to and
    /// including the first host entry, which it returns.
    fn advance(&mut self, limit_us: u64) -> Option<(u64, u64)> {
        while let Some(Reverse(peek)) = self.queue.peek() {
            if peek.at_us > limit_us {
                break;
            }
            let Reverse(entry) = self.queue.pop()?;
            let (to, payload) = match entry.what {
                What::Down(site) => {
                    // The actor stays inspectable via `actor_mut`; its
                    // pending deliveries dead-letter and later sends are
                    // refused.
                    self.registry.remove(&site);
                    continue;
                }
                What::Up(site) => {
                    if let Some(actor) = self.actors.get_mut(&site) {
                        actor.on_restart(entry.at_us);
                        self.registry.insert(site);
                    }
                    continue;
                }
                What::Host(token) => return Some((entry.at_us, token)),
                What::Actor(to, payload) => (to, payload),
            };
            self.queued_actor_entries -= 1;
            self.deliver(entry.at_us, to, payload);
        }
        None
    }

    /// Hands one actor entry to its actor and queues what the handler
    /// sent and armed.
    fn deliver(&mut self, at_us: u64, to: SiteAddr, payload: Payload) {
        self.clock_us = self.clock_us.max(at_us);
        let is_net = matches!(payload, Payload::Net(_));
        // A deregistered endpoint keeps its actor (for inspection) but is
        // handed nothing.
        let actor = if self.registry.contains(&to) {
            self.actors.remove(&to)
        } else {
            None
        };
        let Some(mut actor) = actor else {
            // Lost traffic is a dead letter; a timer or kick-off to a
            // closed endpoint just evaporates. The loss is traced as
            // a drop so trajectory triage can explain the in-flight
            // clone instead of reporting a false hang.
            if let Payload::Net(msg) = &payload {
                self.metrics.dead_letters += 1;
                self.trace_msg(at_us, &to, msg, |kind| TraceEvent::MessageDropped {
                    kind,
                    to: to.host.to_string(),
                    bytes: encode_message(msg).len() as u32,
                    reason: "dead-letter".to_string(),
                });
            }
            return;
        };
        if is_net {
            self.metrics.record_delivery(&to, at_us);
        }
        // A sequential processor per endpoint: if earlier work is
        // still running, this event waits for it.
        let start_us = self.busy_until.get(&to).copied().unwrap_or(0).max(at_us);
        self.clock_us = self.clock_us.max(start_us);
        if is_net && self.tracer.enabled() {
            // Inbound queue depth at processing start: this message
            // plus every other network delivery to the same endpoint
            // that has already arrived but not yet been processed.
            // The heap is small (one entry per in-flight event), so
            // the scan costs less than maintaining a second index.
            let waiting = |Reverse(e): &Reverse<Entry>| {
                e.at_us <= start_us
                    && matches!(&e.what, What::Actor(t, Payload::Net(_)) if *t == to)
            };
            let depth = 1 + self.queue.iter().filter(|e| waiting(e)).count() as u64;
            self.tracer
                .gauge_max(&format!("queue_depth.{}", to.host), depth);
            self.tracer.gauge_max("queue_depth_high_water", depth);
        }
        let mut ctx = Ctx {
            now_us: start_us,
            self_addr: to.clone(),
            registry: &self.registry,
            outbox: Vec::new(),
            timers: Vec::new(),
            close_self: false,
            work_us: 0,
            queued_us: if is_net {
                start_us.saturating_sub(at_us)
            } else {
                0
            },
        };
        let event = match payload {
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
            self.busy_until.insert(to.clone(), done_us);
            self.clock_us = self.clock_us.max(done_us);
            self.metrics.last_delivery_us = self.metrics.last_delivery_us.max(done_us);
            self.metrics.record_work(&to, work_us);
        }
        if close_self {
            self.registry.remove(&to);
        }
        let from = to;
        self.actors.insert(from.clone(), actor);
        for (to, msg) in outbox {
            self.dispatch_at(done_us, &from, to, msg);
        }
        for (delay_us, token) in timers {
            let timer = What::Actor(from.clone(), Payload::Timer(token));
            self.push(done_us + delay_us, timer);
        }
    }

    /// Decides whether a rate fault of `kind` claims a message from
    /// `from` to `to`, and says which: the first entry naming the link is
    /// drawn, then the uniform entries' clamped sum. The RNG is only
    /// consulted for rates actually configured, so adding an inert entry
    /// does not perturb an existing seed's run.
    fn claims(&mut self, kind: FaultKind, from: &str, to: &str) -> Option<&'static str> {
        let mut on_link = None;
        let mut uniform = 0.0f64;
        for fault in &self.config.faults {
            match fault {
                Fault::Rate {
                    kind: k,
                    link,
                    rate,
                } if *k == kind => match link {
                    None => uniform = (uniform + rate).min(1.0),
                    Some((f, t)) if f == from && t == to => _ = on_link.get_or_insert(*rate),
                    Some(_) => {}
                },
                _ => {}
            }
        }
        if on_link.is_some_and(|rate| rate > 0.0 && self.rng.gen_bool(rate)) {
            return Some("link");
        }
        (uniform > 0.0 && self.rng.gen_bool(uniform)).then_some("random")
    }

    /// True when a partition window severs a message departing at
    /// `at_us` from `from` to `to`.
    fn partitioned(&self, at_us: u64, from: &str, to: &str) -> bool {
        self.config.faults.iter().any(|fault| match fault {
            Fault::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            } if (*start_us..*end_us).contains(&at_us) => {
                let a = |h: &str| side_a.iter().any(|x| x == h);
                let b = |h: &str| side_b.iter().any(|x| x == h);
                (a(from) && b(to)) || (b(from) && a(to))
            }
            _ => false,
        })
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
        // Partition windows are checked first (deterministic), then the
        // drop rates.
        let dropped = if self.partitioned(base_us, &from.host, &to.host) {
            Some("partition")
        } else {
            self.claims(FaultKind::Drop, &from.host, &to.host)
        };
        if let Some(reason) = dropped {
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
        if self
            .claims(FaultKind::Corrupt, &from.host, &to.host)
            .is_some()
        {
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
        let duplicate = if self.claims(FaultKind::Dup, &from.host, &to.host).is_some() {
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
        self.push(at_us, What::Actor(to.clone(), Payload::Net(msg)));
        if let Some((dup_at_us, copy)) = duplicate {
            self.push(dup_at_us, What::Actor(to, Payload::Net(copy)));
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
            faults: vec![Fault::rate(FaultKind::Drop, 1.0)],
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
            faults: vec![Fault::rate(FaultKind::Drop, 1.0).on("client", "server")],
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
            faults: vec![Fault::rate(FaultKind::Drop, 1.0).on("server", "client")],
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
            faults: vec![Fault::Partition {
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
                faults: vec![Fault::Crash {
                    site: addr("server"),
                    at_us: 1_000,
                    down_us: None,
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
            faults: vec![Fault::Crash {
                site: addr("server"),
                at_us: 1_000,
                down_us: None,
            }],
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
            faults: vec![Fault::rate(FaultKind::Dup, 1.0)],
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
            faults: vec![Fault::rate(FaultKind::Corrupt, 1.0).on("client", "server")],
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
            faults: vec![
                Fault::rate(FaultKind::Dup, 0.0),
                Fault::rate(FaultKind::Corrupt, 0.0),
                Fault::rate(FaultKind::Dup, 0.0).on("client", "server"),
                Fault::rate(FaultKind::Corrupt, 1.0).on("nobody", "server"),
                Fault::Crash {
                    site: addr("ghost"),
                    at_us: 1,
                    down_us: Some(1),
                },
            ],
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
                faults: vec![Fault::Crash {
                    site: addr("server"),
                    at_us: 1_000,
                    down_us: Some(5_000),
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
            faults: vec![Fault::Crash {
                site: addr("srv"),
                at_us: 2_000,
                down_us: Some(3_000),
            }],
            ..SimConfig::default()
        });
        let s = addr("srv");
        net.register(s.clone(), Box::new(Resettable { restarts: vec![] }));
        // No traffic at all: the edges are queue entries of their own,
        // so the site is back up by the horizon all the same.
        net.run_until(20_000);
        assert_eq!(
            net.actor_mut::<Resettable>(&s).unwrap().restarts,
            vec![5_000]
        );
    }

    #[test]
    fn one_instant_orders_edges_then_actor_events_then_host_entries() {
        /// Logs what it is handed; arms a timer for t = 4 ms on Start.
        struct Witness(Vec<String>);
        impl Actor for Witness {
            fn handle(&mut self, ctx: &mut Ctx<'_>, event: SimEvent) {
                self.0.push(match event {
                    SimEvent::Start => {
                        ctx.schedule_timer(4_000, 5);
                        return;
                    }
                    SimEvent::Net(_) => format!("delivery@{}", ctx.now_us()),
                    SimEvent::Timer(token) => format!("timer{token}@{}", ctx.now_us()),
                });
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn on_restart(&mut self, now_us: u64) {
                self.0.push(format!("up@{now_us}"));
            }
        }
        let (c, s) = (addr("client"), addr("server"));
        // The server is down over [1 ms, 4 ms); a message sent at 0 takes
        // exactly 4 ms; the client dies for good at 50 ms.
        let crash = |site: &SiteAddr, at_us, down_us| Fault::Crash {
            site: site.clone(),
            at_us,
            down_us,
        };
        let mut net = SimNet::new(SimConfig {
            latency: LatencyModel {
                base_us: 4_000,
                per_kib_us: 0,
            },
            faults: vec![crash(&s, 1_000, Some(3_000)), crash(&c, 50_000, None)],
            ..SimConfig::default()
        });
        let client = Client {
            server: s.clone(),
            n: 1,
            replies: 0,
            close_after: None,
        };
        net.register(c.clone(), Box::new(client));
        net.register(s.clone(), Box::new(Witness(Vec::new())));
        net.post_host(60_000, 8);
        net.post_host(4_000, 7);
        net.start(&c);
        net.start(&s);

        // Everything of t = 4 ms has happened when the host entry of
        // t = 4 ms comes back: the site came up first, so neither the
        // delivery nor the timer found it down.
        assert_eq!(net.run_to_host(), Some((4_000, 7)));
        let seen = net.actor_mut::<Witness>(&s).unwrap().0.clone();
        assert_eq!(seen, ["up@4000", "delivery@4000", "timer5@4000"]);
        assert_eq!(net.metrics.dead_letters, 0);
        assert!(net.idle());

        // The crash edge at 50 ms and the host entry at 60 ms happen —
        // the client is gone — without the clock following them.
        assert_eq!(net.now_us(), 4_000);
        assert_eq!(net.run_to_host(), Some((60_000, 8)));
        assert_eq!(net.now_us(), 4_000);
        net.start(&c);
        assert_eq!(net.run(), 4_000, "a kick-off to a dead endpoint evaporates");
        assert_eq!(net.metrics.total.messages, 1);
    }

    #[test]
    fn rate_entries_of_one_kind_sum_when_uniform_and_first_match_on_a_link() {
        let run = |faults: Vec<Fault>| {
            let mut net = SimNet::new(SimConfig {
                faults,
                seed: 9,
                ..SimConfig::default()
            });
            let (c, s) = (addr("client"), addr("server"));
            let client = Client {
                server: s.clone(),
                n: 64,
                replies: 0,
                close_after: None,
            };
            net.register(c.clone(), Box::new(client));
            let echo = Echo {
                peer: c.clone(),
                seen: 0,
            };
            net.register(s.clone(), Box::new(echo));
            net.start(&c);
            net.run();
            let seen = net.actor_mut::<Echo>(&s).unwrap().seen;
            let replies = net.actor_mut::<Client>(&c).unwrap().replies;
            (net.metrics.dropped, seen, replies)
        };
        let drop = |rate| Fault::rate(FaultKind::Drop, rate);
        // Two uniform entries and two for one link, other kinds between
        // them: what `drop_rate: 0.375` with `link_drops` of 0.5 then 1.0
        // drew on this seed before the fields became one list.
        let split = run(vec![
            drop(0.25),
            drop(0.5).on("client", "server"),
            Fault::rate(FaultKind::Dup, 0.0),
            drop(1.0).on("client", "server"),
            drop(0.125),
        ]);
        assert_eq!(split, (51, 18, 13));
        assert_eq!(
            split,
            run(vec![drop(0.5).on("client", "server"), drop(0.375)])
        );
        // The sum is clamped, not wrapped or refused.
        assert_eq!(run(vec![drop(0.75), drop(0.5)]), (64, 0, 0));
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

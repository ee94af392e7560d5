//! The event loop: actors, virtual clock, latency model, delivery.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use webdis_model::SiteAddr;
use webdis_net::{Message, Wire};
use webdis_trace::TraceHandle;

use crate::actor::{Actor, Event, Network, NetworkError, Work};
use crate::agenda::{Agenda, Due, Runtime};
use crate::fault::{Fault, Injector};
use crate::ledger::{Fate, Ledger};
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

/// What a site's processor takes for the work its actors report
/// ([`Network::charge`]): the single Query Processor thread of Section
/// 4.4, held by each endpoint in turn. Zeros (the default) make parsing
/// and evaluation instantaneous, so network costs shape virtual time;
/// experiment T6 uses a 1999-workstation-ish model to expose the
/// user-site CPU bottleneck under data shipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcModel {
    /// Database-Constructor cost per KiB of raw HTML parsed.
    pub parse_us_per_kib: u64,
    /// Cost per node-query evaluation.
    pub eval_us: u64,
}

impl ProcModel {
    /// What one answer-cache consult costs, whatever the model: a
    /// constant, well below an evaluation, since the win a hit banks is
    /// the evaluation it skips.
    const LOOKUP_US: u64 = 5;

    /// A 1999-workstation-ish model: ~1 ms to parse 1 KiB of HTML into
    /// virtual relations, 200 µs per node-query evaluation.
    pub fn workstation_1999() -> ProcModel {
        ProcModel {
            parse_us_per_kib: 1_000,
            eval_us: 200,
        }
    }

    /// The µs `work` holds the processor.
    fn price(&self, work: Work) -> u64 {
        match work {
            Work::Parse { bytes } => (self.parse_us_per_kib * bytes as u64).div_ceil(1024),
            Work::Eval => self.eval_us,
            Work::Lookup => Self::LOOKUP_US,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network latency model.
    pub latency: LatencyModel,
    /// Local processing-cost model: what each endpoint's processor
    /// charges for the work its actor reports.
    pub proc: ProcModel,
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
            proc: ProcModel::default(),
            jitter_us: 0,
            faults: Vec::new(),
            seed: 42,
        }
    }
}

/// The per-event context an actor answers through on the simulator.
struct Ctx<'a> {
    now_us: u64,
    /// The instant the event was taken: who is down is read at it.
    taken_us: u64,
    self_addr: SiteAddr,
    registry: &'a BTreeSet<SiteAddr>,
    injector: &'a Injector,
    /// Where a refused send is metered, after encoding into `scratch`.
    ledger: &'a Ledger,
    scratch: &'a mut Vec<u8>,
    outbox: Vec<(SiteAddr, Message)>,
    timers: Vec<(u64, u64)>,
    /// Prices what the actor reports; the sum is `work_us`.
    proc: ProcModel,
    work_us: u64,
    /// How long the event being handled sat in this endpoint's inbound
    /// queue: zero when the endpoint was idle at arrival, the tail of the
    /// busy window otherwise. Only network deliveries queue.
    queued_us: u64,
}

/// A send fails synchronously when the destination endpoint is not
/// registered or is down (connection refused). A posted timer fires after
/// `delay_us` of virtual time measured from the end of the current
/// event's work, and dies silently if the endpoint is down by then.
/// Charged work keeps the endpoint busy: messages sent from this handler
/// depart only after it completes, and later deliveries queue behind it.
impl Network for Ctx<'_> {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        if !self.registry.contains(to) || self.injector.down(to, self.taken_us) {
            self.scratch.clear();
            msg.encode(self.scratch);
            let (fate, bytes, now_us) = (Fate::Refused, self.scratch.len(), self.now_us);
            let site = &self.self_addr.host;
            self.ledger
                .record(fate, &msg, bytes, &to.host, site, || now_us);
            return Err(NetworkError { to: to.clone() });
        }
        self.outbox.push((to.clone(), msg));
        Ok(())
    }

    fn now_us(&self) -> u64 {
        self.now_us
    }

    fn charge(&mut self, work: Work) -> u64 {
        let us = self.proc.price(work);
        self.work_us += us;
        us
    }

    fn queue_wait_us(&self) -> u64 {
        self.queued_us
    }

    fn post(&mut self, delay_us: u64, token: u64) {
        self.timers.push((delay_us, token));
    }
}

/// The simulated network: a registry of actors, the [`Agenda`] of
/// everything that is going to happen and the [`Injector`].
pub struct SimNet {
    config: SimConfig,
    actors: BTreeMap<SiteAddr, Box<dyn Actor>>,
    registry: BTreeSet<SiteAddr>,
    agenda: Agenda,
    clock_us: u64,
    /// `config.faults` (which it takes over) and the seeded RNG.
    injector: Injector,
    /// Per-endpoint processor availability: an event delivered before
    /// this time waits for the endpoint's previous work to finish.
    busy_until: BTreeMap<SiteAddr, u64>,
    /// The per-site receive, busy and makespan half of [`SimNet::metrics`].
    sites: Metrics,
    /// Where every message's fate is metered and traced. Its tracer is a
    /// no-op until a harness installs the engine's, so transport and
    /// engine events share one stream and one virtual clock.
    pub ledger: Ledger,
    /// Where every outgoing message is encoded to be measured.
    scratch: Vec<u8>,
}

impl SimNet {
    /// Creates an empty network; the restarts of `config.faults` are its
    /// agenda's first entries ([`Agenda::new`]).
    pub fn new(mut config: SimConfig) -> SimNet {
        let faults = std::mem::take(&mut config.faults);
        SimNet {
            agenda: Agenda::new(&faults, |_| true),
            injector: Injector::new(faults, config.seed),
            actors: BTreeMap::new(),
            registry: BTreeSet::new(),
            clock_us: 0,
            busy_until: BTreeMap::new(),
            sites: Metrics::default(),
            ledger: Ledger {
                meter: Arc::default(),
                tracer: TraceHandle::noop(),
            },
            scratch: Vec::new(),
            config,
        }
    }

    /// The run's metrics so far: its traffic as the ledger metered it,
    /// and the per-site bookkeeping of deliveries and work.
    pub fn metrics(&self) -> Metrics {
        self.sites.clone().with_traffic(&self.ledger.meter)
    }

    /// Registers an actor at an address (replacing any previous one).
    pub fn register(&mut self, addr: SiteAddr, actor: Box<dyn Actor>) {
        self.registry.insert(addr.clone());
        self.actors.insert(addr, actor);
    }

    /// Mutable access to a registered actor, downcast to its concrete
    /// type. Panics if the type does not match (a harness bug).
    pub fn actor_mut<T: Actor>(&mut self, addr: &SiteAddr) -> Option<&mut T> {
        self.actors.get_mut(addr).map(|a| {
            let any: &mut dyn Any = a.as_mut();
            let mismatch = "actor registered under this address has a different type";
            any.downcast_mut::<T>().expect(mismatch)
        })
    }

    /// Posts the [`Event::Start`] kick-off to an actor at the current
    /// virtual time.
    pub fn start(&mut self, addr: &SiteAddr) {
        // Model the kick-off as a zero-size local event: deliver through
        // the queue for deterministic ordering, but without traffic.
        let start = Due::Actor(addr.clone(), Event::Start);
        self.agenda.push(self.clock_us, start);
    }

    /// Runs until the queue is empty. Returns the final virtual time in
    /// microseconds — the end of the last actor event; restarts and host
    /// entries later than that do not move it.
    pub fn run(&mut self) -> u64 {
        self.run_until(u64::MAX);
        self.clock_us
    }

    /// Processes entries with timestamps `<= limit_us`; returns true when
    /// actor events remain queued beyond the limit. Lets harnesses
    /// inspect actors mid-run. For callers that queue no host entries: one
    /// that comes due here is dropped.
    pub fn run_until(&mut self, limit_us: u64) -> bool {
        while self.run_to_host(limit_us).is_some() {}
        !self.idle()
    }

    /// True when no actor event — delivery, timer, kick-off — is queued:
    /// left to itself the network would do nothing more.
    pub fn idle(&self) -> bool {
        self.agenda.idle()
    }

    /// Current virtual time.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// Schedules a message departing at `base_us`: applies the fault
    /// decision, hands the message's fate to the ledger, and picks the
    /// delivery time from the latency model plus jitter. A lost message
    /// is metered apart and traced as `message_dropped` or
    /// `message_corrupted` — it never becomes a `message_sent` record, so
    /// trajectory reconstruction does not see phantom sends.
    fn dispatch_at(&mut self, base_us: u64, from: &SiteAddr, to: SiteAddr, msg: Message) {
        // Metered as what the wire would carry: the message's encoding,
        // written into one buffer the whole run reuses.
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        let bytes = self.scratch.len();
        let verdict = self
            .injector
            .decide(base_us, &from.host, &to.host, self.config.jitter_us);
        let ledger = &self.ledger;
        let record = |fate| ledger.record(fate, &msg, bytes, &to.host, &from.host, || base_us);
        // A loss is recorded in place of the send; corruption is one
        // through the decode path (the receiver cannot read the frame).
        let (jitter_us, copy) = match verdict {
            Ok(delivery) => delivery,
            Err(lost) => return record(lost),
        };
        record(Fate::Sent);
        let arrive_us = base_us + self.config.latency.latency_us(bytes);
        // Duplication delivers a *second* copy with its own jitter draw
        // (the copies may overtake each other).
        let copy = copy.map(|copy_jitter_us| {
            record(Fate::Duplicated);
            (arrive_us + copy_jitter_us, msg.clone())
        });
        let delivery = Due::Actor(to.clone(), Event::Net(msg));
        self.agenda.push(arrive_us + jitter_us, delivery);
        if let Some((copy_at_us, copy)) = copy {
            self.agenda
                .push(copy_at_us, Due::Actor(to, Event::Net(copy)));
        }
    }
}

/// A site that is down keeps its actor (inspectable via `actor_mut`); its
/// deliveries dead-letter and sends to it are refused until its restart,
/// [`Actor::on_restart`].
impl Runtime for SimNet {
    fn next(&mut self, limit_us: u64) -> Option<(u64, Due)> {
        self.agenda.pop(limit_us)
    }

    /// Hands one actor entry to its actor and queues what the handler
    /// sent and armed.
    fn deliver(&mut self, at_us: u64, to: SiteAddr, event: Event) {
        self.clock_us = self.clock_us.max(at_us);
        let is_net = matches!(event, Event::Net(_));
        // A down endpoint keeps its actor (for inspection) but is handed
        // nothing; an unregistered one has none.
        let up = !self.injector.down(&to, at_us);
        let actor = if up { self.actors.remove(&to) } else { None };
        let Some(mut actor) = actor else {
            // Lost traffic is a dead letter; a timer or kick-off to a
            // down endpoint just evaporates. The loss is traced as
            // a drop so trajectory triage can explain the in-flight
            // clone instead of reporting a false hang.
            if let Event::Net(msg) = &event {
                self.scratch.clear();
                msg.encode(&mut self.scratch);
                let (fate, bytes) = (Fate::DeadLetter("dead-letter"), self.scratch.len());
                self.ledger
                    .record(fate, msg, bytes, &to.host, &to.host, || at_us);
            }
            return;
        };
        // A sequential processor per endpoint: if earlier work is
        // still running, this event waits for it.
        let start_us = self.busy_until.get(&to).copied().unwrap_or(0).max(at_us);
        self.clock_us = self.clock_us.max(start_us);
        if is_net {
            self.sites.record_delivery(&to, at_us);
            // Inbound queue depth at processing start: this message
            // plus every other network delivery to the same endpoint
            // that has already arrived but not yet been processed.
            // The heap is small (one entry per in-flight event), so
            // the scan costs less than maintaining a second index.
            let waiting = |&(at_us, due): &(u64, &Due)| {
                at_us <= start_us && matches!(due, Due::Actor(t, Event::Net(_)) if *t == to)
            };
            let agenda = &self.agenda;
            let depth = || 1 + agenda.iter().filter(waiting).count() as u64;
            self.ledger.arrival(&to.host, depth);
        }
        let mut ctx = Ctx {
            now_us: start_us,
            taken_us: at_us,
            self_addr: to.clone(),
            registry: &self.registry,
            injector: &self.injector,
            ledger: &self.ledger,
            scratch: &mut self.scratch,
            outbox: Vec::new(),
            timers: Vec::new(),
            proc: self.config.proc,
            work_us: 0,
            queued_us: if is_net {
                start_us.saturating_sub(at_us)
            } else {
                0
            },
        };
        actor.handle(&mut ctx, event);
        let Ctx {
            outbox,
            timers,
            work_us,
            ..
        } = ctx;
        let done_us = start_us + work_us;
        if work_us > 0 {
            self.busy_until.insert(to.clone(), done_us);
            self.clock_us = self.clock_us.max(done_us);
            self.sites.last_delivery_us = self.sites.last_delivery_us.max(done_us);
            self.sites.record_work(&to, work_us);
        }
        let from = to;
        self.actors.insert(from.clone(), actor);
        for (to, msg) in outbox {
            self.dispatch_at(done_us, &from, to, msg);
        }
        for (delay_us, token) in timers {
            let timer = Due::Actor(from.clone(), Event::Timer(token));
            self.agenda.push(done_us + delay_us, timer);
        }
    }

    fn restart(&mut self, at_us: u64, site: SiteAddr) {
        if let Some(actor) = self.actors.get_mut(&site) {
            actor.on_restart(at_us);
        }
    }

    fn agenda(&mut self) -> &mut Agenda {
        &mut self.agenda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use webdis_model::Url;
    use webdis_net::{encode_message, FetchRequest, FetchResponse};
    use webdis_trace::{TraceEvent, TraceRecord};

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
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            if let Event::Net(Message::Fetch(req)) = event {
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
    }

    /// Sends `n` fetches on Start; counts replies.
    struct Client {
        server: SiteAddr,
        n: usize,
        replies: usize,
    }

    impl Actor for Client {
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            match event {
                Event::Start => {
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
                Event::Net(Message::FetchReply(_)) => self.replies += 1,
                Event::Net(_) | Event::Timer(_) => {}
            }
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
        assert_eq!(net.metrics().messages_of("fetch"), 3);
        assert_eq!(net.metrics().messages_of("fetch-reply"), 3);
        assert!(net.metrics().total.bytes > 0);
    }

    /// A client and its echo server, `n` requests, under `tracer`.
    fn round_trip_under(tracer: TraceHandle, n: usize) -> SimNet {
        let mut net = SimNet::new(SimConfig::default());
        net.ledger.tracer = tracer;
        let (c, s) = (addr("client"), addr("server"));
        let client = Client {
            server: s.clone(),
            n,
            replies: 0,
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
        assert_eq!(net.metrics().total.messages, 6);
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
            net.metrics().total.bytes,
            encoded.iter().map(|&b| u64::from(b)).sum::<u64>()
        );
    }

    #[test]
    fn send_to_unregistered_is_refused() {
        let mut net = SimNet::new(SimConfig::default());
        let c = addr("client");
        struct TryUnreachable;
        impl Actor for TryUnreachable {
            fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
                if matches!(event, Event::Start) {
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
                    assert_eq!(&*err.to.host, "ghost");
                }
            }
        }
        net.register(c.clone(), Box::new(TryUnreachable));
        net.start(&c);
        net.run();
        let metrics = net.metrics();
        assert_eq!(metrics.total.messages, 0);
        assert_eq!(metrics.refused, 1, "a refusal is metered");
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
            (end, net.metrics().total.bytes)
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
        assert_eq!(net.metrics().dropped, 4);
        assert!(net.metrics().dropped_bytes > 0);
        // Dropped traffic is metered separately, not as sent messages.
        assert_eq!(net.metrics().total.messages, 0);
        assert_eq!(net.actor_mut::<Echo>(&s).unwrap().seen, 0);
    }

    /// Schedules a timer on Start and records when it fires.
    struct TimerProbe {
        delay_us: u64,
        token: u64,
        fired: Vec<(u64, u64)>,
    }

    impl Actor for TimerProbe {
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            match event {
                Event::Start => ctx.post(self.delay_us, self.token),
                Event::Timer(token) => self.fired.push((ctx.now_us(), token)),
                Event::Net(_) => {}
            }
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
        assert_eq!(net.metrics().total.messages, 0);
        assert_eq!(net.metrics().dead_letters, 0);
    }

    #[test]
    fn timer_to_closed_endpoint_evaporates() {
        // The endpoint goes down at 1 µs, after the kick-off armed the
        // timer.
        let c = addr("client");
        let mut net = SimNet::new(SimConfig {
            faults: vec![Fault::Crash {
                site: c.clone(),
                at_us: 1,
                down_us: None,
            }],
            ..SimConfig::default()
        });
        net.register(
            c.clone(),
            Box::new(TimerProbe {
                delay_us: 5_000,
                token: 1,
                fired: vec![],
            }),
        );
        net.start(&c);
        net.run();
        assert!(net.actor_mut::<TimerProbe>(&c).unwrap().fired.is_empty());
        assert_eq!(net.metrics().dead_letters, 0, "timers are not dead letters");
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
        assert_eq!(net.metrics().dropped, 3);
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
        assert_eq!(net.metrics().dropped, 3);
    }

    /// Sends one fetch on Start and one more per timer fire.
    struct RetrySender {
        server: SiteAddr,
        retry_at_us: u64,
    }

    impl Actor for RetrySender {
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            let send = |ctx: &mut dyn Network| {
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
                Event::Start => {
                    send(ctx);
                    ctx.post(self.retry_at_us, 0);
                }
                Event::Timer(_) => send(ctx),
                Event::Net(_) => {}
            }
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
        assert_eq!(net.metrics().dropped, 1);
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
            (
                net.metrics().dead_letters,
                seen,
                net.metrics().total.messages,
            )
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
        net.ledger.tracer = tracer;
        let c = addr("client");
        let s = addr("server");
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 2,
                replies: 0,
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
        assert_eq!(net.metrics().dead_letters, 2);
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
        assert_eq!(net.metrics().messages_of("fetch"), 2);
        assert_eq!(net.metrics().duplicated, 6);
        assert!(net.metrics().duplicated_bytes > 0);
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
        assert_eq!(net.metrics().corrupted, 3);
        assert!(net.metrics().corrupted_bytes > 0);
        // Corrupted frames are neither sent traffic nor clean drops.
        assert_eq!(net.metrics().total.messages, 0);
        assert_eq!(net.metrics().dropped, 0);
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
            (end, net.metrics().total.bytes)
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
            (net.metrics().dead_letters, seen)
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
            fn handle(&mut self, _ctx: &mut dyn Network, _event: Event) {}
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
        // No traffic at all: the restart is a queue entry of its own,
        // so the site is back up by the horizon all the same.
        net.run_until(20_000);
        assert_eq!(
            net.actor_mut::<Resettable>(&s).unwrap().restarts,
            vec![5_000]
        );
    }

    #[test]
    fn one_instant_orders_restarts_then_actor_events_then_host_entries() {
        /// Logs what it is handed; arms a timer for t = 4 ms on Start.
        struct Witness(Vec<String>);
        impl Actor for Witness {
            fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
                self.0.push(match event {
                    Event::Start => {
                        ctx.post(4_000, 5);
                        return;
                    }
                    Event::Net(_) => format!("delivery@{}", ctx.now_us()),
                    Event::Timer(token) => format!("timer{token}@{}", ctx.now_us()),
                });
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
        };
        net.register(c.clone(), Box::new(client));
        net.register(s.clone(), Box::new(Witness(Vec::new())));
        net.agenda().push(60_000, Due::Host(8));
        net.agenda().push(4_000, Due::Host(7));
        net.start(&c);
        net.start(&s);

        // Everything of t = 4 ms has happened when the host entry of
        // t = 4 ms comes back: the site came up first, so neither the
        // delivery nor the timer found it down.
        assert_eq!(net.run_to_host(u64::MAX), Some((4_000, 7)));
        let seen = net.actor_mut::<Witness>(&s).unwrap().0.clone();
        assert_eq!(seen, ["up@4000", "delivery@4000", "timer5@4000"]);
        assert_eq!(net.metrics().dead_letters, 0);
        assert!(net.idle());

        // The host entry at 60 ms happens without the clock following it.
        assert_eq!(net.now_us(), 4_000);
        assert_eq!(net.run_to_host(u64::MAX), Some((60_000, 8)));
        assert_eq!(net.now_us(), 4_000);
        // A kick-off taken inside the client's crash finds it down: the
        // client sends nothing.
        net.agenda()
            .push(70_000, Due::Actor(c.clone(), Event::Start));
        net.run();
        let sent = net.metrics().total.messages;
        assert_eq!(sent, 1, "a kick-off to a dead endpoint evaporates");
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
            (net.metrics().dropped, seen, replies)
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
                net.metrics().total.bytes,
                net.actor_mut::<Client>(&c).unwrap().replies,
            )
        };
        assert_eq!(outcome(&[]), outcome(&[500, 2_100, 3_000]));
    }

    #[test]
    fn external_close_endpoint_refuses_and_dead_letters() {
        // The client goes down at 2.5 ms: requests delivered, replies in
        // flight.
        let c = addr("client");
        let s = addr("server");
        let mut net = SimNet::new(SimConfig {
            faults: vec![Fault::Crash {
                site: c.clone(),
                at_us: 2_500,
                down_us: None,
            }],
            ..SimConfig::default()
        });
        net.register(
            c.clone(),
            Box::new(Client {
                server: s.clone(),
                n: 3,
                replies: 0,
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
        assert_eq!(net.actor_mut::<Client>(&c).unwrap().replies, 0);
        assert!(
            net.metrics().dead_letters > 0,
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
    use webdis_model::Url;
    use webdis_net::{FetchRequest, FetchResponse};

    fn addr(h: &str) -> SiteAddr {
        SiteAddr {
            host: h.into(),
            port: 80,
        }
    }

    /// A server that evaluates once per request.
    struct SlowEcho {
        peer: SiteAddr,
    }

    impl Actor for SlowEcho {
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            if let Event::Net(Message::Fetch(req)) = event {
                ctx.charge(Work::Eval);
                let _ = ctx.send(
                    &self.peer,
                    Message::FetchReply(FetchResponse {
                        url: req.url,
                        html: None,
                    }),
                );
            }
        }
    }

    struct Burst {
        server: SiteAddr,
        n: usize,
        reply_times: Vec<u64>,
    }

    impl Actor for Burst {
        fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
            match event {
                Event::Start => {
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
                Event::Net(Message::FetchReply(_)) => self.reply_times.push(ctx.now_us()),
                Event::Net(_) | Event::Timer(_) => {}
            }
        }
    }

    /// A processor that takes `eval_us` per evaluation.
    fn evals_take(eval_us: u64) -> SimConfig {
        SimConfig {
            proc: ProcModel {
                eval_us,
                ..ProcModel::default()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn work_serializes_a_burst_through_one_endpoint() {
        // 5 requests arrive (nearly) simultaneously; a 10ms-per-request
        // server must answer them ~10ms apart, not all at once.
        let mut net = SimNet::new(evals_take(10_000));
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
        net.register(s.clone(), Box::new(SlowEcho { peer: c.clone() }));
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
        let mut net = SimNet::new(evals_take(0));
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
        net.register(s.clone(), Box::new(SlowEcho { peer: c.clone() }));
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
        let mut net = SimNet::new(evals_take(10_000));
        let c = addr("client");
        struct Fan {
            servers: Vec<SiteAddr>,
            replies: usize,
        }
        impl Actor for Fan {
            fn handle(&mut self, ctx: &mut dyn Network, event: Event) {
                match event {
                    Event::Start => {
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
                    Event::Net(_) => self.replies += 1,
                    Event::Timer(_) => {}
                }
            }
        }
        let servers = vec![addr("s1"), addr("s2")];
        for s in &servers {
            net.register(s.clone(), Box::new(SlowEcho { peer: c.clone() }));
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

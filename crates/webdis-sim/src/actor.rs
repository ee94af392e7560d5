//! The one vocabulary every runtime drives a site in: an [`Actor`] is
//! handed [`Event`]s and answers through a [`Network`] — the simulator's
//! per-event context, or a TCP endpoint's handle.

use std::any::Any;

use webdis_model::SiteAddr;
use webdis_net::Message;

/// Why a send failed synchronously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkError {
    /// The unreachable destination.
    pub to: SiteAddr,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot reach {}", self.to)
    }
}

impl std::error::Error for NetworkError {}

/// What an actor needs from a transport.
pub trait Network {
    /// Dispatches one message. An `Err` means the destination endpoint
    /// refused the connection — for a result dispatch this is the passive
    /// termination signal of Section 2.8. A successful return means the
    /// message was accepted by the network, not that it was processed —
    /// exactly TCP's guarantee.
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError>;

    /// Monotonic time in microseconds (virtual on the simulator, wall
    /// clock on TCP) — used for a daemon's per-query arrival stamps and
    /// latency accounting.
    fn now_us(&self) -> u64;

    /// Reports work the actor just did and returns the µs the runtime
    /// charged for it. The simulator prices it with its
    /// [`ProcModel`](crate::ProcModel) and holds the endpoint's sequential
    /// processor that long (queueing later arrivals and delaying this
    /// handler's outgoing messages, like the paper's single Query
    /// Processor thread); on real transports the work *is* the time, so
    /// the default charges nothing. A span is the clock's advance across
    /// the work plus this charge.
    fn charge(&mut self, _work: Work) -> u64 {
        0
    }

    /// How long the message currently being handled waited in this
    /// endpoint's inbound queue before processing began — the
    /// backpressure delay the `queue_us` stage span records. Modeled
    /// (virtual, bit-deterministic) on the simulator; wall-clock between
    /// decode and dispatch on TCP. Transports without queue visibility
    /// report zero.
    fn queue_wait_us(&self) -> u64 {
        0
    }

    /// Asks for [`Event::Timer`]`(token)` after `delay_us`: the runtime
    /// under this network hands it to whoever it is running at that
    /// time. Timers are local — no traffic is metered and no fault
    /// applies — and die with the endpoint. A network that is only ever
    /// sent through has no one to hand it to and drops it.
    fn post(&mut self, _delay_us: u64, _token: u64) {}
}

/// What an actor reports it did, for the runtime to price
/// ([`Network::charge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Parsed a document of `bytes` raw bytes into its relations.
    Parse {
        /// The document's size.
        bytes: usize,
    },
    /// Evaluated one node-query, successfully or not.
    Eval,
    /// Consulted the answer cache once, hit or miss.
    Lookup,
}

/// What an actor receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The kick-off: [`SimNet::start`](crate::SimNet::start) on the
    /// simulator, the first event of every TCP runtime.
    Start,
    /// A delivered network message.
    Net(Message),
    /// A token [`Network::post`]ed earlier came due.
    Timer(u64),
}

/// A protocol participant bound to one site address.
pub trait Actor: Any {
    /// Handles one event, answering through `net`.
    fn handle(&mut self, net: &mut dyn Network, event: Event);

    /// Invoked when a [`Fault::Crash`](crate::Fault) window ends: the
    /// process came back up, so volatile state (log table, in-flight
    /// bookkeeping) must reset as if the daemon had just been spawned.
    /// The default keeps everything — correct for stateless actors like
    /// plain web servers.
    fn on_restart(&mut self, _now_us: u64) {}
}

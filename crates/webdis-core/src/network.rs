//! The engine's view of the network — a minimal trait so the same server
//! and user-site code runs on the deterministic simulator and on real TCP.

use webdis_model::SiteAddr;
use webdis_net::Message;

/// The address of the WEBDIS query-server daemon for a site.
///
/// The paper's Query Receiver "listens on a common pre-specified port
/// number at all sites" (Section 4.4) — a *different* service from the
/// site's plain web server. The simulator keys endpoints by
/// [`SiteAddr`], so the daemon's address is derived by prefixing the
/// host: `wdqs.<host>`. A site whose daemon address has no endpoint is a
/// **non-participating** site (Section 7.1): clones to it are refused,
/// while plain document fetches at the site's own address still work.
pub fn query_server_addr(site: &SiteAddr) -> SiteAddr {
    SiteAddr {
        host: ["wdqs.", &site.host].concat().into(),
        port: site.port,
    }
}

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

/// What the engine needs from a transport.
pub trait Network {
    /// Dispatches one message. An `Err` means the destination endpoint
    /// refused the connection — for a result dispatch this is the passive
    /// termination signal of Section 2.8.
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError>;

    /// Monotonic time in microseconds (virtual on the simulator, wall
    /// clock on TCP) — used for log-table purge stamps and latency
    /// accounting.
    fn now_us(&self) -> u64;

    /// Accounts local processing time. On the simulator this occupies the
    /// endpoint's sequential processor (queueing later arrivals and
    /// delaying this handler's outgoing messages); on real transports the
    /// work *is* the time and this is a no-op.
    fn work(&mut self, _us: u64) {}

    /// How long the message currently being handled waited in this
    /// endpoint's inbound queue before processing began — the
    /// backpressure delay the `queue_us` stage span records. Modeled
    /// (virtual, bit-deterministic) on the simulator; wall-clock between
    /// channel enqueue and dequeue on TCP. Transports without queue
    /// visibility report zero.
    fn queue_wait_us(&self) -> u64 {
        0
    }

    /// Asks for `token` back after `delay_us`: the runtime under this
    /// network hands it to whoever it is running at that time — the
    /// simulator as an actor timer, the TCP `serve` loop as a deadline.
    /// A network that is only ever sent through has no one to hand it
    /// to and drops it.
    fn post(&mut self, _delay_us: u64, _token: u64) {}
}

/// A recording fake for unit tests: stores everything, optionally refusing
/// specific destinations.
#[derive(Debug, Default)]
pub struct RecordingNetwork {
    /// Messages accepted, in send order.
    pub sent: Vec<(SiteAddr, Message)>,
    /// Destinations that refuse connections.
    pub unreachable: Vec<SiteAddr>,
    /// Reported time.
    pub time_us: u64,
    /// Timers asked for and not yet handed back, `(due_us, token)`.
    pub posted: Vec<(u64, u64)>,
}

impl Network for RecordingNetwork {
    fn send(&mut self, to: &SiteAddr, msg: Message) -> Result<(), NetworkError> {
        if self.unreachable.contains(to) {
            return Err(NetworkError { to: to.clone() });
        }
        self.sent.push((to.clone(), msg));
        Ok(())
    }

    fn now_us(&self) -> u64 {
        self.time_us
    }

    fn post(&mut self, delay_us: u64, token: u64) {
        self.posted.push((self.time_us + delay_us, token));
    }
}

//! The engine's view of the network: the simulator's [`Network`] trait,
//! which the same server and user-site code runs over on the
//! deterministic simulator and on real TCP, and the daemon's address.

use webdis_model::SiteAddr;
use webdis_net::Message;
pub use webdis_sim::{Network, NetworkError, Work};

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

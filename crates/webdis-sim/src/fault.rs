//! What the network does wrong, said once for both runtimes: a run's
//! [`Fault`] list, and the per-message decision over it ([`Injector`])
//! that the simulator and the TCP transport both call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_model::SiteAddr;

use crate::ledger::Fate;

/// What a rate fault does to the message it claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message vanishes silently.
    Drop,
    /// The receiver cannot decode the message, so it is lost like a drop
    /// but traced as `message_corrupted` (over TCP the frame really goes
    /// out with one byte flipped).
    Corrupt,
    /// A *second* copy is delivered (the original arrives normally; on
    /// the simulator the extra copy draws its own latency jitter) and is
    /// traced as `message_duplicated`.
    Dup,
}

/// One thing the network does wrong. A run's faults are one list —
/// [`SimConfig::faults`](crate::SimConfig::faults) on the simulator, the
/// fault list a TCP cluster is started with; entries are independent and
/// individually removable (which is what a chaos shrinker does to them).
/// Links and crashes name endpoint addresses as the engine sends to them:
/// `wdqs.<host>` for a site's query server, the user site's own address
/// for results.
#[derive(Debug, Clone, PartialEq)]
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
    /// unaffected. Virtual µs on the simulator, µs since the cluster
    /// came up on TCP.
    Partition {
        /// Partition onset.
        start_us: u64,
        /// Partition healing time (exclusive).
        end_us: u64,
        /// Hosts on one side of the cut.
        side_a: Vec<String>,
        /// Hosts on the other side.
        side_b: Vec<String>,
    },
    /// A site crash: the endpoint goes down at `at_us` (a process death)
    /// and, with `down_us`, comes back that much later; without, it stays
    /// down. While it is down ([`Injector::down`]) a send to it is
    /// refused, a message reaching it is a dead letter and a timer to it
    /// is dropped. Its restart, an [`Agenda`] entry, is
    /// [`Actor::on_restart`] (fresh volatile state, e.g. an empty log
    /// table); `down_us: Some(0)` is a restart at one instant.
    ///
    /// [`Agenda`]: crate::Agenda
    /// [`Actor::on_restart`]: crate::Actor::on_restart
    Crash {
        /// The endpoint that crashes.
        site: SiteAddr,
        /// Crash onset, µs.
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

/// The per-message fault decision of both runtimes: a run's fault list
/// and the one seeded RNG its draws come from (the simulator's delivery
/// jitter included, so a seed fixes the whole run).
#[derive(Debug)]
pub struct Injector {
    faults: Vec<Fault>,
    rng: StdRng,
}

impl Injector {
    /// The decision over `faults`, drawing from `seed`.
    pub fn new(faults: Vec<Fault>, seed: u64) -> Injector {
        let rng = StdRng::seed_from_u64(seed);
        Injector { faults, rng }
    }

    /// True when `site` is down at `at_us`: the state its crash windows'
    /// edges up to `at_us` leave it in — the latest edge, ties in list
    /// order (`max_by_key` keeps the last), a window's down before its up.
    pub fn down(&self, site: &SiteAddr, at_us: u64) -> bool {
        let edges = self.faults.iter().filter_map(|fault| match fault {
            Fault::Crash {
                site: s,
                at_us: t,
                down_us,
            } if s == site && *t <= at_us => {
                let up = down_us.map(|d| t + d).filter(|&up| up <= at_us);
                Some(up.map_or((*t, true), |up| (up, false)))
            }
            _ => None,
        });
        edges.max_by_key(|&(t, _)| t).is_some_and(|(_, down)| down)
    }

    /// Decides the fate of a message departing at `at_us` from `from` to
    /// `to` (endpoint hosts), with deliveries jittered uniformly in
    /// `0..=jitter_us`: `Ok((jitter, copy))` delivers it after `jitter`
    /// µs of extra latency, and a second time after `copy`'s when a
    /// duplication claims it; `Err` is its loss — [`Fate::Lost`] (by
    /// `"partition"`, or the rate entry that claimed it, `"link"` or
    /// `"random"`) or [`Fate::Corrupted`]. The draws are, in order:
    /// partition (none), drop, corrupt, jitter, duplicate, the
    /// duplicate's jitter — each only when it can matter, so an inert
    /// entry or a zero jitter bound never shifts a seeded run.
    pub fn decide(
        &mut self,
        at_us: u64,
        from: &str,
        to: &str,
        jitter_us: u64,
    ) -> Result<(u64, Option<u64>), Fate> {
        if self.partitioned(at_us, from, to) {
            return Err(Fate::Lost("partition"));
        }
        if let Some(reason) = self.claims(FaultKind::Drop, from, to) {
            return Err(Fate::Lost(reason));
        }
        if self.claims(FaultKind::Corrupt, from, to).is_some() {
            return Err(Fate::Corrupted);
        }
        let first = self.jitter(jitter_us);
        let copy = self.claims(FaultKind::Dup, from, to).is_some();
        Ok((first, copy.then(|| self.jitter(jitter_us))))
    }

    /// Decides whether a rate fault of `kind` claims a message from
    /// `from` to `to`, and says which: the first entry naming the link is
    /// drawn, then the uniform entries' clamped sum.
    fn claims(&mut self, kind: FaultKind, from: &str, to: &str) -> Option<&'static str> {
        let mut on_link = None;
        let mut uniform = 0.0f64;
        for fault in &self.faults {
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
        self.faults.iter().any(|fault| match fault {
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

    /// One delivery's jitter draw (none drawn for a zero bound).
    fn jitter(&mut self, max_us: u64) -> u64 {
        if max_us > 0 {
            self.rng.gen_range(0..=max_us)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(host: &str) -> SiteAddr {
        SiteAddr {
            host: host.into(),
            port: 80,
        }
    }

    fn crash(host: &str, at_us: u64, down_us: Option<u64>) -> Fault {
        let site = addr(host);
        Fault::Crash {
            site,
            at_us,
            down_us,
        }
    }

    #[test]
    fn down_is_what_the_latest_edge_leaves_ties_in_list_order() {
        let injector = Injector::new(
            vec![
                // Down over [10, 20), then for good from 20: at 20 the
                // window's up comes first, in list order.
                crash("a", 10, Some(10)),
                crash("a", 20, None),
                // A restart at one instant.
                crash("b", 5, Some(0)),
                // For good from 30, but a later entry's window ends at 30.
                crash("c", 30, None),
                crash("c", 1, Some(29)),
            ],
            0,
        );
        let down = |host: &str, at_us| injector.down(&addr(host), at_us);
        let a = [9, 10, 19, 20, u64::MAX].map(|t| down("a", t));
        assert_eq!(a, [false, true, true, true, true]);
        assert_eq!([4, 5, 6].map(|t| down("b", t)), [false; 3]);
        let c = [0, 1, 29, 30, 99].map(|t| down("c", t));
        assert_eq!(c, [false, true, true, false, false]);
        assert!(!down("nobody", 10));
        assert!(!Injector::new(Vec::new(), 0).down(&addr("a"), 10));
    }
}

//! The one time-ordered queue of both runtimes — a crash window's restart,
//! an actor's deliveries, timers and kick-off, and the host's own entries,
//! on the simulator's virtual clock and a TCP thread's wall clock alike —
//! and the one loop over it, [`Runtime::run_to_host`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use webdis_model::SiteAddr;

use crate::actor::Event;
use crate::fault::Fault;

/// What an agenda entry is. The variants are declared in the order they
/// take at one instant: a [`Fault::Crash`]'s restart first (a site back
/// at `t` gets a delivery at `t` with fresh state), then what actors see,
/// then the host's own entries (it acts on a network that has done all
/// of `t`); each class in push order. Down-ness is no entry, but
/// [`Injector::down`](crate::Injector::down) of the fault list.
#[derive(Debug, Clone)]
pub enum Due {
    /// The site comes back up with fresh volatile state.
    Restart(SiteAddr),
    /// An event for the actor at this address.
    Actor(SiteAddr, Event),
    /// A token of whoever runs the loop, handed back to it.
    Host(u64),
}

#[derive(Debug, Clone)]
struct Entry {
    at_us: u64,
    seq: u64,
    due: Due,
}

impl Entry {
    fn key(&self) -> (u64, u8, u64) {
        let class = match self.due {
            Due::Restart(_) => 0,
            Due::Actor(..) => 1,
            Due::Host(_) => 2,
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

/// Everything that is going to happen, earliest first.
#[derive(Debug, Clone, Default)]
pub struct Agenda {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl Agenda {
    /// An agenda of the restarts of the [`Fault::Crash`] windows in
    /// `faults` of the sites `here` accepts, in list order.
    pub fn new(faults: &[Fault], here: impl Fn(&SiteAddr) -> bool) -> Agenda {
        let mut agenda = Agenda::default();
        for fault in faults {
            if let Fault::Crash {
                site,
                at_us,
                down_us: Some(down_us),
            } = fault
            {
                if here(site) {
                    agenda.push(at_us + down_us, Due::Restart(site.clone()));
                }
            }
        }
        agenda
    }

    /// Queues `due` at `at_us`.
    pub fn push(&mut self, at_us: u64, due: Due) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at_us, seq, due }));
    }

    /// When the earliest entry is due, if any is queued.
    pub fn next_us(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(entry)| entry.at_us)
    }

    /// Takes the earliest entry and its time, if it is due by `limit_us`.
    pub fn pop(&mut self, limit_us: u64) -> Option<(u64, Due)> {
        if self.next_us()? > limit_us {
            return None;
        }
        let Reverse(Entry { at_us, due, .. }) = self.heap.pop()?;
        Some((at_us, due))
    }

    /// True when no [`Due::Actor`] entry is queued. A scan: it is asked
    /// once per host tick, not per entry.
    pub fn idle(&self) -> bool {
        !self.iter().any(|(_, due)| matches!(due, Due::Actor(..)))
    }

    /// Every queued entry and its time, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Due)> {
        let entries = self.heap.iter();
        entries.map(|Reverse(entry)| (entry.at_us, &entry.due))
    }
}

/// What runs actors at times: the simulator, or one TCP endpoint and the
/// actor on it. The loop over its entries is said once,
/// [`Runtime::run_to_host`].
pub trait Runtime {
    /// The next entry due by `limit_us` and the instant it is taken at;
    /// `None` when nothing more comes by then.
    fn next(&mut self, limit_us: u64) -> Option<(u64, Due)>;

    /// Hands `event` to the actor at `to`, if it is up at `at_us`.
    fn deliver(&mut self, at_us: u64, to: SiteAddr, event: Event);

    /// `site` comes back up with fresh volatile state
    /// ([`Actor::on_restart`](crate::Actor::on_restart)).
    fn restart(&mut self, at_us: u64, site: SiteAddr);

    /// Where the host queues its own entries.
    fn agenda(&mut self) -> &mut Agenda;

    /// Hands every entry due by `limit_us` to its actor, in order,
    /// up to the first [`Due::Host`] entry, whose `(at_us, token)` it
    /// returns; `None` once [`Runtime::next`] has nothing more.
    fn run_to_host(&mut self, limit_us: u64) -> Option<(u64, u64)> {
        while let Some((at_us, due)) = self.next(limit_us) {
            match due {
                Due::Restart(site) => self.restart(at_us, site),
                Due::Actor(to, event) => self.deliver(at_us, to, event),
                Due::Host(token) => return Some((at_us, token)),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(h: &str) -> SiteAddr {
        SiteAddr {
            host: h.into(),
            port: 80,
        }
    }

    fn crash(site: &str, at_us: u64, down_us: Option<u64>) -> Fault {
        let site = addr(site);
        Fault::Crash {
            site,
            at_us,
            down_us,
        }
    }

    /// Pops everything, naming each entry.
    fn drain(agenda: &mut Agenda) -> Vec<String> {
        let name = |(at_us, due): (u64, Due)| match due {
            Due::Restart(site) => format!("up {}@{at_us}", site.host),
            Due::Actor(site, event) => format!("{event:?} {}@{at_us}", site.host),
            Due::Host(token) => format!("host{token}@{at_us}"),
        };
        std::iter::from_fn(|| agenda.pop(u64::MAX))
            .map(name)
            .collect()
    }

    #[test]
    fn one_instant_takes_restarts_then_actor_entries_then_host_entries_each_in_push_order() {
        // Zero-length windows on two sites and one for good, all at t = 5,
        // pushed after the host and actor entries of that instant; the
        // window for good makes no entry.
        let faults = [
            crash("a", 5, Some(0)),
            crash("b", 5, Some(0)),
            crash("a", 5, None),
        ];
        let mut agenda = Agenda::new(&faults, |_| true);
        agenda.push(5, Due::Host(2));
        agenda.push(5, Due::Actor(addr("a"), Event::Timer(7)));
        agenda.push(5, Due::Host(1));
        agenda.push(5, Due::Actor(addr("b"), Event::Start));
        agenda.push(4, Due::Host(0));
        assert_eq!(agenda.next_us(), Some(4));
        assert_eq!(
            drain(&mut agenda),
            [
                "host0@4",
                "up a@5",
                "up b@5",
                "Timer(7) a@5",
                "Start b@5",
                "host2@5",
                "host1@5",
            ]
        );
        assert_eq!(agenda.next_us(), None);
    }

    #[test]
    fn new_seeds_only_the_restarts_of_the_sites_here_accepts() {
        let faults = [
            crash("a", 1, Some(2)),
            Fault::rate(crate::FaultKind::Drop, 1.0),
            crash("b", 2, None),
            crash("a", 9, None),
        ];
        let mut agenda = Agenda::new(&faults, |site| *site == addr("a"));
        assert_eq!(drain(&mut agenda), ["up a@3"]);
        assert!(Agenda::new(&faults, |_| false).next_us().is_none());
    }

    #[test]
    fn pop_stops_at_the_limit_and_idle_counts_actor_entries_only() {
        let mut agenda = Agenda::new(&[crash("a", 1, Some(1))], |_| true);
        agenda.push(3, Due::Host(0));
        assert!(agenda.idle(), "restarts and host entries are not activity");
        agenda.push(3, Due::Actor(addr("a"), Event::Start));
        agenda.push(4, Due::Actor(addr("a"), Event::Timer(1)));
        assert!(!agenda.idle());
        assert_eq!(agenda.iter().count(), 4);
        assert!(agenda.pop(0).is_none(), "nothing is due at 0");
        assert_eq!(drain_to(&mut agenda, 3), 3);
        assert!(!agenda.idle(), "the timer at 4 is still queued");
        assert!(matches!(agenda.pop(4), Some((4, Due::Actor(..)))));
        assert!(agenda.idle());
    }

    /// Pops what is due at or before `limit_us`; returns how many.
    fn drain_to(agenda: &mut Agenda, limit_us: u64) -> usize {
        std::iter::from_fn(|| agenda.pop(limit_us)).count()
    }

    /// A runtime that logs what the loop hands it, its entries off its
    /// agenda.
    #[derive(Default)]
    struct Script {
        agenda: Agenda,
        log: Vec<String>,
    }

    impl Runtime for Script {
        fn next(&mut self, limit_us: u64) -> Option<(u64, Due)> {
            self.agenda.pop(limit_us)
        }
        fn deliver(&mut self, at_us: u64, to: SiteAddr, event: Event) {
            self.log.push(format!("{event:?} {}@{at_us}", to.host));
        }
        fn restart(&mut self, at_us: u64, site: SiteAddr) {
            self.log.push(format!("up {}@{at_us}", site.host));
        }
        fn agenda(&mut self) -> &mut Agenda {
            &mut self.agenda
        }
    }

    #[test]
    fn run_to_host_hands_each_entry_on_in_order_up_to_the_first_host_entry() {
        let mut rt = Script {
            agenda: Agenda::new(&[crash("a", 2, Some(1))], |_| true),
            log: Vec::new(),
        };
        rt.agenda.push(5, Due::Host(9));
        rt.agenda.push(1, Due::Actor(addr("a"), Event::Start));
        rt.agenda.push(3, Due::Host(4));
        rt.agenda.push(3, Due::Actor(addr("b"), Event::Timer(7)));
        rt.agenda.push(8, Due::Actor(addr("b"), Event::Timer(8)));
        assert_eq!(rt.run_to_host(u64::MAX), Some((3, 4)));
        let first = ["Start a@1", "up a@3", "Timer(7) b@3"];
        assert_eq!(rt.log, first);
        // Nothing past the limit is taken, however long the wait.
        assert_eq!(rt.run_to_host(4), None);
        assert_eq!(rt.log.len(), 3);
        assert_eq!(rt.run_to_host(7), Some((5, 9)));
        assert_eq!(rt.run_to_host(7), None);
        assert_eq!(rt.agenda.next_us(), Some(8));
        assert_eq!(rt.run_to_host(u64::MAX), None);
        assert_eq!(rt.log.last().map(String::as_str), Some("Timer(8) b@8"));
    }
}

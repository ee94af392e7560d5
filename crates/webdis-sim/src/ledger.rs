//! What became of a message, said once for both runtimes: the [`Fate`]
//! a send meets once the [`Injector`](crate::Injector) has ruled, metered
//! into the one [`WireCounters`] and traced by the [`Ledger`] — which the
//! simulator and the TCP transport both call.

use std::sync::Arc;

use webdis_net::{Message, WireCounters};
use webdis_trace::{RegistrySnapshot, TraceEvent, TraceHandle, TraceRecord};

/// What became of one message, in the meter's slot order
/// ([`webdis_net::meter::FATES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Put on the wire: `message_sent`.
    Sent,
    /// A second copy delivered: `message_duplicated` (never a second
    /// `message_sent`).
    Duplicated,
    /// Damaged in flight, so the receiver cannot decode it:
    /// `message_corrupted`.
    Corrupted,
    /// Lost to an injected fault (`random`, `link`, `partition`):
    /// `message_dropped` with that reason.
    Lost(&'static str),
    /// Its destination down or gone by delivery (`dead-letter`):
    /// `message_dropped` with that reason.
    DeadLetter(&'static str),
    /// Refused at send time, no endpoint up there: metered, not traced.
    Refused,
}

/// A traffic meter and the trace sink its records go to. Clones share
/// both: every daemon of a TCP cluster writes into one meter.
#[derive(Clone)]
pub struct Ledger {
    /// Messages and bytes per kind and fate.
    pub meter: Arc<WireCounters>,
    /// Where the `message_*` records go.
    pub tracer: TraceHandle,
}

impl Ledger {
    /// `msg`, `bytes` long encoded and addressed to host `to`, met `fate`:
    /// meters it, and stamps its record as seen by `site` at `at_us()`,
    /// which is read only when the tracer is on.
    pub fn record(
        &self,
        fate: Fate,
        msg: &Message,
        bytes: usize,
        to: &str,
        site: &str,
        at_us: impl FnOnce() -> u64,
    ) {
        let slot = match fate {
            Fate::Sent => 0,
            Fate::Duplicated => 1,
            Fate::Corrupted => 2,
            Fate::Lost(_) => 3,
            Fate::DeadLetter(_) => 4,
            Fate::Refused => 5,
        };
        self.meter.record(slot, msg, bytes as u64);
        if fate == Fate::Refused {
            return;
        }
        self.stamp(msg, site, at_us, |kind| {
            let (to, bytes) = (to.to_string(), bytes as u32);
            match fate {
                Fate::Sent => TraceEvent::MessageSent { kind, to, bytes },
                Fate::Duplicated => TraceEvent::MessageDuplicated { kind, to, bytes },
                Fate::Corrupted => TraceEvent::MessageCorrupted { kind, to, bytes },
                Fate::Lost(why) | Fate::DeadLetter(why) => {
                    let reason = why.to_string();
                    TraceEvent::MessageDropped {
                        kind,
                        to,
                        bytes,
                        reason,
                    }
                }
                Fate::Refused => unreachable!("a refusal leaves no record"),
            }
        });
    }

    /// Stamps `send_retried`: `msg` to host `to` goes out again, for the
    /// `attempt`-th time.
    pub fn retried(&self, msg: &Message, to: &str, attempt: u32, site: &str, at_us: u64) {
        let to = to.to_string();
        let event = |kind| TraceEvent::SendRetried { kind, to, attempt };
        self.stamp(msg, site, || at_us, event);
    }

    /// An arrival at host `host`: raises its inbound-queue gauges to
    /// `depth()` (this message and every one still waiting), which is read
    /// only when the tracer is on.
    pub fn arrival(&self, host: &str, depth: impl FnOnce() -> u64) {
        if self.tracer.enabled() {
            let depth = depth();
            self.tracer.gauge_max(&format!("queue_depth.{host}"), depth);
            self.tracer.gauge_max("queue_depth_high_water", depth);
        }
    }

    /// `snap` with the meter laid over it as `net.<kind>.*` counters: what
    /// a daemon's `/metrics` serves.
    pub fn overlay(&self, mut snap: RegistrySnapshot) -> RegistrySnapshot {
        for (name, value) in self.meter.counters() {
            snap.put_counter(&format!("net.{name}"), value);
        }
        snap
    }

    /// Records what `event` builds from `msg`'s kind label, stamped with
    /// the query `msg` belongs to and a clone's hop count, so triage can
    /// match a lost message to its in-flight visit. Builds nothing unless
    /// the tracer is on.
    fn stamp(
        &self,
        msg: &Message,
        site: &str,
        at_us: impl FnOnce() -> u64,
        event: impl FnOnce(String) -> TraceEvent,
    ) {
        self.tracer.emit_with(|| {
            let (query, hop) = match msg {
                Message::Query(c) => (Some(c.id.clone()), Some(c.hops)),
                Message::Report(r) => (Some(r.id.clone()), None),
                Message::Ack(a) => (Some(a.id.clone()), None),
                Message::Fetch(_) | Message::FetchReply(_) => (None, None),
            };
            TraceRecord {
                time_us: at_us(),
                site: site.to_string(),
                query,
                hop,
                event: event(msg.kind().to_string()),
            }
        });
    }
}

//! Per-message-kind wire accounting, the one traffic meter of both
//! runtimes. The paper's evaluation reasons about protocol overhead in
//! bytes per message type (queries shipped vs. results returned vs.
//! completion traffic); this meter keeps, per kind, messages and encoded
//! bytes for every [fate](FATES) a message can meet. Only
//! `webdis_sim::Ledger` writes it, for the simulator and the TCP transport
//! alike; lock-free atomics let TCP reactor threads share it without a
//! lock. The simulator's `Metrics` is read off it, and both runtimes
//! expose its [`counters`](WireCounters::counters) as `net.<kind>.*`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::messages::Message;

/// The stable message-kind labels, in wire-tag order — exactly the
/// strings [`Message::kind`] returns.
pub const MESSAGE_KINDS: [&str; 5] = ["query", "report", "ack", "fetch", "fetch-reply"];

/// What can become of a message, in slot order, by the name each is
/// exposed under: put on the wire, a second copy delivered, damaged in
/// flight, lost to an injected fault, its destination gone by delivery,
/// refused at send time.
pub const FATES: [&str; 6] = [
    "sent",
    "duplicated",
    "corrupted",
    "dropped",
    "dead_letter",
    "refused",
];

/// The slot of [`FATES`] a message put on the wire is counted in.
pub const SENT: usize = 0;

#[derive(Default)]
struct Slot {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

/// Thread-safe per-kind, per-fate counters of messages and their encoded
/// bytes — plus the dials and `write` calls of the connections carrying them.
#[derive(Default)]
pub struct WireCounters {
    slots: [[Slot; FATES.len()]; MESSAGE_KINDS.len()],
    connects: AtomicU64,
    writes: AtomicU64,
}

fn kind_index(kind: &str) -> Option<usize> {
    MESSAGE_KINDS.iter().position(|&k| k == kind)
}

impl WireCounters {
    /// Counts one `msg` of `bytes` encoded bytes under fate `fate` (an
    /// index into [`FATES`]): two relaxed atomic adds.
    pub fn record(&self, fate: usize, msg: &Message, bytes: u64) {
        if let Some(kind) = kind_index(msg.kind()) {
            let slot = &self.slots[kind][fate];
            slot.msgs.fetch_add(1, Ordering::Relaxed);
            slot.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one connection dialled by an endpoint. With persistent
    /// connections this stays near the number of (endpoint, listener)
    /// pairs however many messages flow.
    pub fn record_connect(&self) {
        self.connects.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections dialled so far.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Records `n` `write` calls on a dialled connection.
    pub fn record_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    /// `write` calls on dialled connections so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Messages and bytes of `kind` that met fate `fate` (zero for an
    /// unknown kind).
    pub fn get(&self, fate: usize, kind: &str) -> (u64, u64) {
        let Some(idx) = kind_index(kind) else {
            return (0, 0);
        };
        let slot = &self.slots[idx][fate];
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&slot.msgs), load(&slot.bytes))
    }

    /// Messages sent of `kind` (0 for unknown kinds).
    pub fn msgs_of(&self, kind: &str) -> u64 {
        self.get(SENT, kind).0
    }

    /// Total bytes sent across every kind.
    pub fn total_bytes(&self) -> u64 {
        MESSAGE_KINDS.iter().map(|k| self.get(SENT, k).1).sum()
    }

    /// The counters as registry-style `(name, value)` pairs, for kinds
    /// and fates that saw traffic: `<kind>.msgs` and `<kind>.bytes` for
    /// sent messages, `<kind>.<fate>_msgs` and `<kind>.<fate>_bytes` for
    /// the rest — and `connects` and `writes` (dials, and `write` calls on
    /// dialled connections) once nonzero.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, n) in [("connects", self.connects()), ("writes", self.writes())] {
            if n > 0 {
                out.push((name.to_string(), n));
            }
        }
        for kind in MESSAGE_KINDS {
            for (fate, name) in FATES.iter().enumerate() {
                let (msgs, bytes) = self.get(fate, kind);
                if msgs > 0 {
                    let name = (fate != SENT).then(|| format!("{name}_"));
                    let name = name.unwrap_or_default();
                    out.push((format!("{kind}.{name}msgs"), msgs));
                    out.push((format!("{kind}.{name}bytes"), bytes));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{AckMsg, FetchRequest, FetchResponse, Message, QueryId};
    use crate::wire::encode_message;
    use webdis_model::Url;

    fn fetch() -> Message {
        Message::Fetch(FetchRequest {
            url: Url::parse("http://a.test/doc.html").unwrap(),
            reply_host: "b.test".into(),
            reply_port: 9900,
        })
    }

    #[test]
    fn counters_accumulate_per_kind_and_fate() {
        let w = WireCounters::default();
        let reply = Message::FetchReply(FetchResponse {
            url: Url::parse("http://a.test/").unwrap(),
            html: None,
        });
        w.record(SENT, &fetch(), 300);
        w.record(SENT, &fetch(), 200);
        w.record(SENT, &reply, 90);
        w.record(3, &fetch(), 310);
        assert_eq!(w.msgs_of("fetch"), 2);
        assert_eq!(w.get(SENT, "fetch"), (2, 500));
        assert_eq!(w.get(3, "fetch"), (1, 310));
        assert_eq!(w.msgs_of("fetch-reply"), 1);
        assert_eq!(w.total_bytes(), 590, "only sent traffic");

        let pairs = w.counters();
        assert!(pairs.contains(&("fetch.msgs".to_string(), 2)));
        assert!(pairs.contains(&("fetch.bytes".to_string(), 500)));
        assert!(pairs.contains(&("fetch.dropped_msgs".to_string(), 1)));
        assert!(pairs.contains(&("fetch.dropped_bytes".to_string(), 310)));
        assert!(!pairs.iter().any(|(k, _)| k == "connects"));
        assert!(!pairs.iter().any(|(k, _)| k == "writes"));
        w.record_connect();
        w.record_writes(2);
        let pairs = w.counters();
        assert!(pairs.contains(&("connects".to_string(), 1)));
        assert!(pairs.contains(&("writes".to_string(), 2)));
        assert!(
            !pairs.iter().any(|(k, _)| k.starts_with("ack.")),
            "zero-traffic kinds stay out of the report: {pairs:?}"
        );
    }

    #[test]
    fn unknown_kinds_read_zero() {
        let w = WireCounters::default();
        assert_eq!(w.get(SENT, "smoke-signal"), (0, 0));
        assert!(w.counters().is_empty());
    }

    #[test]
    fn every_message_kind_is_metered() {
        let ack = Message::Ack(AckMsg {
            id: QueryId {
                user: "u".into(),
                host: "h.test".into(),
                port: 1,
                query_num: 1,
            },
        });
        let w = WireCounters::default();
        for msg in [fetch(), ack] {
            w.record(SENT, &msg, encode_message(&msg).len() as u64);
            assert_eq!(w.msgs_of(msg.kind()), 1);
        }
    }
}

//! Per-message-kind wire accounting.
//!
//! The paper's evaluation reasons about protocol overhead in bytes per
//! message type (queries shipped vs. results returned vs. completion
//! traffic); this meter is the transport-level collection point for
//! that accounting. Lock-free atomics so a transport can share one
//! meter across every daemon thread; the snapshot feeds the metrics
//! registry (`net.<kind>.msgs` / `net.<kind>.bytes`) and the doctor's
//! byte report.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::messages::Message;

/// The stable message-kind labels, in wire-tag order — exactly the
/// strings [`Message::kind`] returns.
pub const MESSAGE_KINDS: [&str; 5] = ["query", "report", "ack", "fetch", "fetch-reply"];

#[derive(Default)]
struct KindMeter {
    msgs: AtomicU64,
    bytes: AtomicU64,
    dropped_msgs: AtomicU64,
    dropped_bytes: AtomicU64,
}

/// Thread-safe per-kind counters of wire traffic: messages and bytes
/// sent, and messages and bytes dropped by fault injection — plus how
/// many connections were dialled to carry them.
#[derive(Default)]
pub struct WireCounters {
    kinds: [KindMeter; MESSAGE_KINDS.len()],
    connects: AtomicU64,
}

fn kind_index(kind: &str) -> Option<usize> {
    MESSAGE_KINDS.iter().position(|&k| k == kind)
}

impl WireCounters {
    /// A zeroed meter.
    pub fn new() -> WireCounters {
        WireCounters::default()
    }

    /// Records one message of `kind` put on the wire at `bytes` encoded
    /// size. Unknown kinds are ignored (there are none today, but the
    /// meter must never panic on the hot path).
    pub fn record_sent(&self, kind: &str, bytes: u64) {
        if let Some(idx) = kind_index(kind) {
            self.kinds[idx].msgs.fetch_add(1, Ordering::Relaxed);
            self.kinds[idx].bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one message lost to fault injection instead of sent.
    pub fn record_dropped(&self, kind: &str, bytes: u64) {
        if let Some(idx) = kind_index(kind) {
            self.kinds[idx].dropped_msgs.fetch_add(1, Ordering::Relaxed);
            self.kinds[idx]
                .dropped_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one connection dialled by a sender's pool. With
    /// persistent connections this stays near the number of (sender,
    /// receiver) pairs however many messages flow.
    pub fn record_connect(&self) {
        self.connects.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections dialled so far.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Messages sent of `kind` (0 for unknown kinds).
    pub fn msgs_of(&self, kind: &str) -> u64 {
        kind_index(kind).map_or(0, |i| self.kinds[i].msgs.load(Ordering::Relaxed))
    }

    /// Bytes sent of `kind` (0 for unknown kinds).
    pub fn bytes_of(&self, kind: &str) -> u64 {
        kind_index(kind).map_or(0, |i| self.kinds[i].bytes.load(Ordering::Relaxed))
    }

    /// Total bytes sent across every kind.
    pub fn total_bytes(&self) -> u64 {
        self.kinds
            .iter()
            .map(|k| k.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// The counters as registry-style `(name, value)` pairs —
    /// `<kind>.msgs`, `<kind>.bytes`, plus `.dropped_*` variants for
    /// kinds that saw drops — and `connects` once a connection was
    /// dialled. Zero-traffic kinds are skipped.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let connects = self.connects();
        if connects > 0 {
            out.push(("connects".to_string(), connects));
        }
        for (idx, &kind) in MESSAGE_KINDS.iter().enumerate() {
            let m = &self.kinds[idx];
            let (msgs, bytes) = (
                m.msgs.load(Ordering::Relaxed),
                m.bytes.load(Ordering::Relaxed),
            );
            if msgs > 0 {
                out.push((format!("{kind}.msgs"), msgs));
                out.push((format!("{kind}.bytes"), bytes));
            }
            let (dmsgs, dbytes) = (
                m.dropped_msgs.load(Ordering::Relaxed),
                m.dropped_bytes.load(Ordering::Relaxed),
            );
            if dmsgs > 0 {
                out.push((format!("{kind}.dropped_msgs"), dmsgs));
                out.push((format!("{kind}.dropped_bytes"), dbytes));
            }
        }
        out
    }
}

impl std::fmt::Debug for WireCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.counters().iter().map(|(k, v)| (k.clone(), *v)))
            .finish()
    }
}

/// Compile-time tie between the label table and [`Message::kind`]:
/// every variant's label must appear in [`MESSAGE_KINDS`].
pub fn kind_is_metered(msg: &Message) -> bool {
    kind_index(msg.kind()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FetchRequest, Message};
    use crate::wire::encode_message;

    #[test]
    fn counters_accumulate_per_kind() {
        let w = WireCounters::new();
        w.record_sent("query", 300);
        w.record_sent("query", 200);
        w.record_sent("report", 90);
        w.record_dropped("query", 310);
        assert_eq!(w.msgs_of("query"), 2);
        assert_eq!(w.bytes_of("query"), 500);
        assert_eq!(w.msgs_of("report"), 1);
        assert_eq!(w.total_bytes(), 590);

        let pairs = w.counters();
        assert!(pairs.contains(&("query.msgs".to_string(), 2)));
        assert!(pairs.contains(&("query.bytes".to_string(), 500)));
        assert!(pairs.contains(&("query.dropped_msgs".to_string(), 1)));
        assert!(pairs.contains(&("query.dropped_bytes".to_string(), 310)));
        assert!(!pairs.iter().any(|(k, _)| k == "connects"));
        w.record_connect();
        assert!(w.counters().contains(&("connects".to_string(), 1)));
        assert!(
            !pairs.iter().any(|(k, _)| k.starts_with("ack.")),
            "zero-traffic kinds stay out of the report: {pairs:?}"
        );
    }

    #[test]
    fn unknown_kinds_are_ignored_not_panicked() {
        let w = WireCounters::new();
        w.record_sent("smoke-signal", 10);
        assert_eq!(w.msgs_of("smoke-signal"), 0);
        assert!(w.counters().is_empty());
    }

    #[test]
    fn every_message_kind_is_metered() {
        let fetch = Message::Fetch(FetchRequest {
            url: webdis_model::Url::parse("http://a.test/doc.html").unwrap(),
            reply_host: "b.test".into(),
            reply_port: 9900,
        });
        assert!(kind_is_metered(&fetch));
        let w = WireCounters::new();
        w.record_sent(fetch.kind(), encode_message(&fetch).len() as u64);
        assert_eq!(w.msgs_of("fetch"), 1);
        assert!(w.bytes_of("fetch") > 0);
    }
}

//! Traffic metering for experiments.

use std::collections::BTreeMap;
use std::fmt;

use webdis_model::SiteAddr;

/// Message/byte counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Messages sent.
    pub messages: u64,
    /// Total encoded payload bytes.
    pub bytes: u64,
}

impl KindStats {
    fn add(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }
}

/// Aggregate network metrics for a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// All traffic.
    pub total: KindStats,
    /// Traffic broken down by message kind (`query`, `report`, `fetch`,
    /// `fetch-reply`).
    pub by_kind: BTreeMap<&'static str, KindStats>,
    /// Messages received per site (server load distribution).
    pub received_by_site: BTreeMap<SiteAddr, u64>,
    /// Accounted processing time per endpoint, µs (zero unless the
    /// engine charges a processing-cost model via `Ctx::work`).
    pub busy_us_by_site: BTreeMap<SiteAddr, u64>,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Encoded bytes of dropped messages — metered separately so `total`
    /// reflects traffic that actually traversed the network.
    pub dropped_bytes: u64,
    /// Messages corrupted in flight by fault injection (lost through
    /// the decode path; metered separately from clean drops).
    pub corrupted: u64,
    /// Encoded bytes of corrupted messages.
    pub corrupted_bytes: u64,
    /// Extra message copies delivered by duplication injection (the
    /// originals are counted in `total` as usual).
    pub duplicated: u64,
    /// Encoded bytes of the extra duplicate copies.
    pub duplicated_bytes: u64,
    /// Messages whose destination endpoint had deregistered by delivery
    /// time (e.g. results arriving after passive termination).
    pub dead_letters: u64,
    /// Sends that failed synchronously (destination not registered).
    pub refused: u64,
    /// Virtual time of the last delivered event, in microseconds — the
    /// makespan of the run.
    pub last_delivery_us: u64,
}

impl Metrics {
    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: u64) {
        self.total.add(bytes);
        self.by_kind.entry(kind).or_default().add(bytes);
    }

    pub(crate) fn record_drop(&mut self, bytes: u64) {
        self.dropped += 1;
        self.dropped_bytes += bytes;
    }

    pub(crate) fn record_corrupt(&mut self, bytes: u64) {
        self.corrupted += 1;
        self.corrupted_bytes += bytes;
    }

    pub(crate) fn record_dup(&mut self, bytes: u64) {
        self.duplicated += 1;
        self.duplicated_bytes += bytes;
    }

    pub(crate) fn record_delivery(&mut self, to: &SiteAddr, at_us: u64) {
        *self.received_by_site.entry(to.clone()).or_default() += 1;
        self.last_delivery_us = self.last_delivery_us.max(at_us);
    }

    pub(crate) fn record_work(&mut self, at: &SiteAddr, us: u64) {
        *self.busy_us_by_site.entry(at.clone()).or_default() += us;
    }

    /// Byte count for one message kind (0 if none were sent).
    pub fn bytes_of(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).map(|s| s.bytes).unwrap_or(0)
    }

    /// Message count for one message kind.
    pub fn messages_of(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).map(|s| s.messages).unwrap_or(0)
    }

    /// The most heavily loaded site and its message count.
    pub fn max_site_load(&self) -> Option<(&SiteAddr, u64)> {
        self.received_by_site
            .iter()
            .max_by_key(|(_, n)| *n)
            .map(|(s, n)| (s, *n))
    }

    /// Total accounted processing time across endpoints.
    pub fn total_busy_us(&self) -> u64 {
        self.busy_us_by_site.values().sum()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total: {} msgs, {} bytes; makespan {} us",
            self.total.messages, self.total.bytes, self.last_delivery_us
        )?;
        for (kind, s) in &self.by_kind {
            writeln!(
                f,
                "  {kind:<12} {:>6} msgs {:>10} bytes",
                s.messages, s.bytes
            )?;
        }
        if self.dropped + self.dead_letters + self.refused > 0 {
            writeln!(
                f,
                "  dropped {} ({} bytes) / dead-letters {} / refused {}",
                self.dropped, self.dropped_bytes, self.dead_letters, self.refused
            )?;
        }
        if self.corrupted + self.duplicated > 0 {
            writeln!(
                f,
                "  corrupted {} ({} bytes) / duplicated {} ({} bytes)",
                self.corrupted, self.corrupted_bytes, self.duplicated, self.duplicated_bytes
            )?;
        }
        if !self.busy_us_by_site.is_empty() {
            writeln!(f, "busy time: {} us total", self.total_busy_us())?;
            for (site, us) in &self.busy_us_by_site {
                writeln!(f, "  {site:<20} {us:>10} us")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_kind() {
        let mut m = Metrics::default();
        m.record_send("query", 100);
        m.record_send("query", 50);
        m.record_send("report", 10);
        assert_eq!(m.total.messages, 3);
        assert_eq!(m.total.bytes, 160);
        assert_eq!(m.messages_of("query"), 2);
        assert_eq!(m.bytes_of("report"), 10);
        assert_eq!(m.bytes_of("fetch"), 0);
    }

    #[test]
    fn tracks_site_load_and_makespan() {
        let mut m = Metrics::default();
        let a = SiteAddr {
            host: "a".into(),
            port: 80,
        };
        let b = SiteAddr {
            host: "b".into(),
            port: 80,
        };
        m.record_delivery(&a, 10);
        m.record_delivery(&a, 30);
        m.record_delivery(&b, 20);
        assert_eq!(m.last_delivery_us, 30);
        let (site, n) = m.max_site_load().unwrap();
        assert_eq!(site, &a);
        assert_eq!(n, 2);
    }

    #[test]
    fn display_contains_counts() {
        let mut m = Metrics::default();
        m.record_send("query", 7);
        let s = m.to_string();
        assert!(s.contains("1 msgs, 7 bytes"), "{s}");
        assert!(
            !s.contains("busy time"),
            "no busy section when nothing was charged: {s}"
        );
    }

    #[test]
    fn display_lists_per_site_busy_time() {
        let mut m = Metrics::default();
        let a = SiteAddr {
            host: "a.test".into(),
            port: 80,
        };
        let b = SiteAddr {
            host: "b.test".into(),
            port: 80,
        };
        m.record_work(&a, 1_500);
        m.record_work(&a, 500);
        m.record_work(&b, 250);
        let s = m.to_string();
        assert!(s.contains("busy time: 2250 us total"), "{s}");
        assert!(s.contains("a.test") && s.contains("2000"), "{s}");
        assert!(s.contains("b.test") && s.contains("250"), "{s}");
    }
}

//! The Current Hosts Table as it stood before its rows were indexed by
//! `(node, state)`: every add and delete scans every row, and
//! `complete()` walks them all. Kept, verbatim but for its imports, as the
//! oracle `tests/prop_cht.rs` holds the keyed table to: the same
//! completion verdicts, counters, live entries and expired entries, in
//! the same order, on every operation sequence. Never fix a bug here.

use webdis::core::{ChtStats, CompletionMode};
use webdis::model::Url;
use webdis::net::{ChtEntry, CloneState};

#[derive(Debug, Clone)]
struct Row {
    node: Url,
    state: CloneState,
    deleted: bool,
    /// Clock value when the row was added (drives stale-entry expiry).
    added_at_us: u64,
}

/// The table itself.
#[derive(Debug)]
pub struct Cht {
    mode: CompletionMode,
    rows: Vec<Row>,
    tombstones: Vec<(Url, CloneState, u64)>,
    clock_us: u64,
    /// Operation counters.
    pub stats: ChtStats,
}

impl Cht {
    /// An empty table, keeping the books `mode` asks for (strict only
    /// under [`CompletionMode::ChtStrict`]).
    pub fn new(mode: CompletionMode) -> Cht {
        Cht {
            mode,
            rows: Vec::new(),
            tombstones: Vec::new(),
            clock_us: 0,
            stats: ChtStats::default(),
        }
    }

    /// Advances the table's clock (entries added afterwards carry this
    /// timestamp; expiry measures against it).
    pub fn tick(&mut self, now_us: u64) {
        self.clock_us = self.clock_us.max(now_us);
    }

    /// Would a server's log table *silently* drop an arrival in `new`
    /// given an earlier arrival in `old` at the same node? Only identical
    /// states qualify: identity is symmetric, so this verdict is the same
    /// at the user site and at the server regardless of which message
    /// arrives first. Proper-subsumption drops are order-sensitive and
    /// therefore always reported by the servers (never mirrored here).
    fn server_would_drop(&self, new: &CloneState, old: &CloneState) -> bool {
        new == old
    }

    /// Merges one announced entry.
    pub fn add(&mut self, entry: &ChtEntry) {
        // A deletion that arrived ahead of this announcement?
        if let Some(pos) = self
            .tombstones
            .iter()
            .position(|(n, s, _)| n == &entry.node && s == &entry.state)
        {
            self.tombstones.swap_remove(pos);
            self.rows.push(Row {
                node: entry.node.clone(),
                state: entry.state.clone(),
                deleted: true,
                added_at_us: self.clock_us,
            });
            self.stats.added += 1;
            self.stats.deleted += 1;
            return;
        }
        if self.mode == CompletionMode::Cht {
            let skip = self
                .rows
                .iter()
                .any(|r| r.node == entry.node && self.server_would_drop(&entry.state, &r.state));
            if skip {
                self.stats.skipped += 1;
                return;
            }
        }
        self.rows.push(Row {
            node: entry.node.clone(),
            state: entry.state.clone(),
            deleted: false,
            added_at_us: self.clock_us,
        });
        self.stats.added += 1;
    }

    /// Applies the deletion carried by a node report (the "topmost entry"
    /// of Section 2.7.1).
    pub fn delete(&mut self, node: &Url, state: &CloneState) {
        if let Some(row) = self
            .rows
            .iter_mut()
            .find(|r| !r.deleted && r.node == *node && r.state == *state)
        {
            row.deleted = true;
            self.stats.deleted += 1;
            return;
        }
        if self.mode == CompletionMode::Cht {
            // A deletion for an add this site skipped (or will skip): some
            // entry for the node makes the server-drop rule fire on this
            // state. Includes the identical-but-already-deleted case.
            let ignorable = self
                .rows
                .iter()
                .any(|r| r.node == *node && self.server_would_drop(state, &r.state));
            if ignorable {
                self.stats.deletes_ignored += 1;
                return;
            }
        }
        self.tombstones
            .push((node.clone(), state.clone(), self.clock_us));
        self.stats.tombstoned += 1;
    }

    /// Declares entries that have made no progress for `timeout_us` as
    /// **failed** — the graceful-recovery fallback of Section 7.1 for
    /// crashed query servers, whose clones (and hence deletions) will
    /// never arrive. Returns the failed `(node, state)` pairs; the rows
    /// are marked deleted so completion detection can conclude. Stale
    /// tombstones are discarded the same way. Expiry trades exactness for
    /// liveness: an over-eager timeout can only declare a query complete
    /// *with* an explicit list of unresolved nodes, never silently.
    pub fn expire_stale(&mut self, timeout_us: u64) -> Vec<(Url, CloneState)> {
        // Until a whole timeout has passed, nothing can be that old.
        let Some(cutoff) = self.clock_us.checked_sub(timeout_us) else {
            return Vec::new();
        };
        let mut failed = Vec::new();
        for row in &mut self.rows {
            if !row.deleted && row.added_at_us <= cutoff {
                row.deleted = true;
                failed.push((row.node.clone(), row.state.clone()));
            }
        }
        self.tombstones.retain(|(node, state, at)| {
            if *at <= cutoff {
                failed.push((node.clone(), state.clone()));
                false
            } else {
                true
            }
        });
        self.stats.expired += failed.len() as u64;
        failed
    }

    /// True when every entry is deleted and no tombstone is outstanding —
    /// the paper's "all entries in the CHTable are marked deleted".
    pub fn complete(&self) -> bool {
        self.tombstones.is_empty() && self.rows.iter().all(|r| r.deleted)
    }

    /// Live (non-deleted) entries — the nodes currently believed to host
    /// clones, which is what an *active* termination scheme would message.
    pub fn live_entries(&self) -> impl Iterator<Item = (&Url, &CloneState)> {
        self.rows
            .iter()
            .filter(|r| !r.deleted)
            .map(|r| (&r.node, &r.state))
    }

    /// Human-readable dump of live entries and tombstones (debugging and
    /// the `/why-incomplete` style diagnostics in harnesses).
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.rows {
            if !r.deleted {
                let _ = writeln!(out, "live: {} {}", r.node, r.state);
            }
        }
        for (n, s, _) in &self.tombstones {
            let _ = writeln!(out, "tomb: {n} {s}");
        }
        out
    }

    /// Total rows ever added (deleted included).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table never saw an entry.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

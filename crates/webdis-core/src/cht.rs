//! The Current Hosts Table (Section 2.7.1) — the user-site's completion
//! detector.
//!
//! For every clone forwarded anywhere in the Web, the forwarding server
//! first ships a CHT entry `(node, state)` to the user site; when the
//! clone is processed, the processing server's report deletes that entry.
//! The query is complete when every entry is deleted.
//!
//! Two refinements beyond the paper's description keep detection *exact*
//! on an asynchronous network:
//!
//! 1. **Tombstones.** A report can overtake the merge announcing its node
//!    (reports and merges travel on independent connections). A deletion
//!    with no matching entry is held as a tombstone and consumed by the
//!    matching add when it arrives; completion additionally requires the
//!    tombstone set to be empty.
//! 2. **Identical-only paper mode.** Section 3.1.1 says an entry
//!    "equivalent to a previous entry should not be entered into the CHT"
//!    because the target's log table will drop that clone silently. That
//!    is only *order-safe* for **identical** states: identity is
//!    symmetric, so the user's skip verdict matches the server's drop
//!    verdict no matter which message arrives first. Proper subsumption
//!    (`L*1·G` vs `L*2·G`) is order-sensitive — the server's verdict
//!    depends on which clone arrived there first, which the user cannot
//!    know — so servers *report* subsumption drops (a tiny `Duplicate`
//!    notice) and the user never skips on subsumption. The skip rule here
//!    is therefore exact-match only, plus two reorder guards: (a) a
//!    skipped add consumes a matching tombstone, and (b) a deletion whose
//!    state matches an already-deleted identical entry is ignored (it
//!    corresponds to an add this site skipped).
//!    [`CompletionMode::ChtStrict`] avoids the whole scheme by accounting
//!    one add and one delete per clone.

use std::collections::hash_map::{Entry, HashMap};

use webdis_model::Url;
use webdis_net::{ChtEntry, CloneState};

use crate::config::CompletionMode;

/// Counters exposed for the completion-protocol experiment (T11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChtStats {
    /// Entries added.
    pub added: u64,
    /// Adds skipped by the paper-mode equivalence rule.
    pub skipped: u64,
    /// Deletions applied to a live entry.
    pub deleted: u64,
    /// Deletions held as tombstones (report overtook its announcement).
    pub tombstoned: u64,
    /// Paper-mode deletions ignored because they correspond to a skipped
    /// add.
    pub deletes_ignored: u64,
    /// Entries declared failed by stale-entry expiry.
    pub expired: u64,
}

impl ChtStats {
    /// The counters as `(name, value)` pairs, for ingestion into a
    /// `webdis_trace::Registry` (the unified reporting surface).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("added", self.added),
            ("skipped", self.skipped),
            ("deleted", self.deleted),
            ("tombstoned", self.tombstoned),
            ("deletes_ignored", self.deletes_ignored),
            ("expired", self.expired),
        ]
    }
}

#[derive(Debug, Clone)]
struct Row {
    node: Url,
    state: CloneState,
    deleted: bool,
    /// Clock value when the row was added (drives stale-entry expiry).
    added_at_us: u64,
    /// The next row with the same `(node, state)`.
    next: Option<usize>,
}

/// The table itself.
///
/// Rows are kept in added order; each `(node, state)` names the first of
/// its rows not known to be deleted and its last, so an add or a delete
/// finds its rows without a scan: completion costs O(entries).
#[derive(Debug)]
pub struct Cht {
    mode: CompletionMode,
    rows: Vec<Row>,
    slots: HashMap<(Url, CloneState), (usize, usize)>,
    live: usize,
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
            slots: HashMap::new(),
            live: 0,
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

    /// Merges one announced entry: one probe of `slots` decides whether
    /// it is skipped, appended to its `(node, state)`'s rows or starts
    /// them.
    pub fn add(&mut self, entry: &ChtEntry) {
        // A deletion that arrived ahead of this announcement?
        let early = if self.tombstones.is_empty() {
            None
        } else {
            let key = (&entry.node, &entry.state);
            self.tombstones.iter().position(|(n, s, _)| (n, s) == key)
        };
        let at = self.rows.len();
        match self.slots.entry((entry.node.clone(), entry.state.clone())) {
            // A server's log table *silently* drops an arrival in a state
            // identical to an earlier one at the node. Identity is
            // symmetric, so this verdict is the same at the user site and
            // at the server whichever message arrives first;
            // proper-subsumption drops are order-sensitive and therefore
            // always reported by the servers (never mirrored here).
            Entry::Occupied(_) if early.is_none() && self.mode == CompletionMode::Cht => {
                self.stats.skipped += 1;
                return;
            }
            Entry::Occupied(slot) => {
                let last = &mut slot.into_mut().1;
                self.rows[std::mem::replace(last, at)].next = Some(at);
            }
            Entry::Vacant(slot) => _ = slot.insert((at, at)),
        }
        if let Some(pos) = early {
            self.tombstones.swap_remove(pos);
            self.stats.deleted += 1;
        }
        self.stats.added += 1;
        self.live += usize::from(early.is_none());
        self.rows.push(Row {
            node: entry.node.clone(),
            state: entry.state.clone(),
            deleted: early.is_some(),
            added_at_us: self.clock_us,
            next: None,
        });
    }

    /// Applies the deletion carried by a node report (the "topmost entry"
    /// of Section 2.7.1): the first live row of its `(node, state)`.
    pub fn delete(&mut self, node: &Url, state: &CloneState) {
        let key = (node.clone(), state.clone());
        if let Some((first, _)) = self.slots.get_mut(&key) {
            // Rows before `first` are deleted: each is passed once.
            let mut at = Some(*first);
            while let Some(row) = at.filter(|&r| self.rows[r].deleted) {
                at = self.rows[row].next;
            }
            if let Some(at) = at {
                (*first, self.rows[at].deleted) = (at, true);
                self.live -= 1;
                self.stats.deleted += 1;
                return;
            }
            // A deletion for an add this site skipped (or will skip): some
            // entry for the node makes the server-drop rule fire on this
            // state. Includes the identical-but-already-deleted case.
            if self.mode == CompletionMode::Cht {
                self.stats.deletes_ignored += 1;
                return;
            }
        }
        self.tombstones.push((key.0, key.1, self.clock_us));
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
                self.live -= 1;
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
        self.tombstones.is_empty() && self.live == 0
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

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn st(num_q: u32, pre: &str) -> CloneState {
        CloneState {
            num_q,
            rem_pre: webdis_pre::parse(pre).unwrap(),
        }
    }

    fn entry(node: &str, num_q: u32, pre: &str) -> ChtEntry {
        ChtEntry {
            node: url(node),
            state: st(num_q, pre),
        }
    }

    fn paper() -> Cht {
        Cht::new(CompletionMode::Cht)
    }

    #[test]
    fn empty_table_is_complete() {
        assert!(paper().complete());
    }

    #[test]
    fn add_then_delete_completes() {
        let mut c = paper();
        c.add(&entry("http://a/", 1, "N"));
        assert!(!c.complete());
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(c.complete());
        assert_eq!(c.stats.added, 1);
        assert_eq!(c.stats.deleted, 1);
    }

    #[test]
    fn delete_before_add_uses_tombstone() {
        let mut c = paper();
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(!c.complete(), "outstanding tombstone blocks completion");
        c.add(&entry("http://a/", 1, "N"));
        assert!(c.complete());
        assert_eq!(c.stats.tombstoned, 1);
    }

    #[test]
    fn an_add_consumes_a_tombstone_when_its_slot_already_exists() {
        // Two deletions ahead of two announcements: the second add finds
        // both a row for its `(node, state)` and a tombstone for it.
        for mode in [CompletionMode::Cht, CompletionMode::ChtStrict] {
            let mut c = Cht::new(mode);
            c.delete(&url("http://a/"), &st(1, "N"));
            c.delete(&url("http://a/"), &st(1, "N"));
            c.add(&entry("http://a/", 1, "N"));
            assert!(!c.complete(), "{mode:?}: one tombstone is left");
            c.add(&entry("http://a/", 1, "N"));
            assert!(c.complete(), "{mode:?}");
            let s = &c.stats;
            assert_eq!((s.added, s.deleted, s.skipped), (2, 2, 0), "{mode:?}");
            // A third, unmatched add is skipped as identical or appended
            // behind the two deleted rows, where a delete finds it.
            c.add(&entry("http://a/", 1, "N"));
            assert_eq!(c.complete(), mode == CompletionMode::Cht);
            c.delete(&url("http://a/"), &st(1, "N"));
            assert!(c.complete(), "{mode:?}");
            assert_eq!(c.stats.tombstoned, 2, "{mode:?}");
        }
    }

    #[test]
    fn paper_mode_skips_identical_add() {
        let mut c = paper();
        c.add(&entry("http://a/", 1, "N"));
        c.add(&entry("http://a/", 1, "N"));
        assert_eq!(c.stats.skipped, 1);
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(c.complete());
    }

    #[test]
    fn subsumed_add_is_kept_and_cleared_by_reported_drop() {
        // Proper subsumption is order-sensitive, so the user never skips
        // on it: the entry is added and cleared by the server's explicit
        // Duplicate (or processing) report.
        let mut c = paper();
        c.add(&entry("http://a/", 1, "L*4·G"));
        c.add(&entry("http://a/", 1, "L*2·G"));
        assert_eq!(c.stats.added, 2);
        assert_eq!(c.stats.skipped, 0);
        c.delete(&url("http://a/"), &st(1, "L*2·G")); // reported drop
        c.delete(&url("http://a/"), &st(1, "L*4·G"));
        assert!(c.complete());
    }

    #[test]
    fn paper_mode_keeps_superset_add() {
        let mut c = paper();
        c.add(&entry("http://a/", 1, "L*2·G"));
        c.add(&entry("http://a/", 1, "L*4·G"));
        assert_eq!(c.stats.added, 2);
        c.delete(&url("http://a/"), &st(1, "L*2·G"));
        c.delete(&url("http://a/"), &st(1, "L*4·G"));
        assert!(c.complete());
    }

    #[test]
    fn strict_mode_counts_every_add() {
        let mut c = Cht::new(CompletionMode::ChtStrict);
        c.add(&entry("http://a/", 1, "N"));
        c.add(&entry("http://a/", 1, "N"));
        assert_eq!(c.stats.added, 2);
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(!c.complete(), "two adds need two deletes in strict mode");
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(c.complete());
    }

    #[test]
    fn diamond_race_any_merge_order_converges() {
        // The subsumption diamond under reordering: both states are
        // always added (no subsumption skip) and both drops/processings
        // are reported, so every interleaving converges.
        let mut c = paper();
        c.add(&entry("http://x/", 1, "L*3·G"));
        c.add(&entry("http://x/", 1, "L*2·G"));
        assert_eq!(c.stats.added, 2);
        c.delete(&url("http://x/"), &st(1, "L*2·G"));
        c.delete(&url("http://x/"), &st(1, "L*3·G"));
        assert!(c.complete());
    }

    #[test]
    fn diamond_race_delete_first_then_adds() {
        // Worst order: the narrow clone's delete arrives before *any* add
        // for the node, then both adds, then the wide delete.
        let mut c = paper();
        c.delete(&url("http://x/"), &st(1, "L*2·G")); // tombstone
        c.add(&entry("http://x/", 1, "L*3·G"));
        c.add(&entry("http://x/", 1, "L*2·G")); // consumes tombstone
        assert!(!c.complete());
        c.delete(&url("http://x/"), &st(1, "L*3·G"));
        assert!(
            c.complete(),
            "tombstone must be consumed by the matching add"
        );
    }

    #[test]
    fn identical_skip_then_duplicate_delete_ignored() {
        // An identical add is skipped; if (via some race) a delete for
        // that identical state arrives when the entry is already deleted,
        // it is ignored rather than tombstoned.
        let mut c = paper();
        c.add(&entry("http://x/", 1, "N"));
        c.add(&entry("http://x/", 1, "N")); // skipped (identical)
        assert_eq!(c.stats.skipped, 1);
        c.delete(&url("http://x/"), &st(1, "N"));
        assert!(c.complete());
        c.delete(&url("http://x/"), &st(1, "N")); // late duplicate notice
        assert_eq!(c.stats.deletes_ignored, 1);
        assert!(c.complete());
    }

    #[test]
    fn nothing_expires_before_a_whole_timeout() {
        // An entry added at t = 0 is not stale at the first sweep, which
        // the user site runs a quarter timeout in.
        let mut c = paper();
        c.add(&entry("http://a/", 1, "N"));
        c.delete(&url("http://b/"), &st(1, "N")); // a tombstone, also at 0
        for now in [250, 999] {
            c.tick(now);
            assert!(c.expire_stale(1_000).is_empty(), "at {now}");
        }
        c.tick(1_000);
        assert_eq!(c.expire_stale(1_000).len(), 2);
        assert_eq!(c.stats.expired, 2);
        assert!(c.complete());
    }

    #[test]
    fn different_nodes_do_not_interact() {
        let mut c = paper();
        c.add(&entry("http://a/", 1, "N"));
        c.add(&entry("http://b/", 1, "N"));
        assert_eq!(c.stats.added, 2);
        c.delete(&url("http://a/"), &st(1, "N"));
        assert!(!c.complete());
        assert_eq!(c.live_entries().count(), 1);
    }

    #[test]
    fn different_num_q_same_node_both_tracked() {
        let mut c = paper();
        c.add(&entry("http://a/", 2, "N"));
        c.add(&entry("http://a/", 1, "N"));
        assert_eq!(c.stats.added, 2);
    }

    #[test]
    fn containment_drops_are_reported_not_mirrored() {
        // General-mode containment drops are non-identical, hence always
        // reported by the server; the user adds and clears both entries.
        let mut c = paper();
        c.add(&entry("http://a/", 1, "L·L*"));
        c.add(&entry("http://a/", 1, "L·L·L*")); // contained → server reports the drop
        assert_eq!(c.stats.added, 2);
        c.delete(&url("http://a/"), &st(1, "L·L·L*"));
        c.delete(&url("http://a/"), &st(1, "L·L*"));
        assert!(c.complete());
    }
}

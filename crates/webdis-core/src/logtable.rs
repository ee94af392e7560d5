//! The node-query log table (Section 3.1.1).
//!
//! Each query server remembers, per `(query id, node URL)`, the states in
//! which clones have already been processed there. A new arrival is
//! compared against the logged states:
//!
//! * identical state, or `A*m·B` with a logged `A*n·B` and `m ≤ n` —
//!   every path the arrival could take was already covered: **drop**;
//! * `A*m·B` with a logged `A*n·B` and `m > n` — the arrival covers
//!   strictly more: the logged entry is **replaced** with the new state
//!   and the clone proceeds with the rewritten PRE `A·A*(m-1)·B`, which
//!   forces this node to act as a PureRouter (the multiple-rewrite rule);
//! * otherwise the state is logged and the clone is processed normally.
//!
//! [`LogMode::General`] additionally drops arrivals whose PRE *language*
//! is contained in a logged one (a search over derivative pairs) even
//! when the syntactic rule cannot relate them — an extension measured by
//! the ablation benches.

use std::collections::HashMap;

use webdis_model::Url;
use webdis_net::{CloneState, QueryId};
use webdis_pre::{check_subsumption, contains, Pre, Subsumption};

use crate::config::LogMode;

/// What the server should do with an arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOutcome {
    /// Process the clone with `pre` as the effective remaining PRE.
    /// `rewritten` is true when the superset rule replaced the PRE.
    Process {
        /// The (possibly rewritten) PRE to continue with.
        pre: Pre,
        /// True when the multiple-rewrite was applied.
        rewritten: bool,
    },
    /// Equivalent work was already done here: drop the clone.
    Drop {
        /// True when the matching log record is *hidden* from the user
        /// site's CHT — it was created by a same-node stage continuation
        /// rather than an announced forward. The user cannot mirror such
        /// a drop, so the server must report it explicitly even in the
        /// paper's silent-drop CHT mode.
        hidden: bool,
        /// True when the arrival state is *identical* to the logged one.
        /// Only identical drops may be silent: the identity relation is
        /// symmetric, so the user site's skip rule reaches the same
        /// verdict regardless of merge order. Proper-subsumption drops
        /// are order-sensitive (the server's verdict depends on which
        /// clone arrived first) and must be reported.
        exact: bool,
    },
}

/// One logged record.
#[derive(Debug, Clone)]
struct LogRow {
    state: CloneState,
    logged_at_us: u64,
    /// True when the state was announced to the user site's CHT (a
    /// forwarded arrival); false for same-node stage continuations, which
    /// only the server knows about.
    announced: bool,
}

/// The per-server log table.
#[derive(Debug, Default)]
pub struct LogTable {
    rows: HashMap<(QueryId, Url), Vec<LogRow>>,
}

impl LogTable {
    /// An empty table.
    pub fn new() -> LogTable {
        LogTable::default()
    }

    /// Number of logged records (across all queries and nodes).
    pub fn len(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Checks an arrival against the log and records it. `now_us` stamps
    /// the record for later purging; `announced` says whether the state
    /// is visible to the user site's CHT (false for same-node stage
    /// continuations).
    pub fn check(
        &mut self,
        mode: LogMode,
        id: &QueryId,
        node: &Url,
        state: &CloneState,
        announced: bool,
        now_us: u64,
    ) -> LogOutcome {
        if mode == LogMode::Off {
            return LogOutcome::Process {
                pre: state.rem_pre.clone(),
                rewritten: false,
            };
        }
        let rows = self.rows.entry((id.clone(), node.clone())).or_default();
        for row in rows.iter_mut() {
            if row.state.num_q != state.num_q {
                continue;
            }
            match check_subsumption(&state.rem_pre, &row.state.rem_pre) {
                Subsumption::Identical => {
                    return LogOutcome::Drop {
                        hidden: !row.announced,
                        exact: true,
                    };
                }
                Subsumption::SubsumedByExisting => {
                    return LogOutcome::Drop {
                        hidden: !row.announced,
                        exact: false,
                    };
                }
                Subsumption::SupersetOfExisting { rewritten } => {
                    // Replace the existing entry with the wider state
                    // (Section 3.1.1, step 1 of the m > n case). The
                    // replacement's visibility is the new state's.
                    row.state = state.clone();
                    row.logged_at_us = now_us;
                    row.announced = announced;
                    return LogOutcome::Process {
                        pre: rewritten,
                        rewritten: true,
                    };
                }
                Subsumption::Unrelated => {
                    if mode == LogMode::General && contains(&state.rem_pre, &row.state.rem_pre) {
                        return LogOutcome::Drop {
                            hidden: !row.announced,
                            exact: false,
                        };
                    }
                }
            }
        }
        rows.push(LogRow {
            state: state.clone(),
            logged_at_us: now_us,
            announced,
        });
        LogOutcome::Process {
            pre: state.rem_pre.clone(),
            rewritten: false,
        }
    }

    /// Purges records logged before `before_us` (Section 3.1.1: "old
    /// entries in the table are periodically purged"). Over-eager purging
    /// costs recomputation, never correctness.
    pub fn purge(&mut self, before_us: u64) -> usize {
        let mut removed = 0;
        self.rows.retain(|_, rows| {
            let before = rows.len();
            rows.retain(|r| r.logged_at_us >= before_us);
            removed += before - rows.len();
            !rows.is_empty()
        });
        removed
    }

    /// Drops every record of one query (used after passive termination).
    pub fn purge_query(&mut self, id: &QueryId) {
        self.rows.retain(|(qid, _), _| qid != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid() -> QueryId {
        QueryId {
            user: "u".into(),
            host: "h".into(),
            port: 1,
            query_num: 1,
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn state(num_q: u32, pre: &str) -> CloneState {
        CloneState {
            num_q,
            rem_pre: webdis_pre::parse(pre).unwrap(),
        }
    }

    #[test]
    fn first_arrival_processes_and_logs() {
        let mut t = LogTable::new();
        let out = t.check(
            LogMode::Paper,
            &qid(),
            &url("http://n/"),
            &state(2, "L*2·G"),
            true,
            0,
        );
        assert!(matches!(
            out,
            LogOutcome::Process {
                rewritten: false,
                ..
            }
        ));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn identical_arrival_dropped() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        t.check(LogMode::Paper, &qid(), &n, &state(2, "L*2·G"), true, 0);
        let out = t.check(LogMode::Paper, &qid(), &n, &state(2, "L*2·G"), true, 1);
        assert_eq!(
            out,
            LogOutcome::Drop {
                hidden: false,
                exact: true
            }
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn subsumed_arrival_dropped() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        t.check(LogMode::Paper, &qid(), &n, &state(2, "L*2·G"), true, 0);
        assert_eq!(
            t.check(LogMode::Paper, &qid(), &n, &state(2, "L*1·G"), true, 1),
            LogOutcome::Drop {
                hidden: false,
                exact: false
            }
        );
    }

    #[test]
    fn superset_arrival_rewrites_and_replaces() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        t.check(LogMode::Paper, &qid(), &n, &state(2, "L*2·G"), true, 0);
        let out = t.check(LogMode::Paper, &qid(), &n, &state(2, "L*4·G"), true, 1);
        match out {
            LogOutcome::Process {
                pre,
                rewritten: true,
            } => {
                assert_eq!(pre, webdis_pre::parse("L·L*3·G").unwrap());
            }
            other => panic!("expected rewrite, got {other:?}"),
        }
        // The log now holds the wider state: L*3·G is dropped.
        assert_eq!(
            t.check(LogMode::Paper, &qid(), &n, &state(2, "L*3·G"), true, 2),
            LogOutcome::Drop {
                hidden: false,
                exact: false
            }
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_num_q_is_independent() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        t.check(LogMode::Paper, &qid(), &n, &state(2, "N"), true, 0);
        let out = t.check(LogMode::Paper, &qid(), &n, &state(1, "N"), true, 1);
        assert!(matches!(out, LogOutcome::Process { .. }));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn different_node_or_query_is_independent() {
        let mut t = LogTable::new();
        t.check(
            LogMode::Paper,
            &qid(),
            &url("http://a/"),
            &state(1, "N"),
            true,
            0,
        );
        let out = t.check(
            LogMode::Paper,
            &qid(),
            &url("http://b/"),
            &state(1, "N"),
            true,
            0,
        );
        assert!(matches!(out, LogOutcome::Process { .. }));
        let other = QueryId {
            query_num: 2,
            ..qid()
        };
        let out = t.check(
            LogMode::Paper,
            &other,
            &url("http://a/"),
            &state(1, "N"),
            true,
            0,
        );
        assert!(matches!(out, LogOutcome::Process { .. }));
    }

    #[test]
    fn off_mode_never_drops_or_logs() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        for _ in 0..3 {
            let out = t.check(LogMode::Off, &qid(), &n, &state(1, "N"), true, 0);
            assert!(matches!(out, LogOutcome::Process { .. }));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn general_mode_drops_contained_languages() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        // L·L* logged; L·L·L* is contained but syntactically unrelated.
        t.check(LogMode::General, &qid(), &n, &state(1, "L·L*"), true, 0);
        assert_eq!(
            t.check(LogMode::General, &qid(), &n, &state(1, "L·L·L*"), true, 1),
            LogOutcome::Drop {
                hidden: false,
                exact: false
            }
        );
        // Paper mode cannot relate these shapes.
        let mut t2 = LogTable::new();
        t2.check(LogMode::Paper, &qid(), &n, &state(1, "L·L*"), true, 0);
        assert!(matches!(
            t2.check(LogMode::Paper, &qid(), &n, &state(1, "L·L·L*"), true, 1),
            LogOutcome::Process { .. }
        ));
    }

    #[test]
    fn purge_removes_old_entries_only() {
        let mut t = LogTable::new();
        let n = url("http://n/");
        t.check(LogMode::Paper, &qid(), &n, &state(2, "N"), true, 10);
        t.check(LogMode::Paper, &qid(), &n, &state(1, "N"), true, 100);
        assert_eq!(t.purge(50), 1);
        assert_eq!(t.len(), 1);
        // The purged state would be recomputed (correctness unaffected).
        assert!(matches!(
            t.check(LogMode::Paper, &qid(), &n, &state(2, "N"), true, 200),
            LogOutcome::Process { .. }
        ));
    }

    #[test]
    fn purge_query_clears_one_query() {
        let mut t = LogTable::new();
        let other = QueryId {
            query_num: 2,
            ..qid()
        };
        t.check(
            LogMode::Paper,
            &qid(),
            &url("http://a/"),
            &state(1, "N"),
            true,
            0,
        );
        t.check(
            LogMode::Paper,
            &other,
            &url("http://a/"),
            &state(1, "N"),
            true,
            0,
        );
        t.purge_query(&qid());
        assert_eq!(t.len(), 1);
    }
}

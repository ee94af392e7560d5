//! The node-query log table (Section 3.1.1).
//!
//! Each query server remembers, per query and node URL, the states in
//! which clones have already been processed there (a [`QueryLog`] per
//! query). A new arrival is compared against the logged states:
//!
//! * identical state, or `A*m·B` with a logged `A*n·B` and `m ≤ n` —
//!   every path the arrival could take was already covered: **drop**;
//! * `A*m·B` with a logged `A*n·B` and `m > n` — the arrival covers
//!   strictly more: the logged entry is **replaced** with the new state
//!   and the clone proceeds with the rewritten PRE `A·A*(m-1)·B`, which
//!   forces this node to act as a PureRouter (the multiple-rewrite rule);
//! * otherwise the state is logged and the clone is processed normally,
//!   even when its PRE's language is contained in a logged one that the
//!   syntactic rule cannot relate: the paper's rule is the whole rule.
//!
//! A row holds no time: the "periodic purge" forgets a query's whole log
//! once the query has been idle for a period (`ServerEngine::purge_log`).

use std::collections::HashMap;

use webdis_model::Url;
use webdis_net::{CloneState, QueryId};
use webdis_pre::{check_subsumption, Pre, Subsumption};

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
    /// True when the state was announced to the user site's CHT (a
    /// forwarded arrival); false for same-node stage continuations, which
    /// only the server knows about.
    announced: bool,
}

/// One query's log at one site: per node, the states processed there. It
/// holds no time; a daemon forgets it whole, with the rest of what it
/// knows about the query, once no clone of the query has arrived for a
/// purge period.
#[derive(Debug, Default)]
pub struct QueryLog {
    rows: HashMap<Url, Vec<LogRow>>,
}

impl QueryLog {
    /// Number of logged records (across all nodes).
    pub(crate) fn len(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Checks an arrival at `node` against the log and records it.
    /// `announced` says whether the state is visible to the user site's
    /// CHT (false for same-node stage continuations).
    pub fn check(
        &mut self,
        mode: LogMode,
        node: &Url,
        state: &CloneState,
        announced: bool,
    ) -> LogOutcome {
        if mode == LogMode::Off {
            return LogOutcome::Process {
                pre: state.rem_pre.clone(),
                rewritten: false,
            };
        }
        let rows = self.rows.entry(node.clone()).or_default();
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
                    row.announced = announced;
                    return LogOutcome::Process {
                        pre: rewritten,
                        rewritten: true,
                    };
                }
                Subsumption::Unrelated => {}
            }
        }
        rows.push(LogRow {
            state: state.clone(),
            announced,
        });
        LogOutcome::Process {
            pre: state.rem_pre.clone(),
            rewritten: false,
        }
    }
}

/// Per-query logs under one map, kept under this name and signature
/// because the wall-clock benchmark (`hwbench/`) calls it; a daemon keeps
/// each [`QueryLog`] with the rest of its per-query state.
#[derive(Debug, Default)]
pub struct LogTable(HashMap<QueryId, QueryLog>);

impl LogTable {
    /// An empty table.
    pub fn new() -> LogTable {
        LogTable::default()
    }

    /// [`QueryLog::check`] in query `id`'s log; the time is not read.
    pub fn check(
        &mut self,
        mode: LogMode,
        id: &QueryId,
        node: &Url,
        state: &CloneState,
        announced: bool,
        _now_us: u64,
    ) -> LogOutcome {
        let log = self.0.entry(id.clone()).or_default();
        log.check(mode, node, state, announced)
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
        let mut t = QueryLog::default();
        let out = t.check(LogMode::Paper, &url("http://n/"), &state(2, "L*2·G"), true);
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
        let mut t = QueryLog::default();
        let n = url("http://n/");
        t.check(LogMode::Paper, &n, &state(2, "L*2·G"), true);
        let out = t.check(LogMode::Paper, &n, &state(2, "L*2·G"), true);
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
        let mut t = QueryLog::default();
        let n = url("http://n/");
        t.check(LogMode::Paper, &n, &state(2, "L*2·G"), true);
        assert_eq!(
            t.check(LogMode::Paper, &n, &state(2, "L*1·G"), true),
            LogOutcome::Drop {
                hidden: false,
                exact: false
            }
        );
    }

    #[test]
    fn superset_arrival_rewrites_and_replaces() {
        let mut t = QueryLog::default();
        let n = url("http://n/");
        t.check(LogMode::Paper, &n, &state(2, "L*2·G"), true);
        let out = t.check(LogMode::Paper, &n, &state(2, "L*4·G"), true);
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
            t.check(LogMode::Paper, &n, &state(2, "L*3·G"), true),
            LogOutcome::Drop {
                hidden: false,
                exact: false
            }
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn different_num_q_is_independent() {
        let mut t = QueryLog::default();
        let n = url("http://n/");
        t.check(LogMode::Paper, &n, &state(2, "N"), true);
        let out = t.check(LogMode::Paper, &n, &state(1, "N"), true);
        assert!(matches!(out, LogOutcome::Process { .. }));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn different_node_or_query_is_independent() {
        let mut t = LogTable::new();
        let (a, b) = (url("http://a/"), url("http://b/"));
        t.check(LogMode::Paper, &qid(), &a, &state(1, "N"), true, 0);
        let out = t.check(LogMode::Paper, &qid(), &b, &state(1, "N"), true, 0);
        assert!(matches!(out, LogOutcome::Process { .. }));
        let other = QueryId {
            query_num: 2,
            ..qid()
        };
        let out = t.check(LogMode::Paper, &other, &a, &state(1, "N"), true, 0);
        assert!(matches!(out, LogOutcome::Process { .. }));
        let out = t.check(LogMode::Paper, &qid(), &a, &state(1, "N"), true, 0);
        assert!(matches!(out, LogOutcome::Drop { .. }));
    }

    #[test]
    fn off_mode_never_drops_or_logs() {
        let mut t = QueryLog::default();
        let n = url("http://n/");
        for _ in 0..3 {
            let out = t.check(LogMode::Off, &n, &state(1, "N"), true);
            assert!(matches!(out, LogOutcome::Process { .. }));
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn paper_rule_processes_a_contained_language_it_cannot_relate() {
        // L·L·L* is contained in the logged L·L*, but not as `A*m·B`
        // against `A*n·B`: the paper's rule processes it.
        let mut t = QueryLog::default();
        let n = url("http://n/");
        t.check(LogMode::Paper, &n, &state(1, "L·L*"), true);
        assert!(matches!(
            t.check(LogMode::Paper, &n, &state(1, "L·L·L*"), true),
            LogOutcome::Process {
                rewritten: false,
                ..
            }
        ));
        assert_eq!(t.len(), 2);
    }
}

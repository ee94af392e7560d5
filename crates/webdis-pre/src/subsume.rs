//! Log-table equivalence between PREs (Section 3.1.1).
//!
//! When a clone arrives at a node that has previously seen the same query,
//! the remaining PREs are compared. The paper defines equivalence for the
//! head-bounded-repetition shape `A*m·B` versus a logged `A*n·B`:
//!
//! * `m ≤ n` — the new clone can only take paths already taken: **drop** it;
//! * `m > n` — some paths are new; replace the log entry and **rewrite** the
//!   clone's PRE to `A·A*(m-1)·B`, forcing the current node to act as a
//!   PureRouter (the paper's "query-multiple-rewrite" approach — rewriting
//!   to `A^(n+1)·A*(m-n-1)·B` in one step would make later log comparisons
//!   ambiguous, as Section 3.1.1 explains).
//!
//! Exact syntactic identity is the remaining equivalence. Anything else is
//! unrelated and processed normally — and so is a superset arrival whose
//! rewrite could not ship.

use crate::ast::Pre;
use crate::closure::closure;

/// Result of comparing a newly arrived PRE against a logged PRE for the
/// same (node, query, remaining-query-count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subsumption {
    /// The two PREs are syntactically identical: the clone is an exact
    /// duplicate and is dropped.
    Identical,
    /// New is `A*m·B`, logged is `A*n·B` with `m ≤ n`: every path the new
    /// clone could take was already covered. Dropped.
    SubsumedByExisting,
    /// New is `A*m·B`, logged is `A*n·B` with `m > n`: the new clone covers
    /// strictly more. The log entry must be replaced with the new state and
    /// the clone continues with the rewritten PRE (this node becomes a
    /// PureRouter for it).
    SupersetOfExisting {
        /// `A·A*(m-1)·B` — the paper's multiple-rewrite form, whose
        /// derivative [`closure`](crate::closure()) is within the bounds
        /// [`parse`](crate::parse()) holds a query to.
        rewritten: Pre,
    },
    /// No equivalence of the above forms, or a superset whose rewrite
    /// could not ship; process normally and add a fresh log entry.
    Unrelated,
}

/// Splits a PRE of the shape `A*m·B` (where `B` may be ε) into
/// `(A, m, B)`. Returns `None` for any other shape.
pub fn head_bounded(pre: &Pre) -> Option<(&Pre, u32, Pre)> {
    match pre {
        Pre::Bounded(a, m) => Some((a, *m, Pre::Empty)),
        Pre::Seq(head, tail) => match &**head {
            Pre::Bounded(a, m) => Some((a, *m, (**tail).clone())),
            _ => None,
        },
        _ => None,
    }
}

/// The paper's rewrite for the superset case: `A*m·B → A·A*(m-1)·B`.
///
/// The leading mandatory `A` forces the node performing the rewrite to
/// forward (act as a PureRouter) rather than re-evaluate, because the
/// rewritten PRE is no longer nullable at this node even if `B` contains
/// the null link.
pub fn rewrite_superset(a: &Pre, m: u32, b: &Pre) -> Pre {
    debug_assert!(m >= 1, "rewrite requires m > n >= 0, so m >= 1");
    Pre::seq(
        a.clone(),
        Pre::seq(Pre::bounded(a.clone(), m - 1), b.clone()),
    )
}

/// Compares a newly arrived PRE against a logged one, per Section 3.1.1.
/// The caller must already have matched node URL, query id, and the number
/// of remaining node-queries.
pub fn check_subsumption(new: &Pre, logged: &Pre) -> Subsumption {
    if new == logged {
        return Subsumption::Identical;
    }
    if let (Some((a_new, m, b_new)), Some((a_old, n, b_old))) =
        (head_bounded(new), head_bounded(logged))
    {
        if a_new == a_old && b_new == b_old {
            if m <= n {
                return Subsumption::SubsumedByExisting;
            }
            // The rewrite lies outside the arrival's derivative closure,
            // so it is held to the bounds `parse` holds a query to; one
            // that could not ship leaves the arrival to be processed whole.
            let rewritten = rewrite_superset(a_new, m, &b_new);
            if closure(&rewritten).is_ok() {
                return Subsumption::SupersetOfExisting { rewritten };
            }
        }
    }
    Subsumption::Unrelated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use webdis_model::LinkType::{Global as G, Interior as I, Local as L};

    #[test]
    fn identical_is_detected() {
        let p = parse("L*2·G").unwrap();
        let q = parse("L*2·G").unwrap();
        assert_eq!(check_subsumption(&p, &q), Subsumption::Identical);
    }

    #[test]
    fn paper_example_smaller_bound_is_subsumed() {
        // Log has L*2·G, new arrival has L*1·G: drop.
        let new = parse("L*1·G").unwrap();
        let logged = parse("L*2·G").unwrap();
        assert_eq!(
            check_subsumption(&new, &logged),
            Subsumption::SubsumedByExisting
        );
    }

    #[test]
    fn paper_example_larger_bound_rewrites() {
        // Log has L*2·G, new arrival has L*4·G: rewrite to L·L*3·G.
        let new = parse("L*4·G").unwrap();
        let logged = parse("L*2·G").unwrap();
        match check_subsumption(&new, &logged) {
            Subsumption::SupersetOfExisting { rewritten } => {
                assert_eq!(rewritten, parse("L·L*3·G").unwrap());
                // The rewritten PRE is not nullable: the node acts as a
                // PureRouter.
                assert!(!rewritten.nullable());
                // Language check: rewritten accepts L·L·L·G (the paper's
                // example of a previously unprocessed path) ...
                assert!(rewritten.accepts(&[L, L, L, G]));
                assert!(rewritten.accepts(&[L, G]));
                // ... but no longer the zero-L path.
                assert!(!rewritten.accepts(&[G]));
            }
            other => panic!("expected superset, got {other:?}"),
        }
    }

    #[test]
    fn equal_bounds_identical_not_subsumed_variant() {
        let new = parse("L*3·G").unwrap();
        let logged = parse("L*3·G").unwrap();
        // Equal bound hits the Identical arm first.
        assert_eq!(check_subsumption(&new, &logged), Subsumption::Identical);
    }

    #[test]
    fn bare_bounded_without_tail() {
        let new = parse("L*1").unwrap();
        let logged = parse("L*5").unwrap();
        assert_eq!(
            check_subsumption(&new, &logged),
            Subsumption::SubsumedByExisting
        );
        match check_subsumption(&logged, &new) {
            Subsumption::SupersetOfExisting { rewritten } => {
                assert_eq!(rewritten, parse("L·L*4").unwrap());
            }
            other => panic!("expected superset, got {other:?}"),
        }
    }

    #[test]
    fn different_inner_or_tail_is_unrelated() {
        let a = parse("L*2·G").unwrap();
        let b = parse("G*2·G").unwrap();
        assert_eq!(check_subsumption(&a, &b), Subsumption::Unrelated);
        let c = parse("L*2·L").unwrap();
        assert_eq!(check_subsumption(&a, &c), Subsumption::Unrelated);
    }

    #[test]
    fn non_bounded_shapes_are_unrelated() {
        let a = parse("L·G").unwrap();
        let b = parse("G·L").unwrap();
        assert_eq!(check_subsumption(&a, &b), Subsumption::Unrelated);
        // A real L·L PRE must not be confused with a rewritten L*2 — this
        // is exactly the ambiguity the paper's multiple-rewrite avoids.
        let real = parse("L·L").unwrap();
        let bounded = parse("L*2").unwrap();
        assert_eq!(check_subsumption(&real, &bounded), Subsumption::Unrelated);
    }

    #[test]
    fn compound_inner_expression() {
        let new = parse("(G|L)*4·I").unwrap();
        let logged = parse("(G|L)*2·I").unwrap();
        match check_subsumption(&new, &logged) {
            Subsumption::SupersetOfExisting { rewritten } => {
                assert_eq!(rewritten, parse("(G|L)·(G|L)*3·I").unwrap());
                assert!(rewritten.accepts(&[G, L, G, I]));
            }
            other => panic!("expected superset, got {other:?}"),
        }
    }

    #[test]
    fn a_rewrite_that_could_not_ship_leaves_the_arrival_whole() {
        // `A·A*(m-1)·B` is a level deeper than `A*m·B` when `B` is the
        // deeper part: at the depth bound the rewrite could not ship.
        let pre = |m: u32, gs: usize| parse(&format!("(L·G)*{m}·{}", vec!["G"; gs].join("·")));
        let (new, logged) = (pre(2, 10).unwrap(), pre(1, 10).unwrap());
        assert!(matches!(
            check_subsumption(&new, &logged),
            Subsumption::SupersetOfExisting { .. }
        ));
        let deepest = crate::MAX_DEPTH as usize;
        let (new, logged) = (pre(2, deepest).unwrap(), pre(1, deepest).unwrap());
        assert_eq!(new.depth(), crate::MAX_DEPTH);
        assert_eq!(check_subsumption(&new, &logged), Subsumption::Unrelated);
        assert_eq!(
            check_subsumption(&logged, &new),
            Subsumption::SubsumedByExisting
        );
    }

    #[test]
    fn rewrite_chain_terminates_at_pure_sequence() {
        // Rewriting repeatedly (as happens at the first n downstream nodes)
        // peels one mandatory A each time after derivation.
        let mut pre = parse("L*3·G").unwrap();
        for _ in 0..3 {
            let (a, m, b) = head_bounded(&pre)
                .map(|(a, m, b)| (a.clone(), m, b))
                .unwrap();
            let rw = rewrite_superset(&a, m, &b);
            // After traversing the mandatory head link, the bound drops.
            pre = rw.deriv(L);
            if head_bounded(&pre).is_none() {
                break;
            }
        }
        assert!(pre.accepts(&[G]) || pre.accepts(&[L, G]));
    }
}

//! The PRE automaton as it stood before the product moved to derivatives,
//! kept as the oracle the derivative engine and the log table's rule are
//! tested against: a Thompson NFA, a subset-construction DFA, and
//! containment as a breadth-first search of the product DFA with a
//! shortest witness (`counterexample`). It shares nothing with the
//! product's derivatives but the AST.
//!
//! `nfa.rs` is the parent's product code verbatim, unit tests included
//! (they enumerate paths with [`enumerate_paths`], once `Pre`'s own). It
//! names `crate::ast::Pre` and `crate::parse::parse`, so a test crate that
//! mounts this directory imports `webdis_pre::{ast, parse}` at its root.
//! Never fix a bug here: a difference the product is meant to have belongs
//! in the property test.

use webdis_model::LinkType;

use crate::ast::Pre;

pub mod nfa;

/// Every path of length at most `max_len` that `pre` accepts, shortest
/// first; exponential in `max_len`.
pub fn enumerate_paths(pre: &Pre, max_len: usize) -> Vec<Vec<LinkType>> {
    let mut out = Vec::new();
    let mut frontier = vec![(pre.clone(), Vec::new())];
    if pre.nullable() {
        out.push(Vec::new());
    }
    for _ in 0..max_len {
        let mut next = Vec::new();
        for (pre, path) in frontier {
            for t in LinkType::TRAVERSABLE {
                let d = pre.deriv(t);
                if d.is_never() {
                    continue;
                }
                let mut p = path.clone();
                p.push(t);
                if d.nullable() {
                    out.push(p.clone());
                }
                next.push((d, p));
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

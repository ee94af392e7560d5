#![warn(missing_docs)]

//! Path Regular Expressions (PREs) for the WEBDIS engine.
//!
//! Traversal paths on the Web are described by regular expressions over the
//! link alphabet `{I, L, G}` with the null link `N` denoting the zero-length
//! path (Section 2 of the paper). This crate provides:
//!
//! * the [`Pre`] AST with smart constructors that keep expressions in a
//!   lightly normalized form;
//! * a hand-written parser for the paper's concrete syntax
//!   (`N | G·(L*4)`, `L*`, `(G|L)`, ...) — see [`parse()`];
//! * Brzozowski-derivative operations that drive query forwarding:
//!   [`Pre::nullable`] ("does the PRE contain the null link", i.e. evaluate
//!   the node-query here), [`Pre::first`] (which link types to follow) and
//!   [`Pre::deriv`] (the remaining PRE after following a link);
//! * the log-table equivalence rules of Section 3.1.1 — exact-match and
//!   `A*m·B` subsumption, including the query *rewrite*
//!   `A*m·B → A·A*(m-1)·B` — see [`subsume`];
//! * an NFA/DFA compilation with language containment ([`nfa`]), used both
//!   as the optional generalized equivalence check and as a test oracle for
//!   the derivative engine.

pub mod ast;
pub mod nfa;
pub mod parse;
pub mod subsume;

pub use ast::{LinkSet, Pre};
pub use nfa::{contains, counterexample, equivalent, Dfa, Nfa};
pub use parse::{parse, PreParseError, MAX_DEPTH, MAX_NESTING};
pub use subsume::{check_subsumption, rewrite_superset, Subsumption};

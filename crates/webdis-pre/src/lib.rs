#![warn(missing_docs)]

//! Path Regular Expressions (PREs) for the WEBDIS engine.
//!
//! Traversal paths on the Web are described by regular expressions over the
//! link alphabet `{I, L, G}` with the null link `N` denoting the zero-length
//! path (Section 2 of the paper). This crate provides:
//!
//! * the [`Pre`] AST with smart constructors that keep expressions in a
//!   normalized form — alternation flattened and deduplicated, so every
//!   PRE has finitely many derivatives;
//! * a hand-written parser for the paper's concrete syntax
//!   (`N | G·(L*4)`, `L*`, `(G|L)`, ...) — see [`parse()`] — which refuses
//!   a PRE whose derivatives could not ship;
//! * Brzozowski-derivative operations that drive query forwarding:
//!   [`Pre::nullable`] ("does the PRE contain the null link", i.e. evaluate
//!   the node-query here), [`Pre::first`] (which link types to follow) and
//!   [`Pre::deriv`] (the remaining PRE after following a link);
//! * the derivative [`closure()`] of a PRE, which the parser checks;
//! * the log-table equivalence rules of Section 3.1.1 — exact-match and
//!   `A*m·B` subsumption, including the query *rewrite*
//!   `A*m·B → A·A*(m-1)·B` — see [`subsume`].

pub mod ast;
pub mod closure;
pub mod parse;
pub mod subsume;

pub use ast::{LinkSet, Pre};
pub use closure::closure;
pub use parse::{parse, PreParseError, MAX_DEPTH, MAX_NESTING, MAX_STATES};
pub use subsume::{check_subsumption, rewrite_superset, Subsumption};

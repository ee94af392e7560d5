#![warn(missing_docs)]

//! The relational substrate of WEBDIS.
//!
//! Section 2.2 of the paper models each document as tuples of three
//! "virtual" relations, materialized on demand in memory by the Database
//! Constructor and purged after the node-query is answered:
//!
//! * `DOCUMENT(url, title, text, length)` — one tuple per document;
//! * `ANCHOR(label, base, href, ltype)` — one tuple per hyperlink;
//! * `RELINFON(delimiter, url, text, length)` — one tuple per tag-delimited
//!   region of related information.
//!
//! This crate provides those relations ([`NodeDb`], built from a parsed
//! document a column at a time, each on its first read), the predicate
//! expression language used by DISQL `where` and `such that` clauses
//! ([`Expr`]), and the node-query evaluator. A query is compiled once into
//! a [`Plan`] of index probes plus a residual filter ([`planner`]) over
//! per-node sidecar indexes ([`index`]) that each column builds on its
//! second ask, falling back to the paper's nested-loop cross-product scan
//! ([`eval_node_query_scan`]) level-by-level whenever no index serves;
//! [`eval_node_query`] compiles and runs a query in one call.

pub mod expr;
pub mod index;
pub mod planner;
pub mod query;
pub mod relation;
pub mod subsume;
pub mod value;

pub use expr::{CmpOp, EvalError, Expr};
pub use index::{HashIndex, Index, Shape, TextIndex};
pub use planner::{EvalStats, Plan, Probe};
pub use query::{
    eval_node_query, eval_node_query_scan, eval_node_query_scan_with_stats,
    eval_node_query_with_bindings, eval_node_query_with_stats, NodeQuery, RelKind, ResultRow,
    VarDecl,
};
pub use relation::{NodeDb, Schema, ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA};
pub use subsume::{canonicalize, replay_bindings, split_conjuncts, CanonicalQuery, Conjunct};
pub use value::Value;

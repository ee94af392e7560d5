#![warn(missing_docs)]

//! The synthetic Web substrate.
//!
//! The paper ran WEBDIS against the live IISc campus network; this crate
//! replaces that with controllable equivalents that still exercise the
//! whole pipeline through *real HTML text*:
//!
//! * [`HostedWeb`] — a set of documents keyed by URL: what a web is
//!   built as, saved as and snapshotted to;
//! * [`PageBuilder`] — a small HTML construction API used by all
//!   generators, so every generated byte flows through `webdis-html`'s
//!   parser exactly as a crawled page would;
//! * [`gen`] — a seeded random web generator with knobs for size, fan-out,
//!   link-type mix and predicate selectivity (the workload generator for
//!   experiments T1–T11);
//! * [`figures`] — the paper's fixed topologies: Figure 1 (traversal
//!   roles), Figure 5 (multiple visits to a node) and the Section-5 campus
//!   web behind Figures 7 and 8;
//! * [`index`] — an inverted keyword index over a hosted web, the
//!   "existing search-indices" the paper draws StartNodes from;
//! * [`live`] — the living web, the one store the query servers read: a
//!   versioned store evolving under a seeded, replayable mutation
//!   schedule (pages edited/deleted, links rotting, sites leaving) while
//!   queries are in flight — or under none, which is a web frozen in time.

pub mod figures;
pub mod gen;
pub mod hosted;
pub mod index;
pub mod live;

pub use gen::{doc_url, generate, hub_url, WebGenConfig};
pub use hosted::{HostedWeb, PageBuilder};
pub use index::SearchIndex;
pub use live::{
    AppliedMutation, DocEffect, DocStatus, FetchOutcome, LiveWeb, Mutation, MutationOp,
    MutationPlanConfig, MutationSchedule, WebView,
};

#![warn(missing_docs)]

//! # WEBDIS — Distributed Query Processing on the Web
//!
//! A Rust reproduction of *"Distributed Query Processing on the Web"*
//! (Gupta, Haritsa, Ramanath; DSL/SERC TR-1999-01 / ICDE 2000): a
//! **query-shipping** engine in which web queries are forwarded from site
//! to site along the hyperlink structure, evaluated locally against
//! virtual relations built from each site's own documents, and answered
//! directly to the user site.
//!
//! This facade crate re-exports the workspace's public API. The
//! subsystems are:
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | URLs, link types (I/L/G/N), the web graph |
//! | [`html`] | One-scan HTML document extraction, body text formed on first read |
//! | [`rel`] | DOCUMENT / ANCHOR / RELINFON virtual relations, predicates, node-query evaluation |
//! | [`pre`] | path regular expressions: parsing, derivatives and their finite closure, subsumption |
//! | [`disql`] | the DISQL query language |
//! | [`net`] | wire codec, protocol messages, TCP transport, the per-kind traffic meter |
//! | [`sim`] | deterministic discrete-event network simulator; the fault list and the message ledger both runtimes share |
//! | [`web`] | synthetic web generation and the paper's fixed topologies |
//! | [`core`] | the distributed engine: servers, user site, CHT, log table, data-shipping baseline |
//! | [`core::workload`] | concurrent multi-query workloads: seeded arrival processes, multi-user drivers, load shedding |
//! | [`trace`] | query-trajectory tracing, the metrics registry and its `/metrics` exposition, the doctor |
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use webdis::core::{run_query_sim, EngineConfig};
//! use webdis::sim::SimConfig;
//!
//! // A reconstruction of the campus web from the paper's Section 5.
//! let web = Arc::new(webdis::web::figures::campus());
//!
//! // The paper's Example Query 2: find each lab's convener.
//! let outcome = run_query_sim(
//!     web,
//!     webdis::web::figures::CAMPUS_QUERY,
//!     EngineConfig::default(),
//!     SimConfig::default(),
//! )
//! .unwrap();
//!
//! assert!(outcome.complete);
//! assert_eq!(outcome.rows_of_stage(1).len(), 3); // Figure 8's three rows
//! ```
//!
//! See `examples/` for runnable programs and `crates/webdis-bench` for
//! the experiment suite that regenerates every figure of the paper
//! (`cargo run -p webdis-bench -- list`).

pub use webdis_core as core;
pub use webdis_disql as disql;
pub use webdis_html as html;
pub use webdis_model as model;
pub use webdis_net as net;
pub use webdis_pre as pre;
pub use webdis_rel as rel;
pub use webdis_sim as sim;
pub use webdis_trace as trace;
pub use webdis_web as web;

#![warn(missing_docs)]

//! The WEBDIS distributed query engine — the paper's contribution.
//!
//! User queries written in DISQL are decomposed into node-queries and
//! *shipped* from site to site along the Web's hyperlink structure; each
//! query server evaluates its share against locally-built virtual
//! relations and returns results directly to the user site. The modules
//! map onto the paper's sections:
//!
//! * [`server`] — the query-server daemon (Figures 3 and 4): the clone
//!   pipeline, dead-end detection, passive termination on
//!   result-dispatch failure; the node visit and the PRE-driven
//!   forwarding with per-site batching it shares with the user site live
//!   in the private `visit` module;
//! * [`user`] — the user-site client (Figure 2): query dispatch, result
//!   collection, and completion detection; and, as a private part of it
//!   present when `EngineConfig::hybrid` is set, the Section-7.1
//!   fallback that downloads and evaluates the nodes of sites that run
//!   no query server;
//! * [`cht`] — the Current Hosts Table protocol (Section 2.7.1), extended
//!   with tombstones so completion detection stays exact when reports
//!   overtake the merges that announce them on an asynchronous network;
//! * [`logtable`] — the node-query log table (Section 3.1.1): duplicate
//!   elimination, `A*m·B` subsumption, and the multiple-rewrite rule;
//! * [`config`] — every §3 optimization individually switchable for the
//!   ablation experiments;
//! * [`deploy`] — what is deployed, said once: web, mutation schedule,
//!   configuration, participating sites; every way of running a query is
//!   a method of that one [`Deployment`] value (two `run_*` shims,
//!   [`run_query_sim`] and [`run_datashipping_sim`], remain for the
//!   wall-clock benchmark);
//! * [`client`] — the user-site client process (Section 4.3), the one
//!   user-site driver: the same actor on the simulator and on TCP;
//! * [`record`] — the one per-query record every run reports through:
//!   filled in place by the user site, wrapped by [`QueryOutcome`];
//! * [`simrun`] — the deployment on the deterministic simulator
//!   (`query_sim`, `workload_sim` from a plan; hybrid is `query_sim` with
//!   `participating` and `hybrid` said);
//! * [`datashipping`] — the centralized download-and-evaluate baseline
//!   the paper argues against (Sections 1 and 6);
//! * [`tcprun`] — the same engine on real TCP sockets over loopback, a
//!   daemon per site on its own socket, hosted on reactor threads,
//!   demonstrating the "currently operational" deployment shape;
//! * [`workload`] — the seeded workload planner (users × submissions, an
//!   arrival process, a weighted DISQL mix) whose plan `workload_sim` and
//!   `workload_tcp` run.
//!
//! Quick start:
//!
//! ```
//! use std::sync::Arc;
//! use webdis_core::{Deployment, EngineConfig};
//! use webdis_sim::SimConfig;
//!
//! let web = Arc::new(webdis_web::figures::campus());
//! let deployment = Deployment::new(web, EngineConfig::default());
//! let outcome = deployment
//!     .query_sim(webdis_web::figures::CAMPUS_QUERY, SimConfig::default())
//!     .unwrap();
//! assert!(outcome.complete);
//! assert_eq!(outcome.rows_of_stage(1).len(), 3); // the three conveners
//! ```

pub mod cht;
pub mod client;
pub mod config;
pub mod datashipping;
pub mod deploy;
pub mod logtable;
pub mod network;
pub mod record;
pub mod report;
pub mod server;
pub mod simrun;
pub mod tcprun;
pub mod user;
mod visit;
pub mod workload;

pub use cht::{Cht, ChtStats};
pub use client::{ClientProcess, PlannedQuery, ScheduledClient, UserPlan};
pub use config::{CompletionMode, EngineConfig, LogMode};
pub use datashipping::run_datashipping_sim;
pub use deploy::Deployment;
pub use logtable::{LogOutcome, LogTable, QueryLog};
pub use network::{query_server_addr, Network, NetworkError};
pub use record::{result_set, HybridStats, QueryOutcome, QueryRecord, WorkloadOutcome};
pub use report::{render_html, render_text, ResultsView};
pub use server::{ServerEngine, ServerStats};
pub use simrun::run_query_sim;
pub use tcprun::{TcpCluster, TcpFaultPlan, TcpNet};
pub use user::{TraceEvent, UserSite};
pub use webdis_cache::{AnswerCache, CachePolicy, CacheStats};
pub use webdis_disql::DisqlError;
pub use workload::{ArrivalProcess, QueryMix, WorkloadSpec};

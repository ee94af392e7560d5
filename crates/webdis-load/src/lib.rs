#![warn(missing_docs)]

//! Concurrent multi-query workload engine — the load harness behind the
//! throughput experiment (T13).
//!
//! The paper's experiments submit one query at a time; the prototype it
//! describes is a *service*: many users, each firing queries at their own
//! pace, all flowing through the same per-site query-server daemons. This
//! crate supplies that missing workload layer:
//!
//! * [`spec`] — a seeded workload specification: M user sites, N
//!   submissions each, open-loop [`ArrivalProcess`] (uniform or Poisson
//!   interarrivals), a weighted [`QueryMix`] of DISQL templates. Same
//!   seed, same plan — throughput runs are reproducible down to identical
//!   latency histograms;
//! * [`drive`] — runs the planned workload through `webdis-core`'s
//!   user-site drivers: inside one deterministic
//!   [`webdis_sim::SimNet`] event loop, one
//!   [`ScheduledClient`](webdis_core::ScheduledClient) actor per user
//!   plus the shared per-site server actors, with periodic
//!   Section-3.1.1 `purge_log` sweeps between event bursts
//!   ([`WorkloadSpec::run_sim`]); or over real loopback sockets on a
//!   [`webdis_core::TcpCluster`], many client processes multiplexed on
//!   one result endpoint — the ids disambiguate, as the paper's QueryID
//!   design intends ([`WorkloadSpec::run_tcp`]).
//!
//! Both drivers observe per-query latency into the trace registry
//! (`query_latency_us`) and surface server-side **admission control**:
//! when an [`AdmissionPolicy`](webdis_core::AdmissionPolicy) caps
//! per-site in-flight queries, refused queries terminate promptly with
//! [`TermReason::Shed`](webdis_trace::TermReason) — never a silent hang —
//! and are counted here.

pub mod drive;
pub mod spec;

pub use drive::{run_workload_sim, run_workload_tcp};
pub use spec::{
    fork_seed, load_user_addr, ArrivalProcess, PlannedQuery, QueryMix, UserPlan, WorkloadSpec,
};
pub use webdis_core::{QueryRecord, WorkloadOutcome};

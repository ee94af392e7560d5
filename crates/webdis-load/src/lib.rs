#![warn(missing_docs)]

//! The workload planner behind the throughput experiment (T13).
//!
//! The paper's experiments submit one query at a time; the prototype it
//! describes is a *service*: many users, each firing queries at their own
//! pace, all flowing through the same per-site query-server daemons.
//! [`spec`] is that workload, as a seeded specification: M user sites, N
//! submissions each, an open-loop [`ArrivalProcess`] (uniform, Poisson or
//! burst-then-tail interarrivals), a weighted [`QueryMix`] of DISQL
//! templates. Same seed, same plan — throughput runs are reproducible
//! down to identical latency histograms.
//!
//! *Running* a plan is `webdis-core`'s ([`Deployment::workload_sim`],
//! [`Deployment::workload_tcp`]); [`WorkloadSpec::run_sim`] and
//! [`WorkloadSpec::run_tcp`] plan and hand over. This stays a crate
//! because the planner draws from `rand`, an edge `webdis-core` must not
//! gain (DESIGN.md §2e).

use std::sync::Arc;
use std::time::Duration;

use webdis_core::{Deployment, EngineConfig};
use webdis_disql::DisqlError;
use webdis_sim::SimConfig;
use webdis_web::HostedWeb;

pub mod spec;

pub use spec::{ArrivalProcess, QueryMix, WorkloadSpec};
pub use webdis_core::simrun::load_user_addr;
pub use webdis_core::{PlannedQuery, QueryRecord, UserPlan, WorkloadOutcome};

/// Runs the whole workload over the deterministic simulator on the
/// frozen `web`, unobserved: [`WorkloadSpec::run_sim`] with nothing else
/// said.
pub fn run_workload_sim(
    web: Arc<HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<WorkloadOutcome, DisqlError> {
    spec.run_sim(&Deployment::new(web, engine_cfg), sim_cfg, &mut |_, _| {})
}

/// Runs the whole workload over a loopback TCP cluster on the frozen
/// `web`: [`WorkloadSpec::run_tcp`] with nothing else said.
pub fn run_workload_tcp(
    web: Arc<HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<WorkloadOutcome, DisqlError> {
    spec.run_tcp(&Deployment::new(web, engine_cfg), deadline)
}

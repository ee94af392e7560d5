//! Running a workload: plan the spec, then hand the plan to
//! `webdis-core`'s user-site driver for the transport.
//!
//! * On the simulator each user is its own
//!   [`ScheduledClient`] actor at [`load_user_addr`], all in one
//!   deterministic event loop with the per-site daemons
//!   ([`Deployment::workload_sim`]).
//! * On TCP every user is a [`ClientProcess`] on the cluster's one result
//!   endpoint — the paper's QueryID design (`user, IP, port, query
//!   number`) exists precisely so a single listening socket can serve
//!   many concurrent queries; here it additionally disambiguates many
//!   *users*, routed by the user name embedded in every report's id
//!   ([`Deployment::workload_tcp`]).

use std::sync::Arc;
use std::time::Duration;

use webdis_core::simrun::user_addr;
use webdis_core::{
    ClientProcess, Deployment, EngineConfig, ScheduledClient, ScheduledSubmission, SimRunError,
    TcpFaultPlan, WorkloadOutcome,
};
use webdis_model::SiteAddr;
use webdis_sim::SimConfig;
use webdis_trace::RegistrySnapshot;

use crate::spec::{load_user_addr, PlannedQuery, WorkloadSpec};

/// User `user`'s client process, receiving results at `addr`.
fn client(user: usize, addr: SiteAddr, deployment: &Deployment) -> ClientProcess {
    ClientProcess::new(&format!("load{user}"), addr, deployment.config.clone())
}

/// `planned`, as a submission of the `client`-th process of its endpoint.
fn submission(client: usize, planned: &PlannedQuery) -> (usize, ScheduledSubmission) {
    let planned = ScheduledSubmission {
        at_us: planned.at_us,
        query: planned.query.clone(),
    };
    (client, planned)
}

impl WorkloadSpec {
    /// Runs the workload on `deployment` over the deterministic
    /// simulator, until the network drains or the spec's horizon.
    /// `observer` sees the registry after every purge tick; see
    /// [`Deployment::workload_sim`].
    pub fn run_sim(
        &self,
        deployment: &Deployment,
        sim_cfg: SimConfig,
        observer: &mut dyn FnMut(u64, &RegistrySnapshot),
    ) -> Result<WorkloadOutcome, SimRunError> {
        let plans = self.plan()?;
        let clients = plans.iter().map(|plan| {
            let client = client(plan.user, load_user_addr(plan.user), deployment);
            let planned = plan.submissions.iter().map(|s| submission(0, s));
            ScheduledClient::new(vec![client], planned.collect())
        });
        Ok(deployment.workload_sim(sim_cfg, clients.collect(), self.horizon_us, observer))
    }

    /// Runs the workload on `deployment` over a loopback TCP cluster.
    /// `deadline` bounds the wall-clock run; planned submissions are
    /// replayed open-loop at their spec'd offsets from cluster start.
    pub fn run_tcp(
        &self,
        deployment: &Deployment,
        deadline: Duration,
    ) -> Result<WorkloadOutcome, SimRunError> {
        let plans = self.plan()?;
        let clients = plans
            .iter()
            .map(|plan| client(plan.user, user_addr(), deployment));
        let submissions = plans.iter().flat_map(|plan| {
            let planned = plan.submissions.iter();
            planned.map(move |s| submission(plan.user, s))
        });
        Ok(deployment.workload_tcp(
            TcpFaultPlan::default(),
            clients.collect(),
            submissions.collect(),
            deadline,
        ))
    }
}

/// Runs the whole workload over the deterministic simulator on the
/// frozen `web`, unobserved: [`WorkloadSpec::run_sim`] with nothing else
/// said.
pub fn run_workload_sim(
    web: Arc<webdis_web::HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    sim_cfg: SimConfig,
) -> Result<WorkloadOutcome, SimRunError> {
    spec.run_sim(&Deployment::new(web, engine_cfg), sim_cfg, &mut |_, _| {})
}

/// Runs the whole workload over a loopback TCP cluster on the frozen
/// `web`: [`WorkloadSpec::run_tcp`] with nothing else said.
pub fn run_workload_tcp(
    web: Arc<webdis_web::HostedWeb>,
    spec: &WorkloadSpec,
    engine_cfg: EngineConfig,
    deadline: Duration,
) -> Result<WorkloadOutcome, SimRunError> {
    spec.run_tcp(&Deployment::new(web, engine_cfg), deadline)
}

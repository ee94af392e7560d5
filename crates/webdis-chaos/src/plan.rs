//! The chaos plan: one self-contained, replayable experiment.
//!
//! A [`ChaosPlan`] pins everything a run needs — the generated web, the
//! workload, the engine knobs, and one fault list in the vocabularies the
//! runtimes already speak (`webdis_sim::Fault` for the network,
//! `webdis_web::Mutation` for the web) — as seeds and plain values, so
//! the same plan always produces the same run and a failing plan can be
//! written to disk ([`crate::repro`]) and replayed elsewhere.

use webdis_core::EngineConfig;
use webdis_load::{ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_sim::{Fault, FaultKind, SimConfig};
use webdis_trace::TraceHandle;
use webdis_web::{Mutation, MutationSchedule, WebGenConfig};

/// One entry of a plan's fault list; the shrinker removes either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Something the network does wrong, handed to the simulator as is.
    Net(Fault),
    /// The living-web fault axis: the web itself changes mid-run. Unlike
    /// a network fault this is *benign by contract* — the engine must
    /// answer each visit from the content current at visit time and
    /// terminate gracefully at dead links; the oracle's job is to tell
    /// "the web changed" apart from "the engine lost rows".
    Web(Mutation),
}

impl ChaosFault {
    /// Stable fault-kind label (used in the repro encoding and verdict
    /// lines).
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosFault::Net(Fault::Rate { kind, .. }) => match kind {
                FaultKind::Drop => "drop",
                FaultKind::Dup => "dup",
                FaultKind::Corrupt => "corrupt",
            },
            ChaosFault::Net(Fault::Partition { .. }) => "partition",
            ChaosFault::Net(Fault::Crash { .. }) => "crash_restart",
            ChaosFault::Web(_) => "mutation",
        }
    }
}

impl From<Fault> for ChaosFault {
    fn from(fault: Fault) -> ChaosFault {
        ChaosFault::Net(fault)
    }
}

impl From<Mutation> for ChaosFault {
    fn from(mutation: Mutation) -> ChaosFault {
        ChaosFault::Web(mutation)
    }
}

/// The DISQL templates every chaos workload mixes (over the generated
/// web, whose first document is always `http://site0.test/doc0.html`).
pub const CHAOS_GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// Local-traversal companion to [`CHAOS_GLOBAL_QUERY`].
pub const CHAOS_LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
"#;

/// One replayable chaos experiment: topology, workload, engine knobs,
/// and the fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Sites in the generated web.
    pub sites: usize,
    /// Documents per site.
    pub docs_per_site: usize,
    /// Seed for the web generator.
    pub web_seed: u64,
    /// Concurrent user sites.
    pub users: usize,
    /// Submissions per user.
    pub queries_per_user: usize,
    /// Mean interarrival gap between one user's submissions, µs.
    pub interarrival_us: u64,
    /// Seed for the workload plan.
    pub workload_seed: u64,
    /// Seed for the simulator's jitter/fault draws.
    pub sim_seed: u64,
    /// Delivery jitter bound, µs (0 = none; jitter is environment, not
    /// a fault — the baseline run keeps it).
    pub jitter_us: u64,
    /// Virtual-time cap for the run.
    pub horizon_us: u64,
    /// Section 7.1 stale-entry expiry timeout; `None` disables expiry
    /// (only sensible in hand-built plans that *want* to demonstrate a
    /// hang).
    pub expiry_us: Option<u64>,
    /// Answer-cache byte budget; `None` runs cache-free (today's
    /// default). Crash-restart windows against a cached engine
    /// exercise cold-cache recovery: the restarted site recomputes
    /// answers its cache lost, which the row oracle must not confuse
    /// with invented rows.
    pub cache_budget_bytes: Option<u64>,
    /// Footnote-3 document-cache capacity (parsed `NodeDb`s per site).
    /// 0 — the engine default — runs cache-free; living-web plans set it
    /// so mutations exercise the cache's staleness guard.
    pub doc_cache_size: usize,
    /// The doc cache's per-hit content-version check. `true` is the
    /// consistency contract; `false` reproduces the historical
    /// serve-whatever-is-cached bug, turning a mutation of a visited
    /// page into a `stale_visit` oracle violation — the known-bad
    /// schedule the shrinker demonstrates on.
    pub validate_doc_cache: bool,
    /// The fault schedule. An empty list is a fault-free plan.
    pub faults: Vec<ChaosFault>,
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan {
            sites: 4,
            docs_per_site: 2,
            web_seed: 1,
            users: 1,
            queries_per_user: 2,
            interarrival_us: 50_000,
            workload_seed: 1,
            sim_seed: 1,
            jitter_us: 0,
            horizon_us: 60_000_000,
            expiry_us: Some(400_000),
            cache_budget_bytes: None,
            doc_cache_size: 0,
            validate_doc_cache: true,
            faults: Vec::new(),
        }
    }
}

impl ChaosPlan {
    /// The generated-web configuration this plan runs against.
    pub fn web_config(&self) -> WebGenConfig {
        WebGenConfig {
            sites: self.sites,
            docs_per_site: self.docs_per_site,
            extra_local_links: 1,
            extra_global_links: 1,
            title_needle_prob: 0.4,
            seed: self.web_seed,
            ..WebGenConfig::default()
        }
    }

    /// The workload specification this plan submits.
    pub fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            users: self.users,
            queries_per_user: self.queries_per_user,
            arrival: ArrivalProcess::Poisson {
                mean_interarrival_us: self.interarrival_us,
            },
            mix: QueryMix::single(CHAOS_GLOBAL_QUERY).with(CHAOS_LOCAL_QUERY, 1),
            seed: self.workload_seed,
            horizon_us: self.horizon_us,
        }
    }

    /// The engine configuration: defaults plus this plan's expiry,
    /// answer-cache budget, and the caller's tracer.
    pub fn engine_config(&self, tracer: TraceHandle) -> EngineConfig {
        EngineConfig {
            expiry_us: self.expiry_us,
            cache: self
                .cache_budget_bytes
                .map(webdis_core::CachePolicy::with_budget),
            doc_cache_size: self.doc_cache_size,
            validate_doc_cache: self.validate_doc_cache,
            tracer,
            ..EngineConfig::default()
        }
    }

    /// The simulator configuration with the fault schedule applied.
    /// `with_faults == false` builds the fault-free baseline: same
    /// latency model, jitter, and seed — only the faults stripped.
    pub fn sim_config(&self, with_faults: bool) -> SimConfig {
        let net = |f: &ChaosFault| match f {
            ChaosFault::Net(fault) if with_faults => Some(fault.clone()),
            _ => None,
        };
        SimConfig {
            jitter_us: self.jitter_us,
            seed: self.sim_seed,
            faults: self.faults.iter().filter_map(net).collect(),
            ..SimConfig::default()
        }
    }

    /// True when the schedule contains a crash window. A restarted
    /// server loses its log table, so a clone revisiting it is
    /// legitimately recomputed — the row oracle then checks set
    /// inclusion instead of multiset inclusion.
    pub fn has_restarts(&self) -> bool {
        let crash = |f: &ChaosFault| matches!(f, ChaosFault::Net(Fault::Crash { .. }));
        self.faults.iter().any(crash)
    }

    /// True when the schedule mutates the web mid-run: the runner then
    /// executes on a living web and the oracle checks rows against the
    /// union of per-version fault-free baselines.
    pub fn has_mutations(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, ChaosFault::Web(_)))
    }

    /// The plan's [`ChaosFault::Web`] entries as a time-ordered
    /// [`MutationSchedule`] (ties keep schedule order).
    pub fn mutation_schedule(&self) -> MutationSchedule {
        let web = |f: &ChaosFault| match f {
            ChaosFault::Web(mutation) => Some(mutation.clone()),
            ChaosFault::Net(_) => None,
        };
        let mut events: Vec<Mutation> = self.faults.iter().filter_map(web).collect();
        events.sort_by_key(|m| m.at_us);
        MutationSchedule { events }
    }

    /// The same plan with a different fault schedule (the shrinker's
    /// edit operation).
    pub fn with_faults(&self, faults: Vec<ChaosFault>) -> ChaosPlan {
        ChaosPlan {
            faults,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::SiteAddr;

    fn crash(host: &str, at_us: u64, down_us: u64) -> ChaosFault {
        let site = SiteAddr {
            host: host.into(),
            port: 80,
        };
        let down_us = Some(down_us);
        Fault::Crash {
            site,
            at_us,
            down_us,
        }
        .into()
    }

    #[test]
    fn baseline_config_strips_faults_but_keeps_environment() {
        let drop = Fault::rate(FaultKind::Drop, 0.1);
        let plan = ChaosPlan {
            jitter_us: 500,
            faults: vec![drop.clone().into(), crash("wdqs.site1.test", 1_000, 2_000)],
            ..ChaosPlan::default()
        };
        let base = plan.sim_config(false);
        assert!(base.faults.is_empty());
        assert_eq!(base.jitter_us, 500);
        assert_eq!(base.seed, plan.sim_seed);
        let faulty = plan.sim_config(true);
        assert_eq!(faulty.faults[0], drop);
        assert!(matches!(
            &faulty.faults[1..],
            [Fault::Crash {
                down_us: Some(2_000),
                ..
            }]
        ));
    }

    #[test]
    fn mutations_stay_off_the_network_and_form_the_schedule() {
        let edit = |at_us| Mutation {
            at_us,
            op: webdis_web::MutationOp::SiteLeave {
                host: format!("site{at_us}.test"),
            },
        };
        let plan = ChaosPlan {
            faults: vec![
                edit(20).into(),
                Fault::rate(FaultKind::Dup, 0.25).into(),
                edit(10).into(),
            ],
            ..ChaosPlan::default()
        };
        assert_eq!(plan.sim_config(true).faults.len(), 1);
        assert!(plan.has_mutations() && !plan.has_restarts());
        assert_eq!(plan.mutation_schedule().events, vec![edit(10), edit(20)]);
    }

    #[test]
    fn restart_detection_feeds_the_row_oracle_mode() {
        let mut plan = ChaosPlan::default();
        assert!(!plan.has_restarts());
        plan.faults.push(crash("wdqs.site0.test", 0, 1));
        assert!(plan.has_restarts());
    }
}

//! The chaos plan: one self-contained, replayable experiment.
//!
//! A [`ChaosPlan`] pins everything a run needs — the generated web, the
//! workload, the engine knobs, and a list of [`FaultSpec`]s — as plain
//! seeds and integers, so the same plan always produces the same run
//! and a failing plan can be written to disk and replayed elsewhere.
//! Probabilities are stored as parts-per-million so plans compare,
//! hash, and serialize exactly (no floats anywhere).

use webdis_core::{EngineConfig, ExpiryPolicy};
use webdis_load::{ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_model::{SiteAddr, Url};
use webdis_sim::{Fault, FaultKind, SimConfig};
use webdis_trace::TraceHandle;
use webdis_web::{Mutation, MutationOp, MutationSchedule, WebGenConfig};

/// Wildcard host in a rate fault: the rate applies uniformly to every
/// link instead of one `(from, to)` pair.
pub const ANY_HOST: &str = "*";

/// One injected fault. Rate faults (`Drop`/`Dup`/`Corrupt`) carry their
/// probability in parts-per-million; `from`/`to` of [`ANY_HOST`] make
/// the rate uniform across all links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Messages on the link vanish silently.
    Drop {
        /// Sender endpoint host, or [`ANY_HOST`].
        from: String,
        /// Receiver endpoint host, or [`ANY_HOST`].
        to: String,
        /// Drop probability, parts per million.
        rate_ppm: u32,
    },
    /// Messages on the link are delivered twice.
    Dup {
        /// Sender endpoint host, or [`ANY_HOST`].
        from: String,
        /// Receiver endpoint host, or [`ANY_HOST`].
        to: String,
        /// Duplication probability, parts per million.
        rate_ppm: u32,
    },
    /// Message bytes are corrupted in flight; the receiver cannot
    /// decode the frame, so the message is lost through the decode
    /// path.
    Corrupt {
        /// Sender endpoint host, or [`ANY_HOST`].
        from: String,
        /// Receiver endpoint host, or [`ANY_HOST`].
        to: String,
        /// Corruption probability, parts per million.
        rate_ppm: u32,
    },
    /// A partition window severing traffic between two host groups.
    Partition {
        /// Partition onset, virtual µs.
        start_us: u64,
        /// Partition healing time, virtual µs (exclusive).
        end_us: u64,
        /// Hosts on one side of the cut.
        side_a: Vec<String>,
        /// Hosts on the other side.
        side_b: Vec<String>,
    },
    /// A crash-restart window: the endpoint deregisters at `at_us` and
    /// comes back `down_us` later with fresh volatile state (empty log
    /// table).
    CrashRestart {
        /// The crashing endpoint's host (e.g. `wdqs.site2.test`).
        host: String,
        /// The crashing endpoint's port.
        port: u16,
        /// Crash onset, virtual µs.
        at_us: u64,
        /// How long the endpoint stays down.
        down_us: u64,
    },
    /// The living-web fault axis: the web itself changes mid-run. Unlike
    /// the network faults above this is *benign by contract* — the
    /// engine must answer each visit from the content current at visit
    /// time and terminate gracefully at dead links; the oracle's job is
    /// to tell "the web changed" apart from "the engine lost rows".
    /// Encoded as flat strings so plans stay diffable; see
    /// [`ChaosPlan::mutation_schedule`] for the `op`/`arg` vocabulary.
    Mutation {
        /// Virtual instant at which the change lands.
        at_us: u64,
        /// Operation label (`edit_page`, `create_page`, `delete_page`,
        /// `add_anchor`, `remove_anchor`, `site_leave`, `site_join`).
        op: String,
        /// The page (or site root, for site-level ops) the change hits.
        url: String,
        /// Op-dependent payload: edit token, created-page title, or the
        /// added anchor's target URL. Empty when the op takes none.
        arg: String,
    },
}

impl FaultSpec {
    /// Stable fault-kind label (used in the repro encoding and verdict
    /// lines).
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::Drop { .. } => "drop",
            FaultSpec::Dup { .. } => "dup",
            FaultSpec::Corrupt { .. } => "corrupt",
            FaultSpec::Partition { .. } => "partition",
            FaultSpec::CrashRestart { .. } => "crash_restart",
            FaultSpec::Mutation { .. } => "mutation",
        }
    }

    /// This entry as the simulator states it; `None` for a mutation,
    /// which changes the *web*, not the network (the runner applies
    /// those via [`ChaosPlan::mutation_schedule`]). A rate is uniform
    /// only when both hosts are [`ANY_HOST`].
    fn network_fault(&self) -> Option<Fault> {
        let rate = |kind, from: &String, to: &String, rate_ppm: u32| Fault::Rate {
            kind,
            link: (from != ANY_HOST || to != ANY_HOST).then(|| (from.clone(), to.clone())),
            rate: ppm(rate_ppm),
        };
        Some(match self {
            FaultSpec::Drop { from, to, rate_ppm } => rate(FaultKind::Drop, from, to, *rate_ppm),
            FaultSpec::Dup { from, to, rate_ppm } => rate(FaultKind::Dup, from, to, *rate_ppm),
            FaultSpec::Corrupt { from, to, rate_ppm } => {
                rate(FaultKind::Corrupt, from, to, *rate_ppm)
            }
            FaultSpec::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            } => Fault::Partition {
                start_us: *start_us,
                end_us: *end_us,
                side_a: side_a.clone(),
                side_b: side_b.clone(),
            },
            FaultSpec::CrashRestart {
                host,
                port,
                at_us,
                down_us,
            } => Fault::Crash {
                site: SiteAddr {
                    host: host.as_str().into(),
                    port: *port,
                },
                at_us: *at_us,
                down_us: Some(*down_us),
            },
            FaultSpec::Mutation { .. } => return None,
        })
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
/// and the fault schedule, all as seeds and integers.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pub faults: Vec<FaultSpec>,
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
            expiry: self.expiry_us.map(ExpiryPolicy::with_timeout),
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
        let faults = self.faults.iter().filter(|_| with_faults);
        SimConfig {
            jitter_us: self.jitter_us,
            seed: self.sim_seed,
            faults: faults.filter_map(FaultSpec::network_fault).collect(),
            ..SimConfig::default()
        }
    }

    /// True when the schedule contains a crash-restart window. A
    /// restarted server loses its log table, so a clone revisiting it
    /// is legitimately recomputed — the row oracle then checks set
    /// inclusion instead of multiset inclusion.
    pub fn has_restarts(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, FaultSpec::CrashRestart { .. }))
    }

    /// True when the schedule mutates the web mid-run: the runner then
    /// executes on a living web and the oracle checks rows against the
    /// union of per-version fault-free baselines.
    pub fn has_mutations(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, FaultSpec::Mutation { .. }))
    }

    /// The plan's [`FaultSpec::Mutation`] entries as a time-ordered
    /// [`MutationSchedule`] (ties keep schedule order). Panics on an op
    /// label outside the documented vocabulary or an unparsable URL —
    /// plans come from the generator or the repro decoder, both of which
    /// only produce the vocabulary below.
    pub fn mutation_schedule(&self) -> MutationSchedule {
        let mut events = Vec::new();
        for fault in &self.faults {
            let FaultSpec::Mutation {
                at_us,
                op,
                url,
                arg,
            } = fault
            else {
                continue;
            };
            let parsed = Url::parse(url)
                .unwrap_or_else(|e| panic!("mutation url {url:?} does not parse: {e:?}"));
            let op = match op.as_str() {
                "edit_page" => MutationOp::EditPage {
                    url: parsed,
                    token: arg.clone(),
                },
                "create_page" => MutationOp::CreatePage {
                    url: parsed,
                    title: arg.clone(),
                },
                "delete_page" => MutationOp::DeletePage { url: parsed },
                "add_anchor" => MutationOp::AddAnchor {
                    url: parsed,
                    href: Url::parse(arg)
                        .unwrap_or_else(|e| panic!("anchor href {arg:?} does not parse: {e:?}")),
                    label: "chaos link".to_owned(),
                },
                "remove_anchor" => MutationOp::RemoveAnchor { url: parsed },
                "site_leave" => MutationOp::SiteLeave {
                    host: parsed.host().to_owned(),
                },
                "site_join" => MutationOp::SiteJoin {
                    host: parsed.host().to_owned(),
                },
                other => panic!("unknown mutation op {other:?}"),
            };
            events.push(Mutation { at_us: *at_us, op });
        }
        events.sort_by_key(|m| m.at_us);
        MutationSchedule { events }
    }

    /// The same plan with a different fault schedule (the shrinker's
    /// edit operation).
    pub fn with_faults(&self, faults: Vec<FaultSpec>) -> ChaosPlan {
        ChaosPlan {
            faults,
            ..self.clone()
        }
    }
}

/// Parts-per-million to probability.
fn ppm(rate_ppm: u32) -> f64 {
    f64::from(rate_ppm.min(1_000_000)) / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_strips_faults_but_keeps_environment() {
        let plan = ChaosPlan {
            jitter_us: 500,
            faults: vec![
                FaultSpec::Drop {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 100_000,
                },
                FaultSpec::CrashRestart {
                    host: "wdqs.site1.test".into(),
                    port: 80,
                    at_us: 1_000,
                    down_us: 2_000,
                },
            ],
            ..ChaosPlan::default()
        };
        let base = plan.sim_config(false);
        assert!(base.faults.is_empty());
        assert_eq!(base.jitter_us, 500);
        assert_eq!(base.seed, plan.sim_seed);
        let faulty = plan.sim_config(true);
        assert!(matches!(
            &faulty.faults[..],
            [Fault::Rate { link: None, rate, .. }, Fault::Crash { down_us: Some(2_000), .. }]
                if *rate > 0.0
        ));
    }

    #[test]
    fn link_rates_and_uniform_rates_route_separately() {
        let plan = ChaosPlan {
            faults: vec![
                FaultSpec::Corrupt {
                    from: "a".into(),
                    to: "b".into(),
                    rate_ppm: 1_000_000,
                },
                FaultSpec::Dup {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 250_000,
                },
            ],
            ..ChaosPlan::default()
        };
        let cfg = plan.sim_config(true);
        let on_a_b = Some(("a".to_owned(), "b".to_owned()));
        assert!(matches!(
            &cfg.faults[..],
            [
                Fault::Rate { kind: FaultKind::Corrupt, link, rate: corrupt },
                Fault::Rate { kind: FaultKind::Dup, link: None, rate: dup },
            ] if *link == on_a_b && *corrupt == 1.0 && *dup == 0.25
        ));
    }

    #[test]
    fn restart_detection_feeds_the_row_oracle_mode() {
        let mut plan = ChaosPlan::default();
        assert!(!plan.has_restarts());
        plan.faults.push(FaultSpec::CrashRestart {
            host: "wdqs.site0.test".into(),
            port: 80,
            at_us: 0,
            down_us: 1,
        });
        assert!(plan.has_restarts());
    }
}

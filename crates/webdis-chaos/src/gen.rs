//! The fault-schedule generator: one master seed, arbitrarily many
//! mixed fault plans.
//!
//! `FaultScheduleGen` expands a master seed into an indexed stream of
//! [`ChaosPlan`]s. Every randomized choice — topology size, workload
//! shape, fault count, fault kinds, rates, windows — is drawn from a
//! per-index RNG forked off the master seed, so plan `i` of seed `s`
//! is the same plan forever, independent of how many plans were drawn
//! before it.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use webdis_model::{SiteAddr, Url};
use webdis_sim::{Fault, FaultKind};
use webdis_web::{Mutation, MutationOp};

use crate::plan::{ChaosFault, ChaosPlan};

/// Expands a master seed into an indexed stream of chaos plans.
#[derive(Debug, Clone, Copy)]
pub struct FaultScheduleGen {
    /// The master seed the whole sweep derives from.
    pub master_seed: u64,
}

/// The plain web host of generated site `i`.
fn site_host(i: usize) -> String {
    format!("site{i}.test")
}

/// The query-server endpoint host of generated site `i` (the daemon
/// registers at `wdqs.<host>`).
fn server_host(i: usize) -> String {
    format!("wdqs.{}", site_host(i))
}

/// The endpoint host of load user `i`.
fn user_host(i: usize) -> String {
    webdis_core::simrun::load_user_addr(i).host.to_string()
}

impl FaultScheduleGen {
    /// A generator over `master_seed`.
    pub fn new(master_seed: u64) -> FaultScheduleGen {
        FaultScheduleGen { master_seed }
    }

    /// Expands plan `index`. Same `(master_seed, index)`, same plan.
    pub fn plan(&self, index: usize) -> ChaosPlan {
        // The same split-mix fold `WorkloadSpec::plan` uses for its
        // per-user streams: index n never perturbs index m.
        let seed = self
            .master_seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = StdRng::seed_from_u64(seed);

        let sites = rng.gen_range(3..=5);
        let users = rng.gen_range(1..=2);
        let mut plan = ChaosPlan {
            sites,
            docs_per_site: rng.gen_range(2..=3),
            web_seed: rng.next_u64(),
            users,
            queries_per_user: rng.gen_range(2..=3),
            interarrival_us: rng.gen_range(20_000..=80_000),
            workload_seed: rng.next_u64(),
            sim_seed: rng.next_u64(),
            jitter_us: rng.gen_range(0..=2_000),
            horizon_us: 60_000_000,
            expiry_us: Some(rng.gen_range(300_000..=600_000)),
            cache_budget_bytes: None,
            doc_cache_size: 0,
            faults: Vec::new(),
        };

        let fault_count = rng.gen_range(2usize..=5);
        for _ in 0..fault_count {
            plan.faults
                .push(ChaosFault::Net(self.draw_fault(&mut rng, sites, users)));
        }
        // The living-web axis rides along *after* the classic draws, so
        // a given (seed, index) keeps the exact network-fault prefix it
        // had before mutations existed. Mutated plans also turn the
        // footnote-3 doc cache on, so every sweep exercises the version
        // check each cache hit makes.
        let mutation_count = rng.gen_range(0usize..=2);
        if mutation_count > 0 {
            plan.doc_cache_size = 8;
        }
        for i in 0..mutation_count {
            let mutation = self.draw_mutation(&mut rng, sites, plan.docs_per_site, i);
            plan.faults.push(ChaosFault::Web(mutation));
        }
        plan
    }

    /// Draws one fault over the plan's topology. All five kinds mix:
    /// uniform and per-link rate faults, partitions, and server
    /// crash-restart windows. Only query servers crash — a crashed
    /// *user* endpoint would orphan its own bookkeeping, which is a
    /// different experiment than engine robustness. Rates are drawn in
    /// parts per million.
    fn draw_fault(&self, rng: &mut StdRng, sites: usize, users: usize) -> Fault {
        // A random endpoint pair for link faults: any user or server
        // may sit on either end (self-links are harmless — the
        // simulator routes every message through the network).
        let endpoint = |rng: &mut StdRng| {
            let servers = sites;
            let pick = rng.gen_range(0..servers + users);
            if pick < servers {
                server_host(pick)
            } else {
                user_host(pick - servers)
            }
        };
        let ppm = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..=hi)) / 1e6;
        let kinds = [FaultKind::Drop, FaultKind::Dup, FaultKind::Corrupt];
        let uniform_ppm = [(10_000, 150_000), (50_000, 400_000), (10_000, 150_000)];
        match rng.gen_range(0usize..8) {
            // Uniform rate faults (weighted toward the interesting
            // duplication/corruption surface).
            k @ 0..=2 => {
                let (lo, hi) = uniform_ppm[k];
                Fault::rate(kinds[k], ppm(rng, lo, hi))
            }
            // Per-link rate faults, up to total loss of one link.
            k @ 3..=5 => {
                let (from, to) = (endpoint(rng), endpoint(rng));
                Fault::rate(kinds[k - 3], ppm(rng, 100_000, 1_000_000)).on(&from, &to)
            }
            // A partition separating a random prefix of the servers
            // from the rest of the cluster (users side with the
            // remainder, so submissions keep flowing).
            6 => {
                let cut = rng.gen_range(1..sites.max(2));
                let side_a: Vec<String> = (0..cut).map(server_host).collect();
                let side_b: Vec<String> = (cut..sites).map(server_host).collect();
                let start_us = rng.gen_range(0..=1_000_000);
                Fault::Partition {
                    start_us,
                    end_us: start_us + rng.gen_range(100_000u64..=600_000),
                    side_a,
                    side_b,
                }
            }
            // A server crash-restart window.
            _ => Fault::Crash {
                site: SiteAddr {
                    host: server_host(rng.gen_range(0..sites)).into(),
                    port: 80,
                },
                at_us: rng.gen_range(0..=2_000_000),
                down_us: Some(rng.gen_range(100_000..=700_000)),
            },
        }
    }

    /// Draws one living-web mutation over the generated document space.
    /// Edits dominate (they exercise the doc-cache validation path);
    /// deletes, creates, and anchor grafts mix in. `ordinal` keeps
    /// tokens and created URLs distinct within one plan.
    fn draw_mutation(
        &self,
        rng: &mut StdRng,
        sites: usize,
        docs_per_site: usize,
        ordinal: usize,
    ) -> Mutation {
        let doc = |site: usize, doc: usize| {
            Url::from_parts(&site_host(site), 80, &format!("/doc{doc}.html"))
        };
        let site = rng.gen_range(0..sites);
        let url = doc(site, rng.gen_range(0..docs_per_site));
        let at_us = rng.gen_range(10_000u64..=1_000_000);
        let op = match rng.gen_range(0u32..6) {
            0..=2 => MutationOp::EditPage {
                url,
                token: format!("chaos-token-{ordinal}"),
            },
            3 => MutationOp::DeletePage { url },
            4 => MutationOp::CreatePage {
                url: Url::from_parts(&site_host(site), 80, &format!("/chaos{ordinal}.html")),
                title: format!("Chaos Page {ordinal}"),
            },
            _ => MutationOp::AddAnchor {
                url,
                href: doc(rng.gen_range(0..sites), rng.gen_range(0..docs_per_site)),
                label: "chaos link".to_owned(),
            },
        };
        Mutation { at_us, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_index_give_identical_plans() {
        let g = FaultScheduleGen::new(0xC0FFEE);
        for i in 0..20 {
            assert_eq!(g.plan(i), g.plan(i), "plan {i} must be stable");
        }
    }

    #[test]
    fn different_indices_give_different_plans() {
        let g = FaultScheduleGen::new(7);
        let distinct = (0..10)
            .map(|i| format!("{:?}", g.plan(i)))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 8, "indexed plans must vary");
    }

    #[test]
    fn a_sweep_mixes_all_six_fault_kinds() {
        let g = FaultScheduleGen::new(0xFA57);
        let mut kinds = std::collections::BTreeSet::new();
        for i in 0..60 {
            for f in &g.plan(i).faults {
                kinds.insert(f.kind());
            }
        }
        for kind in [
            "drop",
            "dup",
            "corrupt",
            "partition",
            "crash_restart",
            "mutation",
        ] {
            assert!(kinds.contains(kind), "sweep never drew {kind}");
        }
    }

    #[test]
    fn mutated_plans_enable_the_doc_cache() {
        let g = FaultScheduleGen::new(0xFA57);
        let mut saw_mutated = false;
        for i in 0..60 {
            let plan = g.plan(i);
            if plan.has_mutations() {
                saw_mutated = true;
                assert_eq!(plan.doc_cache_size, 8, "mutated plan {i} runs cached");
            }
        }
        assert!(saw_mutated, "sweep drew no mutated plan at all");
    }

    #[test]
    fn generated_plans_always_keep_expiry_on() {
        let g = FaultScheduleGen::new(3);
        for i in 0..30 {
            assert!(g.plan(i).expiry_us.is_some(), "liveness needs expiry");
        }
    }
}

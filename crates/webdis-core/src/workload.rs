//! The workload planner behind the throughput experiment (T13): who
//! submits what, when.
//!
//! The paper's experiments submit one query at a time; the prototype it
//! describes is a *service*: many users, each firing queries at their own
//! pace, all flowing through the same per-site query-server daemons.
//! A [`WorkloadSpec`] is that workload as a *seeded plan generator*:
//! expanding it yields, deterministically, one submission schedule per
//! simulated user site — an open-loop [`ArrivalProcess`] (submissions
//! happen at their planned times whether or not earlier queries have
//! finished) over a weighted [`QueryMix`] of DISQL templates. The same
//! spec with the same seed always produces the same plan, which is what
//! makes the throughput experiment repeatable down to identical latency
//! histograms. This module only plans: running the plan is the
//! deployment's business, [`workload_sim`](crate::Deployment::workload_sim)
//! on the simulator and [`workload_tcp`](crate::Deployment::workload_tcp)
//! on loopback TCP, where a user is its plan's position in the list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_disql::{parse_disql, DisqlError, WebQuery};

use crate::client::{PlannedQuery, UserPlan};

/// How interarrival gaps between one user's submissions are drawn.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalProcess {
    /// Fixed gaps: every `interarrival_us` µs exactly.
    Uniform {
        /// Gap between consecutive submissions, µs.
        interarrival_us: u64,
    },
    /// Poisson process: exponentially-distributed gaps with the given
    /// mean, sampled by inverse CDF (`-ln(u)·mean`, `u` uniform in
    /// (0, 1]).
    Poisson {
        /// Mean gap between consecutive submissions, µs.
        mean_interarrival_us: u64,
    },
    /// An overload burst followed by a quiet tail: each user's first
    /// `burst` submissions arrive in a tight Poisson clump (mean
    /// `burst_mean_us`), the rest at the relaxed `tail_mean_us` pace.
    /// This is the alerting workload (T18): the burst drives admission
    /// control into mass shedding, the tail keeps the system ticking —
    /// shed-free — long enough for the alert to resolve.
    BurstThenTail {
        /// Submissions per user that belong to the burst.
        burst: usize,
        /// Mean interarrival gap inside the burst, µs.
        burst_mean_us: u64,
        /// Mean interarrival gap after the burst, µs.
        tail_mean_us: u64,
    },
}

impl ArrivalProcess {
    /// Draws the gap before a user's submission number `index`
    /// (0-based), µs. Only [`ArrivalProcess::BurstThenTail`] looks at
    /// the index; the stationary processes ignore it.
    fn sample_us(&self, index: usize, rng: &mut StdRng) -> u64 {
        // 53 uniform bits mapped onto (0, 1]: u can reach 1.0 (gap 0
        // excluded is fine) but never 0 (ln would blow up).
        let exp = |mean: u64, rng: &mut StdRng| -> u64 {
            let u = rng.gen_range(1u64..=(1u64 << 53)) as f64 / (1u64 << 53) as f64;
            (-u.ln() * mean as f64).round() as u64
        };
        match *self {
            ArrivalProcess::Uniform { interarrival_us } => interarrival_us,
            ArrivalProcess::Poisson {
                mean_interarrival_us,
            } => exp(mean_interarrival_us, rng),
            ArrivalProcess::BurstThenTail {
                burst,
                burst_mean_us,
                tail_mean_us,
            } => {
                if index < burst {
                    exp(burst_mean_us, rng)
                } else {
                    exp(tail_mean_us, rng)
                }
            }
        }
    }

    /// The mean interarrival gap, µs — the offered-load knob. For the
    /// burst shape this is the *burst* mean (the load the admission
    /// controller actually faces).
    pub fn mean_us(&self) -> u64 {
        match *self {
            ArrivalProcess::Uniform { interarrival_us } => interarrival_us,
            ArrivalProcess::Poisson {
                mean_interarrival_us,
            } => mean_interarrival_us,
            ArrivalProcess::BurstThenTail { burst_mean_us, .. } => burst_mean_us,
        }
    }
}

/// A weighted mix of DISQL templates over the hosted web.
#[derive(Debug, Clone, Default)]
pub struct QueryMix {
    /// `(disql, weight)` pairs; draws are proportional to weight.
    pub templates: Vec<(String, u32)>,
}

impl QueryMix {
    /// A mix with a single template.
    pub fn single(disql: &str) -> QueryMix {
        QueryMix {
            templates: vec![(disql.to_owned(), 1)],
        }
    }

    /// Adds a weighted template (builder style).
    pub fn with(mut self, disql: &str, weight: u32) -> QueryMix {
        self.templates.push((disql.to_owned(), weight));
        self
    }

    /// A Zipf(s) mix over ranked templates: rank `k` (1-based, in the
    /// order given) gets ticket weight `round(1e6 / k^s)`, so draws
    /// follow the classic head-heavy popularity curve million-user
    /// traffic exhibits. `s_milli` is the exponent in thousandths
    /// (1000 ⇒ Zipf(1.0), 0 ⇒ uniform). Integer exponents are computed
    /// in exact integer arithmetic so the ticket table — and therefore
    /// every seeded plan built from it — is identical on every platform.
    pub fn zipf(s_milli: u64, templates: &[&str]) -> QueryMix {
        const SCALE: u64 = 1_000_000;
        let weight = |rank: u64| -> u32 {
            let w = if s_milli.is_multiple_of(1000) {
                // k^s exact for whole s; rounded division.
                let denom = rank.pow((s_milli / 1000) as u32);
                (SCALE + denom / 2) / denom
            } else {
                let s = s_milli as f64 / 1000.0;
                (SCALE as f64 / (rank as f64).powf(s)).round() as u64
            };
            w.max(1) as u32
        };
        QueryMix {
            templates: templates
                .iter()
                .enumerate()
                .map(|(i, t)| ((*t).to_owned(), weight(i as u64 + 1)))
                .collect(),
        }
    }

    /// Draws one template index proportional to weight.
    fn draw(&self, rng: &mut StdRng) -> usize {
        let total: u64 = self.templates.iter().map(|(_, w)| *w as u64).sum();
        assert!(total > 0, "query mix needs at least one weighted template");
        let mut ticket = rng.gen_range(0..total);
        for (i, (_, w)) in self.templates.iter().enumerate() {
            if ticket < *w as u64 {
                return i;
            }
            ticket -= *w as u64;
        }
        unreachable!("ticket drawn below total weight")
    }
}

/// The full workload: M user sites, N submissions each, arrivals, mix.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of concurrent user sites (each its own client process).
    pub users: usize,
    /// Submissions per user.
    pub queries_per_user: usize,
    /// Interarrival process, per user.
    pub arrival: ArrivalProcess,
    /// Template mix submissions draw from.
    pub mix: QueryMix,
    /// Master seed; per-user streams are split off it.
    pub seed: u64,
    /// Virtual-time cap for the simulated driver, µs. Queries still
    /// running at the horizon count as hung (should never happen —
    /// shedding and expiry both conclude queries).
    pub horizon_us: u64,
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec {
            users: 2,
            queries_per_user: 4,
            arrival: ArrivalProcess::Uniform {
                interarrival_us: 200_000,
            },
            mix: QueryMix::default(),
            seed: 1,
            horizon_us: 600_000_000, // ten virtual minutes
        }
    }
}

impl WorkloadSpec {
    /// Expands the spec into per-user schedules. Parses every template
    /// once up front so bad DISQL surfaces before anything runs.
    pub fn plan(&self) -> Result<Vec<UserPlan>, DisqlError> {
        let parsed: Vec<WebQuery> = self
            .mix
            .templates
            .iter()
            .map(|(disql, _)| parse_disql(disql))
            .collect::<Result<_, _>>()?;
        let mut plans = Vec::with_capacity(self.users);
        for user in 0..self.users {
            // Split a per-user stream off the master seed so adding a
            // user never perturbs the others' schedules.
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (user as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let mut at_us = 0;
            let mut submissions = Vec::with_capacity(self.queries_per_user);
            for index in 0..self.queries_per_user {
                at_us += self.arrival.sample_us(index, &mut rng);
                let template = self.mix.draw(&mut rng);
                submissions.push(PlannedQuery {
                    at_us,
                    template,
                    query: parsed[template].clone(),
                });
            }
            plans.push(UserPlan { submissions });
        }
        Ok(plans)
    }

    /// Offered load in queries per (virtual) second across all users.
    pub fn offered_qps(&self) -> f64 {
        let mean = self.arrival.mean_us().max(1) as f64;
        self.users as f64 * 1_000_000.0 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: &str = r#"select d.url from document d such that "http://site0.test/doc0.html" L* d"#;

    #[test]
    fn plan_is_seed_deterministic() {
        let spec = WorkloadSpec {
            users: 3,
            queries_per_user: 5,
            arrival: ArrivalProcess::Poisson {
                mean_interarrival_us: 50_000,
            },
            mix: QueryMix::single(Q).with(Q, 3),
            seed: 42,
            ..WorkloadSpec::default()
        };
        let a = spec.plan().unwrap();
        let b = spec.plan().unwrap();
        for (pa, pb) in a.iter().zip(&b) {
            let ta: Vec<(u64, usize)> = pa
                .submissions
                .iter()
                .map(|s| (s.at_us, s.template))
                .collect();
            let tb: Vec<(u64, usize)> = pb
                .submissions
                .iter()
                .map(|s| (s.at_us, s.template))
                .collect();
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn users_get_distinct_streams() {
        let spec = WorkloadSpec {
            users: 2,
            queries_per_user: 8,
            arrival: ArrivalProcess::Poisson {
                mean_interarrival_us: 50_000,
            },
            mix: QueryMix::single(Q),
            seed: 7,
            ..WorkloadSpec::default()
        };
        let plans = spec.plan().unwrap();
        let t0: Vec<u64> = plans[0].submissions.iter().map(|s| s.at_us).collect();
        let t1: Vec<u64> = plans[1].submissions.iter().map(|s| s.at_us).collect();
        assert_ne!(t0, t1, "independent per-user arrival streams");
    }

    #[test]
    fn poisson_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(3);
        let arrival = ArrivalProcess::Poisson {
            mean_interarrival_us: 10_000,
        };
        let n = 4_000;
        let total: u64 = (0..n).map(|_| arrival.sample_us(0, &mut rng)).sum();
        let mean = total / n;
        assert!((8_000..12_000).contains(&mean), "sampled mean {mean}");
    }

    #[test]
    fn uniform_arrivals_are_exact() {
        let spec = WorkloadSpec {
            users: 1,
            queries_per_user: 3,
            arrival: ArrivalProcess::Uniform {
                interarrival_us: 1_000,
            },
            mix: QueryMix::single(Q),
            ..WorkloadSpec::default()
        };
        let plans = spec.plan().unwrap();
        let times: Vec<u64> = plans[0].submissions.iter().map(|s| s.at_us).collect();
        assert_eq!(times, vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn zipf_weights_follow_the_inverse_power_curve() {
        let q2 = r#"select d.title from document d such that "http://site0.test/doc0.html" L* d"#;
        let mix = QueryMix::zipf(1000, &[Q, q2, Q, q2]);
        let weights: Vec<u32> = mix.templates.iter().map(|(_, w)| *w).collect();
        assert_eq!(weights, vec![1_000_000, 500_000, 333_333, 250_000]);
        // s = 0 degenerates to a uniform mix.
        let flat = QueryMix::zipf(0, &[Q, q2]);
        let flat_w: Vec<u32> = flat.templates.iter().map(|(_, w)| *w).collect();
        assert_eq!(flat_w, vec![1_000_000, 1_000_000]);
    }

    #[test]
    fn zipf_plans_favor_the_head_template_and_stay_deterministic() {
        let q2 = r#"select d.title from document d such that "http://site0.test/doc0.html" L* d"#;
        let spec = WorkloadSpec {
            users: 4,
            queries_per_user: 64,
            arrival: ArrivalProcess::Uniform {
                interarrival_us: 1_000,
            },
            mix: QueryMix::zipf(1000, &[Q, q2, Q]),
            seed: 17,
            ..WorkloadSpec::default()
        };
        let plans = spec.plan().unwrap();
        let mut counts = [0usize; 3];
        for plan in &plans {
            for s in &plan.submissions {
                counts[s.template] += 1;
            }
        }
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2],
            "rank order should dominate draw counts: {counts:?}"
        );
        // Re-planning the same spec reproduces the same template choices.
        let again = spec.plan().unwrap();
        for (pa, pb) in plans.iter().zip(&again) {
            let ta: Vec<usize> = pa.submissions.iter().map(|s| s.template).collect();
            let tb: Vec<usize> = pb.submissions.iter().map(|s| s.template).collect();
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn burst_then_tail_separates_the_two_regimes() {
        let spec = WorkloadSpec {
            users: 2,
            queries_per_user: 8,
            arrival: ArrivalProcess::BurstThenTail {
                burst: 4,
                burst_mean_us: 1_000,
                tail_mean_us: 1_000_000,
            },
            mix: QueryMix::single(Q),
            seed: 18,
            ..WorkloadSpec::default()
        };
        let plans = spec.plan().unwrap();
        for plan in &plans {
            let times: Vec<u64> = plan.submissions.iter().map(|s| s.at_us).collect();
            // The whole burst lands well before the first tail arrival:
            // even a generous burst draw is tiny next to a tail gap.
            assert!(
                times[3] < 100_000,
                "burst should clump near zero: {times:?}"
            );
            assert!(
                times[4] - times[3] > 100_000,
                "tail gaps should dwarf burst gaps: {times:?}"
            );
        }
        // Deterministic like every other arrival shape.
        let again = spec.plan().unwrap();
        for (pa, pb) in plans.iter().zip(&again) {
            let ta: Vec<u64> = pa.submissions.iter().map(|s| s.at_us).collect();
            let tb: Vec<u64> = pb.submissions.iter().map(|s| s.at_us).collect();
            assert_eq!(ta, tb);
        }
        assert_eq!(spec.arrival.mean_us(), 1_000);
    }

    #[test]
    fn bad_template_surfaces_before_running() {
        let spec = WorkloadSpec {
            mix: QueryMix::single("select nonsense"),
            ..WorkloadSpec::default()
        };
        assert!(spec.plan().is_err());
    }
}

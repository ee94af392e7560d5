//! The four workloads: what web each runs on, which queries it sends, how
//! many per round, and which engine configuration serves them.
//!
//! Each workload runs on one fixed web, so what a query costs in
//! messages and bytes is a property of the code and repeats exactly.
//! `--seed` is the only input that changes anything: the order of the
//! template draw and the mutation schedule of the open-loop workload are
//! pure functions of it; the closed-loop workloads send one query over
//! one web and read the same whatever the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_core::{CachePolicy, EngineConfig};
use webdis_web::{doc_url, figures, generate, HostedWeb, Mutation, MutationOp, WebGenConfig};

/// Rounds in a reported invocation.
pub const ROUNDS: usize = 7;
/// Rounds under `--quick` (the package's own tests only).
pub const QUICK_ROUNDS: usize = 2;
/// Cold starts per round; the round reports their median.
pub const SETUPS_PER_ROUND: usize = 5;
/// The `--seconds` value the per-round counts below are written for;
/// other values scale the counts in proportion.
pub const NOMINAL_SECONDS: u64 = 20;
/// A query not complete this long after submission is counted as hung.
/// Long enough for a connect that met a full accept queue to get through:
/// the kernel retransmits the SYN after 1 s and again after 3 s, and on a
/// host that steals a second of CPU at a time that happens to correct
/// queries, which are then slow, not failed.
pub const HUNG_DEADLINE_MS: u64 = 10_000;
/// Open-loop latency limit: a query answered later than this misses it.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Open-loop offered rate, queries per second.
pub const OPEN_LOOP_QPS: f64 = 80.0;
/// Edits applied to the living web inside each timed block.
pub const EDITS_PER_BLOCK: usize = 5;
/// Generator seed of the crawl and living webs.
const WEB_SEED: u64 = 11;

/// Which transport and loop a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Campus web over the loopback TCP cluster, closed loop.
    CampusTcp,
    /// Generated 16-site web through the simulator, closed loop.
    Crawl16Sim,
    /// The same web over a 16-daemon TCP cluster, closed loop.
    Crawl16Tcp,
    /// Zipf template mix on an 8-site living web over TCP, open loop.
    ZipfLiveTcp,
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Untimed queries per round at [`NOMINAL_SECONDS`].
    pub warmup: usize,
    /// Timed queries per round at [`NOMINAL_SECONDS`].
    pub timed: usize,
    /// Closed loop: timed queries between two readings of the host's
    /// speed, about 200 ms of work. The open loop reads it when idle.
    pub slice: usize,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::CampusTcp,
        name: "campus_tcp",
        warmup: 100,
        timed: 1500,
        slice: 150,
    },
    Workload {
        kind: Kind::Crawl16Sim,
        name: "crawl16_sim",
        warmup: 5,
        timed: 120,
        slice: 10,
    },
    Workload {
        kind: Kind::Crawl16Tcp,
        name: "crawl16_tcp",
        warmup: 5,
        timed: 100,
        slice: 5,
    },
    Workload {
        kind: Kind::ZipfLiveTcp,
        name: "zipf_live_tcp",
        warmup: 40,
        timed: 240,
        slice: 0,
    },
];

/// Fewest timed queries per round: keeps ≥ 10 samples beyond the round's
/// p90 whatever `--seconds` says.
pub const MIN_TIMED: usize = 100;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `(warm-up, timed)` queries per round for a `--seconds` value. The
    /// block is a fixed count, never a duration, so both sides of a
    /// comparison do identical work; `--seconds` only scales that count.
    pub fn counts(&self, seconds: u64, quick: bool) -> (usize, usize) {
        if quick {
            return (self.warmup.min(5), self.timed.min(20));
        }
        let scale = |n: usize| (n as u64 * seconds).div_ceil(NOMINAL_SECONDS) as usize;
        (scale(self.warmup).max(1), scale(self.timed).max(MIN_TIMED))
    }

    /// True for the open-loop workload.
    pub fn open_loop(&self) -> bool {
        self.kind == Kind::ZipfLiveTcp
    }

    /// True when the workload runs over real sockets.
    pub fn tcp(&self) -> bool {
        self.kind != Kind::Crawl16Sim
    }

    /// The engine configuration every site and the client run with.
    pub fn engine_config(&self) -> EngineConfig {
        match self.kind {
            Kind::ZipfLiveTcp => EngineConfig {
                doc_cache_size: 64,
                cache: Some(CachePolicy::default()),
                log_purge_us: Some(50_000),
                ..EngineConfig::default()
            },
            _ => EngineConfig::default(),
        }
    }

    /// The web the workload runs on: the same for every round and seed,
    /// so traffic per query is an exact count and not a draw.
    pub fn web(&self) -> HostedWeb {
        let (sites, docs) = match self.kind {
            Kind::CampusTcp => return figures::campus(),
            Kind::Crawl16Sim | Kind::Crawl16Tcp => (16, 6),
            Kind::ZipfLiveTcp => (8, 6),
        };
        generate(&WebGenConfig {
            sites,
            docs_per_site: docs,
            extra_local_links: 2,
            extra_global_links: 2,
            title_needle_prob: 0.2,
            filler_words: 400,
            seed: WEB_SEED,
            ..WebGenConfig::default()
        })
    }

    /// The DISQL templates, most popular first.
    pub fn templates(&self) -> Vec<String> {
        match self.kind {
            Kind::CampusTcp => vec![figures::CAMPUS_QUERY.to_owned()],
            Kind::Crawl16Sim | Kind::Crawl16Tcp => vec![crawl_query(0, "(L|G)*", "title")],
            Kind::ZipfLiveTcp => vec![
                crawl_query(0, "L*", "title"),
                // The heavy class: rank 2 of Zipf(1.0) over 8 is 18.4 % of
                // traffic, so the block's p90 sits inside this mode and
                // not on the cliff between modes.
                crawl_query(0, "(L|G)*", "title"),
                crawl_query(1, "L*", "title"),
                crawl_query(2, "G·(L*2)", "title"),
                crawl_query(3, "L*", "text"),
                crawl_query(4, "L*", "title"),
                crawl_query(5, "G·(L*2)", "text"),
                crawl_query(6, "L*", "title"),
            ],
        }
    }

    /// The template index of each query of one round, warm-up first.
    /// Closed-loop workloads have one template. The open-loop mix holds
    /// every template in exact Zipf(1.0) proportion and the seed only
    /// shuffles the order, so the amount of work in a block does not
    /// depend on the luck of the draw.
    pub fn sequence(&self, seed: u64, round: usize, warmup: usize, timed: usize) -> Vec<usize> {
        let n_templates = self.templates().len();
        if n_templates == 1 {
            return vec![0; warmup + timed];
        }
        let mut rng = StdRng::seed_from_u64(round_seed(seed, round) ^ 0x5eed_7e3a);
        let mut seq = zipf_block(n_templates, warmup, &mut rng);
        seq.extend(zipf_block(n_templates, timed, &mut rng));
        seq
    }

    /// The edits of one round's timed block as `(position in the block,
    /// mutation)`: the mutation is applied just before that timed query
    /// is submitted. Empty except on the living-web workload.
    pub fn mutations(&self, seed: u64, round: usize, timed: usize) -> Vec<(usize, Mutation)> {
        if self.kind != Kind::ZipfLiveTcp {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(round_seed(seed, round) ^ 0x0ed1_7ed1);
        let mut at: Vec<usize> = (0..EDITS_PER_BLOCK)
            .map(|_| rng.gen_range(0..timed))
            .collect();
        at.sort_unstable();
        at.into_iter()
            .map(|index| {
                let url = doc_url(rng.gen_range(0..8), rng.gen_range(0..6));
                let op = MutationOp::EditPage {
                    url,
                    token: "needle".to_owned(),
                };
                // `at_us` is the due offset of the query the edit precedes.
                let at_us = (index as f64 * 1e6 / OPEN_LOOP_QPS) as u64;
                (index, Mutation { at_us, op })
            })
            .collect()
    }
}

fn crawl_query(start_site: usize, pre: &str, column: &str) -> String {
    format!(
        r#"select d.url, d.title from document d such that "{}" {pre} d where d.{column} contains "needle""#,
        doc_url(start_site, 0)
    )
}

/// The seed of one round's inputs (SplitMix64 step over seed and round).
fn round_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((round as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` draws over `k` ranked templates in exact Zipf(1.0) proportion
/// (largest-remainder rounding), in seeded random order.
fn zipf_block(k: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let h: f64 = (1..=k).map(|r| 1.0 / r as f64).sum();
    let ideal: Vec<f64> = (1..=k).map(|r| n as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..k).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (ideal[a] - ideal[a].floor(), ideal[b] - ideal[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut seq: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(t, &c)| std::iter::repeat_n(t, c))
        .collect();
    for i in (1..seq.len()).rev() {
        seq.swap(i, rng.gen_range(0..=i));
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_keep_the_p90_rule() {
        let w = Workload::by_name("crawl16_tcp").unwrap();
        assert_eq!(w.counts(NOMINAL_SECONDS, false), (w.warmup, w.timed));
        assert_eq!(w.counts(1, false).1, MIN_TIMED);
        assert_eq!(w.counts(2 * NOMINAL_SECONDS, false).1, 2 * w.timed);
        for w in WORKLOADS {
            assert!(w.counts(NOMINAL_SECONDS, false).1 >= MIN_TIMED);
            assert!(w.counts(1, true).1 < MIN_TIMED);
        }
    }

    #[test]
    fn zipf_blocks_hold_exact_proportions_whatever_the_seed() {
        let w = Workload::by_name("zipf_live_tcp").unwrap();
        let count = |seq: &[usize], t: usize| seq.iter().filter(|&&x| x == t).count();
        let a = w.sequence(11, 0, 100, 400);
        let b = w.sequence(12, 0, 100, 400);
        assert_ne!(a, b, "the seed shuffles the order");
        assert_eq!(a, w.sequence(11, 0, 100, 400));
        for seq in [&a, &b] {
            assert_eq!(seq.len(), 500);
            let timed = &seq[100..];
            assert_eq!(count(timed, 0), 147);
            assert_eq!(count(timed, 1), 74);
            assert_eq!(count(timed, 7), 18);
            assert_eq!(count(&seq[..100], 1), 19);
        }
    }

    #[test]
    fn mutations_fall_inside_the_timed_block_and_repeat() {
        let w = Workload::by_name("zipf_live_tcp").unwrap();
        let m = w.mutations(11, 3, 400);
        assert_eq!(m.len(), EDITS_PER_BLOCK);
        assert!(m.iter().all(|(i, _)| (0..400).contains(i)));
        assert!(m.windows(2).all(|p| p[0].0 <= p[1].0));
        assert_eq!(m, w.mutations(11, 3, 400));
        assert_ne!(m, w.mutations(12, 3, 400));
        assert!(Workload::by_name("campus_tcp")
            .unwrap()
            .mutations(11, 0, 100)
            .is_empty());
    }

    #[test]
    fn webs_are_fixed_and_sized_as_declared() {
        let w = Workload::by_name("crawl16_sim").unwrap();
        assert_eq!(w.web().total_bytes(), w.web().total_bytes());
        assert_eq!(w.web().len(), 96);
        assert_eq!(Workload::by_name("zipf_live_tcp").unwrap().web().len(), 48);
        for w in WORKLOADS {
            assert_eq!(w.slice == 0, w.open_loop());
            assert!(w.timed % w.slice.max(1) == 0, "{}: whole slices", w.name);
        }
    }
}

//! Property tests for the Current Hosts Table in isolation: for a random
//! shipping tree's clone population, *any* interleaving of the protocol's
//! add/delete messages — reports overtaking announcements, duplicate
//! clones skipped, both CHT modes — converges to `complete()` once every
//! clone is accounted. A second property fires the Section-7.1 expiry
//! sweep mid-run and checks convergence still holds, with every
//! written-off entry drawn from the real clone population. A third holds
//! the table, whose rows are indexed by `(node, state)`, to the linear
//! table it replaced (`cht_reference/`) on random add, delete, tick and
//! expiry sequences.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis::core::{Cht, CompletionMode};
use webdis::model::Url;
use webdis::net::{ChtEntry, CloneState};

#[allow(dead_code)]
mod cht_reference;

/// A small pool of distinct clone states (stage index × remaining PRE).
const STATES: &[(u32, &str)] = &[
    (0, "L*"),
    (0, "G"),
    (1, "L*1"),
    (1, "L*2·G"),
    (2, "N"),
    (0, "(L|G)*"),
];

fn node(idx: usize) -> Url {
    Url::parse(&format!("http://site{idx}.test/index.html")).unwrap()
}

fn state(idx: usize) -> CloneState {
    let (num_q, pre) = STATES[idx % STATES.len()];
    CloneState {
        num_q,
        rem_pre: webdis::pre::parse(pre).unwrap(),
    }
}

/// One protocol message as seen by the user site's CHT.
#[derive(Debug, Clone)]
enum Op {
    /// A forwarding server announced a clone.
    Add(ChtEntry),
    /// A processing server reported the clone done.
    Del(Url, CloneState),
}

/// The message population for a clone multiset: every clone is announced;
/// in `Strict` mode every clone is also reported, while in `Paper` mode
/// servers silently drop identical re-arrivals, so exactly one report per
/// distinct `(node, state)` pair is ever sent (Section 3.1.1).
fn build_ops(clones: &[(usize, usize)], mode: CompletionMode) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut reported = HashSet::new();
    for &(n, s) in clones {
        ops.push(Op::Add(ChtEntry {
            node: node(n),
            state: state(s),
        }));
        if mode == CompletionMode::ChtStrict || reported.insert((n, s)) {
            ops.push(Op::Del(node(n), state(s)));
        }
    }
    ops
}

/// Fisher–Yates with the workspace's seeded `StdRng` (the vendored `rand`
/// has no `shuffle`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

fn apply(cht: &mut Cht, op: &Op) {
    match op {
        Op::Add(entry) => cht.add(entry),
        Op::Del(n, s) => cht.delete(n, s),
    }
}

fn clone_multiset() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..8, 0usize..STATES.len()), 1..24)
}

fn mode() -> impl Strategy<Value = CompletionMode> {
    prop_oneof![Just(CompletionMode::Cht), Just(CompletionMode::ChtStrict)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Without any faults, every interleaving of the message population
    /// reaches `complete()` — no false negatives from reordering, no
    /// entry left live, no tombstone left outstanding.
    #[test]
    fn any_interleaving_converges(
        clones in clone_multiset(),
        m in mode(),
        seed in any::<u64>(),
    ) {
        let mut ops = build_ops(&clones, m);
        shuffle(&mut ops, seed);

        let mut cht = Cht::new(m);
        for op in &ops {
            apply(&mut cht, op);
        }
        prop_assert!(cht.complete(), "live/tombstones:\n{}", cht.debug_dump());
        prop_assert_eq!(cht.stats.expired, 0);
        // Every distinct clone left a row (skips only ever hide repeats).
        let distinct: HashSet<_> = clones.iter().copied().collect();
        prop_assert!(cht.len() >= distinct.len());
    }

    /// With the Section-7.1 expiry sweep firing mid-run — writing off
    /// whatever happens to be live at that instant — the table still
    /// converges once the remaining messages land and a final sweep
    /// flushes stragglers, and everything written off names a real clone.
    #[test]
    fn interleaving_with_expiry_converges(
        clones in clone_multiset(),
        m in mode(),
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut ops = build_ops(&clones, m);
        shuffle(&mut ops, seed);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((ops.len() as f64) * cut_frac) as usize;

        let mut cht = Cht::new(m);
        for op in &ops[..cut] {
            apply(&mut cht, op);
        }
        // The sweep: everything seen so far was added at clock 0; advance
        // the clock past the timeout so all of it goes stale at once.
        cht.tick(100);
        let mut failed = cht.expire_stale(50);
        for op in &ops[cut..] {
            apply(&mut cht, op);
        }
        // Final sweep (timeout 0): anything the post-cut messages left
        // live or tombstoned is written off rather than hanging forever.
        failed.extend(cht.expire_stale(0));

        prop_assert!(cht.complete(), "live/tombstones:\n{}", cht.debug_dump());
        // Expiry is explicit, never silent: each failure names a clone
        // from the actual population.
        let population: HashSet<(Url, CloneState)> = clones
            .iter()
            .map(|&(n, s)| (node(n), state(s)))
            .collect();
        for pair in &failed {
            prop_assert!(population.contains(pair), "phantom failure {pair:?}");
        }
        prop_assert_eq!(cht.stats.expired, failed.len() as u64);
    }

    /// The keyed table and the linear one, fed the same random sequence
    /// of adds, deletes, clock ticks and expiry sweeps, agree after every
    /// step: the same completion verdict, counters, live entries in order,
    /// size and dump, and every sweep writes off the same entries in the
    /// same order.
    #[test]
    fn keyed_table_equals_the_linear_one(
        steps in prop::collection::vec(
            (0u8..8, 0usize..6, 0usize..STATES.len(), 0u64..40),
            0..80,
        ),
        m in mode(),
    ) {
        let mut keyed = Cht::new(m);
        let mut linear = cht_reference::Cht::new(m);
        let (mut clock, mut expired) = (0, 0);
        for (kind, n, s, t) in steps {
            match kind {
                0..=2 => {
                    let entry = ChtEntry { node: node(n), state: state(s) };
                    keyed.add(&entry);
                    linear.add(&entry);
                }
                3..=5 => {
                    keyed.delete(&node(n), &state(s));
                    linear.delete(&node(n), &state(s));
                }
                6 => {
                    clock += t;
                    keyed.tick(clock);
                    linear.tick(clock);
                }
                _ => {
                    let failed = keyed.expire_stale(t);
                    prop_assert_eq!(&failed, &linear.expire_stale(t));
                    expired += failed.len();
                }
            }
            prop_assert_eq!(keyed.complete(), linear.complete());
            prop_assert_eq!(keyed.stats, linear.stats);
            let live: Vec<_> = keyed.live_entries().collect();
            prop_assert_eq!(live, linear.live_entries().collect::<Vec<_>>());
            prop_assert_eq!(keyed.len(), linear.len());
            prop_assert_eq!(keyed.debug_dump(), linear.debug_dump());
        }
        prop_assert_eq!(keyed.stats.expired, expired as u64);
    }
}

//! Property tests for the distributed protocol itself: completion is
//! always detected (never falsely, never missed) across random webs,
//! random queries, engine configurations, latency jitter and message
//! reordering; and the two execution strategies always agree on the
//! result set.

use std::sync::Arc;

use proptest::prelude::*;
use webdis::core::{run_datashipping_sim, run_query_sim, Deployment, EngineConfig};
use webdis::sim::{Fault, FaultKind, LatencyModel, SimConfig};
use webdis::web::{generate, WebGenConfig};

/// Strategy over generated-web configurations small enough to run
/// hundreds of cases quickly but varied in topology.
fn web_config() -> impl Strategy<Value = WebGenConfig> {
    (
        1usize..6, // sites
        1usize..4, // docs per site
        0usize..3, // extra local links
        0usize..3, // extra global links
        0u8..=10,  // title needle prob (tenths)
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(sites, docs, el, eg, prob, seed, acyclic)| WebGenConfig {
            sites,
            docs_per_site: docs,
            extra_local_links: el,
            extra_global_links: eg,
            title_needle_prob: f64::from(prob) / 10.0,
            text_needle_prob: 0.3,
            filler_words: 30,
            seed,
            acyclic,
            ..WebGenConfig::default()
        })
}

/// Strategy over DISQL queries against generated webs.
fn disql_query() -> impl Strategy<Value = String> {
    let pre1 = prop_oneof![
        Just("L*"),
        Just("(L|G)*"),
        Just("G·(L*2)"),
        Just("L*3"),
        Just("(L|G)·(L|G)"),
        Just("N|G·L*1"),
    ];
    let pre2 = prop_oneof![Just("(L|G)"), Just("L*1"), Just("G·L*1")];
    let where1 = prop_oneof![
        Just(r#"where d0.title contains "needle""#),
        Just(r#"where d0.length > 10"#),
        Just(""),
    ];
    (pre1, pre2, where1, any::<bool>()).prop_map(|(p1, p2, w1, two_stage)| {
        if two_stage {
            format!(
                r#"select d0.url, d1.url
                   from document d0 such that "http://site0.test/doc0.html" {p1} d0,
                   {w1}
                        document d1 such that d0 {p2} d1"#
            )
        } else {
            format!(
                r#"select d0.url, d0.title
                   from document d0 such that "http://site0.test/doc0.html" {p1} d0,
                   {w1}"#
            )
        }
    })
}

/// The non-default engine configurations the agreement properties sweep.
fn swept_configs() -> [EngineConfig; 4] {
    [
        EngineConfig::strict(),
        EngineConfig::ack_chain(),
        EngineConfig {
            batch_per_site: false,
            ..EngineConfig::default()
        },
        EngineConfig {
            local_forwarding: false,
            ..EngineConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Completion is detected on every run, for every engine
    /// configuration, and all configurations agree on the result set —
    /// as does the data-shipping baseline.
    #[test]
    fn engines_and_configs_agree(cfg in web_config(), disql in disql_query()) {
        let web = Arc::new(generate(&cfg));
        let reference = run_query_sim(
            Arc::clone(&web),
            &disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .expect("generated query parses");
        prop_assert!(reference.complete, "default config must complete");

        for engine_cfg in swept_configs() {
            let outcome = run_query_sim(
                Arc::clone(&web),
                &disql,
                engine_cfg.clone(),
                SimConfig::default(),
            )
            .unwrap();
            prop_assert!(outcome.complete, "{engine_cfg:?} must complete");
            prop_assert_eq!(
                outcome.result_set(),
                reference.result_set(),
                "{:?} must agree",
                engine_cfg
            );
        }

        let data = run_datashipping_sim(Arc::clone(&web), &disql, SimConfig::default()).unwrap();
        prop_assert!(data.complete);
        prop_assert_eq!(data.result_set(), reference.result_set());
    }

    /// Hybrid execution with an arbitrary subset of participating sites
    /// completes and agrees with full query shipping — the Section 7.1
    /// migration path holds at every point, including under jitter, and
    /// under every swept configuration (ack chains are coerced to the
    /// CHT, which the handoff is defined over).
    #[test]
    fn hybrid_agrees_at_any_participation(
        cfg in web_config(),
        disql in disql_query(),
        mask in any::<u32>(),
        jitter in 0u64..50_000,
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let reference = run_query_sim(
            Arc::clone(&web),
            &disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        prop_assert!(reference.complete);
        let participating: Vec<_> = web
            .sites()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 32)) != 0)
            .map(|(_, s)| s)
            .collect();
        let sim = SimConfig { jitter_us: jitter, seed, ..SimConfig::default() };
        for engine_cfg in [EngineConfig::default()].into_iter().chain(swept_configs()) {
            let mut deployment = Deployment::new(Arc::clone(&web), EngineConfig {
                hybrid: true,
                ..engine_cfg.clone()
            });
            deployment.participating = Some(participating.clone());
            let outcome = deployment.query_sim(&disql, sim.clone()).unwrap();
            let stats = outcome.hybrid;
            prop_assert!(outcome.complete, "hybrid under {engine_cfg:?} must complete");
            prop_assert_eq!(
                outcome.result_set(),
                reference.result_set(),
                "hybrid under {:?} must agree",
                engine_cfg
            );
            prop_assert_eq!(outcome.hybrid, stats, "the counters ride on the record");
            if participating.is_empty() {
                prop_assert_eq!(stats.reentries, 0);
            }
        }
    }

    /// Under heavy jitter (messages freely overtake each other) the
    /// strict protocol still detects completion exactly and returns the
    /// same results.
    #[test]
    fn strict_mode_survives_reordering(
        cfg in web_config(),
        disql in disql_query(),
        jitter in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let sim = SimConfig {
            latency: LatencyModel { base_us: 100, per_kib_us: 50 },
            jitter_us: jitter,
            seed,
            ..SimConfig::default()
        };
        let outcome = run_query_sim(Arc::clone(&web), &disql, EngineConfig::strict(), sim).unwrap();
        prop_assert!(outcome.complete, "strict mode must complete under reordering");
        let calm = run_query_sim(
            web,
            &disql,
            EngineConfig::strict(),
            SimConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(outcome.result_set(), calm.result_set());
    }

    /// Ack-chain completion also survives reordering: Dijkstra–Scholten
    /// is insensitive to message order by construction.
    #[test]
    fn ack_chain_survives_reordering(
        cfg in web_config(),
        disql in disql_query(),
        jitter in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let sim = SimConfig {
            latency: LatencyModel { base_us: 100, per_kib_us: 50 },
            jitter_us: jitter,
            seed,
            ..SimConfig::default()
        };
        let outcome =
            run_query_sim(Arc::clone(&web), &disql, EngineConfig::ack_chain(), sim).unwrap();
        prop_assert!(outcome.complete, "ack chain must complete under reordering");
        let calm = run_query_sim(
            web,
            &disql,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(outcome.result_set(), calm.result_set());
    }

    /// The paper-mode CHT (with this crate's tombstone + subsumption
    /// robustness rules) also survives reordering.
    #[test]
    fn paper_mode_survives_reordering(
        cfg in web_config(),
        disql in disql_query(),
        jitter in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let sim = SimConfig {
            latency: LatencyModel { base_us: 100, per_kib_us: 50 },
            jitter_us: jitter,
            seed,
            ..SimConfig::default()
        };
        let outcome =
            run_query_sim(Arc::clone(&web), &disql, EngineConfig::default(), sim).unwrap();
        prop_assert!(outcome.complete, "paper mode must complete under reordering");
    }

    /// Ack chains certify *termination*, not *result delivery*: a lost
    /// ack or clone blocks completion forever, but a lost result report
    /// is invisible to the protocol — completion can be declared with
    /// rows silently missing. (The CHT does not have this failure mode:
    /// results and accounting travel in the same message, so a lost
    /// report provably blocks completion — see
    /// `no_false_completion_under_drops`.) The sound direction still
    /// holds: whatever arrives is correct, never fabricated.
    #[test]
    fn ack_chain_loss_never_fabricates_results(
        cfg in web_config(),
        disql in disql_query(),
        drop_pm in 1u32..300,
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let lossless =
            run_query_sim(Arc::clone(&web), &disql, EngineConfig::ack_chain(), SimConfig::default())
                .unwrap();
        prop_assert!(lossless.complete);
        let lossy = run_query_sim(
            web,
            &disql,
            EngineConfig::ack_chain(),
            SimConfig {
                faults: vec![Fault::rate(FaultKind::Drop, f64::from(drop_pm) / 1000.0)],
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap();
        // Soundness: every received row is a true row.
        prop_assert!(
            lossy.result_set().is_subset(&lossless.result_set()),
            "loss must never invent rows"
        );
        // And with no drops actually fired, completion must be exact.
        if lossy.metrics.dropped == 0 {
            prop_assert!(lossy.complete);
            prop_assert_eq!(lossy.result_set(), lossless.result_set());
        }
    }

    /// Completion is never declared while results are still outstanding:
    /// with fault injection dropping messages, either the run completes
    /// with the full result set, or completion is (correctly) not
    /// declared. The protocol must never claim completion with fewer
    /// results than a lossless run produces.
    #[test]
    fn no_false_completion_under_drops(
        cfg in web_config(),
        disql in disql_query(),
        drop_pm in 1u32..300, // drop rate in per-mille
        seed in any::<u64>(),
    ) {
        let web = Arc::new(generate(&cfg));
        let lossless = run_query_sim(
            Arc::clone(&web),
            &disql,
            EngineConfig::strict(),
            SimConfig::default(),
        )
        .unwrap();
        let lossy = run_query_sim(
            web,
            &disql,
            EngineConfig::strict(),
            SimConfig {
                faults: vec![Fault::rate(FaultKind::Drop, f64::from(drop_pm) / 1000.0)],
                seed,
                ..SimConfig::default()
            },
        )
        .unwrap();
        if lossy.complete && lossy.metrics.dropped == 0 {
            prop_assert_eq!(lossy.result_set(), lossless.result_set());
        }
        if lossy.complete && lossy.metrics.dropped > 0 {
            // Completion may still be correctly reached if only messages
            // whose entries were already cleared... cannot happen in
            // strict mode: every dropped query or report leaves an
            // uncleared entry or an unmet tombstone. So completion with
            // drops implies the drops hit only fetch traffic — which the
            // query-shipping engine never sends.
            prop_assert!(
                lossy.result_set() == lossless.result_set(),
                "completion declared despite {} dropped messages and missing results",
                lossy.metrics.dropped
            );
        }
    }
}

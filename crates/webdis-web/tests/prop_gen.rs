//! Generator invariants under arbitrary configurations: structure,
//! determinism, reachability and disk round-trips.

use proptest::prelude::*;
use webdis_model::LinkType;
use webdis_web::{generate, HostedWeb, WebGenConfig};

fn config() -> impl Strategy<Value = WebGenConfig> {
    (
        1usize..10,
        1usize..6,
        0usize..4,
        0usize..4,
        0u8..=10,
        0u8..=10,
        1usize..200,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(sites, docs, el, eg, tp, xp, filler, seed, acyclic)| WebGenConfig {
                sites,
                docs_per_site: docs,
                extra_local_links: el,
                extra_global_links: eg,
                title_needle_prob: f64::from(tp) / 10.0,
                text_needle_prob: f64::from(xp) / 10.0,
                filler_words: filler,
                seed,
                acyclic,
                ..WebGenConfig::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact document/site counts, no dangling links, every page parses.
    #[test]
    fn structure_invariants(cfg in config()) {
        let web = generate(&cfg);
        prop_assert_eq!(web.len(), cfg.sites * cfg.docs_per_site);
        prop_assert_eq!(web.sites().len(), cfg.sites);
        let graph = web.graph();
        prop_assert!(graph.floating_links().is_empty(), "no dangling links");
        for url in web.urls() {
            let doc = webdis_html::parse_html(web.get(url).unwrap());
            prop_assert!(!doc.title().is_empty());
        }
    }

    /// The backbone makes every document reachable from site0/doc0 —
    /// in cyclic mode via the ring, in acyclic mode via the forward
    /// chains.
    #[test]
    fn backbone_reachability(cfg in config()) {
        let web = generate(&cfg);
        let graph = web.graph();
        let start = webdis_web::gen::doc_url(0, 0);
        let reach = graph.reachable(&start, &[LinkType::Local, LinkType::Global]);
        prop_assert_eq!(
            reach.len(),
            web.len(),
            "every generated document must be reachable"
        );
    }

    /// Acyclic mode really is acyclic: no node reaches itself.
    #[test]
    fn acyclic_mode_has_no_cycles(cfg in config()) {
        let cfg = WebGenConfig { acyclic: true, ..cfg };
        let web = generate(&cfg);
        let graph = web.graph();
        for url in web.urls() {
            let mut frontier: Vec<_> = graph
                .links_from(url)
                .iter()
                .map(|l| l.href.without_fragment())
                .collect();
            let mut seen = std::collections::BTreeSet::new();
            while let Some(node) = frontier.pop() {
                prop_assert!(!node.same_document(url), "cycle through {url}");
                if seen.insert(node.clone()) {
                    frontier.extend(
                        graph.links_from(&node).iter().map(|l| l.href.without_fragment()),
                    );
                }
            }
        }
    }

    /// Same config, same web; different seed, different web (except for
    /// webs too small to differ).
    #[test]
    fn seeded_determinism(cfg in config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.total_bytes(), b.total_bytes());
        for url in a.urls() {
            prop_assert_eq!(a.get(url), b.get(url));
        }
    }

    /// Disk round-trip preserves every byte.
    #[test]
    fn disk_round_trip(cfg in config()) {
        let web = generate(&cfg);
        let dir = std::env::temp_dir().join(format!(
            "webdis-propgen-{}-{}",
            std::process::id(),
            cfg.seed
        ));
        let _ = std::fs::remove_dir_all(&dir);
        web.to_dir(&dir).unwrap();
        let back = HostedWeb::from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back.len(), web.len());
        for url in web.urls() {
            prop_assert_eq!(back.get(url), web.get(url), "mismatch at {}", url);
        }
    }
}

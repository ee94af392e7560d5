//! Seeded synthetic web generation — the workload generator for the
//! quantitative experiments.
//!
//! The generator produces `sites × docs_per_site` HTML documents with a
//! controlled topology:
//!
//! * a deterministic **backbone** guarantees reachability: within each
//!   site, document `i` links locally to document `i+1`; each site's
//!   document 0 links globally to the next site's document 0 (a ring);
//! * additional random local and global links give the cross-linked,
//!   multi-path structure that makes duplicate clones (and hence the log
//!   table) matter;
//! * a needle token is planted in titles/text with configurable
//!   probability — the selectivity knob for node-query predicates;
//! * filler text scales document size — the knob that separates
//!   query shipping (results only) from data shipping (whole documents).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_model::Url;

use crate::hosted::{HostedWeb, PageBuilder};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WebGenConfig {
    /// Number of sites (one query server each).
    pub sites: usize,
    /// Documents per site.
    pub docs_per_site: usize,
    /// Extra random local links per document (beyond the backbone).
    pub extra_local_links: usize,
    /// Extra random global links per document (beyond the backbone ring).
    pub extra_global_links: usize,
    /// Probability a document's *title* contains the needle.
    pub title_needle_prob: f64,
    /// Probability a document's *body* contains the needle.
    pub text_needle_prob: f64,
    /// The needle token planted for predicates to match.
    pub needle: String,
    /// Number of filler words per document body (document size knob).
    pub filler_words: usize,
    /// RNG seed; identical configs generate identical webs.
    pub seed: u64,
    /// Acyclic mode: all links point strictly "forward" in `(site, doc)`
    /// order — local links to higher doc indices, global links to higher
    /// site indices — so traversals terminate even without duplicate
    /// elimination. Diamonds (multiple paths to one node) still abound,
    /// which is what the log-table ablation needs.
    pub acyclic: bool,
    /// Hub mode: each site additionally hosts `/hub.html`, an index page
    /// with one anchor per document of the site (linked from document 0).
    /// This is the corpus-size scaling vehicle: a site's hub ANCHOR
    /// relation grows with `docs_per_site`, so a single node-query over
    /// it exercises 10^5-tuple relations without 10^5 network hops.
    pub hub_pages: bool,
    /// When > 0 and `hub_pages` is set, every `hub_needle_every`-th hub
    /// anchor label carries the needle token — a *deterministic* (not
    /// seeded) selectivity knob, so benchmark match counts are exactly
    /// `ceil(docs_per_site / hub_needle_every)`.
    pub hub_needle_every: usize,
}

impl Default for WebGenConfig {
    fn default() -> WebGenConfig {
        WebGenConfig {
            sites: 8,
            docs_per_site: 4,
            extra_local_links: 1,
            extra_global_links: 1,
            title_needle_prob: 0.3,
            text_needle_prob: 0.3,
            needle: "needle".to_owned(),
            filler_words: 60,
            seed: 1,
            acyclic: false,
            hub_pages: false,
            hub_needle_every: 0,
        }
    }
}

/// The URL of document `doc` on site `site` in a generated web.
pub fn doc_url(site: usize, doc: usize) -> Url {
    Url::from_parts(&format!("site{site}.test"), 80, &format!("/doc{doc}.html"))
}

/// The URL of site `site`'s hub page (hub mode only).
pub fn hub_url(site: usize) -> Url {
    Url::from_parts(&format!("site{site}.test"), 80, "/hub.html")
}

/// Vocabulary for filler text; chosen so no word contains another (filler
/// can never accidentally match a needle predicate).
const FILLER: [&str; 12] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima",
];

/// Generates a web per the configuration.
pub fn generate(cfg: &WebGenConfig) -> HostedWeb {
    assert!(cfg.sites > 0, "need at least one site");
    assert!(cfg.docs_per_site > 0, "need at least one document per site");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut web = HostedWeb::new();

    for site in 0..cfg.sites {
        for doc in 0..cfg.docs_per_site {
            let title_needle = rng.gen_bool(cfg.title_needle_prob);
            let text_needle = rng.gen_bool(cfg.text_needle_prob);
            let title = if title_needle {
                format!("Page {doc} of site {site} about {}", cfg.needle)
            } else {
                format!("Page {doc} of site {site}")
            };
            let mut page = PageBuilder::new(&title);

            // Filler text (and possibly the needle) as paragraphs.
            let mut body = String::new();
            for w in 0..cfg.filler_words {
                if w > 0 {
                    body.push(' ');
                }
                body.push_str(FILLER[rng.gen_range(0..FILLER.len())]);
            }
            page = page.para(&body);
            if text_needle {
                page = page.bold(&format!("contains the {} token", cfg.needle));
            }
            page = page.hr();

            // Backbone: local chain and global ring (chain in acyclic
            // mode — no wrap-around).
            if cfg.docs_per_site > 1 && (!cfg.acyclic || doc + 1 < cfg.docs_per_site) {
                let next = (doc + 1) % cfg.docs_per_site;
                page = page.link(
                    &doc_url(site, next).to_string(),
                    &format!("next doc {next}"),
                );
            }
            if doc == 0 && cfg.sites > 1 && (!cfg.acyclic || site + 1 < cfg.sites) {
                let next_site = (site + 1) % cfg.sites;
                page = page.link(
                    &doc_url(next_site, 0).to_string(),
                    &format!("next site {next_site}"),
                );
            }
            // Random extra links (restricted to forward targets in
            // acyclic mode).
            for _ in 0..cfg.extra_local_links {
                if cfg.docs_per_site > 1 {
                    let target = if cfg.acyclic {
                        if doc + 1 >= cfg.docs_per_site {
                            continue;
                        }
                        rng.gen_range(doc + 1..cfg.docs_per_site)
                    } else {
                        rng.gen_range(0..cfg.docs_per_site)
                    };
                    page = page.link(&doc_url(site, target).to_string(), "local ref");
                }
            }
            for _ in 0..cfg.extra_global_links {
                if cfg.sites > 1 {
                    let target_site = if cfg.acyclic {
                        if site + 1 >= cfg.sites {
                            continue;
                        }
                        rng.gen_range(site + 1..cfg.sites)
                    } else {
                        let t = rng.gen_range(0..cfg.sites);
                        if t == site {
                            (t + 1) % cfg.sites
                        } else {
                            t
                        }
                    };
                    let target_doc = rng.gen_range(0..cfg.docs_per_site);
                    page = page.link(&doc_url(target_site, target_doc).to_string(), "global ref");
                }
            }
            if cfg.hub_pages && doc == 0 {
                page = page.link(&hub_url(site).to_string(), "site hub");
            }
            web.insert(doc_url(site, doc), page.build());
        }
        if cfg.hub_pages {
            let mut hub = PageBuilder::new(&format!("Hub of site {site}"));
            hub = hub.para("Index of every document on this site.");
            for doc in 0..cfg.docs_per_site {
                let label = if cfg.hub_needle_every > 0 && doc % cfg.hub_needle_every == 0 {
                    format!("doc {doc} {} entry", cfg.needle)
                } else {
                    format!("doc {doc} entry")
                };
                hub = hub.link(&doc_url(site, doc).to_string(), &label);
            }
            web.insert(hub_url(site), hub.build());
        }
    }
    web
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::LinkType;

    #[test]
    fn generates_expected_shape() {
        let cfg = WebGenConfig {
            sites: 5,
            docs_per_site: 3,
            ..WebGenConfig::default()
        };
        let web = generate(&cfg);
        assert_eq!(web.len(), 15);
        assert_eq!(web.sites().len(), 5);
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = WebGenConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.total_bytes(), b.total_bytes());
        for url in a.urls() {
            assert_eq!(a.get(url), b.get(url));
        }
        let c = generate(&WebGenConfig { seed: 2, ..cfg });
        // Different seed, different link targets/needles (overwhelmingly).
        assert_ne!(a.total_bytes(), c.total_bytes());
    }

    #[test]
    fn backbone_makes_everything_reachable() {
        let cfg = WebGenConfig {
            sites: 6,
            docs_per_site: 4,
            extra_local_links: 0,
            extra_global_links: 0,
            ..WebGenConfig::default()
        };
        let web = generate(&cfg);
        let g = web.graph();
        let start = doc_url(0, 0);
        let reach = g.reachable(&start, &[LinkType::Local, LinkType::Global]);
        assert_eq!(reach.len(), 24, "backbone must reach all documents");
    }

    #[test]
    fn needle_probability_extremes() {
        let all = generate(&WebGenConfig {
            title_needle_prob: 1.0,
            text_needle_prob: 1.0,
            ..WebGenConfig::default()
        });
        for url in all.urls() {
            let html = all.get(url).unwrap();
            let doc = webdis_html::parse_html(html);
            assert!(doc.title().contains("needle"));
            assert!(doc.text().contains("needle"));
        }
        let none = generate(&WebGenConfig {
            title_needle_prob: 0.0,
            text_needle_prob: 0.0,
            ..WebGenConfig::default()
        });
        for url in none.urls() {
            let doc = webdis_html::parse_html(none.get(url).unwrap());
            assert!(!doc.title().contains("needle"));
            assert!(!doc.text().contains("needle"));
        }
    }

    #[test]
    fn filler_words_scale_document_size() {
        let small = generate(&WebGenConfig {
            filler_words: 10,
            ..WebGenConfig::default()
        });
        let large = generate(&WebGenConfig {
            filler_words: 1000,
            ..WebGenConfig::default()
        });
        assert!(large.total_bytes() > small.total_bytes() * 5);
    }

    #[test]
    fn no_dangling_links() {
        let web = generate(&WebGenConfig::default());
        assert!(web.graph().floating_links().is_empty());
    }

    #[test]
    fn hub_pages_index_every_document_with_deterministic_needles() {
        let cfg = WebGenConfig {
            sites: 2,
            docs_per_site: 10,
            hub_pages: true,
            hub_needle_every: 3,
            ..WebGenConfig::default()
        };
        let web = generate(&cfg);
        // 2 × 10 documents + 2 hubs, and the hub is linked from doc 0.
        assert_eq!(web.len(), 22);
        assert!(web.graph().floating_links().is_empty());
        let hub = webdis_html::parse_html(web.get(&hub_url(1)).unwrap());
        assert_eq!(hub.anchors().len(), 10);
        let with_needle = hub.anchors().filter(|a| a.label.contains("needle")).count();
        assert_eq!(with_needle, 4); // docs 0, 3, 6, 9
        assert!(hub.anchors().nth(4).unwrap().href.contains("doc4"));
        // Hub mode is deterministic regardless of seed.
        let again = generate(&WebGenConfig { seed: 99, ..cfg });
        assert_eq!(
            web.get(&hub_url(0)).unwrap(),
            again.get(&hub_url(0)).unwrap()
        );
    }

    #[test]
    fn single_site_single_doc_degenerate() {
        let web = generate(&WebGenConfig {
            sites: 1,
            docs_per_site: 1,
            ..WebGenConfig::default()
        });
        assert_eq!(web.len(), 1);
    }
}

//! The living web: a versioned document store that evolves under a
//! seeded, replayable mutation schedule while queries are in flight.
//!
//! [`HostedWeb`] is a set of documents; [`LiveWeb`] wraps the same
//! documents behind a lock and lets a driver apply [`Mutation`]s —
//! pages created/edited/deleted, anchors added/removed (link rot),
//! whole sites leaving and rejoining — at scheduled instants. Every
//! mutation bumps the owning site's **content version**; each document
//! carries the site version current when it last changed, and deleted
//! documents leave a tombstone so the engine can distinguish a *dead
//! link* (page existed, now gone) from a URL that never resolved.
//!
//! The consistency contract the query engine gets is **visit-time
//! snapshot**: a site visit answers from the content version current at
//! visit time, stamped into the trace as `content_version`. The store
//! keeps an append-only [`AppliedMutation`] history plus an FNV-1a
//! digest over it, so two runs of the same schedule are byte-comparable
//! and the chaos oracle can reconstruct which version was current at
//! any instant.
//!
//! It is the only store the engine reads ([`WebView`]): a web frozen in
//! time is a `LiveWeb` nothing mutates — every page at version 0, no
//! tombstones.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webdis_model::{SiteAddr, Url};

use crate::hosted::{HostedWeb, PageBuilder};

/// One scheduled change to the hosted web.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// Instant (µs, driver clock) at which the change takes effect.
    pub at_us: u64,
    /// What changes.
    pub op: MutationOp,
}

/// The kinds of change a living web undergoes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOp {
    /// Revise a page in place: the title gains a ` rev{N}` suffix and the
    /// body a paragraph carrying `token`, where `N` is the site content
    /// version after the edit. Editing a deleted or unknown URL recreates
    /// the page (a fresh revision under the same URL).
    EditPage {
        /// Page to revise.
        url: Url,
        /// Marker token planted in the revision paragraph (lets
        /// selectivity predicates observe the edit).
        token: String,
    },
    /// Publish a new page (or overwrite an existing one wholesale).
    CreatePage {
        /// URL of the new page.
        url: Url,
        /// Its title; the body repeats it in a paragraph.
        title: String,
    },
    /// Take a page down, leaving a tombstone: inbound links rot.
    DeletePage {
        /// Page to delete.
        url: Url,
    },
    /// Append an anchor to a page (no-op recorded if the page is gone).
    AddAnchor {
        /// Page gaining the anchor.
        url: Url,
        /// Anchor target.
        href: Url,
        /// Anchor label.
        label: String,
    },
    /// Drop the last anchor of a page (no-op recorded if none remain).
    RemoveAnchor {
        /// Page losing its last anchor.
        url: Url,
    },
    /// The whole site leaves: every live page it hosts is tombstoned.
    SiteLeave {
        /// Host of the departing site.
        host: String,
    },
    /// The site (re)joins with a fresh root page (no-op recorded if the
    /// site still hosts live pages).
    SiteJoin {
        /// Host of the joining site.
        host: String,
    },
}

impl MutationOp {
    /// Short label naming the operation kind.
    pub fn label(&self) -> &'static str {
        match self {
            MutationOp::EditPage { .. } => "edit_page",
            MutationOp::CreatePage { .. } => "create_page",
            MutationOp::DeletePage { .. } => "delete_page",
            MutationOp::AddAnchor { .. } => "add_anchor",
            MutationOp::RemoveAnchor { .. } => "remove_anchor",
            MutationOp::SiteLeave { .. } => "site_leave",
            MutationOp::SiteJoin { .. } => "site_join",
        }
    }

    /// The primary URL this operation touches, for trace stamps;
    /// site-level operations render as the site root.
    pub fn url_string(&self) -> String {
        match self {
            MutationOp::EditPage { url, .. }
            | MutationOp::CreatePage { url, .. }
            | MutationOp::DeletePage { url }
            | MutationOp::AddAnchor { url, .. }
            | MutationOp::RemoveAnchor { url } => url.to_string(),
            MutationOp::SiteLeave { host } | MutationOp::SiteJoin { host } => {
                format!("http://{host}/")
            }
        }
    }

    /// The site this operation touches; a site-level operation names a
    /// host, whose site serves at port 80.
    pub fn site(&self) -> SiteAddr {
        match self {
            MutationOp::EditPage { url, .. }
            | MutationOp::CreatePage { url, .. }
            | MutationOp::DeletePage { url }
            | MutationOp::AddAnchor { url, .. }
            | MutationOp::RemoveAnchor { url } => url.site(),
            MutationOp::SiteLeave { host } | MutationOp::SiteJoin { host } => SiteAddr {
                host: host.as_str().into(),
                port: 80,
            },
        }
    }
}

/// A time-ordered list of mutations — the replayable "web history" a
/// driver feeds to [`LiveWeb::apply`] as its clock passes each instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationSchedule {
    /// Mutations sorted by `at_us` (ties keep generation order).
    pub events: Vec<Mutation>,
}

/// Knobs for the seeded schedule generator.
#[derive(Debug, Clone)]
pub struct MutationPlanConfig {
    /// RNG seed; identical `(web, config)` pairs generate identical
    /// schedules.
    pub seed: u64,
    /// Number of mutations to draw.
    pub count: usize,
    /// Earliest instant a mutation may fire.
    pub start_us: u64,
    /// Latest instant a mutation may fire.
    pub end_us: u64,
    /// Marker token edits plant in revised pages.
    pub token: String,
}

impl Default for MutationPlanConfig {
    fn default() -> MutationPlanConfig {
        MutationPlanConfig {
            seed: 1,
            count: 8,
            start_us: 0,
            end_us: 1_000_000,
            token: "needle".to_owned(),
        }
    }
}

impl MutationSchedule {
    /// Draws a seeded schedule against an initial web: edits dominate,
    /// with a tail of link churn, page creation/deletion and whole-site
    /// leave/join. Deterministic for a given `(web, cfg)` pair.
    pub fn generate(web: &HostedWeb, cfg: &MutationPlanConfig) -> MutationSchedule {
        let urls: Vec<Url> = web.urls().cloned().collect();
        let hosts: Vec<String> = web.sites().iter().map(|s| s.host.to_string()).collect();
        assert!(!urls.is_empty(), "cannot mutate an empty web");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut events = Vec::with_capacity(cfg.count);
        for i in 0..cfg.count {
            let at_us = rng.gen_range(cfg.start_us..=cfg.end_us.max(cfg.start_us));
            let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
            let op = match rng.gen_range(0u32..100) {
                0..=39 => MutationOp::EditPage {
                    url: urls[pick(&mut rng, urls.len())].clone(),
                    token: cfg.token.clone(),
                },
                40..=54 => MutationOp::AddAnchor {
                    url: urls[pick(&mut rng, urls.len())].clone(),
                    href: urls[pick(&mut rng, urls.len())].clone(),
                    label: format!("fresh link {i}"),
                },
                55..=64 => MutationOp::RemoveAnchor {
                    url: urls[pick(&mut rng, urls.len())].clone(),
                },
                65..=79 => {
                    let host = hosts[pick(&mut rng, hosts.len())].clone();
                    MutationOp::CreatePage {
                        url: Url::from_parts(&host, 80, &format!("/gen{i}.html")),
                        title: format!("Generated page {i} {}", cfg.token),
                    }
                }
                80..=89 => MutationOp::DeletePage {
                    url: urls[pick(&mut rng, urls.len())].clone(),
                },
                90..=94 => MutationOp::SiteLeave {
                    host: hosts[pick(&mut rng, hosts.len())].clone(),
                },
                _ => MutationOp::SiteJoin {
                    host: hosts[pick(&mut rng, hosts.len())].clone(),
                },
            };
            events.push(Mutation { at_us, op });
        }
        events.sort_by_key(|m| m.at_us);
        MutationSchedule { events }
    }
}

/// What became of one document under an applied mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocEffect {
    /// The document now exists at the new site version.
    Updated,
    /// The document is tombstoned at the new site version.
    Deleted,
    /// The mutation resolved to nothing (e.g. removing an anchor from a
    /// page with none) — the site version still advanced.
    Noop,
}

/// One entry of the web history: a mutation as it actually landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedMutation {
    /// Instant the driver applied it.
    pub at_us: u64,
    /// Operation label (see [`MutationOp::label`]).
    pub label: &'static str,
    /// Host whose content version advanced.
    pub host: String,
    /// The site content version after this mutation.
    pub site_version: u64,
    /// Per-document outcome.
    pub effects: Vec<(Url, DocEffect)>,
}

/// Outcome of fetching a document from the web store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The document exists; `version` is the owning site's content
    /// version when it last changed (0 for never-mutated documents).
    Found {
        /// Raw HTML, shared with the store it came from.
        html: Arc<str>,
        /// Content version of this document.
        version: u64,
    },
    /// The document existed and was deleted at site version `version` —
    /// a dead link.
    Deleted {
        /// Site content version at deletion.
        version: u64,
    },
    /// No document ever lived at this URL.
    Missing,
}

/// Cheap existence/version probe (no HTML clone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocStatus {
    /// Present at this content version.
    Present(u64),
    /// Tombstoned at this site version.
    Deleted(u64),
    /// Never hosted.
    Missing,
}

#[derive(Debug, Default)]
struct LiveState {
    docs: BTreeMap<Url, (Arc<str>, u64)>,
    tombstones: BTreeMap<Url, u64>,
    site_versions: BTreeMap<String, u64>,
    sites: BTreeSet<SiteAddr>,
    history: Vec<AppliedMutation>,
    digest: u64,
}

/// A mutable, versioned web shared between a mutation driver and the
/// query servers. All methods take `&self`; interior locking keeps the
/// TCP transport's concurrent readers consistent, and the sim transport
/// (single-threaded) pays only an uncontended lock.
#[derive(Debug, Default)]
pub struct LiveWeb {
    state: Mutex<LiveState>,
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a digest `hash` — the one digest shape of
/// the workspace: the web's mutation history, the chaos sweep's verdict
/// lines, the experiments' pinned artifacts.
pub fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl LiveWeb {
    /// Stores the documents of `web`; every one starts at version 0.
    pub fn from_hosted(web: &HostedWeb) -> LiveWeb {
        let mut state = LiveState {
            digest: FNV_OFFSET,
            ..LiveState::default()
        };
        for url in web.urls() {
            let html = Arc::clone(web.shared(url).expect("listed URL is hosted"));
            state.sites.insert(url.site());
            state.docs.insert(url.clone(), (html, 0));
        }
        LiveWeb {
            state: Mutex::new(state),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every declared site (one query server each), in address order —
    /// including sites that serve no document now, since a `site_join`
    /// may bring them back.
    pub fn sites(&self) -> Vec<SiteAddr> {
        self.lock().sites.iter().cloned().collect()
    }

    /// Fetches a document together with its content version.
    pub fn fetch(&self, url: &Url) -> FetchOutcome {
        let state = self.lock();
        let key = url.without_fragment();
        if let Some((html, version)) = state.docs.get(&key) {
            return FetchOutcome::Found {
                html: html.clone(),
                version: *version,
            };
        }
        match state.tombstones.get(&key) {
            Some(version) => FetchOutcome::Deleted { version: *version },
            None => FetchOutcome::Missing,
        }
    }

    /// Existence/version probe without cloning the HTML — what the doc
    /// cache validates against.
    pub fn doc_status(&self, url: &Url) -> DocStatus {
        let state = self.lock();
        let key = url.without_fragment();
        if let Some((_, version)) = state.docs.get(&key) {
            return DocStatus::Present(*version);
        }
        match state.tombstones.get(&key) {
            Some(version) => DocStatus::Deleted(*version),
            None => DocStatus::Missing,
        }
    }

    /// The site's current content version (0 until its first mutation).
    pub fn site_version(&self, host: &str) -> u64 {
        self.lock().site_versions.get(host).copied().unwrap_or(0)
    }

    /// Number of mutations applied so far.
    pub fn mutations_applied(&self) -> u64 {
        self.lock().history.len() as u64
    }

    /// FNV-1a digest over the applied history — byte-identical across
    /// replays of the same schedule on the same initial web.
    pub fn history_digest(&self) -> u64 {
        self.lock().digest
    }

    /// The applied history, in application order.
    pub fn history(&self) -> Vec<AppliedMutation> {
        self.lock().history.clone()
    }

    /// A frozen copy of the current live documents (tombstones and
    /// versions are not part of the snapshot).
    pub fn snapshot(&self) -> HostedWeb {
        let state = self.lock();
        let mut web = HostedWeb::new();
        for (url, (html, _)) in &state.docs {
            web.insert(url.clone(), html.clone());
        }
        web
    }

    /// Applies one mutation: bumps the owning site's content version,
    /// rewrites/tombstones the affected documents at that version, and
    /// appends to the history. Never fails — operations that resolve to
    /// nothing are recorded as no-ops so replays stay aligned.
    pub fn apply(&self, m: &Mutation) -> AppliedMutation {
        let mut state = self.lock();
        let site = m.op.site();
        let host = site.host.to_string();
        state.sites.insert(site);
        let version = state.site_versions.get(&host).copied().unwrap_or(0) + 1;
        state.site_versions.insert(host.clone(), version);

        let effects: Vec<(Url, DocEffect)> = match &m.op {
            MutationOp::EditPage { url, token } => {
                let key = url.without_fragment();
                let html = match state.docs.get(&key) {
                    Some((html, _)) => revise_html(html, version, token),
                    None => PageBuilder::new(&format!("Recreated {} rev{version}", key.path()))
                        .para(&format!("recreated rev{version} {token}"))
                        .build(),
                };
                state.tombstones.remove(&key);
                state.docs.insert(key.clone(), (html.into(), version));
                vec![(key, DocEffect::Updated)]
            }
            MutationOp::CreatePage { url, title } => {
                let key = url.without_fragment();
                let html = PageBuilder::new(title).para(title).build();
                state.tombstones.remove(&key);
                state.docs.insert(key.clone(), (html.into(), version));
                vec![(key, DocEffect::Updated)]
            }
            MutationOp::DeletePage { url } => {
                let key = url.without_fragment();
                if state.docs.remove(&key).is_some() {
                    state.tombstones.insert(key.clone(), version);
                    vec![(key, DocEffect::Deleted)]
                } else {
                    vec![(key, DocEffect::Noop)]
                }
            }
            MutationOp::AddAnchor { url, href, label } => {
                let key = url.without_fragment();
                match state.docs.get_mut(&key) {
                    Some(entry) => {
                        let anchor = format!("<a href=\"{href}\">{label}</a>\n");
                        entry.0 = splice_before_close(&entry.0, &anchor).into();
                        entry.1 = version;
                        vec![(key, DocEffect::Updated)]
                    }
                    None => vec![(key, DocEffect::Noop)],
                }
            }
            MutationOp::RemoveAnchor { url } => {
                let key = url.without_fragment();
                match state.docs.get_mut(&key) {
                    Some(entry) => match strip_last_anchor(&entry.0) {
                        Some(html) => {
                            entry.0 = html.into();
                            entry.1 = version;
                            vec![(key, DocEffect::Updated)]
                        }
                        None => vec![(key, DocEffect::Noop)],
                    },
                    None => vec![(key, DocEffect::Noop)],
                }
            }
            MutationOp::SiteLeave { host } => {
                let gone: Vec<Url> = state
                    .docs
                    .keys()
                    .filter(|u| u.host() == host)
                    .cloned()
                    .collect();
                if gone.is_empty() {
                    vec![(Url::from_parts(host, 80, "/"), DocEffect::Noop)]
                } else {
                    let mut effects = Vec::with_capacity(gone.len());
                    for url in gone {
                        state.docs.remove(&url);
                        state.tombstones.insert(url.clone(), version);
                        effects.push((url, DocEffect::Deleted));
                    }
                    effects
                }
            }
            MutationOp::SiteJoin { host } => {
                let root = Url::from_parts(host, 80, "/");
                if state.docs.keys().any(|u| u.host() == host.as_str()) {
                    vec![(root, DocEffect::Noop)]
                } else {
                    let html = PageBuilder::new(&format!("Site {host} rejoined"))
                        .para(&format!("site {host} back online at rev{version}"))
                        .build();
                    state.tombstones.remove(&root);
                    state.docs.insert(root.clone(), (html.into(), version));
                    vec![(root, DocEffect::Updated)]
                }
            }
        };

        let applied = AppliedMutation {
            at_us: m.at_us,
            label: m.op.label(),
            host,
            site_version: version,
            effects,
        };
        let mut digest = state.digest;
        digest = fnv_fold(digest, applied.at_us.to_string().as_bytes());
        digest = fnv_fold(digest, applied.label.as_bytes());
        digest = fnv_fold(digest, applied.host.as_bytes());
        digest = fnv_fold(digest, applied.site_version.to_string().as_bytes());
        for (url, effect) in &applied.effects {
            digest = fnv_fold(digest, url.to_string().as_bytes());
            digest = fnv_fold(digest, format!("{effect:?}").as_bytes());
        }
        state.digest = digest;
        state.history.push(applied.clone());
        applied
    }
}

/// Inserts `snippet` just before `</body>` (or appends if absent).
fn splice_before_close(html: &str, snippet: &str) -> String {
    match html.rfind("</body>") {
        Some(at) => {
            let mut out = String::with_capacity(html.len() + snippet.len());
            out.push_str(&html[..at]);
            out.push_str(snippet);
            out.push_str(&html[at..]);
            out
        }
        None => {
            let mut out = html.to_owned();
            out.push_str(snippet);
            out
        }
    }
}

/// Rewrites a page as revision `version`: title suffix + marker
/// paragraph carrying `token`.
fn revise_html(html: &str, version: u64, token: &str) -> String {
    let titled = match html.find("</title>") {
        Some(at) => {
            let mut out = String::with_capacity(html.len() + 16);
            out.push_str(&html[..at]);
            out.push_str(&format!(" rev{version}"));
            out.push_str(&html[at..]);
            out
        }
        None => html.to_owned(),
    };
    splice_before_close(&titled, &format!("<p>revised rev{version} {token}</p>\n"))
}

/// Removes the last `<a ...>...</a>` element, if any.
fn strip_last_anchor(html: &str) -> Option<String> {
    let open = html.rfind("<a ")?;
    let close_rel = html[open..].find("</a>")?;
    let mut end = open + close_rel + "</a>".len();
    if html[end..].starts_with('\n') {
        end += 1;
    }
    let mut out = String::with_capacity(html.len());
    out.push_str(&html[..open]);
    out.push_str(&html[end..]);
    Some(out)
}

/// The engine's view of the web: a handle to the one [`LiveWeb`] that
/// every query server, plain web server and mutation driver of a
/// deployment shares. An `Arc<HostedWeb>` comes in as a store nothing
/// mutates; an `Arc<LiveWeb>` is shared as it is.
#[derive(Debug, Clone)]
pub struct WebView(Arc<LiveWeb>);

impl From<Arc<HostedWeb>> for WebView {
    fn from(web: Arc<HostedWeb>) -> WebView {
        WebView(Arc::new(LiveWeb::from_hosted(&web)))
    }
}

impl From<Arc<LiveWeb>> for WebView {
    fn from(web: Arc<LiveWeb>) -> WebView {
        WebView(web)
    }
}

impl Deref for WebView {
    type Target = LiveWeb;

    fn deref(&self) -> &LiveWeb {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_web() -> HostedWeb {
        crate::generate(&crate::WebGenConfig {
            sites: 3,
            docs_per_site: 2,
            ..crate::WebGenConfig::default()
        })
    }

    #[test]
    fn schedule_generation_is_seed_deterministic() {
        let web = seed_web();
        let cfg = MutationPlanConfig {
            count: 20,
            ..MutationPlanConfig::default()
        };
        let a = MutationSchedule::generate(&web, &cfg);
        let b = MutationSchedule::generate(&web, &cfg);
        assert_eq!(a, b);
        let c = MutationSchedule::generate(&web, &MutationPlanConfig { seed: 2, ..cfg });
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn replaying_a_schedule_reproduces_the_history_digest() {
        let web = seed_web();
        let schedule = MutationSchedule::generate(
            &web,
            &MutationPlanConfig {
                count: 30,
                ..MutationPlanConfig::default()
            },
        );
        let run = |s: &MutationSchedule| {
            let live = LiveWeb::from_hosted(&web);
            for m in &s.events {
                live.apply(m);
            }
            (live.history_digest(), live.snapshot())
        };
        let (d1, s1) = run(&schedule);
        let (d2, s2) = run(&schedule);
        assert_eq!(d1, d2, "same schedule must replay byte-identically");
        assert_eq!(s1.len(), s2.len());
        for url in s1.urls() {
            assert_eq!(s1.get(url), s2.get(url));
        }
    }

    #[test]
    fn edit_bumps_versions_and_stays_parseable() {
        let web = seed_web();
        let live = LiveWeb::from_hosted(&web);
        let url = crate::doc_url(0, 0);
        assert_eq!(live.doc_status(&url), DocStatus::Present(0));
        live.apply(&Mutation {
            at_us: 10,
            op: MutationOp::EditPage {
                url: url.clone(),
                token: "fresh".into(),
            },
        });
        assert_eq!(live.site_version("site0.test"), 1);
        assert_eq!(live.doc_status(&url), DocStatus::Present(1));
        let FetchOutcome::Found { html, version } = live.fetch(&url) else {
            panic!("edited page must remain fetchable");
        };
        assert_eq!(version, 1);
        let doc = webdis_html::parse_html(&html);
        assert!(doc.title().ends_with("rev1"), "title carries the revision");
        assert!(doc.text().contains("fresh"), "body carries the token");
    }

    #[test]
    fn delete_leaves_a_tombstone_and_site_leave_clears_the_site() {
        let web = seed_web();
        let live = LiveWeb::from_hosted(&web);
        let url = crate::doc_url(1, 1);
        live.apply(&Mutation {
            at_us: 5,
            op: MutationOp::DeletePage { url: url.clone() },
        });
        assert_eq!(live.doc_status(&url), DocStatus::Deleted(1));
        assert!(matches!(
            live.fetch(&url),
            FetchOutcome::Deleted { version: 1 }
        ));
        live.apply(&Mutation {
            at_us: 6,
            op: MutationOp::SiteLeave {
                host: "site2.test".into(),
            },
        });
        assert_eq!(
            live.doc_status(&crate::doc_url(2, 0)),
            DocStatus::Deleted(1)
        );
        // Rejoin restores a root page at the next version.
        live.apply(&Mutation {
            at_us: 7,
            op: MutationOp::SiteJoin {
                host: "site2.test".into(),
            },
        });
        let root = Url::from_parts("site2.test", 80, "/");
        assert_eq!(live.doc_status(&root), DocStatus::Present(2));
    }

    #[test]
    fn anchor_churn_changes_the_link_structure() {
        let web = seed_web();
        let live = LiveWeb::from_hosted(&web);
        let url = crate::doc_url(0, 1);
        let before = match live.fetch(&url) {
            FetchOutcome::Found { html, .. } => webdis_html::parse_html(&html).anchors().len(),
            _ => panic!("present"),
        };
        live.apply(&Mutation {
            at_us: 1,
            op: MutationOp::AddAnchor {
                url: url.clone(),
                href: crate::doc_url(2, 0),
                label: "rotting soon".into(),
            },
        });
        let mid = match live.fetch(&url) {
            FetchOutcome::Found { html, .. } => webdis_html::parse_html(&html).anchors().len(),
            _ => panic!("present"),
        };
        assert_eq!(mid, before + 1);
        live.apply(&Mutation {
            at_us: 2,
            op: MutationOp::RemoveAnchor { url: url.clone() },
        });
        live.apply(&Mutation {
            at_us: 3,
            op: MutationOp::RemoveAnchor { url: url.clone() },
        });
        let after = match live.fetch(&url) {
            FetchOutcome::Found { html, .. } => webdis_html::parse_html(&html).anchors().len(),
            _ => panic!("present"),
        };
        assert_eq!(after, before.saturating_sub(1));
    }

    #[test]
    fn frozen_view_fetches_at_version_zero() {
        let mut web = seed_web();
        web.insert_page("http://b.test:8080/x.html", PageBuilder::new("B"));
        let view = WebView::from(Arc::new(web));
        let url = crate::doc_url(0, 0);
        assert!(matches!(
            view.fetch(&url),
            FetchOutcome::Found { version: 0, .. }
        ));
        assert_eq!(view.site_version("site0.test"), 0);
        let missing = Url::from_parts("site0.test", 80, "/nope.html");
        assert_eq!(view.doc_status(&missing), DocStatus::Missing);
        let b = SiteAddr {
            host: "b.test".into(),
            port: 8080,
        };
        assert!(view.sites().contains(&b), "a site keeps its port");
    }

    #[test]
    fn history_records_effects() {
        let web = seed_web();
        let live = LiveWeb::from_hosted(&web);
        let url = crate::doc_url(0, 0);
        live.apply(&Mutation {
            at_us: 1,
            op: MutationOp::DeletePage { url: url.clone() },
        });
        live.apply(&Mutation {
            at_us: 2,
            op: MutationOp::DeletePage { url: url.clone() },
        });
        let history = live.history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].effects, vec![(url.clone(), DocEffect::Deleted)]);
        assert_eq!(history[1].effects, vec![(url.clone(), DocEffect::Noop)]);
        assert_eq!(history[1].site_version, 2);
    }
}

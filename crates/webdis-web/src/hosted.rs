//! Document hosting and HTML page construction.

use std::collections::BTreeMap;
use std::sync::Arc;

use webdis_html::parse_html;
use webdis_model::{SiteAddr, Url, WebGraph};

/// A fluent builder producing small, well-formed HTML documents. Every
/// synthetic page goes through this builder and is then *parsed back* by
/// the real HTML parser — the engine never sees structured shortcuts.
#[derive(Debug, Clone, Default)]
pub struct PageBuilder {
    title: String,
    body: String,
}

impl PageBuilder {
    /// Starts a page with a title.
    pub fn new(title: &str) -> PageBuilder {
        PageBuilder {
            title: escape(title),
            body: String::new(),
        }
    }

    /// Appends a paragraph of text.
    pub fn para(mut self, text: &str) -> PageBuilder {
        self.body.push_str("<p>");
        self.body.push_str(&escape(text));
        self.body.push_str("</p>\n");
        self
    }

    /// Appends bare text (no block wrapper).
    pub fn text(mut self, text: &str) -> PageBuilder {
        self.body.push_str(&escape(text));
        self.body.push('\n');
        self
    }

    /// Appends a heading.
    pub fn heading(mut self, text: &str) -> PageBuilder {
        self.body.push_str("<h1>");
        self.body.push_str(&escape(text));
        self.body.push_str("</h1>\n");
        self
    }

    /// Appends bold text (a `b` rel-infon).
    pub fn bold(mut self, text: &str) -> PageBuilder {
        self.body.push_str("<b>");
        self.body.push_str(&escape(text));
        self.body.push_str("</b>\n");
        self
    }

    /// Appends a hyperlink.
    pub fn link(mut self, href: &str, label: &str) -> PageBuilder {
        self.body.push_str("<a href=\"");
        self.body.push_str(&escape(href));
        self.body.push_str("\">");
        self.body.push_str(&escape(label));
        self.body.push_str("</a>\n");
        self
    }

    /// Appends a horizontal rule (an `hr` rel-infon boundary).
    pub fn hr(mut self) -> PageBuilder {
        self.body.push_str("<hr>\n");
        self
    }

    /// Renders the document.
    pub fn build(self) -> String {
        format!(
            "<html>\n<head><title>{}</title></head>\n<body>\n{}</body>\n</html>\n",
            self.title, self.body
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// The complete set of documents served by the simulated web: URL → raw
/// HTML. This is what query servers read locally and what the
/// data-shipping baseline downloads remotely. Page text is shared: a
/// fetch hands out the stored `Arc<str>`, never a copy.
#[derive(Debug, Clone, Default)]
pub struct HostedWeb {
    docs: BTreeMap<Url, Arc<str>>,
}

impl HostedWeb {
    /// An empty web.
    pub fn new() -> HostedWeb {
        HostedWeb::default()
    }

    /// Adds (or replaces) a document.
    pub fn insert(&mut self, url: Url, html: impl Into<Arc<str>>) {
        self.docs.insert(url.without_fragment(), html.into());
    }

    /// Adds a document built with [`PageBuilder`].
    pub fn insert_page(&mut self, url: &str, page: PageBuilder) {
        self.insert(Url::parse(url).expect("valid URL literal"), page.build());
    }

    /// The raw HTML of a document, if hosted.
    pub fn get(&self, url: &Url) -> Option<&str> {
        self.shared(url).map(|html| &**html)
    }

    /// The stored page itself, for handing out without a copy.
    pub fn shared(&self, url: &Url) -> Option<&Arc<str>> {
        self.docs.get(&url.without_fragment())
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are hosted.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All document URLs in deterministic order.
    pub fn urls(&self) -> impl Iterator<Item = &Url> {
        self.docs.keys()
    }

    /// The distinct sites, each hosting at least one document. One query
    /// server runs per site.
    pub fn sites(&self) -> Vec<SiteAddr> {
        let mut sites: Vec<SiteAddr> = self.docs.keys().map(Url::site).collect();
        sites.dedup();
        sites.sort();
        sites.dedup();
        sites
    }

    /// Documents hosted by one site.
    pub fn docs_of_site(&self, site: &SiteAddr) -> Vec<(&Url, &str)> {
        self.docs
            .iter()
            .filter(|(u, _)| &u.site() == site)
            .map(|(u, h)| (u, &**h))
            .collect()
    }

    /// Total bytes of hosted HTML.
    pub fn total_bytes(&self) -> usize {
        self.docs.values().map(|h| h.len()).sum()
    }

    /// Parses every document and assembles the global link graph — the
    /// oracle view used by tests and by the site-map example, never by the
    /// distributed engine itself.
    pub fn graph(&self) -> WebGraph {
        let mut g = WebGraph::new();
        for (url, html) in &self.docs {
            g.add_node(url.clone());
            let parsed = parse_html(html);
            for anchor in parsed.anchors() {
                if let Ok(target) = url.resolve(anchor.href) {
                    g.add_link(url, &target, anchor.label);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::LinkType;

    #[test]
    fn page_builder_produces_parseable_html() {
        let html = PageBuilder::new("My <Title> & Co")
            .heading("Top")
            .para("Some body text")
            .bold("important")
            .link("other.html", "Other")
            .hr()
            .build();
        let doc = parse_html(&html);
        assert_eq!(doc.title(), "My <Title> & Co");
        assert!(doc.text().contains("Some body text"));
        assert_eq!(doc.anchors().len(), 1);
        assert_eq!(doc.anchors().next().unwrap().label, "Other");
        assert!(doc
            .relinfons()
            .any(|r| r.delimiter == "b" && r.text == "important"));
    }

    #[test]
    fn hosted_web_basics() {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("A").link("http://b.test/", "b"),
        );
        web.insert_page("http://a.test/x", PageBuilder::new("AX"));
        web.insert_page("http://b.test/", PageBuilder::new("B"));
        assert_eq!(web.len(), 3);
        assert_eq!(web.sites().len(), 2);
        let a = SiteAddr {
            host: "a.test".into(),
            port: 80,
        };
        assert_eq!(web.docs_of_site(&a).len(), 2);
        assert!(web.get(&Url::parse("http://a.test/").unwrap()).is_some());
        assert!(web
            .get(&Url::parse("http://a.test/missing").unwrap())
            .is_none());
        assert!(web.total_bytes() > 0);
    }

    #[test]
    fn fragment_stripped_on_insert_and_get() {
        let mut web = HostedWeb::new();
        web.insert(Url::parse("http://a.test/p#x").unwrap(), "<html></html>");
        assert!(web.get(&Url::parse("http://a.test/p#y").unwrap()).is_some());
        assert_eq!(web.len(), 1);
    }

    #[test]
    fn graph_reflects_links() {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("A")
                .link("sub.html", "local")
                .link("http://b.test/", "global"),
        );
        web.insert_page("http://a.test/sub.html", PageBuilder::new("Sub"));
        web.insert_page("http://b.test/", PageBuilder::new("B"));
        let g = web.graph();
        assert_eq!(g.link_count(), 2);
        let a = Url::parse("http://a.test/").unwrap();
        assert_eq!(g.links_of_type(&a, LinkType::Local).count(), 1);
        assert_eq!(g.links_of_type(&a, LinkType::Global).count(), 1);
        assert!(g.floating_links().is_empty());
    }
}

// ---------------------------------------------------------------------
// Filesystem persistence: a hosted web as a directory tree.
// ---------------------------------------------------------------------

impl HostedWeb {
    /// Saves the web as a directory tree: one sub-directory per site
    /// (named `host` or `host_port` for non-80 ports), one file per
    /// document. The root document `/` is stored as `index.html`, and a
    /// path ending in `/` as `<path>/index.html` — the usual web-server
    /// convention, inverted by [`HostedWeb::from_dir`].
    pub fn to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        for (url, html) in &self.docs {
            let site = url.site();
            let site_dir = if site.port == 80 {
                site.host.to_string()
            } else {
                format!("{}_{}", site.host, site.port)
            };
            let rel = url.path().trim_start_matches('/');
            let rel = if rel.is_empty() || rel.ends_with('/') {
                format!("{rel}index.html")
            } else {
                rel.to_owned()
            };
            let file = dir.join(site_dir).join(rel);
            if let Some(parent) = file.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(file, html.as_bytes())?;
        }
        Ok(())
    }

    /// Loads a web saved by [`HostedWeb::to_dir`] (or assembled by hand
    /// with the same layout). Unreadable entries and non-`.html`/`.htm`
    /// files are skipped silently, so a directory with stray artifacts
    /// still loads.
    pub fn from_dir(dir: &std::path::Path) -> std::io::Result<HostedWeb> {
        let mut web = HostedWeb::new();
        for site_entry in std::fs::read_dir(dir)? {
            let site_entry = site_entry?;
            if !site_entry.file_type()?.is_dir() {
                continue;
            }
            let name = site_entry.file_name().to_string_lossy().into_owned();
            let (host, port) = match name.rsplit_once('_') {
                Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !h.is_empty() => {
                    (h.to_owned(), p.parse().unwrap_or(80))
                }
                _ => (name.clone(), 80u16),
            };
            let site_root = site_entry.path();
            let mut stack = vec![site_root.clone()];
            while let Some(d) = stack.pop() {
                for entry in std::fs::read_dir(&d)? {
                    let entry = entry?;
                    let path = entry.path();
                    if entry.file_type()?.is_dir() {
                        stack.push(path);
                        continue;
                    }
                    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
                    if !ext.eq_ignore_ascii_case("html") && !ext.eq_ignore_ascii_case("htm") {
                        continue;
                    }
                    let Ok(html) = std::fs::read_to_string(&path) else {
                        continue;
                    };
                    let rel = path
                        .strip_prefix(&site_root)
                        .expect("walked paths stay under the site root")
                        .to_string_lossy()
                        .replace(std::path::MAIN_SEPARATOR, "/");
                    let url_path = match rel.strip_suffix("index.html") {
                        Some(prefix) => format!("/{prefix}"),
                        None => format!("/{rel}"),
                    };
                    web.insert(Url::from_parts(&host, port, &url_path), html);
                }
            }
        }
        Ok(web)
    }
}

#[cfg(test)]
mod fs_tests {
    use super::*;

    fn sample() -> HostedWeb {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("A root").link("/sub/page.html", "sub"),
        );
        web.insert_page("http://a.test/sub/page.html", PageBuilder::new("Sub page"));
        web.insert_page("http://b.test:8080/x.html", PageBuilder::new("B on 8080"));
        web
    }

    #[test]
    fn dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("webdis-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let web = sample();
        web.to_dir(&dir).unwrap();
        let back = HostedWeb::from_dir(&dir).unwrap();
        assert_eq!(back.len(), web.len());
        for url in web.urls() {
            assert_eq!(back.get(url), web.get(url), "mismatch at {url}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_dir_skips_non_html() {
        let dir = std::env::temp_dir().join(format!("webdis-fs2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sample().to_dir(&dir).unwrap();
        std::fs::write(dir.join("a.test").join("notes.txt"), "not html").unwrap();
        let back = HostedWeb::from_dir(&dir).unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generated_web_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("webdis-fs3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let web = crate::generate(&crate::WebGenConfig::default());
        web.to_dir(&dir).unwrap();
        let back = HostedWeb::from_dir(&dir).unwrap();
        assert_eq!(back.len(), web.len());
        assert_eq!(back.total_bytes(), web.total_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

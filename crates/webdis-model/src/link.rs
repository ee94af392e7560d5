//! The paper's link taxonomy (Section 2) and typed hyperlinks.

use std::fmt;

use crate::url::Url;

/// The type of a hyperlink, per Section 2 of the paper.
///
/// * `Interior` (**I**) — destination is within the same web resource
///   (a fragment reference);
/// * `Local` (**L**) — destination is a different resource on the same
///   server;
/// * `Global` (**G**) — destination resides on a different server;
/// * `Null` (**N**) — the zero-length pseudo-link referring to the resource
///   itself. It never appears on a real edge; it exists so path regular
///   expressions can say "evaluate here" (a nullable PRE "contains the null
///   link").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkType {
    /// `I`: within the same document.
    Interior,
    /// `L`: same site, different document.
    Local,
    /// `G`: different site.
    Global,
    /// `N`: the zero-length path; only meaningful inside PREs.
    Null,
}

impl LinkType {
    /// Classifies the link from a document at `base` to `target`.
    ///
    /// A reference to the *same document* is interior (whether or not it
    /// carries a fragment); a same-site reference to a different document is
    /// local; anything else is global. Returns `Null` never — real links
    /// are always I/L/G.
    pub fn classify(base: &Url, target: &Url) -> LinkType {
        if base.same_document(target) {
            LinkType::Interior
        } else if base.same_site(target) {
            LinkType::Local
        } else {
            LinkType::Global
        }
    }

    /// The single-letter symbol used in PREs and in the `ltype` attribute of
    /// the ANCHOR virtual relation ("I", "L", "G", "N").
    pub fn symbol(self) -> &'static str {
        match self {
            LinkType::Interior => "I",
            LinkType::Local => "L",
            LinkType::Global => "G",
            LinkType::Null => "N",
        }
    }

    /// Parses a single-letter symbol (case-insensitive).
    pub fn from_symbol(s: &str) -> Option<LinkType> {
        match s {
            "I" | "i" => Some(LinkType::Interior),
            "L" | "l" => Some(LinkType::Local),
            "G" | "g" => Some(LinkType::Global),
            "N" | "n" => Some(LinkType::Null),
            _ => None,
        }
    }

    /// The three traversable link types (everything except `Null`).
    pub const TRAVERSABLE: [LinkType; 3] = [LinkType::Interior, LinkType::Local, LinkType::Global];
}

impl fmt::Display for LinkType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A directed, typed hyperlink: one row of the conceptual edge set of the
/// web graph, and the source of one ANCHOR tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Link {
    /// The document containing the anchor.
    pub base: Url,
    /// The (resolved, absolute) destination.
    pub href: Url,
    /// Classification of `base -> href`.
    pub ltype: LinkType,
}

impl Link {
    /// Builds a link, classifying its type from the two URLs.
    pub fn new(base: Url, href: Url) -> Link {
        let ltype = LinkType::classify(&base, &href);
        Link { base, href, ltype }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn classify_interior() {
        let base = url("http://h/a.html");
        assert_eq!(
            LinkType::classify(&base, &url("http://h/a.html#sec")),
            LinkType::Interior
        );
        assert_eq!(LinkType::classify(&base, &base), LinkType::Interior);
    }

    #[test]
    fn classify_local() {
        let base = url("http://h/a.html");
        assert_eq!(
            LinkType::classify(&base, &url("http://h/b.html")),
            LinkType::Local
        );
    }

    #[test]
    fn classify_global() {
        let base = url("http://h/a.html");
        assert_eq!(
            LinkType::classify(&base, &url("http://other/a.html")),
            LinkType::Global
        );
        // Same host, different port is a different server.
        assert_eq!(
            LinkType::classify(&base, &url("http://h:8080/a.html")),
            LinkType::Global
        );
    }

    #[test]
    fn symbols_round_trip() {
        for lt in [
            LinkType::Interior,
            LinkType::Local,
            LinkType::Global,
            LinkType::Null,
        ] {
            assert_eq!(LinkType::from_symbol(lt.symbol()), Some(lt));
        }
        assert_eq!(LinkType::from_symbol("X"), None);
        assert_eq!(LinkType::from_symbol(""), None);
    }

    #[test]
    fn link_new_classifies() {
        let l = Link::new(url("http://h/a"), url("http://g/b"));
        assert_eq!(l.ltype, LinkType::Global);
    }
}

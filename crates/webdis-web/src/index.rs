//! A keyword search index over a hosted web.
//!
//! The paper assumes StartNodes come "from either the user's domain
//! knowledge or from existing search-indices" (Section 1.1) and lists
//! index integration as future work (Section 7.1). This module provides
//! that substrate: a classic inverted index over document titles and
//! text, built by crawling the hosted web once. The `search_start`
//! example uses it to pick StartNodes automatically, letting a shallow
//! PRE replace a whole-web sweep.

use std::collections::{BTreeMap, BTreeSet};

use webdis_html::parse_html;
use webdis_model::Url;

use crate::hosted::HostedWeb;

/// An inverted index: token → documents containing it.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    postings: BTreeMap<String, BTreeSet<Url>>,
    docs: usize,
}

/// Splits text into lower-cased alphanumeric tokens.
fn tokens(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
}

impl SearchIndex {
    /// Builds the index by parsing every hosted document (titles and
    /// body text; a real engine would also weight fields — out of scope).
    pub fn build(web: &HostedWeb) -> SearchIndex {
        let mut index = SearchIndex::default();
        for url in web.urls() {
            let Some(html) = web.get(url) else { continue };
            let doc = parse_html(html);
            index.docs += 1;
            for token in tokens(doc.title()).chain(tokens(doc.text())) {
                index.postings.entry(token).or_default().insert(url.clone());
            }
        }
        index
    }

    /// Documents containing the term (case-insensitive exact token
    /// match), in deterministic order.
    pub fn lookup(&self, term: &str) -> Vec<Url> {
        self.postings
            .get(&term.to_lowercase())
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Documents containing *all* the terms.
    pub fn lookup_all(&self, terms: &[&str]) -> Vec<Url> {
        let mut sets = terms.iter().map(|t| {
            self.postings
                .get(&t.to_lowercase())
                .cloned()
                .unwrap_or_default()
        });
        let Some(first) = sets.next() else {
            return Vec::new();
        };
        let hit = sets.fold(first, |acc, s| acc.intersection(&s).cloned().collect());
        hit.into_iter().collect()
    }

    /// Number of distinct tokens indexed.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of documents indexed.
    pub fn doc_count(&self) -> usize {
        self.docs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosted::PageBuilder;

    fn sample_web() -> HostedWeb {
        let mut web = HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            PageBuilder::new("Databases and Systems").para("The WEBDIS engine ships queries."),
        );
        web.insert_page(
            "http://a.test/two",
            PageBuilder::new("Compilers").para("Queries about databases, again."),
        );
        web.insert_page(
            "http://b.test/",
            PageBuilder::new("Unrelated").para("Nothing of note."),
        );
        web
    }

    #[test]
    fn builds_and_looks_up() {
        let idx = SearchIndex::build(&sample_web());
        assert_eq!(idx.doc_count(), 3);
        assert!(idx.term_count() > 5);
        let hits = idx.lookup("databases");
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.lookup("webdis").len(), 1);
        assert!(idx.lookup("nonexistent").is_empty());
    }

    #[test]
    fn lookup_is_case_insensitive_and_tokenized() {
        let idx = SearchIndex::build(&sample_web());
        assert_eq!(idx.lookup("DATABASES").len(), 2);
        // Punctuation does not glue tokens together: "databases," indexes
        // as "databases".
        assert_eq!(idx.lookup("databases,").len(), 0); // term itself not a token
    }

    #[test]
    fn conjunctive_lookup() {
        let idx = SearchIndex::build(&sample_web());
        let both = idx.lookup_all(&["queries", "databases"]);
        assert_eq!(both.len(), 2);
        let narrow = idx.lookup_all(&["queries", "webdis"]);
        assert_eq!(narrow.len(), 1);
        assert!(idx.lookup_all(&["queries", "nonexistent"]).is_empty());
        assert!(idx.lookup_all(&[]).is_empty());
    }

    #[test]
    fn titles_are_indexed() {
        let idx = SearchIndex::build(&sample_web());
        assert_eq!(idx.lookup("compilers").len(), 1);
    }
}

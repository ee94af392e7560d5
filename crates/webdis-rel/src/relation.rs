//! Schemas, relations, and the Database Constructor that materializes the
//! virtual relations for one node.

use std::fmt::Write;
use std::sync::OnceLock;

use webdis_html::ParsedDoc;
use webdis_model::{Link, LinkType, Url};

use crate::index::{DbIndexes, HashIndex, TextIndex};
use crate::query::RelKind;
use crate::value::{Tuple, Value};

/// A relation schema: a name and ordered column names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    /// Relation name as written in DISQL (`document`, `anchor`, `relinfon`).
    pub name: &'static str,
    /// Column names in tuple order.
    pub columns: &'static [&'static str],
}

impl Schema {
    /// Index of a column by name (case-insensitive, as DISQL is SQL-like).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }
}

/// `DOCUMENT(url, title, text, length)` — Section 2.2.
pub const DOCUMENT_SCHEMA: Schema = Schema {
    name: "document",
    columns: &["url", "title", "text", "length"],
};

/// `ANCHOR(label, base, href, ltype)` — Section 2.2.
pub const ANCHOR_SCHEMA: Schema = Schema {
    name: "anchor",
    columns: &["label", "base", "href", "ltype"],
};

/// `RELINFON(delimiter, url, text, length)` — Section 2.2.
pub const RELINFON_SCHEMA: Schema = Schema {
    name: "relinfon",
    columns: &["delimiter", "url", "text", "length"],
};

/// An in-memory relation: a schema plus tuples.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The relation's schema.
    pub schema: Schema,
    /// The tuples, in construction order.
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The temporary in-memory database the Database Constructor builds for one
/// node and purges after the node-query is processed (Section 2.4).
///
/// Construction resolves the document's links, which every visit forwards
/// along, and keeps the parsed document; each virtual relation is formed
/// from it the first time [`NodeDb::relation`] is asked for that kind. A
/// database that answers `d.title contains "x"` and is purged therefore
/// builds one four-cell tuple, and one the footnote-3 document cache keeps
/// widens as later queries touch more of it.
#[derive(Debug, Clone)]
pub struct NodeDb {
    /// The node's URL (also the `url` / `base` attribute values).
    pub url: Url,
    /// The typed links of the document, resolved and classified — used by
    /// the engine for query forwarding (the paper's "construct the anchor
    /// table for node", Figure 4 line 9).
    pub links: Vec<Link>,
    /// What DOCUMENT and RELINFON are formed from (ANCHOR comes from
    /// `links`).
    doc: ParsedDoc,
    /// DOCUMENT, ANCHOR and RELINFON, in [`RelKind`] order. `OnceLock`
    /// runs exactly one of any racing initializers, so threads sharing an
    /// `Arc<NodeDb>` all read the same tuples.
    relations: [OnceLock<Relation>; 3],
    /// Sidecar indexes over the three relations, each built the first
    /// time a query probes its column. The footnote-3 document cache keeps
    /// the whole `NodeDb`, so an index built for one query serves every
    /// later query answered from cache.
    indexes: DbIndexes,
}

impl NodeDb {
    /// The Database Constructor's single pass over the document hosted at
    /// `url`: parses `html` and resolves its links.
    pub fn parse(url: &Url, html: &str) -> NodeDb {
        NodeDb::new(url, webdis_html::parse_html(html))
    }

    /// The database of an already parsed document, which is copied;
    /// [`NodeDb::parse`] is the same without the copy.
    pub fn build(url: &Url, doc: &ParsedDoc) -> NodeDb {
        NodeDb::new(url, doc.clone())
    }

    /// Anchors whose href cannot be interpreted as an http URL are skipped
    /// (a 1999-era query processor would do the same with `mailto:`). No
    /// relation and no index is built here; see [`NodeDb::relation`],
    /// [`NodeDb::hash_index`] and [`NodeDb::text_index`].
    fn new(url: &Url, doc: ParsedDoc) -> NodeDb {
        let base = url.without_fragment();
        let mut resolver = base.resolver();
        let mut links = Vec::with_capacity(doc.anchors().len());
        for raw in doc.anchors() {
            if let Ok(target) = resolver.resolve(raw.href) {
                links.push(Link::new(base.clone(), target, raw.label));
            }
        }
        NodeDb {
            url: base,
            links,
            doc,
            relations: Default::default(),
            indexes: DbIndexes::default(),
        }
    }

    /// The relation a variable of the given kind ranges over, formed now
    /// if this is the first use of it.
    pub fn relation(&self, kind: RelKind) -> &Relation {
        self.relations[kind as usize].get_or_init(|| self.materialize(kind))
    }

    /// The kinds whose relation has been formed so far, in [`RelKind`]
    /// order.
    pub fn built_relations(&self) -> Vec<RelKind> {
        let built = RelKind::ALL.into_iter().zip(&self.relations);
        built.filter_map(|(k, r)| r.get().map(|_| k)).collect()
    }

    fn materialize(&self, kind: RelKind) -> Relation {
        // `http://`, the host, a port and the path, in one allocation.
        let mut base = String::with_capacity(16 + self.url.host().len() + self.url.path().len());
        write!(base, "{}", self.url).expect("writing to a String cannot fail");
        let text = |s: &str| Value::Str(s.to_owned());
        match kind {
            RelKind::Document => Relation {
                schema: DOCUMENT_SCHEMA,
                tuples: vec![Tuple(vec![
                    Value::Str(base),
                    text(self.doc.title()),
                    text(self.doc.text()),
                    Value::Int(self.doc.raw_len() as i64),
                ])],
            },
            RelKind::Anchor => Relation {
                schema: ANCHOR_SCHEMA,
                tuples: self
                    .links
                    .iter()
                    .map(|link| {
                        Tuple(vec![
                            text(&link.label),
                            text(&base),
                            Value::Str(link.href.to_string()),
                            text(link.ltype.symbol()),
                        ])
                    })
                    .collect(),
            },
            RelKind::Relinfon => Relation {
                schema: RELINFON_SCHEMA,
                tuples: self
                    .doc
                    .relinfons()
                    .map(|ri| {
                        Tuple(vec![
                            text(ri.delimiter),
                            text(&base),
                            text(ri.text),
                            Value::Int(ri.text.len() as i64),
                        ])
                    })
                    .collect(),
            },
        }
    }

    /// The equality index on `kind.attr`, built now if this is the
    /// column's first probe; `None` when the column is not hash-indexed.
    pub fn hash_index(&self, kind: RelKind, attr: &str) -> Option<&HashIndex> {
        let slot = crate::index::hash_slot(kind, attr)?;
        let rel = self.relation(kind);
        let col = rel.schema.column_index(attr)?;
        Some(self.indexes.hash[slot].get_or_init(|| HashIndex::build(rel, col)))
    }

    /// The inverted text index on `kind.attr`, built now if this is the
    /// column's first probe; `None` when the column is not text-indexed.
    pub fn text_index(&self, kind: RelKind, attr: &str) -> Option<&TextIndex> {
        let slot = crate::index::text_slot(kind, attr)?;
        let rel = self.relation(kind);
        let col = rel.schema.column_index(attr)?;
        Some(self.indexes.text[slot].get_or_init(|| TextIndex::build(rel, col)))
    }

    /// The columns whose index has been built so far, hash columns first,
    /// each group in configuration order.
    pub fn built_indexes(&self) -> Vec<(RelKind, &'static str)> {
        self.indexes.built()
    }

    /// Outgoing links of the given type — the forwarding candidates for one
    /// symbol of the current PRE's first-set.
    pub fn links_of_type(&self, lt: LinkType) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(move |l| l.ltype == lt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_html::parse_html;

    fn db(url: &str, html: &str) -> NodeDb {
        NodeDb::build(&Url::parse(url).unwrap(), &parse_html(html))
    }

    #[test]
    fn document_relation_single_tuple() {
        let d = db(
            "http://h/a.html",
            "<title>T</title><body>hello world</body>",
        );
        let document = d.relation(RelKind::Document);
        assert_eq!(document.len(), 1);
        let t = &document.tuples[0];
        assert_eq!(t.get(0).unwrap().render(), "http://h/a.html");
        assert_eq!(t.get(1).unwrap().render(), "T");
        assert_eq!(t.get(2).unwrap().render(), "hello world");
    }

    #[test]
    fn anchor_relation_resolves_and_classifies() {
        let d = db(
            "http://h/dir/a.html",
            r##"<a href="b.html">rel</a><a href="/c">abs</a>
               <a href="http://other/x">glob</a><a href="#top">frag</a>"##,
        );
        let anchor = d.relation(RelKind::Anchor);
        assert_eq!(anchor.len(), 4);
        let types: Vec<String> = anchor
            .tuples
            .iter()
            .map(|t| t.get(3).unwrap().render())
            .collect();
        assert_eq!(types, vec!["L", "L", "G", "I"]);
        assert_eq!(
            anchor.tuples[0].get(2).unwrap().render(),
            "http://h/dir/b.html"
        );
        // base column is the document itself
        assert_eq!(
            anchor.tuples[0].get(1).unwrap().render(),
            "http://h/dir/a.html"
        );
    }

    #[test]
    fn unresolvable_href_skipped() {
        let d = db(
            "http://h/a",
            r#"<a href="mailto:x@y">mail</a><a href="ok.html">ok</a>"#,
        );
        assert_eq!(d.relation(RelKind::Anchor).len(), 1);
        assert_eq!(d.links.len(), 1);
    }

    #[test]
    fn relinfon_relation_built() {
        let d = db("http://h/a", "<b>bold bit</b>rest<hr>");
        let relinfon = d.relation(RelKind::Relinfon);
        let delims: Vec<String> = relinfon
            .tuples
            .iter()
            .map(|t| t.get(0).unwrap().render())
            .collect();
        assert!(delims.contains(&"b".to_owned()));
        assert!(delims.contains(&"hr".to_owned()));
        let b = relinfon
            .tuples
            .iter()
            .find(|t| t.get(0).unwrap().render() == "b")
            .unwrap();
        assert_eq!(b.get(2).unwrap().render(), "bold bit");
        assert_eq!(b.get(3).unwrap(), &Value::Int(8));
    }

    #[test]
    fn relations_are_formed_on_first_use_and_kept() {
        let d = db("http://h/a", r#"<title>T</title><b>x</b><a href="y">y</a>"#);
        assert!(d.built_relations().is_empty());
        assert_eq!(d.links.len(), 1, "links do not wait for ANCHOR");
        let first = d.relation(RelKind::Relinfon) as *const Relation;
        assert_eq!(d.built_relations(), vec![RelKind::Relinfon]);
        assert_eq!(first, d.relation(RelKind::Relinfon) as *const Relation);
        d.relation(RelKind::Document);
        assert_eq!(
            d.built_relations(),
            vec![RelKind::Document, RelKind::Relinfon]
        );
        // A copy carries what has been formed and forms the rest itself.
        let copy = d.clone();
        assert_eq!(copy.built_relations(), d.built_relations());
        assert_eq!(copy.relation(RelKind::Anchor).len(), 1);
        assert_eq!(d.built_relations().len(), 2);
    }

    #[test]
    fn links_of_type_filters() {
        let d = db(
            "http://h/a",
            r#"<a href="l1">x</a><a href="http://g/y">y</a><a href="l2">z</a>"#,
        );
        assert_eq!(d.links_of_type(LinkType::Local).count(), 2);
        assert_eq!(d.links_of_type(LinkType::Global).count(), 1);
        assert_eq!(d.links_of_type(LinkType::Interior).count(), 0);
    }

    #[test]
    fn schema_column_lookup_case_insensitive() {
        assert_eq!(DOCUMENT_SCHEMA.column_index("URL"), Some(0));
        assert_eq!(ANCHOR_SCHEMA.column_index("ltype"), Some(3));
        assert_eq!(RELINFON_SCHEMA.column_index("nope"), None);
    }
}

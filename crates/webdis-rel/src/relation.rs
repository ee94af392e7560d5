//! Schemas, and the Database Constructor that materializes the virtual
//! relations for one node, a column at a time.

use std::fmt::Write;
use std::sync::{Arc, OnceLock};

use webdis_html::ParsedDoc;
use webdis_model::{Link, LinkType, Url};

use crate::index::{DbIndexes, HashIndex, Index, Shape, TextIndex, INDEXED};
use crate::query::RelKind;
use crate::value::Value;

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

/// The temporary in-memory database the Database Constructor builds for one
/// node and purges after the node-query is processed (Section 2.4).
///
/// Construction resolves the document's links, which every visit forwards
/// along, and keeps the parsed document; each column of a virtual relation
/// is formed from it on its first read ([`NodeDb::column`]). A database
/// that answers `d.title contains "x"` and is purged never forms the body
/// text; one the footnote-3 document cache keeps widens as later queries
/// read more of it.
#[derive(Debug, Clone)]
pub struct NodeDb {
    /// The node's URL (also the `url` / `base` attribute values).
    pub url: Url,
    /// The typed links of the document, resolved and classified — used by
    /// the engine for query forwarding (the paper's "construct the anchor
    /// table for node", Figure 4 line 9). ANCHOR's label column is read
    /// from the document, on first use.
    pub links: Vec<Link>,
    /// What the columns are formed from.
    doc: ParsedDoc,
    /// The anchors whose href does not resolve, ascending: they have no
    /// link, hence no ANCHOR tuple.
    unresolved: Vec<usize>,
    /// `columns[kind][col]`, four per schema. `OnceLock` runs one of any
    /// racing initializers, so threads sharing a database read one value.
    columns: [[OnceLock<Vec<Value>>; 4]; 3],
    /// Sidecar indexes over the columns, each built on its second ask.
    indexes: DbIndexes,
}

impl NodeDb {
    /// The Database Constructor's single pass over the document hosted at
    /// `url`: parses the page (shared, if handed over as an `Arc<str>`).
    pub fn parse(url: &Url, html: impl Into<Arc<str>>) -> NodeDb {
        NodeDb::new(url, ParsedDoc::parse(html.into()))
    }

    /// The database of an already parsed document, which is copied;
    /// [`NodeDb::parse`] is the same without the copy.
    pub fn build(url: &Url, doc: &ParsedDoc) -> NodeDb {
        NodeDb::new(url, doc.clone())
    }

    /// Anchors whose href cannot be interpreted as an http URL are skipped
    /// (a 1999-era query processor would do the same with `mailto:`). No
    /// column and no index is formed here; see [`NodeDb::column`] and
    /// [`NodeDb::index`].
    fn new(url: &Url, doc: ParsedDoc) -> NodeDb {
        let base = url.without_fragment();
        let mut resolver = base.resolver();
        let mut links = Vec::with_capacity(doc.hrefs().len());
        let mut unresolved = Vec::new();
        for (i, href) in doc.hrefs().enumerate() {
            match resolver.resolve(href) {
                Ok(target) => links.push(Link::new(base.clone(), target)),
                Err(_) => unresolved.push(i),
            }
        }
        NodeDb {
            url: base,
            links,
            doc,
            unresolved,
            columns: Default::default(),
            indexes: DbIndexes::default(),
        }
    }

    /// The number of tuples of the relation of `kind`, no column formed.
    pub fn rows(&self, kind: RelKind) -> usize {
        match kind {
            RelKind::Document => 1,
            RelKind::Anchor => self.links.len(),
            RelKind::Relinfon => self.doc.relinfons().len(),
        }
    }

    /// Column `col` (in schema order) of the relation of the given kind,
    /// formed now if this is its first read. Panics when `col` is not a
    /// column of the schema.
    pub fn column(&self, kind: RelKind, col: usize) -> &[Value] {
        self.columns[kind as usize][col].get_or_init(|| self.form(kind, col))
    }

    /// The columns formed so far, in [`RelKind`] then schema order.
    pub fn built_columns(&self) -> Vec<(RelKind, &'static str)> {
        let mut built = Vec::new();
        for (kind, columns) in RelKind::ALL.into_iter().zip(&self.columns) {
            let names = kind.schema().columns.iter();
            let formed = names.zip(columns).filter(|(_, c)| c.get().is_some());
            built.extend(formed.map(|(name, _)| (kind, *name)));
        }
        built
    }

    fn form(&self, kind: RelKind, col: usize) -> Vec<Value> {
        let text = |s: &str| Value::Str(s.to_owned());
        // `http://`, the host, a port and the path, in one allocation.
        let base = || {
            let mut base =
                String::with_capacity(16 + self.url.host().len() + self.url.path().len());
            write!(base, "{}", self.url).expect("writing to a String cannot fail");
            Value::Str(base)
        };
        let doc = &self.doc;
        match (kind, kind.schema().columns[col]) {
            (RelKind::Document, "url") => vec![base()],
            (RelKind::Document, "title") => vec![text(doc.title())],
            (RelKind::Document, "text") => vec![text(doc.text())],
            (RelKind::Document, _) => vec![Value::Int(doc.raw_len() as i64)],
            (RelKind::Anchor, "label") => {
                let resolved = doc.anchors().enumerate();
                let resolved = resolved.filter(|(i, _)| self.unresolved.binary_search(i).is_err());
                resolved.map(|(_, anchor)| text(anchor.label)).collect()
            }
            (RelKind::Anchor, "base") | (RelKind::Relinfon, "url") => {
                vec![base(); self.rows(kind)]
            }
            (RelKind::Anchor, "href") => {
                let hrefs = self.links.iter();
                hrefs
                    .map(|link| Value::Str(link.href.to_string()))
                    .collect()
            }
            (RelKind::Anchor, _) => {
                let types = self.links.iter();
                types.map(|link| text(link.ltype.symbol())).collect()
            }
            (RelKind::Relinfon, "delimiter") => doc.delimiters().map(text).collect(),
            (RelKind::Relinfon, "text") => doc.relinfons().map(|ri| text(ri.text)).collect(),
            (RelKind::Relinfon, _) => {
                let lengths = doc.relinfons();
                lengths.map(|ri| Value::Int(ri.text.len() as i64)).collect()
            }
        }
    }

    /// The index in `slot` ([`crate::index::slot`]), built only for a
    /// database that is probed again: the column's first ask builds
    /// nothing and returns `None`, and the caller scans; the second
    /// builds the index, and every later ask reads it. Panics when `slot`
    /// is not an indexed column's.
    pub fn index(&self, slot: usize) -> Option<&Index> {
        if self.indexes.asked[slot].set(()).is_ok() {
            return None;
        }
        Some(self.indexes.built[slot].get_or_init(|| {
            let (kind, attr, shape) = INDEXED[slot];
            let col = kind.schema().column_index(attr);
            let column = self.column(kind, col.expect("an indexed column is a schema column"));
            match shape {
                Shape::Hash => Box::new(Index::Hash(HashIndex::build(column))),
                Shape::Text => Box::new(Index::Text(TextIndex::build(column))),
            }
        }))
    }

    /// The columns whose index has been built so far, in slot order.
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

    /// Column `attr` of the relation of `kind`, rendered.
    fn rendered(d: &NodeDb, kind: RelKind, attr: &str) -> Vec<String> {
        let col = kind.schema().column_index(attr).unwrap();
        d.column(kind, col).iter().map(Value::render).collect()
    }

    #[test]
    fn document_relation_single_tuple() {
        let d = db(
            "http://h/a.html",
            "<title>T</title><body>hello world</body>",
        );
        assert_eq!(d.rows(RelKind::Document), 1);
        assert_eq!(rendered(&d, RelKind::Document, "url"), ["http://h/a.html"]);
        assert_eq!(rendered(&d, RelKind::Document, "title"), ["T"]);
        assert_eq!(rendered(&d, RelKind::Document, "text"), ["hello world"]);
    }

    #[test]
    fn anchor_relation_resolves_and_classifies() {
        let d = db(
            "http://h/dir/a.html",
            r##"<a href="b.html">rel</a><a href="/c">abs</a>
               <a href="http://other/x">glob</a><a href="#top">frag</a>"##,
        );
        assert_eq!(d.rows(RelKind::Anchor), 4);
        assert_eq!(rendered(&d, RelKind::Anchor, "ltype"), ["L", "L", "G", "I"]);
        assert_eq!(
            rendered(&d, RelKind::Anchor, "href")[0],
            "http://h/dir/b.html"
        );
        // base column is the document itself
        assert_eq!(
            rendered(&d, RelKind::Anchor, "base")[0],
            "http://h/dir/a.html"
        );
        assert_eq!(
            rendered(&d, RelKind::Anchor, "label"),
            ["rel", "abs", "glob", "frag"]
        );
    }

    #[test]
    fn unresolvable_href_skipped() {
        let d = db(
            "http://h/a",
            r#"<a href="mailto:x@y">mail</a><a href="ok.html">ok</a><a href="ftp://f/">f</a>"#,
        );
        assert_eq!(d.rows(RelKind::Anchor), 1);
        assert_eq!(d.links.len(), 1);
        assert_eq!(rendered(&d, RelKind::Anchor, "label"), ["ok"]);
    }

    #[test]
    fn relinfon_relation_built() {
        let d = db("http://h/a", "<b>bold bit</b>rest<hr>");
        let delims = rendered(&d, RelKind::Relinfon, "delimiter");
        assert_eq!(delims, ["b", "hr"]);
        assert_eq!(
            rendered(&d, RelKind::Relinfon, "text"),
            ["bold bit", "bold bitrest"]
        );
        assert_eq!(d.column(RelKind::Relinfon, 3)[0], Value::Int(8));
    }

    #[test]
    fn columns_are_formed_on_first_read_and_kept() {
        let d = db("http://h/a", r#"<title>T</title><b>x</b><a href="y">y</a>"#);
        assert!(d.built_columns().is_empty());
        assert_eq!(d.links.len(), 1, "links do not wait for ANCHOR");
        assert_eq!(d.rows(RelKind::Relinfon), 1);
        let first = d.column(RelKind::Relinfon, 0).as_ptr();
        assert_eq!(d.built_columns(), [(RelKind::Relinfon, "delimiter")]);
        assert_eq!(first, d.column(RelKind::Relinfon, 0).as_ptr());
        d.column(RelKind::Document, 1);
        assert_eq!(
            d.built_columns(),
            [
                (RelKind::Document, "title"),
                (RelKind::Relinfon, "delimiter")
            ]
        );
        assert!(
            !d.doc.text_formed(),
            "titles and delimiters read no body text"
        );
        // A copy carries what has been formed and forms the rest itself.
        let copy = d.clone();
        assert_eq!(copy.built_columns(), d.built_columns());
        assert_eq!(rendered(&copy, RelKind::Anchor, "label"), ["y"]);
        assert!(copy.doc.text_formed() && !d.doc.text_formed());
        assert_eq!(d.built_columns().len(), 2);
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

//! What the Database Constructor built before relations were formed on
//! demand — every tuple of DOCUMENT, ANCHOR and RELINFON and the link
//! list, eagerly, from the reference parse of `webdis-html`'s differential
//! tests — kept as the oracle `NodeDb`'s lazily formed columns are
//! compared against, column by column. The links it built carried their
//! labels; links carry none now (ANCHOR's label column reads them from the
//! document), so it builds them without.

use webdis_model::{Link, Url};
use webdis_rel::index::slot;
use webdis_rel::{NodeDb, RelKind, Shape, Value};

/// A positional tuple, as the eager build made them.
pub type Tuple = Vec<Value>;

#[allow(dead_code)]
#[path = "../../../webdis-html/tests/reference/mod.rs"]
mod reference;

/// The three relations' tuples in [`RelKind::ALL`] order, and the link list.
pub struct Eager {
    pub tuples: [Vec<Tuple>; 3],
    pub links: Vec<Link>,
}

/// The parent's `NodeDb::build`, over the parent's parser.
pub fn eager(url: &Url, html: &str) -> Eager {
    let doc = reference::parse::parse_html(html);
    let base = url.without_fragment();
    let base_text = base.to_string();
    let document = vec![vec![
        Value::Str(base_text.clone()),
        Value::Str(doc.title.clone()),
        Value::Str(doc.text.clone()),
        Value::Int(doc.raw_len as i64),
    ]];

    let mut links = Vec::with_capacity(doc.anchors.len());
    let mut anchor = Vec::new();
    for raw in &doc.anchors {
        let Ok(target) = base.resolve(&raw.href) else {
            continue;
        };
        let link = Link::new(base.clone(), target);
        anchor.push(vec![
            Value::Str(raw.label.clone()),
            Value::Str(base_text.clone()),
            Value::Str(link.href.to_string()),
            Value::Str(link.ltype.symbol().to_owned()),
        ]);
        links.push(link);
    }

    let mut relinfon = Vec::new();
    for ri in &doc.relinfons {
        relinfon.push(vec![
            Value::Str(ri.delimiter.clone()),
            Value::Str(base_text.clone()),
            Value::Str(ri.text.clone()),
            Value::Int(ri.text.len() as i64),
        ]);
    }

    Eager {
        tuples: [document, anchor, relinfon],
        links,
    }
}

impl Eager {
    /// Column `col` of the relation of `kind`.
    pub fn column(&self, kind: RelKind, col: usize) -> Vec<Value> {
        let tuples = self.tuples[kind as usize].iter();
        tuples.map(|t| t[col].clone()).collect()
    }
}

/// One first use of a part of a database: a column, or the index of one
/// of the six indexed columns (asked twice, since its first ask builds
/// nothing; the second forms its column on the way).
#[derive(Debug, Clone, Copy)]
pub enum Touch {
    Column(RelKind, usize),
    Hash(RelKind, &'static str),
    Text(RelKind, &'static str),
}

pub const TOUCHES: [Touch; 18] = [
    Touch::Column(RelKind::Document, 0),
    Touch::Column(RelKind::Document, 1),
    Touch::Column(RelKind::Document, 2),
    Touch::Column(RelKind::Document, 3),
    Touch::Column(RelKind::Anchor, 0),
    Touch::Column(RelKind::Anchor, 1),
    Touch::Column(RelKind::Anchor, 2),
    Touch::Column(RelKind::Anchor, 3),
    Touch::Column(RelKind::Relinfon, 0),
    Touch::Column(RelKind::Relinfon, 1),
    Touch::Column(RelKind::Relinfon, 2),
    Touch::Column(RelKind::Relinfon, 3),
    Touch::Hash(RelKind::Anchor, "href"),
    Touch::Hash(RelKind::Anchor, "ltype"),
    Touch::Hash(RelKind::Relinfon, "delimiter"),
    Touch::Hash(RelKind::Relinfon, "url"),
    Touch::Text(RelKind::Anchor, "label"),
    Touch::Text(RelKind::Relinfon, "text"),
];

/// Every column of every relation, in [`RelKind`] then schema order: what
/// [`NodeDb::built_columns`] reads once [`TOUCHES`] have all been made.
pub fn all_columns() -> Vec<(RelKind, &'static str)> {
    let columns = RelKind::ALL
        .into_iter()
        .flat_map(|k| k.schema().columns.iter().map(move |c| (k, *c)));
    columns.collect()
}

/// [`TOUCHES`] reordered by the given sort keys.
pub fn touch_order(keys: &[u32]) -> Vec<Touch> {
    let mut order: Vec<(u32, Touch)> = keys.iter().copied().zip(TOUCHES).collect();
    order.sort_by_key(|(key, _)| *key);
    order.into_iter().map(|(_, touch)| touch).collect()
}

/// Every column `db` has formed holds exactly the eager values, and every
/// relation has the eager number of tuples.
pub fn formed_as_eager(db: &NodeDb, want: &Eager) -> Result<(), String> {
    for kind in RelKind::ALL {
        let rows = want.tuples[kind as usize].len();
        if db.rows(kind) != rows {
            return Err(format!("{kind:?}: {} rows, eagerly {rows}", db.rows(kind)));
        }
    }
    for (kind, attr) in db.built_columns() {
        let col = kind.schema().column_index(attr).expect("a schema column");
        let got = db.column(kind, col);
        if got != want.column(kind, col) {
            return Err(format!(
                "{kind:?}.{attr}: lazily formed {got:?}, eagerly built {:?}",
                want.column(kind, col)
            ));
        }
    }
    Ok(())
}

/// Applies the touches in order; after each, every column formed so far
/// must hold exactly the eager values. Returns the first difference.
pub fn touch_and_compare(db: &NodeDb, order: &[Touch], want: &Eager) -> Result<(), String> {
    for touch in order {
        match *touch {
            Touch::Column(kind, col) => {
                db.column(kind, col);
            }
            Touch::Hash(kind, attr) | Touch::Text(kind, attr) => {
                let shape = match touch {
                    Touch::Hash(..) => Shape::Hash,
                    _ => Shape::Text,
                };
                let slot = slot(kind, attr, shape).expect("an indexed column");
                db.index(slot);
                db.index(slot).expect("built by its column's second ask");
            }
        }
        formed_as_eager(db, want).map_err(|e| format!("after {touch:?}: {e}"))?;
    }
    let unlabelled = |links: &[Link]| -> Vec<(Url, Url, webdis_model::LinkType)> {
        let parts = links
            .iter()
            .map(|l| (l.base.clone(), l.href.clone(), l.ltype));
        parts.collect()
    };
    if unlabelled(&db.links) != unlabelled(&want.links) {
        return Err(format!("links {:?}, eagerly {:?}", db.links, want.links));
    }
    Ok(())
}

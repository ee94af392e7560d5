//! What the Database Constructor built before relations were formed on
//! demand — every tuple of DOCUMENT, ANCHOR and RELINFON and the link
//! list, eagerly, from the reference parse of `webdis-html`'s differential
//! tests — kept as the oracle `NodeDb`'s lazily formed relations are
//! compared against.

use webdis_model::{Link, Url};
use webdis_rel::{NodeDb, RelKind, Tuple, Value};

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
    let document = vec![Tuple(vec![
        Value::Str(base_text.clone()),
        Value::Str(doc.title.clone()),
        Value::Str(doc.text.clone()),
        Value::Int(doc.raw_len as i64),
    ])];

    let mut links = Vec::with_capacity(doc.anchors.len());
    let mut anchor = Vec::new();
    for raw in &doc.anchors {
        let Ok(target) = base.resolve(&raw.href) else {
            continue;
        };
        let link = Link::new(base.clone(), target, raw.label.clone());
        anchor.push(Tuple(vec![
            Value::Str(link.label.clone()),
            Value::Str(base_text.clone()),
            Value::Str(link.href.to_string()),
            Value::Str(link.ltype.symbol().to_owned()),
        ]));
        links.push(link);
    }

    let mut relinfon = Vec::new();
    for ri in &doc.relinfons {
        relinfon.push(Tuple(vec![
            Value::Str(ri.delimiter.clone()),
            Value::Str(base_text.clone()),
            Value::Str(ri.text.clone()),
            Value::Int(ri.text.len() as i64),
        ]));
    }

    Eager {
        tuples: [document, anchor, relinfon],
        links,
    }
}

/// One first use of a part of a database: a relation, or the index of one
/// of the nine indexed columns (which forms its relation on the way).
#[derive(Debug, Clone, Copy)]
pub enum Touch {
    Relation(RelKind),
    Hash(RelKind, &'static str),
    Text(RelKind, &'static str),
}

pub const TOUCHES: [Touch; 12] = [
    Touch::Relation(RelKind::Document),
    Touch::Relation(RelKind::Anchor),
    Touch::Relation(RelKind::Relinfon),
    Touch::Hash(RelKind::Document, "url"),
    Touch::Hash(RelKind::Anchor, "href"),
    Touch::Hash(RelKind::Anchor, "ltype"),
    Touch::Hash(RelKind::Relinfon, "delimiter"),
    Touch::Hash(RelKind::Relinfon, "url"),
    Touch::Text(RelKind::Document, "title"),
    Touch::Text(RelKind::Document, "text"),
    Touch::Text(RelKind::Anchor, "label"),
    Touch::Text(RelKind::Relinfon, "text"),
];

/// [`TOUCHES`] reordered by the given sort keys.
pub fn touch_order(keys: &[u32]) -> Vec<Touch> {
    let mut order: Vec<(u32, Touch)> = keys.iter().copied().zip(TOUCHES).collect();
    order.sort_by_key(|(key, _)| *key);
    order.into_iter().map(|(_, touch)| touch).collect()
}

/// Applies the touches in order; after each, every relation formed so far
/// must hold exactly the eager tuples. Returns the first difference.
pub fn touch_and_compare(db: &NodeDb, order: &[Touch], want: &Eager) -> Result<(), String> {
    for touch in order {
        match *touch {
            Touch::Relation(kind) => {
                db.relation(kind);
            }
            Touch::Hash(kind, attr) => {
                db.hash_index(kind, attr).expect("a hash-indexed column");
            }
            Touch::Text(kind, attr) => {
                db.text_index(kind, attr).expect("a text-indexed column");
            }
        }
        for kind in db.built_relations() {
            let got = &db.relation(kind).tuples;
            if got != &want.tuples[kind as usize] {
                return Err(format!(
                    "{kind:?} after {touch:?}: lazily formed {got:?}, eagerly built {:?}",
                    want.tuples[kind as usize]
                ));
            }
        }
    }
    if db.links != want.links {
        return Err(format!("links {:?}, eagerly {:?}", db.links, want.links));
    }
    Ok(())
}

//! Per-node indexes over the virtual relations, built on demand.
//!
//! The paper's Database Constructor materializes DOCUMENT/ANCHOR/RELINFON
//! per node and the evaluator scans them; that is fine for 1999-sized
//! pages but hopeless once a site's index page carries 10^5 anchors. These
//! sidecar indexes let the planner turn `contains` and equality conjuncts
//! into posting-list probes. A [`crate::relation::NodeDb`] is constructed
//! with none of them: each configured column holds a [`OnceLock`] that the
//! planner fills on that column's first probe, so a database that answers
//! one node-query and is purged pays for the one column that query reads,
//! and a database the footnote-3 document cache keeps accumulates every
//! index it has ever needed.
//!
//! Two index shapes cover the predicate language:
//!
//! * [`TextIndex`] — an inverted index for `contains`: the column's text
//!   is split into maximal ASCII-alphanumeric runs (tokens), ASCII-
//!   lowercased; each token maps to the sorted list of tuple indices it
//!   occurs in. A needle that is itself one alphanumeric run cannot span a
//!   token boundary, so the union of postings of all dictionary tokens
//!   containing the needle is *exactly* the set of matching tuples — not
//!   a superset — and no residual re-check is needed. Needles with
//!   non-alphanumeric bytes (or empty ones) are not index-servable and
//!   stay with the scan/residual path.
//! * [`HashIndex`] — rendered value → sorted tuple indices, for equality
//!   against non-numeric literals (`a.ltype = "G"`, `a.href = "http://…"`).
//!   Numeric-looking literals are excluded by the planner because `=`
//!   coerces both sides to integers when possible (`" 42 " = "42"` holds
//!   numerically but would miss in a string-keyed hash).
//!
//! All posting lists are ascending, so intersections preserve the scan's
//! tuple enumeration order and planned evaluation returns rows in exactly
//! the order the cross-product scan would.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::query::RelKind;
use crate::value::Value;

/// The columns that get a hash (equality) index. DOCUMENT has exactly
/// one tuple, so none of its columns is indexed: a probe could only pick
/// that tuple or none, at the price of building an index to say so, and
/// the planner leaves its conjuncts as residual filters over a one-tuple
/// scan.
const HASH_COLUMNS: [(RelKind, &str); 4] = [
    (RelKind::Anchor, "href"),
    (RelKind::Anchor, "ltype"),
    (RelKind::Relinfon, "delimiter"),
    (RelKind::Relinfon, "url"),
];

/// The columns that get an inverted text (`contains`) index.
const TEXT_COLUMNS: [(RelKind, &str); 2] =
    [(RelKind::Anchor, "label"), (RelKind::Relinfon, "text")];

fn slot_of(columns: &[(RelKind, &str)], kind: RelKind, attr: &str) -> Option<usize> {
    columns
        .iter()
        .position(|(k, c)| *k == kind && c.eq_ignore_ascii_case(attr))
}

/// The slot of `kind.attr` in [`DbIndexes::hash`], when that column is
/// configured for a hash index — the planner's admissibility check,
/// independent of any particular database.
pub(crate) fn hash_slot(kind: RelKind, attr: &str) -> Option<usize> {
    slot_of(&HASH_COLUMNS, kind, attr)
}

/// The slot of `kind.attr` in [`DbIndexes::text`], when that column is
/// configured for an inverted text index.
pub(crate) fn text_slot(kind: RelKind, attr: &str) -> Option<usize> {
    slot_of(&TEXT_COLUMNS, kind, attr)
}

/// Equality index: exact rendered value → ascending tuple indices.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<String, Vec<u32>>,
}

impl HashIndex {
    /// Builds the index over one column of a relation.
    pub fn build(column: &[Value]) -> HashIndex {
        let mut map: HashMap<String, Vec<u32>> = HashMap::new();
        for (idx, v) in column.iter().enumerate() {
            let key = v.text();
            match map.get_mut(key.as_ref()) {
                Some(postings) => postings.push(idx as u32),
                None => {
                    map.insert(key.into_owned(), vec![idx as u32]);
                }
            }
        }
        HashIndex { map }
    }

    /// Tuple indices whose column renders exactly as `value`.
    pub fn probe(&self, value: &str) -> &[u32] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        self.map.len()
    }
}

/// Inverted text index: case-folded token → ascending tuple indices.
///
/// Three buffers, however many tokens: the folded tokens back to back,
/// one entry per distinct token in ascending order, and every posting
/// list back to back.
#[derive(Debug, Clone, Default)]
pub struct TextIndex {
    folded: String,
    /// Per distinct token: its range in `folded` and where its postings
    /// end (each list starts where the one before it ends).
    entries: Vec<(usize, usize, usize)>,
    postings: Vec<u32>,
}

impl TextIndex {
    /// Builds the index over one column of a relation: every token
    /// occurrence is folded into one buffer, and sorting the occurrences
    /// groups each token's tuples.
    pub fn build(column: &[Value]) -> TextIndex {
        let mut folded = String::new();
        // Each occurrence's range in `folded` and its tuple; then one
        // entry per token and tuple, whose posting ends after it; then one
        // per token, whose postings end after its last tuple's.
        let mut entries: Vec<(usize, usize, usize)> = Vec::new();
        for (idx, v) in column.iter().enumerate() {
            let text = v.text();
            folded.reserve(text.len());
            // Every byte of a multi-byte character is ≥ 0x80, hence a
            // separator, exactly as the character itself would be.
            for token in text.as_bytes().split(|b| !b.is_ascii_alphanumeric()) {
                let start = folded.len();
                folded.extend(token.iter().map(|b| b.to_ascii_lowercase() as char));
                if !token.is_empty() {
                    entries.push((start, folded.len(), idx));
                }
            }
        }
        let token = |&(start, end, _): &(usize, usize, usize)| &folded[start..end];
        entries.sort_unstable_by(|a, b| token(a).cmp(token(b)).then(a.2.cmp(&b.2)));
        entries.dedup_by(|b, a| token(b) == token(a) && b.2 == a.2);
        let postings = entries.iter().map(|&(_, _, idx)| idx as u32).collect();
        for (at, entry) in entries.iter_mut().enumerate() {
            entry.2 = at + 1;
        }
        entries.dedup_by(|b, a| {
            token(b) == token(a) && {
                a.2 = b.2;
                true
            }
        });
        TextIndex {
            folded,
            entries,
            postings,
        }
    }

    /// True when a needle can be answered exactly from the token
    /// dictionary: non-empty and a single alphanumeric run, so it cannot
    /// straddle a token boundary in any haystack.
    pub fn indexable(needle: &str) -> bool {
        !needle.is_empty() && needle.bytes().all(|b| b.is_ascii_alphanumeric())
    }

    /// Tuple indices whose column `contains` the needle, or `None` when
    /// the needle is not index-servable and the caller must fall back to
    /// scanning. The dictionary is lowercase, so `folded` must be too: the
    /// planner folds a needle once when it compiles the probe, not here on
    /// every document.
    pub fn probe_contains(&self, folded: &str) -> Option<Vec<u32>> {
        debug_assert!(!folded.bytes().any(|b| b.is_ascii_uppercase()));
        if !Self::indexable(folded) {
            return None;
        }
        let (mut hits, mut from) = (Vec::new(), 0);
        for &(start, end, to) in &self.entries {
            if self.folded[start..end].contains(folded) {
                hits.extend_from_slice(&self.postings[from..to]);
            }
            from = to;
        }
        hits.sort_unstable();
        hits.dedup();
        Some(hits)
    }

    /// Number of distinct tokens.
    pub fn tokens(&self) -> usize {
        self.entries.len()
    }
}

/// Intersection of two ascending posting lists.
pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The index slots of one node's database: one [`OnceLock`] per configured
/// column, all empty at construction.
/// [`NodeDb::hash_index`](crate::relation::NodeDb::hash_index) and
/// [`NodeDb::text_index`](crate::relation::NodeDb::text_index) fill a slot
/// the first time its column is probed. `OnceLock` runs exactly one of any
/// racing initializers and parks the others until it is done, so threads
/// sharing an `Arc<NodeDb>` all probe the same index; cloning a database
/// clones the indexes built so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct DbIndexes {
    pub(crate) hash: [OnceLock<HashIndex>; HASH_COLUMNS.len()],
    pub(crate) text: [OnceLock<TextIndex>; TEXT_COLUMNS.len()],
}

impl DbIndexes {
    /// The columns whose slot is filled, hash columns first, each group
    /// in configuration order.
    pub(crate) fn built(&self) -> Vec<(RelKind, &'static str)> {
        fn filled<'a, T>(
            columns: &'a [(RelKind, &'static str)],
            slots: &'a [OnceLock<T>],
        ) -> impl Iterator<Item = (RelKind, &'static str)> + 'a {
            let filled = columns.iter().zip(slots).filter(|(_, s)| s.get().is_some());
            filled.map(|(column, _)| *column)
        }
        filled(&HASH_COLUMNS, &self.hash)
            .chain(filled(&TEXT_COLUMNS, &self.text))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ANCHOR's label, href and ltype columns, in schema order (a column
    /// number picks one; the base column, 1, is left out).
    fn anchors(rows: &[(&str, &str, &str)]) -> Vec<Vec<Value>> {
        let column = |pick: usize| {
            let cell = |r: &(&str, &str, &str)| [r.0, r.1, r.2][pick].into();
            rows.iter().map(|r| Value::Str(cell(r))).collect()
        };
        vec![column(0), Vec::new(), column(1), column(2)]
    }

    #[test]
    fn hash_index_probes_exact_rendered_values() {
        let rel = anchors(&[
            ("a", "http://x/", "G"),
            ("b", "http://y/", "L"),
            ("c", "http://x/", "G"),
        ]);
        let idx = HashIndex::build(&rel[2]);
        assert_eq!(idx.probe("http://x/"), &[0, 2]);
        assert_eq!(idx.probe("http://y/"), &[1]);
        assert_eq!(idx.probe("http://z/"), &[] as &[u32]);
        assert_eq!(idx.keys(), 2);
    }

    #[test]
    fn text_index_tokenizes_case_folded_alnum_runs() {
        let rel = anchors(&[
            ("Database Systems Lab", "x", "L"),
            ("the lab-notes page", "x", "L"),
            ("unrelated", "x", "L"),
        ]);
        let idx = TextIndex::build(&rel[0]);
        // "lab" matches tokens "lab" (rows 0, 1) and nothing else; token
        // "laboratories" would match too via substring.
        assert_eq!(idx.probe_contains("lab"), Some(vec![0, 1]));
        assert_eq!(idx.probe_contains("systems"), Some(vec![0]));
        assert_eq!(idx.probe_contains("zzz"), Some(vec![]));
    }

    #[test]
    fn text_index_substring_of_token_matches() {
        let rel = anchors(&[("Laboratories", "x", "L"), ("collaborate", "x", "L")]);
        let idx = TextIndex::build(&rel[0]);
        // "labor" is inside both "laboratories" and "collaborate".
        assert_eq!(idx.probe_contains("labor"), Some(vec![0, 1]));
    }

    #[test]
    fn non_alnum_needle_is_not_servable() {
        let rel = anchors(&[("a b", "x", "L")]);
        let idx = TextIndex::build(&rel[0]);
        assert_eq!(idx.probe_contains("a b"), None);
        assert_eq!(idx.probe_contains(""), None);
        assert_eq!(idx.probe_contains("é"), None);
    }

    #[test]
    fn duplicate_token_in_one_tuple_posted_once() {
        let rel = anchors(&[("lab lab lab", "x", "L")]);
        let idx = TextIndex::build(&rel[0]);
        assert_eq!(idx.probe_contains("lab"), Some(vec![0]));
    }

    #[test]
    fn non_ascii_bytes_separate_tokens_and_never_fold() {
        // "É" is two bytes ≥ 0x80: a separator, like the character was
        // when the column was lowercased and split by `char`.
        let rel = anchors(&[("caféBAR naïve", "x", "L"), ("ÉCOLE", "x", "L")]);
        let idx = TextIndex::build(&rel[0]);
        assert_eq!(idx.tokens(), 5); // caf, bar, na, ve, cole
        assert_eq!(idx.probe_contains("bar"), Some(vec![0]));
        assert_eq!(idx.probe_contains("caf"), Some(vec![0]));
        assert_eq!(idx.probe_contains("cole"), Some(vec![1]));
        assert_eq!(idx.probe_contains("cafebar"), Some(vec![]));
    }

    #[test]
    fn integer_columns_index_their_rendering() {
        let lengths = [1234, -56, 1234].map(Value::Int);
        let empty = vec![Value::Str(String::new()); 3];
        let rel = [Vec::new(), empty.clone(), empty, lengths.to_vec()];
        let text = TextIndex::build(&rel[3]);
        assert_eq!(text.probe_contains("23"), Some(vec![0, 2]));
        assert_eq!(text.probe_contains("56"), Some(vec![1]));
        let hash = HashIndex::build(&rel[3]);
        assert_eq!(hash.probe("1234"), &[0, 2]);
        assert_eq!(hash.probe("-56"), &[1]);
        // Empty columns: no token, one key.
        assert_eq!(TextIndex::build(&rel[1]).tokens(), 0);
        assert_eq!(TextIndex::build(&rel[1]).probe_contains("a"), Some(vec![]));
        assert_eq!(HashIndex::build(&rel[1]).probe(""), &[0, 1, 2]);
    }

    #[test]
    fn needle_longer_than_any_token_matches_nothing() {
        let rel = anchors(&[("lab labs", "x", "L")]);
        let idx = TextIndex::build(&rel[0]);
        assert_eq!(idx.probe_contains("labsx"), Some(vec![]));
        assert_eq!(
            TextIndex::build(&anchors(&[])[0]).probe_contains("lab"),
            Some(vec![])
        );
    }

    #[test]
    fn intersect_and_union_are_ordered() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
    }
}

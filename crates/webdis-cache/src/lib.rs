#![warn(missing_docs)]

//! The cross-query answer cache.
//!
//! The paper's log table eliminates duplicate node-query work *within*
//! one query via subsumption (Section 3.1.1); traffic from many users
//! is massively repetitive *across* queries. [`AnswerCache`] promotes
//! that mechanism to a persistent, memory-bounded inter-query store
//! each site engine consults before evaluation:
//!
//! * **Keying** — entries are keyed by node URL plus the normalized
//!   node-query fingerprint ([`webdis_rel::canonicalize`]): positional
//!   variable names, flattened conjunct set, canonical projection. Two
//!   queries that differ only in variable names or in how predicates
//!   are spread across `such that`/`where` share one entry.
//! * **Exact hits** serve the stored rows directly. **Subsumption
//!   hits** — the incoming query's conjunct set is a superset of a
//!   cached one over the same kind vector — replay the cached bindings
//!   through the residual conjuncts and the new projection
//!   ([`webdis_rel::replay_bindings`]), reusing the planner's residual-
//!   filter machinery. Both paths return rows identical (values and
//!   order) to full evaluation.
//! * **Eviction** is cost-aware LRU under a byte budget: the victim is
//!   the entry cheapest to recompute ([`Entry::cost`] = tuples the
//!   evaluator visited), ties broken least-recently-used. All ordering
//!   derives from fixed-point cost and logical use counters — never
//!   wall clock — so simulator runs stay bit-deterministic.
//! * **Invalidation** is keyed by site content version: entries are
//!   stamped at insert and lazily dropped once the engine bumps the
//!   version (the "living web" hook).

use std::collections::{BTreeMap, BTreeSet};

use webdis_rel::subsume::CanonicalQuery;
use webdis_rel::{replay_bindings, EvalError, NodeDb, NodeQuery, ResultRow};

/// Configuration of one site's answer cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachePolicy {
    /// Resident-byte budget across all entries. Inserting past the
    /// budget evicts cheapest-to-recompute entries first; an entry
    /// larger than the whole budget is never admitted.
    pub budget_bytes: u64,
    /// Modeled cost of one cache lookup, charged to the site's
    /// processor per consult (hit or miss). Sub-eval by construction:
    /// the win over a 1999-workstation evaluation (200µs per node
    /// query, plus per-tuple work) is what cache hits bank.
    pub lookup_us: u64,
}

impl CachePolicy {
    /// The default modeled lookup cost, µs.
    pub const DEFAULT_LOOKUP_US: u64 = 5;

    /// A policy with the given byte budget and the default lookup cost.
    pub fn with_budget(budget_bytes: u64) -> CachePolicy {
        CachePolicy {
            budget_bytes,
            lookup_us: Self::DEFAULT_LOOKUP_US,
        }
    }
}

impl Default for CachePolicy {
    fn default() -> CachePolicy {
        CachePolicy::with_budget(1 << 20)
    }
}

/// One cached node-query answer.
#[derive(Debug, Clone)]
struct Entry {
    /// The node URL the answer belongs to.
    node: String,
    /// Canonical conjunct strings (the subset-test key).
    conjuncts: BTreeSet<String>,
    /// Projected rows, in evaluation order — served verbatim on exact
    /// hits.
    rows: Vec<ResultRow>,
    /// Per-row tuple-index bindings — replayed on subsumption hits.
    bindings: Vec<Vec<u32>>,
    /// Recompute cost (tuples visited by the evaluation that produced
    /// this entry). Cheap entries are evicted first.
    cost: u64,
    /// Estimated resident bytes.
    bytes: u64,
    /// Site content version at insert; stale entries are dropped lazily.
    version: u64,
    /// Logical last-use counter (LRU tie-break within equal cost).
    last_use: u64,
    /// Logical insertion counter (final deterministic tie-break).
    seq: u64,
}

/// What one eviction removed — the caller turns these into trace
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted entry's node URL.
    pub node: String,
    /// Bytes released.
    pub bytes: u64,
}

/// How a lookup was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The fingerprint matched an entry exactly; rows served verbatim.
    Exact(Vec<ResultRow>),
    /// A cached subset of the conjuncts was replayed through the
    /// residual filter and re-projected.
    Subsumed(Vec<ResultRow>),
    /// Nothing servable — the caller evaluates and then
    /// [`insert`](AnswerCache::insert)s.
    Miss,
}

/// Monotone hit/miss/eviction counters, for tests and engine stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-fingerprint hits.
    pub exact_hits: u64,
    /// Subsumption-served hits.
    pub subsumed_hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for space.
    pub evictions: u64,
    /// Entries dropped by content-version invalidation.
    pub invalidated: u64,
}

impl CacheStats {
    /// All hits, exact plus subsumed.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.subsumed_hits
    }
}

/// The per-site answer cache. See the crate docs for the design.
#[derive(Debug)]
pub struct AnswerCache {
    policy: CachePolicy,
    /// Exact-fingerprint key (`node|fingerprint`) → entry.
    entries: BTreeMap<String, Entry>,
    /// Subsumption bucket: `node|kinds` → exact keys in that bucket.
    buckets: BTreeMap<String, Vec<String>>,
    /// Eviction order: `(cost, last_use, seq, key)` ascending — the
    /// head is the cheapest-to-recompute, least-recently-used entry.
    evict_order: BTreeSet<(u64, u64, u64, String)>,
    resident_bytes: u64,
    content_version: u64,
    clock: u64,
    stats: CacheStats,
}

impl AnswerCache {
    /// An empty cache under `policy`.
    pub fn new(policy: CachePolicy) -> AnswerCache {
        AnswerCache {
            policy,
            entries: BTreeMap::new(),
            buckets: BTreeMap::new(),
            evict_order: BTreeSet::new(),
            resident_bytes: 0,
            content_version: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &CachePolicy {
        &self.policy
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The monotone counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The current content version entries are checked against.
    pub fn content_version(&self) -> u64 {
        self.content_version
    }

    /// Invalidates every entry inserted before this call by bumping the
    /// site content version. Entries are dropped lazily on lookup and
    /// eagerly from the byte accounting here, so the budget frees
    /// immediately.
    pub fn invalidate(&mut self) {
        self.content_version += 1;
        let stale: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.version != self.content_version)
            .map(|(k, _)| k.clone())
            .collect();
        self.stats.invalidated += stale.len() as u64;
        for key in stale {
            self.remove(&key);
        }
    }

    /// Drops everything — the crash-restart path (a respawned site
    /// starts cold, exactly like its empty log table).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.buckets.clear();
        self.evict_order.clear();
        self.resident_bytes = 0;
    }

    /// Looks up `query` (already canonicalized as `cq`) for `node`
    /// against `db`. Exact hits return stored rows; subsumption hits
    /// replay cached bindings through the residual conjuncts. Any
    /// replay error reads as a miss — the caller falls back to full
    /// evaluation, which reproduces the uncached behavior exactly.
    pub fn lookup(
        &mut self,
        db: &NodeDb,
        node: &str,
        query: &NodeQuery,
        cq: &CanonicalQuery,
    ) -> Lookup {
        let key = exact_key(node, cq);
        if let Some(entry) = self.entries.get(&key) {
            if entry.version == self.content_version {
                let rows = entry.rows.clone();
                self.touch(&key);
                self.stats.exact_hits += 1;
                return Lookup::Exact(rows);
            }
            self.stats.invalidated += 1;
            self.remove(&key);
        }

        // Subsumption: the best (most specific) same-kind entry whose
        // conjuncts all appear in the query's set. Restricted to
        // error-free predicate languages — see `webdis_rel::subsume`.
        if cq.total_on_err {
            if let Some((key, rows)) = self.subsumed_rows(db, node, query, cq) {
                self.touch(&key);
                self.stats.subsumed_hits += 1;
                return Lookup::Subsumed(rows);
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    fn subsumed_rows(
        &mut self,
        db: &NodeDb,
        node: &str,
        query: &NodeQuery,
        cq: &CanonicalQuery,
    ) -> Option<(String, Vec<ResultRow>)> {
        let want = cq.conjunct_set();
        let bucket = self.buckets.get(&bucket_key(node, cq))?;
        // Most-specific candidate first (largest cached conjunct set ⇒
        // smallest binding set to filter), oldest insertion breaking
        // ties — all deterministic.
        let mut stale = Vec::new();
        let mut candidates: Vec<(&String, &Entry)> = Vec::new();
        for key in bucket {
            let entry = &self.entries[key];
            if entry.version != self.content_version {
                stale.push(key.clone());
            } else if entry.conjuncts.iter().all(|c| want.contains(c.as_str())) {
                candidates.push((key, entry));
            }
        }
        candidates.sort_by_key(|(_, e)| (std::cmp::Reverse(e.conjuncts.len()), e.seq));
        let mut served = None;
        for (key, entry) in candidates {
            let residual: Vec<&webdis_rel::Expr> = cq
                .conjuncts
                .iter()
                .filter(|c| !entry.conjuncts.contains(&c.canonical))
                .map(|c| &c.expr)
                .collect();
            match replay_bindings(db, query, &entry.bindings, &residual) {
                Ok(rows) => {
                    served = Some((key.clone(), rows));
                    break;
                }
                // A replay error (stale shape) reads as a miss for this
                // candidate; full evaluation is always correct.
                Err(EvalError { .. }) => continue,
            }
        }
        for key in stale {
            self.stats.invalidated += 1;
            self.remove(&key);
        }
        served
    }

    /// Stores an evaluation's outcome. `cost` is the evaluator's
    /// tuples-visited count — the deterministic recompute price that
    /// orders eviction. Returns the entries evicted to make room (empty
    /// when the budget holds or the candidate itself is too large to
    /// admit).
    pub fn insert(
        &mut self,
        node: &str,
        cq: &CanonicalQuery,
        rows: Vec<ResultRow>,
        bindings: Vec<Vec<u32>>,
        cost: u64,
    ) -> Vec<Evicted> {
        let key = exact_key(node, cq);
        if self.entries.contains_key(&key) {
            // Already present (e.g. re-evaluated after invalidation
            // raced): replace byte-for-byte.
            self.remove(&key);
        }
        let conjuncts: BTreeSet<String> =
            cq.conjuncts.iter().map(|c| c.canonical.clone()).collect();
        let bytes = estimate_bytes(&key, &conjuncts, &rows, &bindings);
        if bytes > self.policy.budget_bytes {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.resident_bytes + bytes > self.policy.budget_bytes {
            let victim = self
                .evict_order
                .iter()
                .next()
                .map(|(_, _, _, k)| k.clone())
                .expect("resident bytes imply a resident entry");
            let entry = self.remove(&victim).expect("victim is resident");
            self.stats.evictions += 1;
            evicted.push(Evicted {
                node: entry.node,
                bytes: entry.bytes,
            });
        }
        self.clock += 1;
        let entry = Entry {
            node: node.to_string(),
            conjuncts,
            rows,
            bindings,
            cost: cost.max(1),
            bytes,
            version: self.content_version,
            last_use: self.clock,
            seq: self.clock,
        };
        self.resident_bytes += bytes;
        self.evict_order
            .insert((entry.cost, entry.last_use, entry.seq, key.clone()));
        self.buckets
            .entry(bucket_key(node, cq))
            .or_default()
            .push(key.clone());
        self.entries.insert(key, entry);
        self.stats.insertions += 1;
        evicted
    }

    /// Refreshes an entry's logical last-use stamp.
    fn touch(&mut self, key: &str) {
        self.clock += 1;
        let Some(entry) = self.entries.get_mut(key) else {
            return;
        };
        self.evict_order
            .remove(&(entry.cost, entry.last_use, entry.seq, key.to_string()));
        entry.last_use = self.clock;
        self.evict_order
            .insert((entry.cost, entry.last_use, entry.seq, key.to_string()));
    }

    /// Removes one entry from every structure, returning it.
    fn remove(&mut self, key: &str) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.evict_order
            .remove(&(entry.cost, entry.last_use, entry.seq, key.to_string()));
        self.resident_bytes -= entry.bytes;
        for keys in self.buckets.values_mut() {
            keys.retain(|k| k != key);
        }
        self.buckets.retain(|_, keys| !keys.is_empty());
        Some(entry)
    }
}

/// The exact-hit key: node plus the full canonical fingerprint.
fn exact_key(node: &str, cq: &CanonicalQuery) -> String {
    format!("{node}|{}", cq.fingerprint())
}

/// The subsumption bucket key: node plus kind vector.
fn bucket_key(node: &str, cq: &CanonicalQuery) -> String {
    format!("{node}|{}", cq.kinds_key())
}

/// Deterministic resident-size estimate: key and conjunct strings,
/// rendered row values, binding indices, plus fixed per-entry overhead.
fn estimate_bytes(
    key: &str,
    conjuncts: &BTreeSet<String>,
    rows: &[ResultRow],
    bindings: &[Vec<u32>],
) -> u64 {
    let mut bytes = 64 + key.len() as u64;
    for c in conjuncts {
        bytes += c.len() as u64 + 8;
    }
    for row in rows {
        bytes += 16;
        for v in &row.values {
            bytes += v.rendered_len() as u64 + 8;
        }
    }
    for b in bindings {
        bytes += 8 + 4 * b.len() as u64;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_html::parse_html;
    use webdis_model::Url;
    use webdis_rel::{
        canonicalize, eval_node_query, eval_node_query_with_bindings, Expr, NodeQuery, RelKind,
        VarDecl,
    };

    fn db() -> NodeDb {
        let html = r#"<title>Index of Labs</title>
            <body>
            <a href="http://dsl.serc.iisc.ernet.in/">Database Systems Lab</a>
            <a href="local.html">Local page</a>
            <a href="http://compiler.csa.iisc.ernet.in/">Compiler Lab</a>
            Convener Jayant Haritsa<hr>
            </body>"#;
        NodeDb::build(
            &Url::parse("http://csa.iisc.ernet.in/Labs").unwrap(),
            &parse_html(html),
        )
    }

    fn decl(name: &str, kind: RelKind) -> VarDecl {
        VarDecl {
            name: name.into(),
            kind,
            cond: None,
        }
    }

    fn contains(var: &str, a: &str, s: &str) -> Expr {
        Expr::Contains(
            Box::new(Expr::Attr {
                var: var.into(),
                attr: a.into(),
            }),
            Box::new(Expr::StrLit(s.into())),
        )
    }

    fn da_query(where_cond: Option<Expr>) -> NodeQuery {
        NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond,
            select: vec![("a".into(), "href".into())],
        }
    }

    /// Evaluates `q` against `db` and inserts the answer under `node`.
    fn eval_and_insert(cache: &mut AnswerCache, db: &NodeDb, node: &str, q: &NodeQuery) {
        let cq = canonicalize(q);
        let (rows, bindings, stats) = eval_node_query_with_bindings(db, q).unwrap();
        cache.insert(node, &cq, rows, bindings, stats.tuples_visited);
    }

    const NODE: &str = "http://csa.iisc.ernet.in/Labs";

    #[test]
    fn exact_hit_serves_stored_rows() {
        let db = db();
        let q = da_query(Some(contains("a", "label", "Lab")));
        let cq = canonicalize(&q);
        let mut cache = AnswerCache::new(CachePolicy::default());
        assert_eq!(cache.lookup(&db, NODE, &q, &cq), Lookup::Miss);
        eval_and_insert(&mut cache, &db, NODE, &q);

        // A renamed variant of the same query shares the fingerprint.
        let renamed = NodeQuery {
            vars: vec![decl("x", RelKind::Document), decl("y", RelKind::Anchor)],
            where_cond: Some(contains("y", "label", "Lab")),
            select: vec![("y".into(), "href".into())],
        };
        let rcq = canonicalize(&renamed);
        match cache.lookup(&db, NODE, &renamed, &rcq) {
            Lookup::Exact(rows) => assert_eq!(rows, eval_node_query(&db, &renamed).unwrap()),
            other => panic!("expected exact hit, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.exact_hits, s.subsumed_hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn subsumption_hit_matches_full_evaluation_rows_and_order() {
        let db = db();
        let wide = da_query(Some(contains("a", "label", "Lab")));
        let mut cache = AnswerCache::new(CachePolicy::default());
        eval_and_insert(&mut cache, &db, NODE, &wide);

        let mut narrow = da_query(Some(Expr::And(
            Box::new(contains("a", "label", "Lab")),
            Box::new(contains("a", "href", "dsl")),
        )));
        // Different projection too — replay must re-project.
        narrow.select = vec![("a".into(), "label".into()), ("d".into(), "title".into())];
        let ncq = canonicalize(&narrow);
        match cache.lookup(&db, NODE, &narrow, &ncq) {
            Lookup::Subsumed(rows) => {
                assert_eq!(rows, eval_node_query(&db, &narrow).unwrap());
                assert_eq!(rows.len(), 1);
            }
            other => panic!("expected subsumption hit, got {other:?}"),
        }
        assert_eq!(cache.stats().subsumed_hits, 1);
    }

    #[test]
    fn ordered_comparisons_fall_back_to_miss_not_wrong_answers() {
        let db = db();
        let wide = da_query(None);
        let mut cache = AnswerCache::new(CachePolicy::default());
        eval_and_insert(&mut cache, &db, NODE, &wide);

        // `length > 0` can raise EvalError on some bindings, so the
        // canonical form is not total and subsumption must not serve it.
        let narrow = da_query(Some(Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Attr {
                var: "d".into(),
                attr: "length".into(),
            }),
            Box::new(Expr::IntLit(0)),
        )));
        let ncq = canonicalize(&narrow);
        assert!(!ncq.total_on_err);
        assert_eq!(cache.lookup(&db, NODE, &narrow, &ncq), Lookup::Miss);
    }

    use webdis_rel::CmpOp;

    #[test]
    fn eviction_removes_cheapest_to_recompute_first() {
        let db = db();
        // Budget sized to hold roughly two entries.
        let mut cache = AnswerCache::new(CachePolicy::with_budget(700));
        let queries: Vec<NodeQuery> = ["Lab", "Local", "Compiler"]
            .iter()
            .map(|needle| da_query(Some(contains("a", "label", needle))))
            .collect();
        // Insert with hand-picked costs: the middle one is cheapest.
        for (i, q) in queries.iter().enumerate() {
            let cq = canonicalize(q);
            let (rows, bindings, _) = eval_node_query_with_bindings(&db, q).unwrap();
            let cost = [50, 1, 50][i];
            let evicted = cache.insert(NODE, &cq, rows, bindings, cost);
            if i < 2 {
                assert!(evicted.is_empty(), "budget holds two entries");
            } else {
                assert_eq!(evicted.len(), 1, "third insert evicts");
            }
        }
        assert!(cache.resident_bytes() <= cache.policy().budget_bytes);
        assert_eq!(cache.stats().evictions, 1);
        // The cheap entry (cost 1) went first; the expensive ones stayed.
        let cq0 = canonicalize(&queries[0]);
        let cq1 = canonicalize(&queries[1]);
        assert!(matches!(
            cache.lookup(&db, NODE, &queries[0], &cq0),
            Lookup::Exact(_)
        ));
        assert_eq!(cache.lookup(&db, NODE, &queries[1], &cq1), Lookup::Miss);
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let db = db();
        let q = da_query(None);
        let cq = canonicalize(&q);
        let mut cache = AnswerCache::new(CachePolicy::with_budget(10));
        let (rows, bindings, stats) = eval_node_query_with_bindings(&db, &q).unwrap();
        let evicted = cache.insert(NODE, &cq, rows, bindings, stats.tuples_visited);
        assert!(evicted.is_empty());
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn invalidation_drops_entries_and_frees_budget() {
        let db = db();
        let q = da_query(Some(contains("a", "label", "Lab")));
        let cq = canonicalize(&q);
        let mut cache = AnswerCache::new(CachePolicy::default());
        eval_and_insert(&mut cache, &db, NODE, &q);
        assert!(cache.resident_bytes() > 0);

        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.lookup(&db, NODE, &q, &cq), Lookup::Miss);

        // Fresh inserts under the new version serve again.
        eval_and_insert(&mut cache, &db, NODE, &q);
        assert!(matches!(cache.lookup(&db, NODE, &q, &cq), Lookup::Exact(_)));
    }

    #[test]
    fn clear_is_a_cold_restart() {
        let db = db();
        let q = da_query(None);
        let cq = canonicalize(&q);
        let mut cache = AnswerCache::new(CachePolicy::default());
        eval_and_insert(&mut cache, &db, NODE, &q);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.lookup(&db, NODE, &q, &cq), Lookup::Miss);
    }

    #[test]
    fn identical_operation_sequences_yield_identical_caches() {
        let db = db();
        let run = || {
            let mut cache = AnswerCache::new(CachePolicy::with_budget(700));
            for needle in ["Lab", "Local", "Compiler", "Lab", "Local"] {
                let q = da_query(Some(contains("a", "label", needle)));
                let cq = canonicalize(&q);
                if cache.lookup(&db, NODE, &q, &cq) == Lookup::Miss {
                    eval_and_insert(&mut cache, &db, NODE, &q);
                }
            }
            (
                cache.stats(),
                cache.resident_bytes(),
                cache.len(),
                cache.entries.keys().cloned().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }
}

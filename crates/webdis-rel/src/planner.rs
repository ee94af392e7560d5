//! The predicate pre-compiler: node-query conjuncts → index probes plus a
//! residual filter.
//!
//! [`Plan::new`] flattens every `such that` / `where` condition into its
//! top-level conjuncts, schedules each conjunct at the level where the
//! scan would apply it (`query::apply_level_of` — the same rule,
//! so planned and scanned evaluation agree by construction), and routes a
//! conjunct to an index probe when three things hold:
//!
//! 1. it references exactly the variable enumerated at its level (a probe
//!    restricts the candidate set of the loop it runs in);
//! 2. it is `attr = "literal"` with a non-numeric literal (hash index) or
//!    `attr contains "literal"` with a single-alphanumeric-run literal
//!    (text index);
//! 3. that column is configured for that index in [`crate::index`] —
//!    which no DOCUMENT column is: that relation has one tuple, so its
//!    conjuncts filter a one-tuple scan.
//!
//! Which probes a plan holds depends only on the query and the schema;
//! whether a probe is *served* depends on the database. A probe asks its
//! column's index of the database ([`NodeDb::index`]), which builds it on
//! the column's second ask: on the first, the level scans and the probe's
//! own conjunct filters it, so a database read once builds no index.
//! [`EvalStats`] records what an execution did.
//!
//! Everything else stays a residual filter evaluated per candidate, and a
//! level with no served probe falls back to the full scan of its relation
//! — the scan-fallback contract: the planner may only ever *shrink* the
//! candidate set it enumerates, never change which bindings qualify.
//! Posting lists are ascending and intersections preserve order, so the
//! executor emits rows in exactly the cross-product scan's order.

use std::sync::OnceLock;

use crate::expr::{CmpOp, EvalError, Expr};
use crate::index::{intersect_sorted, Shape, TextIndex};
use crate::query::{apply_level_of, Env, NodeQuery, RelKind, ResultRow};
use crate::relation::NodeDb;
use crate::subsume::{canonicalize, split_conjuncts, CanonicalQuery};

/// A conjunct that restricts one level's candidates through its column's
/// index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// The conjunct, which filters the level's scan while its column's
    /// index is not built.
    pub(crate) conjunct: Expr,
    /// The column's slot ([`crate::index::slot`]).
    pub(crate) slot: usize,
    /// What the index is probed for: the literal an equality compares
    /// with, or a `contains` needle ASCII-lowercased like a text index's
    /// dictionary.
    pub(crate) key: String,
}

/// A compiled node-query: per-level probes and residual conjuncts, and,
/// once asked for, its canonical form. A plan owns what it holds; the
/// engine runs one per stage at every node the stage visits.
#[derive(Debug, Clone)]
pub struct Plan {
    query: NodeQuery,
    /// Why the query does not validate, which every execution returns.
    invalid: Option<EvalError>,
    /// `probes[level]` — index probes restricting that level's candidates,
    /// at most 64, so that one `u64` says which of them went unserved.
    probes: Vec<Vec<Probe>>,
    /// `residuals[level]` — conjuncts evaluated per candidate at that level.
    residuals: Vec<Vec<Expr>>,
    canonical: OnceLock<CanonicalQuery>,
}

/// What one execution did — the raw material for probe-vs-scan stage
/// attribution and for the T16 eval-scaling benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// True when at least one level was served by an index probe.
    pub used_index: bool,
    /// Level enumerations whose candidates came from posting lists (a
    /// level is enumerated once per binding of the levels above it).
    pub probed_levels: u32,
    /// Candidate tuples enumerated across all levels (the work the
    /// nested loop actually did).
    pub tuples_visited: u64,
}

/// Tries to turn a conjunct over the one variable of kind `kind` into an
/// index probe's slot and key. Admissibility is decided against the
/// schema-level index configuration ([`crate::index::slot`]), which is
/// identical for every `NodeDb`.
fn as_probe(kind: RelKind, e: &Expr) -> Option<(usize, String)> {
    let (attr, key, shape) = match e {
        // A numeric-looking literal compares by integer coercion
        // (" 42 " = "42" holds); only pure-string equality is
        // hash-servable.
        Expr::Cmp(CmpOp::Eq, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Attr { attr, .. }, Expr::StrLit(value))
            | (Expr::StrLit(value), Expr::Attr { attr, .. })
                if crate::value::parse_int(value).is_none() =>
            {
                (attr, value, Shape::Hash)
            }
            _ => return None,
        },
        Expr::Contains(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Attr { attr, .. }, Expr::StrLit(needle)) if TextIndex::indexable(needle) => {
                (attr, needle, Shape::Text)
            }
            _ => return None,
        },
        _ => return None,
    };
    let slot = crate::index::slot(kind, attr, shape)?;
    let key = match shape {
        Shape::Hash => key.clone(),
        Shape::Text => key.to_ascii_lowercase(),
    };
    Some((slot, key))
}

impl Plan {
    /// Compiles `q`, walking its predicate trees once; a query that does
    /// not validate still has a plan, whose every execution returns the
    /// validation error. Probe admissibility is decided against the
    /// *schema-level* index configuration, so a plan is valid for any
    /// database; the indexes live on the [`NodeDb`].
    pub fn new(q: &NodeQuery) -> Plan {
        let levels = q.vars.len();
        let mut plan = Plan {
            query: q.clone(),
            invalid: q.validate().err(),
            probes: vec![Vec::new(); levels],
            residuals: vec![Vec::new(); levels],
            canonical: OnceLock::new(),
        };
        if plan.invalid.is_some() {
            return plan;
        }

        // Gather (conjunct, apply level) from such-that and where clauses.
        let mut scheduled: Vec<(Expr, usize)> = Vec::new();
        let conds = q.vars.iter().enumerate().map(|(i, d)| (d.cond.as_ref(), i));
        for (cond, origin) in conds.chain([(q.where_cond.as_ref(), 0)]) {
            let mut cs = Vec::new();
            if let Some(cond) = cond {
                split_conjuncts(cond, &mut cs);
            }
            for c in cs {
                let lvl = apply_level_of(&q.vars, &c, origin);
                scheduled.push((c, lvl));
            }
        }

        // Route each conjunct: probe when it restricts exactly the variable
        // enumerated at its level and an index covers it, residual otherwise.
        for (c, lvl) in scheduled {
            let vars = c.variables();
            let probeable = vars.len() == 1
                && vars.contains(q.vars[lvl].name.as_str())
                && plan.probes[lvl].len() < u64::BITS as usize;
            match probeable.then(|| as_probe(q.vars[lvl].kind, &c)).flatten() {
                Some((slot, key)) => plan.probes[lvl].push(Probe {
                    conjunct: c,
                    slot,
                    key,
                }),
                None => plan.residuals[lvl].push(c),
            }
        }
        plan
    }

    /// The query's canonical form (see [`crate::subsume`]), computed on the
    /// first call and kept.
    pub fn canonical(&self) -> &CanonicalQuery {
        self.canonical.get_or_init(|| canonicalize(&self.query))
    }

    /// Executes the plan against one node's database.
    pub fn execute(&self, db: &NodeDb) -> Result<(Vec<ResultRow>, EvalStats), EvalError> {
        let (rows, _, stats) = self.run(db, false)?;
        Ok((rows, stats))
    }

    /// [`execute`](Plan::execute), also capturing each emitted row's
    /// binding — the tuple index assigned to every declaration level.
    /// Bindings are what the cross-query answer cache stores: replaying
    /// them through a residual filter serves subsumed queries without
    /// re-enumerating the relations (see [`crate::subsume`]).
    #[allow(clippy::type_complexity)]
    pub fn execute_with_bindings(
        &self,
        db: &NodeDb,
    ) -> Result<(Vec<ResultRow>, Vec<Vec<u32>>, EvalStats), EvalError> {
        let (rows, bindings, stats) = self.run(db, true)?;
        Ok((rows, bindings, stats))
    }

    #[allow(clippy::type_complexity)]
    fn run(
        &self,
        db: &NodeDb,
        capture: bool,
    ) -> Result<(Vec<ResultRow>, Vec<Vec<u32>>, EvalStats), EvalError> {
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        let q = &self.query;
        let mut env = Env::new(db, &q.vars);
        let mut sink = ExecSink {
            rows: Vec::new(),
            bindings: Vec::new(),
            capture,
        };
        let mut stats = EvalStats::default();
        self.exec_level(&mut env, db, 0, &mut sink, &mut stats)?;
        stats.used_index = stats.probed_levels > 0;
        Ok((sink.rows, sink.bindings, stats))
    }

    /// Candidate tuple indices for one level, and which of its probes
    /// went unserved (bit `i` for probe `i`): the posting-list
    /// intersection of the probes whose column's index the database has
    /// built, the whole relation when it has built none of them. An
    /// empty intersection asks no further column.
    fn candidates(&self, db: &NodeDb, level: usize) -> (Candidates, u64) {
        let (mut acc, mut unserved) = (None::<Vec<u32>>, 0);
        for (i, p) in self.probes[level].iter().enumerate() {
            let Some(index) = db.index(p.slot) else {
                unserved |= 1 << i;
                continue;
            };
            let postings = index.probe(&p.key);
            let both = match acc {
                None => postings,
                Some(prev) => intersect_sorted(&prev, &postings),
            };
            if both.is_empty() {
                return (Candidates::Probed(both), 0);
            }
            acc = Some(both);
        }
        let all = Candidates::Scan(db.rows(self.query.vars[level].kind));
        (acc.map_or(all, Candidates::Probed), unserved)
    }

    /// Whether the bound tuple passes the level's unserved probes' conjuncts
    /// and then its residual ones.
    fn passes(&self, env: &Env<'_>, level: usize, unserved: u64) -> Result<bool, EvalError> {
        let probes = self.probes[level].iter().enumerate();
        let unserved = probes.filter(|(i, _)| unserved >> i & 1 == 1);
        let conds = unserved.map(|(_, p)| &p.conjunct);
        for cond in conds.chain(&self.residuals[level]) {
            if !cond.eval_bool(env)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn exec_level(
        &self,
        env: &mut Env<'_>,
        db: &NodeDb,
        level: usize,
        sink: &mut ExecSink,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        let q = &self.query;
        if level == q.vars.len() {
            sink.rows.push(env.project(&q.select)?);
            if sink.capture {
                sink.bindings.push(
                    env.bound
                        .iter()
                        .map(|b| b.expect("fully bound at projection") as u32)
                        .collect(),
                );
            }
            return Ok(());
        }
        let (candidates, unserved) = self.candidates(db, level);
        let mut iter_scan;
        let mut iter_probe;
        let iter: &mut dyn Iterator<Item = usize> = match &candidates {
            Candidates::Scan(n) => {
                iter_scan = 0..*n;
                &mut iter_scan
            }
            Candidates::Probed(list) => {
                stats.probed_levels += 1;
                iter_probe = list.iter().map(|&i| i as usize);
                &mut iter_probe
            }
        };
        for tuple_idx in iter {
            stats.tuples_visited += 1;
            env.bound[level] = Some(tuple_idx);
            if self.passes(env, level, unserved)? {
                self.exec_level(env, db, level + 1, sink, stats)?;
            }
        }
        env.bound[level] = None;
        Ok(())
    }
}

/// Where the executor emits rows (and, when asked, their bindings).
struct ExecSink {
    rows: Vec<ResultRow>,
    bindings: Vec<Vec<u32>>,
    capture: bool,
}

enum Candidates {
    /// No index served: enumerate every tuple of the relation.
    Scan(usize),
    /// Index-served: the (ascending) surviving tuple indices.
    Probed(Vec<u32>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::slot;
    use crate::query::{
        eval_node_query, eval_node_query_scan, eval_node_query_with_stats, RelKind, VarDecl,
    };
    use webdis_html::parse_html;
    use webdis_model::Url;

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

    fn attr(var: &str, a: &str) -> Expr {
        Expr::Attr {
            var: var.into(),
            attr: a.into(),
        }
    }

    fn decl(name: &str, kind: RelKind) -> VarDecl {
        VarDecl {
            name: name.into(),
            kind,
            cond: None,
        }
    }

    fn da_query(where_cond: Expr) -> NodeQuery {
        NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(where_cond),
            select: vec![("a".into(), "href".into()), ("a".into(), "label".into())],
        }
    }

    /// Runs `plan` over `db` once per entry of `want`, each run's rows
    /// the scan's and its (tuples visited, index used) the entry.
    fn runs(plan: &Plan, db: &NodeDb, want: &[(u64, bool)]) {
        let scanned = eval_node_query_scan(db, &plan.query).unwrap();
        for (run, want) in want.iter().enumerate() {
            let (rows, stats) = plan.execute(db).unwrap();
            assert_eq!(rows, scanned, "run {run}");
            assert_eq!((stats.tuples_visited, stats.used_index), *want, "run {run}");
        }
    }

    #[test]
    fn equality_conjunct_becomes_hash_probe() {
        let ltype = Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("G".into())),
        );
        let plan = Plan::new(&da_query(ltype.clone()));
        assert_eq!(
            plan.probes[1],
            vec![Probe {
                conjunct: ltype,
                slot: slot(RelKind::Anchor, "ltype", Shape::Hash).unwrap(),
                key: "G".into(),
            }]
        );
        // 1 document + 3 anchors scanned, then 1 + the 2 global anchors.
        runs(&plan, &db(), &[(4, false), (3, true), (3, true)]);
    }

    #[test]
    fn contains_conjunct_becomes_text_probe() {
        let label = Expr::Contains(
            Box::new(attr("a", "label")),
            Box::new(Expr::StrLit("Lab".into())),
        );
        let plan = Plan::new(&da_query(label.clone()));
        assert_eq!(
            plan.probes[1],
            vec![Probe {
                conjunct: label,
                slot: slot(RelKind::Anchor, "label", Shape::Text).unwrap(),
                key: "lab".into(),
            }]
        );
        runs(&plan, &db(), &[(4, false), (3, true)]);
    }

    fn label_query() -> NodeQuery {
        da_query(Expr::Contains(
            Box::new(attr("a", "label")),
            Box::new(Expr::StrLit("Lab".into())),
        ))
    }

    #[test]
    fn a_first_probe_builds_nothing_and_returns_the_scans_rows() {
        let db = db();
        let (rows, stats) = eval_node_query_with_stats(&db, &label_query()).unwrap();
        assert_eq!(rows, eval_node_query_scan(&db, &label_query()).unwrap());
        assert_eq!((stats.used_index, stats.probed_levels), (false, 0));
        assert!(db.built_indexes().is_empty());
    }

    #[test]
    fn a_second_probe_builds_its_index_and_is_served_by_it() {
        let db = db();
        assert!(db
            .index(slot(RelKind::Anchor, "label", Shape::Text).unwrap())
            .is_none());
        let (rows, stats) = eval_node_query_with_stats(&db, &label_query()).unwrap();
        assert_eq!(rows, eval_node_query_scan(&db, &label_query()).unwrap());
        assert_eq!((stats.used_index, stats.probed_levels), (true, 1));
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "label")]);
    }

    #[test]
    fn an_inner_probe_builds_on_the_second_outer_binding() {
        // `b.ltype = "G"` probes level 1, enumerated once per anchor `a`:
        // the first binding scans the 3 anchors, the next two probe the
        // 2 global ones.
        let q = NodeQuery {
            vars: vec![decl("a", RelKind::Anchor), decl("b", RelKind::Anchor)],
            where_cond: Some(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("b", "ltype")),
                Box::new(Expr::StrLit("G".into())),
            )),
            select: vec![("a".into(), "href".into()), ("b".into(), "href".into())],
        };
        let db = db();
        let (rows, stats) = eval_node_query_with_stats(&db, &q).unwrap();
        assert_eq!(rows, eval_node_query_scan(&db, &q).unwrap());
        assert_eq!(rows.len(), 6);
        assert_eq!(
            (stats.tuples_visited, stats.probed_levels),
            (3 + 3 + 2 + 2, 2)
        );
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "ltype")]);
    }

    #[test]
    fn a_clone_carries_what_was_asked_and_built() {
        let (db, label, ltype) = (
            db(),
            label_query(),
            Plan::new(&da_query(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "ltype")),
                Box::new(Expr::StrLit("G".into())),
            ))),
        );
        eval_node_query(&db, &label).unwrap();
        eval_node_query(&db, &label).unwrap();
        ltype.execute(&db).unwrap();
        let copy = db.clone();
        assert_eq!(copy.built_indexes(), vec![(RelKind::Anchor, "label")]);
        // `a.ltype` was asked once before the copy: its next ask builds,
        // on either side, and each side's builds are its own.
        assert!(ltype.execute(&copy).unwrap().1.used_index);
        assert_eq!(copy.built_indexes().len(), 2);
        assert_eq!(db.built_indexes().len(), 1);
    }

    #[test]
    fn an_index_is_built_by_the_second_probe_of_its_column_and_by_nothing_else() {
        let db = db();

        // Residual-only and scan evaluation never build anything.
        let unindexed = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "base")),
            Box::new(Expr::StrLit("http://elsewhere/".into())),
        ));
        eval_node_query(&db, &unindexed).unwrap();
        eval_node_query(&db, &unindexed).unwrap();
        let label = label_query();
        let scanned = eval_node_query_scan(&db, &label).unwrap();
        eval_node_query_scan(&db, &label).unwrap();
        assert!(db.built_indexes().is_empty());

        // The first probe of `a.label` builds nothing; the second builds
        // that index, and only that one; the third reuses it.
        for built in [0, 1, 1] {
            assert_eq!(eval_node_query(&db, &label).unwrap(), scanned);
            assert_eq!(db.built_indexes().len(), built);
        }
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "label")]);

        // A probe of another column adds one on its second ask.
        let ltype = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "LTYPE")),
            Box::new(Expr::StrLit("G".into())),
        ));
        for built in [1, 2] {
            assert_eq!(eval_node_query(&db, &ltype).unwrap().len(), 2);
            assert_eq!(db.built_indexes().len(), built);
        }
        assert_eq!(
            db.built_indexes(),
            vec![(RelKind::Anchor, "ltype"), (RelKind::Anchor, "label")]
        );

        // A DOCUMENT conjunct is no probe: it filters the one tuple and
        // builds nothing.
        let title = da_query(Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("labs".into())),
        ));
        assert!(Plan::new(&title).probes.iter().all(Vec::is_empty));
        for _ in 0..2 {
            assert_eq!(eval_node_query(&db, &title).unwrap().len(), 3);
        }
        assert_eq!(db.built_indexes().len(), 2);
    }

    #[test]
    fn an_empty_first_probe_stops_before_the_second_column_is_built() {
        // `a.href = nowhere and a.label contains "lab"`: the first run asks
        // both columns and scans; from the second on, the href postings
        // are empty, so the label index is never asked for again.
        let plan = Plan::new(&da_query(Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "href")),
                Box::new(Expr::StrLit("http://nowhere.test/".into())),
            )),
            Box::new(Expr::Contains(
                Box::new(attr("a", "label")),
                Box::new(Expr::StrLit("lab".into())),
            )),
        )));
        let db = db();
        runs(&plan, &db, &[(4, false), (1, true), (1, true)]);
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "href")]);
    }

    #[test]
    fn mixed_conjunction_probes_and_filters_residually() {
        // `a.ltype = "G" and a.label contains "Database Systems"` — the
        // equality probes, the multi-word needle stays residual.
        let q = da_query(Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "ltype")),
                Box::new(Expr::StrLit("G".into())),
            )),
            Box::new(Expr::Contains(
                Box::new(attr("a", "label")),
                Box::new(Expr::StrLit("Database Systems".into())),
            )),
        ));
        let plan = Plan::new(&q);
        assert_eq!(plan.probes[1].len(), 1);
        assert_eq!(plan.execute(&db()).unwrap().0.len(), 1);
        runs(&plan, &db(), &[(4, false), (3, true)]);
    }

    #[test]
    fn numeric_looking_equality_literal_stays_residual() {
        // "42" = column would compare by integer coercion; the hash can't
        // serve that, so it must not be probed.
        let q = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("42".into())),
        ));
        let plan = Plan::new(&q);
        assert!(plan.probes.iter().all(Vec::is_empty));
    }

    #[test]
    fn unindexed_column_and_cross_var_conjuncts_fall_back_to_scan() {
        // anchor.base is not indexed.
        let q = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "base")),
            Box::new(Expr::StrLit("http://elsewhere/".into())),
        ));
        assert!(Plan::new(&q).probes.iter().all(Vec::is_empty));

        // Cross-variable conjunct references two variables.
        let q = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "base")),
            Box::new(attr("d", "url")),
        ));
        let plan = Plan::new(&q);
        assert!(plan.probes.iter().all(Vec::is_empty));
        let (rows, _) = plan.execute(&db()).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn such_that_on_later_var_referencing_earlier_one_is_residual_at_its_level() {
        // The planner schedules it at max(decl level, var levels) = 1,
        // matching the fixed scan.
        let q = NodeQuery {
            vars: vec![
                decl("d", RelKind::Document),
                VarDecl {
                    name: "a".into(),
                    kind: RelKind::Anchor,
                    cond: Some(Expr::Contains(
                        Box::new(attr("d", "title")),
                        Box::new(Expr::StrLit("nonexistent".into())),
                    )),
                },
            ],
            where_cond: None,
            select: vec![("a".into(), "href".into())],
        };
        assert!(eval_node_query(&db(), &q).unwrap().is_empty());
    }

    #[test]
    fn empty_postings_short_circuit() {
        let q = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "href")),
            Box::new(Expr::StrLit("http://nowhere.test/".into())),
        ));
        // Document level scans its 1 tuple; once the href index is built
        // the anchor level visits nothing.
        runs(&Plan::new(&q), &db(), &[(4, false), (1, true)]);
        assert!(eval_node_query(&db(), &q).unwrap().is_empty());
    }

    #[test]
    fn planned_row_order_matches_scan_order() {
        let q = da_query(Expr::Contains(
            Box::new(attr("a", "label")),
            Box::new(Expr::StrLit("a".into())),
        ));
        let planned = eval_node_query(&db(), &q).unwrap();
        let scanned = eval_node_query_scan(&db(), &q).unwrap();
        assert_eq!(planned, scanned);
    }
}

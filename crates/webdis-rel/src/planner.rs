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
//! 3. that column is configured for that index in [`crate::index`].
//!
//! A database builds a column's index the first time a plan probes it
//! ([`NodeDb::hash_index`], [`NodeDb::text_index`]); which probes a plan
//! holds never depends on what has been built.
//!
//! Everything else stays a residual filter evaluated per candidate, and a
//! level with no probes falls back to the full scan of its relation — the
//! scan-fallback contract: the planner may only ever *shrink* the
//! candidate set it enumerates, never change which bindings qualify.
//! Posting lists are ascending and intersections preserve order, so the
//! executor emits rows in exactly the cross-product scan's order.

use std::sync::OnceLock;

use crate::expr::{CmpOp, EvalError, Expr};
use crate::index::intersect_sorted;
use crate::query::{apply_level_of, Env, NodeQuery, ResultRow};
use crate::relation::NodeDb;
use crate::subsume::{canonicalize, split_conjuncts, CanonicalQuery};

/// How one level's candidates are restricted by an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// `var.attr = "value"` against a hash index.
    HashEq {
        /// The attribute name, matched case-insensitively.
        attr: String,
        /// The literal the column must render to, exactly.
        value: String,
    },
    /// `var.attr contains "needle"` against a text index.
    TextContains {
        /// The attribute name.
        attr: String,
        /// The index-servable needle, ASCII-lowercased like the index's
        /// dictionary.
        needle: String,
    },
}

/// A compiled node-query: per-level probes and residual conjuncts, and,
/// once asked for, its canonical form. A plan owns what it holds; the
/// engine runs one per stage at every node the stage visits.
#[derive(Debug, Clone)]
pub struct Plan {
    query: NodeQuery,
    /// Why the query does not validate, which every execution returns.
    invalid: Option<EvalError>,
    /// `probes[level]` — index probes restricting that level's candidates.
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
    /// Levels whose candidates came from posting lists.
    pub probed_levels: u32,
    /// Levels that fell back to scanning their whole relation.
    pub scanned_levels: u32,
    /// Candidate tuples enumerated across all levels (the work the
    /// nested loop actually did).
    pub tuples_visited: u64,
}

/// The single variable a conjunct references, if exactly one.
fn sole_variable(e: &Expr) -> Option<&str> {
    let vars = e.variables();
    if vars.len() == 1 {
        vars.into_iter().next()
    } else {
        None
    }
}

/// Recognizes `var.attr OP literal` / `literal OP var.attr` shapes.
fn attr_vs_literal<'e>(a: &'e Expr, b: &'e Expr) -> Option<(&'e str, &'e str, &'e Expr)> {
    match (a, b) {
        (Expr::Attr { var, attr }, lit @ (Expr::StrLit(_) | Expr::IntLit(_))) => {
            Some((var, attr, lit))
        }
        (lit @ (Expr::StrLit(_) | Expr::IntLit(_)), Expr::Attr { var, attr }) => {
            Some((var, attr, lit))
        }
        _ => None,
    }
}

/// Tries to turn one conjunct into an index probe for the level whose
/// enumerated variable is `var_at_level` of kind `kind`. Admissibility is
/// decided against the schema-level index configuration
/// ([`crate::index::hash_slot`] / [`crate::index::text_slot`]), which is
/// identical for every `NodeDb`.
fn as_probe(kind: crate::query::RelKind, var_at_level: &str, e: &Expr) -> Option<Probe> {
    match e {
        Expr::Cmp(CmpOp::Eq, a, b) => {
            let (var, attr, lit) = attr_vs_literal(a, b)?;
            if var != var_at_level {
                return None;
            }
            let Expr::StrLit(value) = lit else {
                return None;
            };
            // A numeric-looking literal compares by integer coercion
            // (" 42 " = "42" holds); only pure-string equality is
            // hash-servable.
            if crate::value::parse_int(value).is_some() {
                return None;
            }
            crate::index::hash_slot(kind, attr)?;
            Some(Probe::HashEq {
                attr: attr.to_owned(),
                value: value.clone(),
            })
        }
        Expr::Contains(a, b) => {
            let (Expr::Attr { var, attr }, Expr::StrLit(needle)) = (a.as_ref(), b.as_ref()) else {
                return None;
            };
            if var != var_at_level {
                return None;
            }
            if !crate::index::TextIndex::indexable(needle) {
                return None;
            }
            crate::index::text_slot(kind, attr)?;
            Some(Probe::TextContains {
                attr: attr.clone(),
                needle: needle.to_ascii_lowercase(),
            })
        }
        _ => None,
    }
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
            let var_at_level = &q.vars[lvl].name;
            let probeable = sole_variable(&c) == Some(var_at_level.as_str());
            let probe = if probeable {
                as_probe(q.vars[lvl].kind, var_at_level, &c)
            } else {
                None
            };
            match probe {
                Some(p) => plan.probes[lvl].push(p),
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
        for p in &self.probes {
            if p.is_empty() {
                stats.scanned_levels += 1;
            } else {
                stats.probed_levels += 1;
            }
        }
        stats.used_index = stats.probed_levels > 0;
        self.exec_level(&mut env, db, 0, &mut sink, &mut stats)?;
        Ok((sink.rows, sink.bindings, stats))
    }

    /// Candidate tuple indices for one level: posting-list intersection
    /// when probes exist, the whole relation otherwise. A probe is what
    /// builds its column's index on a database that has not needed it yet.
    fn candidates(&self, db: &NodeDb, level: usize) -> Candidates {
        let probes = &self.probes[level];
        let kind = self.query.vars[level].kind;
        if probes.is_empty() {
            return Candidates::Scan(db.rows(kind));
        }
        let mut acc: Option<Vec<u32>> = None;
        for p in probes {
            let postings: Vec<u32> = match p {
                Probe::HashEq { attr, value } => db
                    .hash_index(kind, attr)
                    .map(|h| h.probe(value).to_vec())
                    .unwrap_or_default(),
                Probe::TextContains { attr, needle } => db
                    .text_index(kind, attr)
                    .and_then(|t| t.probe_contains(needle))
                    .unwrap_or_default(),
            };
            acc = Some(match acc {
                None => postings,
                Some(prev) => intersect_sorted(&prev, &postings),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        Candidates::Probed(acc.unwrap_or_default())
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
        let candidates = self.candidates(db, level);
        let mut iter_scan;
        let mut iter_probe;
        let iter: &mut dyn Iterator<Item = usize> = match &candidates {
            Candidates::Scan(n) => {
                iter_scan = 0..*n;
                &mut iter_scan
            }
            Candidates::Probed(list) => {
                iter_probe = list.iter().map(|&i| i as usize);
                &mut iter_probe
            }
        };
        for tuple_idx in iter {
            stats.tuples_visited += 1;
            env.bound[level] = Some(tuple_idx);
            let mut pass = true;
            for cond in &self.residuals[level] {
                if !cond.eval_bool(env)? {
                    pass = false;
                    break;
                }
            }
            if pass {
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
    /// No applicable index: enumerate every tuple of the relation.
    Scan(usize),
    /// Index-served: the (ascending) surviving tuple indices.
    Probed(Vec<u32>),
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn equality_conjunct_becomes_hash_probe() {
        let q = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("G".into())),
        ));
        let plan = Plan::new(&q);
        assert_eq!(
            plan.probes[1],
            vec![Probe::HashEq {
                attr: "ltype".into(),
                value: "G".into()
            }]
        );
        let (rows, stats) = plan.execute(&db()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(stats.used_index);
        // 1 document + 2 global anchors — not 1 + 3.
        assert_eq!(stats.tuples_visited, 3);
        assert_eq!(rows, eval_node_query_scan(&db(), &q).unwrap());
    }

    #[test]
    fn contains_conjunct_becomes_text_probe() {
        let q = da_query(Expr::Contains(
            Box::new(attr("a", "label")),
            Box::new(Expr::StrLit("Lab".into())),
        ));
        let plan = Plan::new(&q);
        assert_eq!(
            plan.probes[1],
            vec![Probe::TextContains {
                attr: "label".into(),
                needle: "lab".into()
            }]
        );
        let (rows, stats) = plan.execute(&db()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.tuples_visited, 3);
        assert_eq!(rows, eval_node_query_scan(&db(), &q).unwrap());
    }

    #[test]
    fn an_index_is_built_by_the_first_probe_of_its_column_and_by_nothing_else() {
        let db = db();
        assert!(db.built_indexes().is_empty());

        // Residual-only and scan evaluation never build anything.
        let unindexed = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "base")),
            Box::new(Expr::StrLit("http://elsewhere/".into())),
        ));
        eval_node_query(&db, &unindexed).unwrap();
        let label = da_query(Expr::Contains(
            Box::new(attr("a", "label")),
            Box::new(Expr::StrLit("Lab".into())),
        ));
        let scanned = eval_node_query_scan(&db, &label).unwrap();
        assert!(db.built_indexes().is_empty());

        // A probe of `a.label` builds that index, and only that one.
        let (rows, stats) = eval_node_query_with_stats(&db, &label).unwrap();
        assert_eq!(rows, scanned);
        assert!(stats.used_index);
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "label")]);

        // The second probe reuses it; a probe of another column adds one.
        assert_eq!(eval_node_query(&db, &label).unwrap(), scanned);
        assert_eq!(db.built_indexes(), vec![(RelKind::Anchor, "label")]);
        let ltype = da_query(Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "LTYPE")),
            Box::new(Expr::StrLit("G".into())),
        ));
        assert_eq!(eval_node_query(&db, &ltype).unwrap().len(), 2);
        assert_eq!(
            db.built_indexes(),
            vec![(RelKind::Anchor, "ltype"), (RelKind::Anchor, "label")]
        );

        // A clone carries the indexes built so far; the original's later
        // builds are its own.
        let copy = db.clone();
        assert_eq!(copy.built_indexes(), db.built_indexes());
        let title = da_query(Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("labs".into())),
        ));
        assert_eq!(eval_node_query(&db, &title).unwrap().len(), 3);
        assert_eq!(db.built_indexes().len(), 3);
        assert_eq!(copy.built_indexes().len(), 2);
    }

    #[test]
    fn an_empty_first_probe_stops_before_the_second_column_is_built() {
        // `a.href = nowhere and a.label contains "lab"`: the href postings
        // are empty, so the label index is never asked for.
        let q = da_query(Expr::And(
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "href")),
                Box::new(Expr::StrLit("http://nowhere.test/".into())),
            )),
            Box::new(Expr::Contains(
                Box::new(attr("a", "label")),
                Box::new(Expr::StrLit("lab".into())),
            )),
        ));
        let db = db();
        assert!(eval_node_query(&db, &q).unwrap().is_empty());
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
        let (rows, stats) = plan.execute(&db()).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(stats.used_index);
        assert_eq!(rows, eval_node_query_scan(&db(), &q).unwrap());
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
        let (rows, stats) = eval_node_query_with_stats(&db(), &q).unwrap();
        assert!(rows.is_empty());
        // Document level scans its 1 tuple; anchor level visits nothing.
        assert_eq!(stats.tuples_visited, 1);
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

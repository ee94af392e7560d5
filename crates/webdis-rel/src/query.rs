//! Node-query representation and evaluation.
//!
//! A node-query (Section 2.3) is the fragment of a DISQL web-query that one
//! node evaluates locally: a set of table-variable declarations over the
//! virtual relations, optional per-variable `such that` conditions, an
//! optional `where` condition, and the node's share of the split select
//! list. Evaluation is a nested-loop cross product with predicates applied
//! as soon as their variables are bound — ample for single-document
//! relation sizes, and faithful to the paper's "simple query processor".

use std::fmt;

use crate::expr::{Bindings, EvalError, Expr};
use crate::relation::{NodeDb, Schema, ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA};
use crate::value::Value;

/// Which virtual relation a variable ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelKind {
    /// `DOCUMENT(url, title, text, length)`
    Document,
    /// `ANCHOR(label, base, href, ltype)`
    Anchor,
    /// `RELINFON(delimiter, url, text, length)`
    Relinfon,
}

impl RelKind {
    /// Every kind, in declaration order (the order `kind as usize` gives).
    pub const ALL: [RelKind; 3] = [RelKind::Document, RelKind::Anchor, RelKind::Relinfon];

    /// The DISQL keyword for the relation.
    pub fn keyword(self) -> &'static str {
        match self {
            RelKind::Document => "document",
            RelKind::Anchor => "anchor",
            RelKind::Relinfon => "relinfon",
        }
    }

    /// The relation's schema.
    pub fn schema(self) -> Schema {
        match self {
            RelKind::Document => DOCUMENT_SCHEMA,
            RelKind::Anchor => ANCHOR_SCHEMA,
            RelKind::Relinfon => RELINFON_SCHEMA,
        }
    }
}

/// One table-variable declaration of a node-query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// The variable name (e.g. `d0`, `a`, `r`).
    pub name: String,
    /// The relation it ranges over.
    pub kind: RelKind,
    /// Optional `such that` condition attached to the declaration
    /// (e.g. `r.delimiter = "hr"`).
    pub cond: Option<Expr>,
}

/// A complete node-query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeQuery {
    /// Declared variables, in declaration order (document variable first).
    pub vars: Vec<VarDecl>,
    /// The `where` condition, if any.
    pub where_cond: Option<Expr>,
    /// The select list: `(variable, attribute)` pairs this node must
    /// return. May be empty for intermediate node-queries whose only role
    /// is qualifying the path (the paper's Example Query 2 still selects
    /// `d0.url`, but DISQL permits empty projections after splitting).
    pub select: Vec<(String, String)>,
}

impl NodeQuery {
    /// The column headers of this node-query's result rows.
    pub fn headers(&self) -> Vec<String> {
        self.select
            .iter()
            .map(|(v, a)| format!("{v}.{a}"))
            .collect()
    }

    /// Checks that every referenced variable is declared and every
    /// attribute exists in its relation's schema. Returns a description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), EvalError> {
        let find = |var: &str| self.vars.iter().find(|d| d.name == var);
        let check_ref = |var: &str, attr: &str| -> Result<(), EvalError> {
            let decl =
                find(var).ok_or_else(|| EvalError::new(format!("undeclared variable {var:?}")))?;
            let schema = decl.kind.schema();
            if schema.column_index(attr).is_none() {
                return Err(EvalError::new(format!(
                    "relation {} has no attribute {attr:?}",
                    schema.name
                )));
            }
            Ok(())
        };
        let check_expr = |e: &Expr| -> Result<(), EvalError> {
            for var in e.variables() {
                find(var).ok_or_else(|| EvalError::new(format!("undeclared variable {var:?}")))?;
            }
            check_attr_refs(e, &check_ref)
        };
        for decl in &self.vars {
            if let Some(cond) = &decl.cond {
                check_expr(cond)?;
            }
        }
        if let Some(w) = &self.where_cond {
            check_expr(w)?;
        }
        for (v, a) in &self.select {
            check_ref(v, a)?;
        }
        Ok(())
    }
}

/// Walks an expression checking each `var.attr` reference.
fn check_attr_refs(
    e: &Expr,
    check: &impl Fn(&str, &str) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    match e {
        Expr::Attr { var, attr } => check(var, attr),
        Expr::StrLit(_) | Expr::IntLit(_) => Ok(()),
        Expr::Contains(a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            check_attr_refs(a, check)?;
            check_attr_refs(b, check)
        }
        Expr::Not(a) => check_attr_refs(a, check),
    }
}

/// One projected result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    /// Values in select-list order.
    pub values: Vec<Value>,
}

impl fmt::Display for ResultRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Binding environment: a partial assignment of variables to row numbers.
/// Shared between the cross-product scan below and the index-backed
/// executor in [`crate::planner`].
pub(crate) struct Env<'a> {
    pub(crate) db: &'a NodeDb,
    pub(crate) decls: &'a [VarDecl],
    /// `bound[i]` is the tuple index assigned to `decls[i]`, if any.
    pub(crate) bound: Vec<Option<usize>>,
}

impl<'a> Env<'a> {
    pub(crate) fn new(db: &'a NodeDb, decls: &'a [VarDecl]) -> Env<'a> {
        Env {
            db,
            decls,
            bound: vec![None; decls.len()],
        }
    }

    /// The number of tuples the variable at `level` ranges over.
    pub(crate) fn rows(&self, level: usize) -> usize {
        self.db.rows(self.decls[level].kind)
    }

    /// Projects the fully-bound environment onto the select list.
    pub(crate) fn project(&self, select: &[(String, String)]) -> Result<ResultRow, EvalError> {
        let mut values = Vec::with_capacity(select.len());
        for (var, attr) in select {
            let v = self
                .lookup(var, attr)
                .ok_or_else(|| EvalError::new(format!("unknown attribute {var}.{attr}")))?;
            values.push(v.clone());
        }
        Ok(ResultRow { values })
    }
}

impl Bindings for Env<'_> {
    fn lookup(&self, var: &str, attr: &str) -> Option<&Value> {
        let idx = self.decls.iter().position(|d| d.name == var)?;
        let row = self.bound[idx]?;
        let kind = self.decls[idx].kind;
        let col = kind.schema().column_index(attr)?;
        self.db.column(kind, col).get(row)
    }
}

/// Evaluates a node-query against one node's virtual relations.
///
/// Since the introduction of the per-node indexes this compiles the query
/// with the predicate pre-compiler ([`crate::planner::Plan::new`]) and runs
/// index probes where possible, falling back to the cross-product scan
/// level-by-level. Results are identical to [`eval_node_query_scan`],
/// including row order.
///
/// Returns the projected rows; an empty result set means the node-query
/// was *unsuccessful* at this node (Figure 4, lines 3–4: the node becomes
/// a dead end).
pub fn eval_node_query(db: &NodeDb, q: &NodeQuery) -> Result<Vec<ResultRow>, EvalError> {
    Ok(crate::planner::Plan::new(q).execute(db)?.0)
}

/// [`eval_node_query`], also returning the executor's
/// [`crate::planner::EvalStats`] (probe-vs-scan split, tuples visited).
/// These compile `q` for one call; the engine compiles each stage's query
/// once, into a [`crate::planner::Plan`].
pub fn eval_node_query_with_stats(
    db: &NodeDb,
    q: &NodeQuery,
) -> Result<(Vec<ResultRow>, crate::planner::EvalStats), EvalError> {
    crate::planner::Plan::new(q).execute(db)
}

/// [`eval_node_query`], also capturing each row's binding (the tuple
/// index assigned to every declaration level) alongside the
/// [`crate::planner::EvalStats`]. The bindings are the answer cache's
/// raw material: [`crate::subsume::replay_bindings`] serves subsumed
/// queries from them without re-enumerating the relations.
#[allow(clippy::type_complexity)]
pub fn eval_node_query_with_bindings(
    db: &NodeDb,
    q: &NodeQuery,
) -> Result<(Vec<ResultRow>, Vec<Vec<u32>>, crate::planner::EvalStats), EvalError> {
    crate::planner::Plan::new(q).execute_with_bindings(db)
}

/// Evaluates a node-query by pure nested-loop cross-product scan, never
/// touching the indexes — the paper's "simple query processor", kept as the
/// planner's fallback path and as the oracle the scan≡index property test
/// checks the planner against.
pub fn eval_node_query_scan(db: &NodeDb, q: &NodeQuery) -> Result<Vec<ResultRow>, EvalError> {
    Ok(eval_node_query_scan_with_stats(db, q)?.0)
}

/// [`eval_node_query_scan`], also counting tuples visited.
pub fn eval_node_query_scan_with_stats(
    db: &NodeDb,
    q: &NodeQuery,
) -> Result<(Vec<ResultRow>, crate::planner::EvalStats), EvalError> {
    q.validate()?;
    let such_levels: Vec<Option<usize>> = q
        .vars
        .iter()
        .enumerate()
        .map(|(i, d)| d.cond.as_ref().map(|c| apply_level_of(&q.vars, c, i)))
        .collect();
    let where_level = q.where_cond.as_ref().map(|c| apply_level_of(&q.vars, c, 0));
    let mut env = Env::new(db, &q.vars);
    let mut rows = Vec::new();
    let mut visited = 0u64;
    eval_level(
        &mut env,
        q,
        0,
        &such_levels,
        where_level,
        &mut rows,
        &mut visited,
    )?;
    let stats = crate::planner::EvalStats {
        tuples_visited: visited,
        ..Default::default()
    };
    Ok((rows, stats))
}

/// The level at which a condition must be applied: the first level where
/// all its variables are bound, but never before the variable whose
/// declaration carries it (`origin`) is itself bound. A `such that` on a
/// later variable that references only earlier ones is still that
/// variable's predicate — it filters *its* bindings, once per binding.
///
/// (The old "first level where ready" rule combined with an `i <= level`
/// guard silently dropped exactly those conditions: ready fired at a level
/// before `i` where the guard rejected it, and never fired again.)
pub(crate) fn apply_level_of(decls: &[VarDecl], cond: &Expr, origin: usize) -> usize {
    let mut level = origin;
    for v in cond.variables() {
        if let Some(i) = decls.iter().position(|d| d.name == v) {
            level = level.max(i);
        }
    }
    level
}

#[allow(clippy::too_many_arguments)]
fn eval_level(
    env: &mut Env<'_>,
    q: &NodeQuery,
    level: usize,
    such_levels: &[Option<usize>],
    where_level: Option<usize>,
    rows: &mut Vec<ResultRow>,
    visited: &mut u64,
) -> Result<(), EvalError> {
    if level == q.vars.len() {
        // All variables bound; every condition was applied at its
        // precomputed level. Project.
        rows.push(env.project(&q.select)?);
        return Ok(());
    }
    let n = env.rows(level);
    for tuple_idx in 0..n {
        *visited += 1;
        env.bound[level] = Some(tuple_idx);
        // Conditions scheduled for exactly this level.
        let mut pass = true;
        for (i, decl) in q.vars.iter().enumerate() {
            if let Some(cond) = &decl.cond {
                if such_levels[i] == Some(level) && !cond.eval_bool(env)? {
                    pass = false;
                    break;
                }
            }
        }
        if pass {
            if let Some(w) = &q.where_cond {
                if where_level == Some(level) && !w.eval_bool(env)? {
                    pass = false;
                }
            }
        }
        if pass {
            eval_level(env, q, level + 1, such_levels, where_level, rows, visited)?;
        }
    }
    env.bound[level] = None;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use webdis_html::parse_html;
    use webdis_model::Url;

    fn db() -> NodeDb {
        let html = r#"<title>Laboratories</title>
            <body>
            <a href="http://dsl.serc.iisc.ernet.in/">DSL</a>
            <a href="local.html">Local page</a>
            <a href="http://compiler.csa.iisc.ernet.in/">Compiler Lab</a>
            Convener Jayant Haritsa<hr>
            Other text<hr>
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

    #[test]
    fn example_query_1_shape() {
        // select a.base, a.href ... where a.ltype = "G"
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: Some(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "ltype")),
                Box::new(Expr::StrLit("G".into())),
            )),
            select: vec![("a".into(), "base".into()), ("a".into(), "href".into())],
        };
        let rows = eval_node_query(&db(), &q).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values[1].render(), "http://dsl.serc.iisc.ernet.in/");
        assert_eq!(
            rows[1].values[1].render(),
            "http://compiler.csa.iisc.ernet.in/"
        );
    }

    #[test]
    fn relinfon_such_that_and_where() {
        // relinfon r such that r.delimiter = "hr" where r.text contains "convener"
        let q = NodeQuery {
            vars: vec![
                decl("d", RelKind::Document),
                VarDecl {
                    name: "r".into(),
                    kind: RelKind::Relinfon,
                    cond: Some(Expr::Cmp(
                        CmpOp::Eq,
                        Box::new(attr("r", "delimiter")),
                        Box::new(Expr::StrLit("hr".into())),
                    )),
                },
            ],
            where_cond: Some(Expr::Contains(
                Box::new(attr("r", "text")),
                Box::new(Expr::StrLit("convener".into())),
            )),
            select: vec![("d".into(), "url".into()), ("r".into(), "text".into())],
        };
        let rows = eval_node_query(&db(), &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].values[1].render().contains("Jayant Haritsa"));
    }

    #[test]
    fn such_that_referencing_only_earlier_variables_is_applied() {
        // Regression: a `such that` attached to the *second* variable that
        // references only the first used to be silently dropped — its
        // "first ready" level (0) preceded its declaration (1), and the
        // old rule never applied it at any later level. The filter must
        // hold: a false predicate yields zero rows, not the full product.
        let falsy = NodeQuery {
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
        assert!(eval_node_query_scan(&db(), &falsy).unwrap().is_empty());
        assert!(eval_node_query(&db(), &falsy).unwrap().is_empty());

        // And a true one keeps every anchor binding (applied once per
        // binding of `a`, not once per binding of `d`).
        let mut truthy = falsy.clone();
        truthy.vars[1].cond = Some(Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("lab".into())),
        ));
        assert_eq!(eval_node_query_scan(&db(), &truthy).unwrap().len(), 3);
        assert_eq!(eval_node_query(&db(), &truthy).unwrap().len(), 3);
    }

    #[test]
    fn empty_result_when_predicate_fails() {
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document)],
            where_cond: Some(Expr::Contains(
                Box::new(attr("d", "title")),
                Box::new(Expr::StrLit("nonexistent".into())),
            )),
            select: vec![("d".into(), "url".into())],
        };
        assert!(eval_node_query(&db(), &q).unwrap().is_empty());
    }

    #[test]
    fn document_title_contains_lab() {
        let q = NodeQuery {
            vars: vec![decl("d0", RelKind::Document)],
            where_cond: Some(Expr::Contains(
                Box::new(attr("d0", "title")),
                Box::new(Expr::StrLit("lab".into())),
            )),
            select: vec![("d0".into(), "url".into())],
        };
        let rows = eval_node_query(&db(), &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0].render(), "http://csa.iisc.ernet.in/Labs");
    }

    #[test]
    fn cross_product_size_without_predicates() {
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document), decl("a", RelKind::Anchor)],
            where_cond: None,
            select: vec![("a".into(), "href".into())],
        };
        let rows = eval_node_query(&db(), &q).unwrap();
        assert_eq!(rows.len(), 3); // 1 document x 3 anchors
    }

    #[test]
    fn validate_rejects_unknown_variable() {
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document)],
            where_cond: Some(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("zzz", "url")),
                Box::new(Expr::StrLit("x".into())),
            )),
            select: vec![],
        };
        let err = eval_node_query(&db(), &q).unwrap_err();
        assert!(err.message.contains("undeclared"), "{}", err.message);
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document)],
            where_cond: None,
            select: vec![("d".into(), "nosuchcol".into())],
        };
        let err = eval_node_query(&db(), &q).unwrap_err();
        assert!(err.message.contains("no attribute"), "{}", err.message);
    }

    #[test]
    fn headers_format() {
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document)],
            where_cond: None,
            select: vec![("d".into(), "url".into()), ("d".into(), "title".into())],
        };
        assert_eq!(q.headers(), vec!["d.url", "d.title"]);
    }

    #[test]
    fn empty_select_yields_row_per_binding() {
        // A successful node-query with no projection still signals success
        // (one empty row per satisfying binding).
        let q = NodeQuery {
            vars: vec![decl("d", RelKind::Document)],
            where_cond: None,
            select: vec![],
        };
        let rows = eval_node_query(&db(), &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].values.is_empty());
    }
}

//! The parsed web-query: `Q = S p1 q1 p2 q2 … pn qn`.

use std::fmt;
use std::sync::{Arc, OnceLock};

use webdis_model::Url;
use webdis_pre::Pre;
use webdis_rel::{NodeQuery, Plan};

/// One `p_i q_i` stage of a web-query: traverse paths matching `pre` from
/// the nodes that answered the previous stage, then evaluate `query` at
/// every node where the remaining PRE contains the null link. Every visit
/// of a stage runs its one [`Plan`], compiled on the first.
#[derive(Debug, Clone)]
pub struct Stage {
    /// The traversal PRE `p_i`.
    pub pre: Pre,
    /// The document variable of this stage (`d0`, `d1`, …).
    pub doc_var: String,
    /// The locally-evaluable node-query `q_i` (with its share of the split
    /// select list); not changed once the stage is built.
    pub query: NodeQuery,
    plan: OnceLock<Plan>,
}

impl Stage {
    /// The stage `pre query` with document variable `doc_var`.
    pub fn new(pre: Pre, doc_var: String, query: NodeQuery) -> Stage {
        Stage {
            pre,
            doc_var,
            query,
            plan: OnceLock::new(),
        }
    }

    /// `query`, compiled on the first call.
    pub fn plan(&self) -> &Plan {
        self.plan.get_or_init(|| Plan::new(&self.query))
    }
}

/// Equal parts, whether or not either plan has been compiled yet.
impl PartialEq for Stage {
    fn eq(&self, other: &Stage) -> bool {
        (&self.pre, &self.doc_var, &self.query) == (&other.pre, &other.doc_var, &other.query)
    }
}

impl Eq for Stage {}

/// A complete web-query in the paper's formalism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebQuery {
    /// The StartNodes `S` where execution begins.
    pub start_nodes: Vec<Url>,
    /// The stages `p_1 q_1 … p_n q_n`, in order: immutable once parsed,
    /// and shared with every clone that starts at the first of them.
    pub stages: Arc<[Stage]>,
}

impl WebQuery {
    /// The column headers of stage `i`'s result rows.
    pub fn stage_headers(&self, i: usize) -> Vec<String> {
        self.stages
            .get(i)
            .map(|s| s.query.headers())
            .unwrap_or_default()
    }
}

impl fmt::Display for WebQuery {
    /// Renders the query in the paper's formal notation, e.g.
    /// `Q = {http://csa.iisc.ernet.in/} L q1 G·L*1 q2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q = {{")?;
        for (i, s) in self.start_nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")?;
        for (i, stage) in self.stages.iter().enumerate() {
            write!(f, " {} q{}", stage.pre, i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_pre::parse as parse_pre;
    use webdis_rel::{NodeQuery, RelKind, VarDecl};

    fn stage(pre: &str, var: &str) -> Stage {
        let query = NodeQuery {
            vars: vec![VarDecl {
                name: var.into(),
                kind: RelKind::Document,
                cond: None,
            }],
            where_cond: None,
            select: vec![(var.into(), "url".into())],
        };
        Stage::new(parse_pre(pre).unwrap(), var.into(), query)
    }

    #[test]
    fn formal_display() {
        let q = WebQuery {
            start_nodes: vec![Url::parse("http://csa.iisc.ernet.in").unwrap()],
            stages: [stage("L", "d0"), stage("G·(L*1)", "d1")].into(),
        };
        assert_eq!(
            q.to_string(),
            "Q = {http://csa.iisc.ernet.in/} L q1 G·L*1 q2"
        );
        assert_eq!(q.stages.len(), 2);
        assert_eq!(q.stage_headers(0), vec!["d0.url"]);
        assert!(q.stage_headers(7).is_empty());
    }
}

//! The DISQL parser: token stream → [`WebQuery`].

use webdis_model::Url;
use webdis_pre::{MAX_DEPTH, MAX_NESTING};
use webdis_rel::{Expr, NodeQuery, RelKind, VarDecl};

use crate::ast::{Stage, WebQuery};
use crate::lexer::{lex, DisqlError, Keyword, Tok};

/// Parses a DISQL query into the formal web-query, performing the
/// select-list split and all locality validation described in Section 2.3.
pub fn parse_disql(input: &str) -> Result<WebQuery, DisqlError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    p.parse_query()
}

/// A stage under construction.
struct RawStage {
    doc_var: String,
    start_nodes: Vec<Url>,
    pre: webdis_pre::Pre,
    vars: Vec<VarDecl>,
    where_cond: Option<Expr>,
}

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
    input_len: usize,
    /// `not`s and parentheses open around the current condition.
    depth: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, p)| *p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> DisqlError {
        DisqlError::new(self.here(), message)
    }

    fn expect_kw(&mut self, kw: Keyword, what: &str) -> Result<(), DisqlError> {
        match self.peek() {
            Some(Tok::Kw(k)) if *k == kw => {
                self.bump();
                Ok(())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, DisqlError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn parse_query(&mut self) -> Result<WebQuery, DisqlError> {
        self.expect_kw(Keyword::Select, "the query to begin with 'select'")?;
        let select = self.parse_select_list()?;
        self.expect_kw(Keyword::From, "'from' after the select list")?;

        let mut stages: Vec<RawStage> = Vec::new();
        loop {
            // Commas between items are optional, matching the paper's
            // loose punctuation.
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.bump();
            }
            match self.peek() {
                Some(Tok::Kw(Keyword::Where)) => {
                    self.bump();
                    let cond = self.parse_cond()?;
                    let stage = stages
                        .last_mut()
                        .ok_or_else(|| self.err("'where' before any table declaration"))?;
                    stage.where_cond = Some(match stage.where_cond.take() {
                        Some(prev) => self.shallow(Expr::And(Box::new(prev), Box::new(cond)))?,
                        None => cond,
                    });
                }
                Some(Tok::Kw(Keyword::Document)) => {
                    self.bump();
                    let raw = self.parse_document_decl(stages.last())?;
                    stages.push(raw);
                }
                Some(Tok::Kw(k @ (Keyword::Anchor | Keyword::Relinfon))) => {
                    let kind = if *k == Keyword::Anchor {
                        RelKind::Anchor
                    } else {
                        RelKind::Relinfon
                    };
                    self.bump();
                    let decl = self.parse_aux_decl(kind)?;
                    let stage = stages
                        .last_mut()
                        .ok_or_else(|| self.err("anchor/relinfon declared before any document"))?;
                    stage.vars.push(decl);
                }
                None => break,
                Some(_) => return Err(self.err("expected a table declaration or 'where'")),
            }
        }
        if stages.is_empty() {
            return Err(self.err("query declares no document variable"));
        }
        self.finish(stages, select)
    }

    fn parse_select_list(&mut self) -> Result<Vec<(String, String)>, DisqlError> {
        let mut items = Vec::new();
        loop {
            let var = self.expect_ident("a variable name in the select list")?;
            match self.peek() {
                Some(Tok::Dot) => {
                    self.bump();
                }
                _ => return Err(self.err("expected '.' after the variable")),
            }
            let attr = self.expect_ident("an attribute name")?;
            items.push((var, attr));
            if matches!(self.peek(), Some(Tok::Comma)) {
                // Only continue if the comma is followed by an identifier
                // (a comma may also end the last select item before 'from'
                // in sloppy input — the paper's punctuation is loose).
                if matches!(self.peek2(), Some(Tok::Ident(_))) {
                    self.bump();
                    continue;
                }
            }
            return Ok(items);
        }
    }

    /// `document <var> such that <source> <PRE> <var>`
    fn parse_document_decl(&mut self, prev: Option<&RawStage>) -> Result<RawStage, DisqlError> {
        let var = self.expect_ident("a document variable name")?;
        self.expect_kw(Keyword::Such, "'such that' after the document variable")?;
        self.expect_kw(Keyword::That, "'that' after 'such'")?;

        // Sources: one or more string literals (StartNodes), or one
        // identifier (the previous stage's document variable).
        let mut start_nodes = Vec::new();
        let mut source_var = None;
        match self.peek() {
            Some(Tok::Str(_)) => {
                while let Some(Tok::Str(_)) = self.peek() {
                    let Some(Tok::Str(s)) = self.bump() else {
                        unreachable!()
                    };
                    let url = Url::parse(&s)
                        .map_err(|e| self.err(format!("invalid StartNode URL: {e}")))?;
                    start_nodes.push(url);
                    if matches!(self.peek(), Some(Tok::Comma))
                        && matches!(self.peek2(), Some(Tok::Str(_)))
                    {
                        self.bump();
                    }
                }
            }
            Some(Tok::Ident(_)) => {
                // Could be the source variable *or* directly a PRE symbol?
                // The grammar requires an explicit source, and PRE symbols
                // are also identifiers; disambiguate below by checking
                // against the previous stage's variable.
                let Some(Tok::Ident(s)) = self.bump() else {
                    unreachable!()
                };
                source_var = Some(s);
            }
            _ => return Err(self.err("expected a StartNode string or a source variable")),
        }

        if let Some(sv) = &source_var {
            match prev {
                Some(p) if p.doc_var == *sv => {}
                Some(p) => {
                    return Err(self.err(format!(
                        "path source {sv:?} must be the previous document variable {:?}",
                        p.doc_var
                    )))
                }
                None => {
                    return Err(self.err(format!(
                        "first sub-query must start from StartNode URLs, not variable {sv:?}"
                    )))
                }
            }
        } else if prev.is_some() {
            return Err(self.err(
                "only the first sub-query may name StartNode URLs; later \
                 sub-queries must start from the previous document variable",
            ));
        }

        // PRE tokens up to the terminating target variable (which must be
        // the declared variable name).
        let mut pre_parts: Vec<String> = Vec::new();
        let mut saw_target = false;
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if *s == var => {
                    // The declared variable terminates the path spec —
                    // unless it is also a PRE symbol name, which we forbid
                    // for document variables at declaration time below.
                    self.bump();
                    saw_target = true;
                    break;
                }
                Some(tok) => match tok.pre_text() {
                    Some(text) => {
                        pre_parts.push(text);
                        self.bump();
                    }
                    None => break,
                },
                None => break,
            }
        }
        if !saw_target {
            return Err(self.err(format!(
                "path specification must end with the declared variable {var:?}"
            )));
        }
        let pre_text = pre_parts.join(" ");
        let pre = webdis_pre::parse(&pre_text)
            .map_err(|e| self.err(format!("invalid path regular expression {pre_text:?}: {e}")))?;

        Ok(RawStage {
            doc_var: var.clone(),
            start_nodes,
            pre,
            vars: vec![VarDecl {
                name: var,
                kind: RelKind::Document,
                cond: None,
            }],
            where_cond: None,
        })
    }

    /// `anchor <var> [such that <cond>]` (same for relinfon).
    fn parse_aux_decl(&mut self, kind: RelKind) -> Result<VarDecl, DisqlError> {
        let name = self.expect_ident("a variable name")?;
        let cond = if matches!(self.peek(), Some(Tok::Kw(Keyword::Such))) {
            self.bump();
            self.expect_kw(Keyword::That, "'that' after 'such'")?;
            Some(self.parse_cond()?)
        } else {
            None
        };
        Ok(VarDecl { name, kind, cond })
    }

    // ---- condition grammar -------------------------------------------

    fn parse_cond(&mut self) -> Result<Expr, DisqlError> {
        self.parse_or()
    }

    /// Parses what a `not` or `(` encloses, one level further down — at
    /// most [`MAX_NESTING`] levels, so the recursive descent is bounded
    /// whatever the input.
    fn nested(
        &mut self,
        parse: fn(&mut Parser) -> Result<Expr, DisqlError>,
    ) -> Result<Expr, DisqlError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("condition nested deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let inner = parse(self)?;
        self.depth -= 1;
        Ok(inner)
    }

    /// `cond` once it is known to be shippable: at most [`MAX_DEPTH`]
    /// deep. Asked of every node built, so an `and`/`or` chain is refused
    /// at its first link too many, before anything deeper exists.
    fn shallow(&self, cond: Expr) -> Result<Expr, DisqlError> {
        if cond.depth() > MAX_DEPTH {
            return Err(self.err(format!("condition deeper than {MAX_DEPTH} levels")));
        }
        Ok(cond)
    }

    fn parse_or(&mut self) -> Result<Expr, DisqlError> {
        let mut left = self.parse_and()?;
        while matches!(self.peek(), Some(Tok::Kw(Keyword::Or))) {
            self.bump();
            let right = self.parse_and()?;
            left = self.shallow(Expr::Or(Box::new(left), Box::new(right)))?;
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, DisqlError> {
        let mut left = self.parse_unary()?;
        while matches!(self.peek(), Some(Tok::Kw(Keyword::And))) {
            self.bump();
            let right = self.parse_unary()?;
            left = self.shallow(Expr::And(Box::new(left), Box::new(right)))?;
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, DisqlError> {
        if matches!(self.peek(), Some(Tok::Kw(Keyword::Not))) {
            self.bump();
            let inner = self.nested(Parser::parse_unary)?;
            return self.shallow(Expr::Not(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, DisqlError> {
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.bump();
            let inner = self.nested(Parser::parse_cond)?;
            match self.peek() {
                Some(Tok::RParen) => {
                    self.bump();
                    return Ok(inner);
                }
                _ => return Err(self.err("expected ')'")),
            }
        }
        let left = self.parse_operand()?;
        match self.peek() {
            Some(Tok::Kw(Keyword::Contains)) => {
                self.bump();
                let right = self.parse_operand()?;
                Ok(Expr::Contains(Box::new(left), Box::new(right)))
            }
            Some(Tok::Cmp(_)) => {
                let Some(Tok::Cmp(op)) = self.bump() else {
                    unreachable!()
                };
                let right = self.parse_operand()?;
                Ok(Expr::Cmp(op, Box::new(left), Box::new(right)))
            }
            _ => Err(self.err("expected 'contains' or a comparison operator")),
        }
    }

    fn parse_operand(&mut self) -> Result<Expr, DisqlError> {
        match self.peek() {
            Some(Tok::Str(_)) => {
                let Some(Tok::Str(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::StrLit(s))
            }
            Some(Tok::Num(_)) => {
                let Some(Tok::Num(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::IntLit(n))
            }
            Some(Tok::Ident(_)) => {
                let var = self.expect_ident("a variable")?;
                match self.peek() {
                    Some(Tok::Dot) => {
                        self.bump();
                    }
                    _ => return Err(self.err("expected '.' after the variable")),
                }
                let attr = self.expect_ident("an attribute name")?;
                Ok(Expr::Attr { var, attr })
            }
            _ => Err(self.err("expected a value or attribute reference")),
        }
    }

    // ---- assembly ------------------------------------------------------

    fn finish(
        &self,
        raw: Vec<RawStage>,
        select: Vec<(String, String)>,
    ) -> Result<WebQuery, DisqlError> {
        // Duplicate variable names across the whole query are rejected:
        // the select-list split needs unambiguous ownership.
        let mut all_vars: Vec<&str> = Vec::new();
        for stage in &raw {
            for decl in &stage.vars {
                if all_vars.contains(&decl.name.as_str()) {
                    return Err(DisqlError::new(
                        0,
                        format!("variable {:?} declared more than once", decl.name),
                    ));
                }
                all_vars.push(&decl.name);
            }
        }

        let owner_of = |var: &str| -> Option<usize> {
            raw.iter()
                .position(|s| s.vars.iter().any(|d| d.name == var))
        };

        // Split the select list by variable ownership (Section 2.3).
        let mut per_stage_select: Vec<Vec<(String, String)>> = vec![Vec::new(); raw.len()];
        for (var, attr) in select {
            let Some(stage) = owner_of(&var) else {
                return Err(DisqlError::new(
                    0,
                    format!("select list references undeclared variable {var:?}"),
                ));
            };
            per_stage_select[stage].push((var, attr));
        }

        // Locality: every condition must reference only variables of its
        // own stage ("inter-site communication is not required").
        for (i, stage) in raw.iter().enumerate() {
            let local = |e: &Expr| -> Result<(), DisqlError> {
                for v in e.variables() {
                    match owner_of(v) {
                        Some(j) if j == i => {}
                        Some(j) => {
                            return Err(DisqlError::new(
                                0,
                                format!(
                                    "condition on sub-query {} references variable {v:?} \
                                     of sub-query {} — node-queries must be locally \
                                     evaluable",
                                    i + 1,
                                    j + 1
                                ),
                            ))
                        }
                        None => {
                            return Err(DisqlError::new(
                                0,
                                format!("condition references undeclared variable {v:?}"),
                            ))
                        }
                    }
                }
                Ok(())
            };
            if let Some(w) = &stage.where_cond {
                local(w)?;
            }
            for d in &stage.vars {
                if let Some(c) = &d.cond {
                    local(c)?;
                }
            }
        }

        let start_nodes = raw[0].start_nodes.clone();
        let mut stages = Vec::with_capacity(raw.len());
        for (i, stage) in raw.into_iter().enumerate() {
            let query = NodeQuery {
                vars: stage.vars,
                where_cond: stage.where_cond,
                select: std::mem::take(&mut per_stage_select[i]),
            };
            // Attribute-level validation against the schemas.
            query
                .validate()
                .map_err(|e| DisqlError::new(0, e.message))?;
            stages.push(Stage {
                pre: stage.pre,
                doc_var: stage.doc_var,
                query,
            });
        }
        Ok(WebQuery {
            start_nodes,
            stages: stages.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_rel::Expr;

    const EXAMPLE_1: &str = r#"
        select a.base, a.href
        from document d such that "http://dsl.serc.iisc.ernet.in" L* d
             anchor a
        where a.ltype = "G"
    "#;

    const EXAMPLE_2: &str = r#"
        select d0.url, d1.url, r.text
        from document d0 such that "http://csa.iisc.ernet.in" L d0,
        where d0.title contains "lab"
             document d1 such that d0 G·(L*1) d1,
             relinfon r such that r.delimiter = "hr",
        where (r.text contains "convener")
    "#;

    #[test]
    fn parses_example_query_1() {
        let q = parse_disql(EXAMPLE_1).unwrap();
        assert_eq!(q.start_nodes.len(), 1);
        assert_eq!(
            q.start_nodes[0].to_string(),
            "http://dsl.serc.iisc.ernet.in/"
        );
        assert_eq!(q.stages.len(), 1);
        let s = &q.stages[0];
        assert_eq!(s.pre.to_string(), "L*");
        assert_eq!(s.doc_var, "d");
        assert_eq!(s.query.vars.len(), 2);
        assert_eq!(
            s.query.select,
            vec![
                ("a".to_owned(), "base".to_owned()),
                ("a".to_owned(), "href".to_owned())
            ]
        );
        assert!(s.query.where_cond.is_some());
    }

    #[test]
    fn parses_example_query_2() {
        let q = parse_disql(EXAMPLE_2).unwrap();
        assert_eq!(q.stages.len(), 2);
        assert_eq!(q.stages[0].pre.to_string(), "L");
        assert_eq!(q.stages[1].pre.to_string(), "G·L*1");
        // Split select list: d0.url to stage 1; d1.url and r.text to stage 2.
        assert_eq!(
            q.stages[0].query.select,
            vec![("d0".to_owned(), "url".to_owned())]
        );
        assert_eq!(
            q.stages[1].query.select,
            vec![
                ("d1".to_owned(), "url".to_owned()),
                ("r".to_owned(), "text".to_owned())
            ]
        );
        // relinfon's such-that is attached as the declaration condition.
        let r = &q.stages[1].query.vars[1];
        assert_eq!(r.name, "r");
        assert!(r.cond.is_some());
        // Formal rendering matches the paper's Section 2.3 equivalent.
        assert_eq!(
            q.to_string(),
            "Q = {http://csa.iisc.ernet.in/} L q1 G·L*1 q2"
        );
    }

    #[test]
    fn multiple_start_nodes() {
        let q = parse_disql(
            r#"select d.url
               from document d such that "http://a/", "http://b/" L* d"#,
        )
        .unwrap();
        assert_eq!(q.start_nodes.len(), 2);
    }

    #[test]
    fn multiple_where_clauses_are_anded() {
        let q = parse_disql(
            r#"select d.url
               from document d such that "http://a/" L* d
               where d.title contains "x"
               where d.length > 10"#,
        )
        .unwrap();
        assert!(matches!(
            q.stages[0].query.where_cond.as_ref().unwrap(),
            Expr::And(_, _)
        ));
    }

    #[test]
    fn rejects_cross_stage_condition() {
        let e = parse_disql(
            r#"select d1.url
               from document d0 such that "http://a/" L d0,
                    document d1 such that d0 G d1,
               where d0.title contains "x""#,
        )
        .unwrap_err();
        assert!(e.message.contains("locally evaluable"), "{}", e.message);
    }

    #[test]
    fn rejects_wrong_source_variable() {
        let e = parse_disql(
            r#"select d1.url
               from document d0 such that "http://a/" L d0,
                    document d1 such that dX G d1"#,
        )
        .unwrap_err();
        assert!(
            e.message.contains("previous document variable"),
            "{}",
            e.message
        );
    }

    #[test]
    fn rejects_start_nodes_on_later_stage() {
        let e = parse_disql(
            r#"select d1.url
               from document d0 such that "http://a/" L d0,
                    document d1 such that "http://b/" G d1"#,
        )
        .unwrap_err();
        assert!(e.message.contains("first sub-query"), "{}", e.message);
    }

    #[test]
    fn rejects_variable_on_first_stage() {
        let e = parse_disql(r#"select d.url from document d such that x L d"#).unwrap_err();
        assert!(e.message.contains("StartNode"), "{}", e.message);
    }

    #[test]
    fn rejects_undeclared_select_variable() {
        let e =
            parse_disql(r#"select z.url from document d such that "http://a/" L d"#).unwrap_err();
        assert!(e.message.contains("undeclared"), "{}", e.message);
    }

    #[test]
    fn rejects_duplicate_variables() {
        let e = parse_disql(
            r#"select d.url
               from document d such that "http://a/" L d,
                    anchor d"#,
        )
        .unwrap_err();
        assert!(e.message.contains("more than once"), "{}", e.message);
    }

    #[test]
    fn rejects_unknown_attribute() {
        let e = parse_disql(r#"select d.nosuch from document d such that "http://a/" L d"#)
            .unwrap_err();
        assert!(e.message.contains("no attribute"), "{}", e.message);
    }

    #[test]
    fn rejects_missing_target_variable() {
        let e =
            parse_disql(r#"select d.url from document d such that "http://a/" L*"#).unwrap_err();
        assert!(
            e.message.contains("end with the declared variable"),
            "{}",
            e.message
        );
    }

    #[test]
    fn rejects_bad_pre() {
        let e =
            parse_disql(r#"select d.url from document d such that "http://a/" L | d"#).unwrap_err();
        assert!(
            e.message.contains("path regular expression")
                || e.message.contains("declared variable"),
            "{}",
            e.message
        );
    }

    #[test]
    fn anchor_with_such_that_condition() {
        let q = parse_disql(
            r#"select a.href
               from document d such that "http://a/" N d,
                    anchor a such that a.ltype != "I""#,
        )
        .unwrap();
        assert!(q.stages[0].query.vars[1].cond.is_some());
    }

    #[test]
    fn condition_and_pre_nesting_is_bounded() {
        // The descent recurses per `not` and per `(`: 200 000 of either
        // used to overflow the stack and abort the process.
        let limit = MAX_NESTING as usize;
        let query = |pre: &str, cond: &str| {
            format!(r#"select d.url from document d such that "http://a/" {pre} d where {cond}"#)
        };
        let atom = r#"d.title contains "x""#;
        let nots = |n: usize| query("L*", &format!("{}{atom}", "not ".repeat(n)));
        let parens = |n: usize| query("L*", &format!("{}{atom}{}", "(".repeat(n), ")".repeat(n)));
        let groups = |n: usize| query(&format!("{}L{}", "(".repeat(n), ")".repeat(n)), atom);
        for nest in [&nots as &dyn Fn(usize) -> String, &parens, &groups] {
            assert!(parse_disql(&nest(limit)).is_ok());
            for depth in [limit + 1, 200_000] {
                let err = parse_disql(&nest(depth)).unwrap_err();
                assert!(err.message.contains("nested deeper"), "{err}");
            }
        }
        // `not` and `(` share the one budget...
        let mixed = "not (".repeat(limit / 2 + 1);
        let mixed = query("L*", &format!("{mixed}{atom}{}", ")".repeat(limit / 2 + 1)));
        assert!(parse_disql(&mixed).is_err());
        // ...which counts what is open, not what has been closed: these
        // terms open 128 levels in all, and their tree is MAX_DEPTH deep.
        let flat = vec![format!("not ({atom})"); limit].join(" and ");
        assert!(parse_disql(&query("L*", &flat)).is_ok());
    }

    #[test]
    fn chains_count_toward_the_depth_the_decoder_accepts() {
        // `a and b and c` parses in a loop into a tree as deep as the
        // chain is long; the decoder refuses trees deeper than
        // MAX_DEPTH, so the parser refuses to build them.
        let atom = r#"d.title contains "x""#;
        let query = |cond: &str| {
            format!(r#"select d.url from document d such that "http://a/" L* d where {cond}"#)
        };
        let deepest = MAX_DEPTH as usize;
        for op in [" and ", " or "] {
            let q = parse_disql(&query(&vec![atom; deepest].join(op))).unwrap();
            assert_eq!(
                q.stages[0].query.where_cond.as_ref().unwrap().depth(),
                MAX_DEPTH
            );
            for n in [deepest + 1, 200_000] {
                let err = parse_disql(&query(&vec![atom; n].join(op))).unwrap_err();
                assert!(err.message.contains("deeper than 65 levels"), "{err}");
            }
        }
        // Repeated `where` clauses are and-ed: a chain too.
        let wheres = |n| query(&vec![atom; n].join(" where "));
        assert!(parse_disql(&wheres(deepest)).is_ok());
        assert!(parse_disql(&wheres(deepest + 1)).is_err());
    }

    #[test]
    fn condition_precedence_not_and_or() {
        let q = parse_disql(
            r#"select d.url
               from document d such that "http://a/" L d
               where not d.title contains "x" and d.length > 1 or d.text contains "y""#,
        )
        .unwrap();
        // Parsed as ((not A) and B) or C.
        let w = q.stages[0].query.where_cond.as_ref().unwrap();
        let Expr::Or(left, _) = w else {
            panic!("top must be or: {w}")
        };
        assert!(matches!(**left, Expr::And(_, _)));
    }

    #[test]
    fn num_comparison_operand() {
        let q = parse_disql(
            r#"select d.url
               from document d such that "http://a/" L d
               where d.length >= 100"#,
        )
        .unwrap();
        assert!(q.stages[0].query.where_cond.is_some());
    }

    #[test]
    fn empty_input_fails() {
        assert!(parse_disql("").is_err());
        assert!(parse_disql("select").is_err());
        assert!(parse_disql("select d.url").is_err());
        assert!(parse_disql("select d.url from").is_err());
    }

    #[test]
    fn where_before_any_declaration_fails() {
        let e = parse_disql(r#"select d.url from where d.title contains "x""#).unwrap_err();
        assert!(e.message.contains("before any"), "{}", e.message);
    }
}

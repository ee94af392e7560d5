//! Predicate expressions for DISQL `where` / `such that` clauses.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

use crate::value::{parse_int, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` (also `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Operator text as written in DISQL.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean/scalar expression over the variables of a node-query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An attribute reference `var.attr` (e.g. `d.title`).
    Attr {
        /// The table variable.
        var: String,
        /// The attribute (column) name.
        attr: String,
    },
    /// A string literal.
    StrLit(String),
    /// An integer literal.
    IntLit(i64),
    /// `a contains b` — substring test, case-insensitive (the paper's
    /// example queries match "lab" against titles like "Laboratories").
    Contains(Box<Expr>, Box<Expr>),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// Evaluation error: unknown variable or attribute, or a type error that
/// cannot be coerced away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl EvalError {
    pub(crate) fn new(message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
        }
    }
}

/// Resolves attribute references during evaluation.
pub trait Bindings {
    /// The value of `var.attr`, or `None` if the variable/attribute is
    /// unknown in this scope. A borrow: predicates read document text in
    /// place, and only projection copies it.
    fn lookup(&self, var: &str, attr: &str) -> Option<&Value>;
}

/// Outcome of scalar evaluation.
enum Scalar<'a> {
    Val(ValueRef<'a>),
    Bool(bool),
}

/// A [`Value`] on loan: the string is borrowed from the bindings or from
/// a literal of the expression itself.
enum ValueRef<'a> {
    Str(&'a str),
    Int(i64),
}

impl<'a> ValueRef<'a> {
    /// As [`Value::text`].
    fn text(&self) -> Cow<'a, str> {
        match self {
            ValueRef::Str(s) => Cow::Borrowed(s),
            ValueRef::Int(i) => Cow::Owned(i.to_string()),
        }
    }

    /// As [`Value::as_int`].
    fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Str(s) => parse_int(s),
            ValueRef::Int(i) => Some(*i),
        }
    }
}

impl Expr {
    /// All variables referenced by the expression.
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Levels below the root: 0 for an attribute or a literal. The wire
    /// decoder refuses a condition deeper than `webdis_pre::MAX_DEPTH`,
    /// and so does the DISQL parser, which asks this of every node it
    /// builds — so the recursion here never goes deeper than that.
    pub fn depth(&self) -> u32 {
        match self {
            Expr::Attr { .. } | Expr::StrLit(_) | Expr::IntLit(_) => 0,
            Expr::Contains(a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                1 + a.depth().max(b.depth())
            }
            Expr::Not(a) => 1 + a.depth(),
        }
    }

    fn collect_vars<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Expr::Attr { var, .. } => {
                out.insert(var.as_str());
            }
            Expr::StrLit(_) | Expr::IntLit(_) => {}
            Expr::Contains(a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(a) => a.collect_vars(out),
        }
    }

    /// Evaluates the expression as a boolean predicate.
    pub fn eval_bool<B: Bindings>(&self, env: &B) -> Result<bool, EvalError> {
        match self.eval(env)? {
            Scalar::Bool(b) => Ok(b),
            Scalar::Val(_) => Err(EvalError::new(
                "expression used as a condition does not yield a boolean",
            )),
        }
    }

    fn eval<'a, B: Bindings>(&'a self, env: &'a B) -> Result<Scalar<'a>, EvalError> {
        match self {
            Expr::Attr { var, attr } => match env.lookup(var, attr) {
                Some(Value::Str(s)) => Ok(Scalar::Val(ValueRef::Str(s))),
                Some(Value::Int(i)) => Ok(Scalar::Val(ValueRef::Int(*i))),
                None => Err(EvalError::new(format!("unknown attribute {var}.{attr}"))),
            },
            Expr::StrLit(s) => Ok(Scalar::Val(ValueRef::Str(s))),
            Expr::IntLit(i) => Ok(Scalar::Val(ValueRef::Int(*i))),
            Expr::Contains(a, b) => {
                // The one copy left: the standard library folds and
                // searches a 2.5 KB body in 0.4 µs, a bytewise
                // case-insensitive scan of the borrowed text takes 3–8 µs.
                let hay = a.scalar_value(env)?.text().to_ascii_lowercase();
                let needle = b.scalar_value(env)?.text().to_ascii_lowercase();
                Ok(Scalar::Bool(hay.contains(&needle)))
            }
            Expr::Cmp(op, a, b) => {
                let va = a.scalar_value(env)?;
                let vb = b.scalar_value(env)?;
                Ok(Scalar::Bool(compare(*op, &va, &vb)?))
            }
            Expr::And(a, b) => Ok(Scalar::Bool(a.eval_bool(env)? && b.eval_bool(env)?)),
            Expr::Or(a, b) => Ok(Scalar::Bool(a.eval_bool(env)? || b.eval_bool(env)?)),
            Expr::Not(a) => Ok(Scalar::Bool(!a.eval_bool(env)?)),
        }
    }

    fn scalar_value<'a, B: Bindings>(&'a self, env: &'a B) -> Result<ValueRef<'a>, EvalError> {
        match self.eval(env)? {
            Scalar::Val(v) => Ok(v),
            Scalar::Bool(_) => Err(EvalError::new(
                "boolean expression used where a value was expected",
            )),
        }
    }
}

/// Comparison semantics: if both sides coerce to integers, compare
/// numerically. Otherwise `=` / `!=` compare rendered strings exactly
/// (case-sensitive), matching the paper's `a.ltype = "G"` usage, while the
/// ordered operators (`<`, `<=`, `>`, `>=`) are an [`EvalError`]: a silent
/// lexicographic fallback would make `"9" > "10"` hold whenever either side
/// failed coercion, which is never what a length comparison means.
fn compare(op: CmpOp, a: &ValueRef<'_>, b: &ValueRef<'_>) -> Result<bool, EvalError> {
    let ord = match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => x.cmp(&y),
        _ => match op {
            CmpOp::Eq | CmpOp::Ne => a.text().cmp(&b.text()),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                return Err(EvalError::new(format!(
                    "ordered comparison {:?} {} {:?} needs numeric operands on both sides",
                    a.text(),
                    op.symbol(),
                    b.text()
                )))
            }
        },
    };
    Ok(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr { var, attr } => write!(f, "{var}.{attr}"),
            Expr::StrLit(s) => write!(f, "{s:?}"),
            Expr::IntLit(i) => write!(f, "{i}"),
            Expr::Contains(a, b) => write!(f, "({a} contains {b})"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(a) => write!(f, "(not {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct MapEnv(HashMap<(String, String), Value>);

    impl Bindings for MapEnv {
        fn lookup(&self, var: &str, attr: &str) -> Option<&Value> {
            self.0.get(&(var.to_owned(), attr.to_owned()))
        }
    }

    fn env() -> MapEnv {
        let mut m = HashMap::new();
        m.insert(
            ("d".into(), "title".into()),
            Value::Str("Laboratories of CSA".into()),
        );
        m.insert(("d".into(), "length".into()), Value::Int(1234));
        m.insert(("a".into(), "ltype".into()), Value::Str("G".into()));
        MapEnv(m)
    }

    fn attr(var: &str, a: &str) -> Expr {
        Expr::Attr {
            var: var.into(),
            attr: a.into(),
        }
    }

    #[test]
    fn contains_is_case_insensitive() {
        let e = Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("lab".into())),
        );
        assert!(e.eval_bool(&env()).unwrap());
        let e = Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("LAB".into())),
        );
        assert!(e.eval_bool(&env()).unwrap());
        let e = Expr::Contains(
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("zzz".into())),
        );
        assert!(!e.eval_bool(&env()).unwrap());
    }

    #[test]
    fn contains_folds_ascii_only_and_renders_integers() {
        let mut e = env();
        let mut set = |col: &str, v: Value| e.0.insert(("d".into(), col.into()), v);
        set("text", Value::Str("Café ÉCOLE naïve".into()));
        set("empty", Value::Str(String::new()));
        set("count", Value::Int(-1234));
        let contains = |col: &str, needle: Expr| {
            Expr::Contains(Box::new(attr("d", col)), Box::new(needle))
                .eval_bool(&e)
                .unwrap()
        };
        let lit = |s: &str| Expr::StrLit(s.into());
        // ASCII letters fold either way round; non-ASCII bytes only match
        // themselves ("É" is not "é"), as with `to_ascii_lowercase`.
        assert!(contains("text", lit("CAFé")));
        assert!(!contains("text", lit("CAFÉ")));
        assert!(contains("text", lit("École N")));
        assert!(!contains("text", lit("école")));
        assert!(contains("text", lit("é ÉCOLE")));
        assert!(contains("text", lit("ve")));
        assert!(!contains("text", lit("vex")));
        // Integer columns and integer needles are matched as rendered.
        assert!(contains("count", lit("-12")));
        assert!(contains("count", Expr::IntLit(234)));
        assert!(!contains("count", lit("1235")));
        assert!(contains("text", attr("d", "empty")));
        // Empty needle always, empty column only then, needle longer than
        // the column never.
        assert!(contains("text", lit("")));
        assert!(contains("empty", lit("")));
        assert!(!contains("empty", lit("a")));
        assert!(!contains("title", lit("Laboratories of CSA and more")));
        assert!(contains("title", lit("LABORATORIES OF CSA")));
    }

    #[test]
    fn string_equality_exact() {
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("G".into())),
        );
        assert!(e.eval_bool(&env()).unwrap());
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("g".into())),
        );
        assert!(!e.eval_bool(&env()).unwrap());
    }

    #[test]
    fn numeric_comparison_with_coercion() {
        let gt = Expr::Cmp(
            CmpOp::Gt,
            Box::new(attr("d", "length")),
            Box::new(Expr::IntLit(1000)),
        );
        assert!(gt.eval_bool(&env()).unwrap());
        // String literal coerces to a number for comparison.
        let gt = Expr::Cmp(
            CmpOp::Gt,
            Box::new(attr("d", "length")),
            Box::new(Expr::StrLit("2000".into())),
        );
        assert!(!gt.eval_bool(&env()).unwrap());
    }

    #[test]
    fn ordered_comparison_without_numeric_operands_errors() {
        // Both sides coerce: "9" > "10" is numeric, and false.
        let e = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::StrLit("9".into())),
            Box::new(Expr::StrLit("10".into())),
        );
        assert!(!e.eval_bool(&env()).unwrap());
        // A non-numeric side used to fall back to lexicographic comparison
        // (where "9" > "10" *would* hold); it is now an evaluation error.
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let e = Expr::Cmp(op, Box::new(attr("d", "title")), Box::new(Expr::IntLit(10)));
            let err = e.eval_bool(&env()).unwrap_err();
            assert!(err.message.contains("numeric operands"), "{}", err.message);
        }
        // Equality and inequality stay string-exact.
        let e = Expr::Cmp(
            CmpOp::Ne,
            Box::new(attr("d", "title")),
            Box::new(Expr::StrLit("something else".into())),
        );
        assert!(e.eval_bool(&env()).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let t = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::IntLit(1)),
            Box::new(Expr::IntLit(1)),
        );
        let f = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::IntLit(1)),
            Box::new(Expr::IntLit(2)),
        );
        assert!(Expr::And(Box::new(t.clone()), Box::new(t.clone()))
            .eval_bool(&env())
            .unwrap());
        assert!(!Expr::And(Box::new(t.clone()), Box::new(f.clone()))
            .eval_bool(&env())
            .unwrap());
        assert!(Expr::Or(Box::new(f.clone()), Box::new(t.clone()))
            .eval_bool(&env())
            .unwrap());
        assert!(Expr::Not(Box::new(f)).eval_bool(&env()).unwrap());
    }

    #[test]
    fn unknown_attribute_errors() {
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(attr("x", "nope")),
            Box::new(Expr::IntLit(1)),
        );
        assert!(e.eval_bool(&env()).is_err());
    }

    #[test]
    fn variables_collected() {
        let e = Expr::And(
            Box::new(Expr::Contains(
                Box::new(attr("d", "title")),
                Box::new(Expr::StrLit("x".into())),
            )),
            Box::new(Expr::Cmp(
                CmpOp::Eq,
                Box::new(attr("a", "ltype")),
                Box::new(Expr::StrLit("G".into())),
            )),
        );
        let vars = e.variables();
        assert!(vars.contains("d") && vars.contains("a"));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::Cmp(
            CmpOp::Ne,
            Box::new(attr("a", "ltype")),
            Box::new(Expr::StrLit("I".into())),
        );
        assert_eq!(e.to_string(), "(a.ltype != \"I\")");
    }
}

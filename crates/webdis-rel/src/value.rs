//! Attribute values and tuples.

use std::borrow::Cow;
use std::fmt;

/// An attribute value: the virtual relations only need strings (urls,
/// titles, text, link types) and integers (lengths).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Character data.
    Str(String),
    /// Integral data (lengths).
    Int(i64),
}

impl Value {
    /// Borrow as a string slice when the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// The value as an integer: either an `Int`, or a `Str` that parses as
    /// one (lenient coercion, convenient for `length > "100"` style
    /// comparisons a user might write).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(s) => parse_int(s),
        }
    }

    /// String rendering used by `contains` and by result display.
    pub fn render(&self) -> String {
        self.text().into_owned()
    }

    /// [`render`](Value::render) without the copy: a string value lends
    /// its own text, only an integer is formatted.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            Value::Int(i) => Cow::Owned(i.to_string()),
        }
    }

    /// `self.render().len()` without building the string.
    pub fn rendered_len(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            Value::Int(i) => {
                let digits = i
                    .unsigned_abs()
                    .checked_ilog10()
                    .map_or(1, |d| d as usize + 1);
                digits + usize::from(*i < 0)
            }
        }
    }
}

/// The lenient string → integer coercion of [`Value::as_int`], shared with
/// the evaluator's borrowed scalars and the planner's probe guard.
pub(crate) fn parse_int(s: &str) -> Option<i64> {
    s.trim().parse().ok()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_coercion() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Str("42".into()).as_int(), Some(42));
        assert_eq!(Value::Str(" 42 ".into()).as_int(), Some(42));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn render_and_display() {
        assert_eq!(Value::Str("a".into()).render(), "a");
        assert_eq!(Value::Int(-3).render(), "-3");
        assert_eq!(format!("{}", Value::Int(7)), "7");
    }

    #[test]
    fn text_and_rendered_len_agree_with_render() {
        let values = [
            Value::Str(String::new()),
            Value::Str("héllo".into()),
            Value::Int(0),
            Value::Int(7),
            Value::Int(-10),
            Value::Int(999),
            Value::Int(1000),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
        ];
        for v in values {
            assert_eq!(v.text(), v.render());
            assert_eq!(v.rendered_len(), v.render().len(), "{v:?}");
        }
    }

    #[test]
    fn ordering_within_kind() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
    }
}

//! Parser for the paper's concrete PRE syntax.
//!
//! Grammar (whitespace insignificant, as the paper writes `L *4`):
//!
//! ```text
//! pre     := alt
//! alt     := seq ('|' seq)*
//! seq     := postfix (('·' | '.')? postfix)*     -- concat may be implicit
//! postfix := atom ('*' integer?)*
//! atom    := 'I' | 'L' | 'G' | 'N' | '(' alt ')'
//! ```
//!
//! `*` without an integer is unbounded repetition; `*k` allows zero up to
//! `k` repetitions. Symbols are case-insensitive. Groups nest at most
//! [`MAX_NESTING`] deep, so the recursive descent is bounded whatever the
//! input; and the tree built is at most [`MAX_DEPTH`] deep — a chain of
//! `·` or `|` is as deep as it is long — so every PRE that parses can be
//! shipped.

use std::fmt;

use webdis_model::LinkType;

use crate::ast::Pre;

/// Error with byte position produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreParseError {
    /// Byte offset into the input where the error was detected.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PreParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PRE parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for PreParseError {}

/// How deep groups (here) and `not`/parentheses (DISQL conditions) may
/// nest in query text. It keeps a hostile input from overflowing the
/// parsers' stack.
pub const MAX_NESTING: u32 = 64;

/// How many levels below its root a PRE or condition tree may have: the
/// wire decoder refuses deeper ones, and the parsers refuse to build
/// them. [`MAX_NESTING`] levels of `not`, plus the comparison the
/// innermost one encloses. Chains count: `a and b and c` is two levels,
/// `L·L·L` two, `L*1·L*1` two.
pub const MAX_DEPTH: u32 = MAX_NESTING + 1;

/// Parses a PRE from its textual form.
pub fn parse(input: &str) -> Result<Pre, PreParseError> {
    let mut p = Parser {
        chars: input.char_indices().peekable(),
        input,
        depth: 0,
    };
    p.skip_ws();
    if p.peek().is_none() {
        return Err(p.err("empty path regular expression"));
    }
    let pre = p.alt()?;
    p.skip_ws();
    if let Some((pos, c)) = p.peek() {
        return Err(PreParseError {
            position: pos,
            message: format!("unexpected character {c:?}"),
        });
    }
    Ok(pre)
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    input: &'a str,
    /// Groups open around the current position.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn peek(&mut self) -> Option<(usize, char)> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        self.chars.next()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some((_, c)) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn err(&mut self, msg: impl Into<String>) -> PreParseError {
        let position = self.peek().map(|(i, _)| i).unwrap_or(self.input.len());
        PreParseError {
            position,
            message: msg.into(),
        }
    }

    /// `pre` once it is known to be shippable: at most [`MAX_DEPTH`]
    /// deep. Asked of every node built, so a chain is refused at its
    /// first link too many, before anything deeper exists.
    fn shallow(&mut self, pre: Pre) -> Result<Pre, PreParseError> {
        if pre.depth() > MAX_DEPTH {
            return Err(self.err(format!("expression deeper than {MAX_DEPTH} levels")));
        }
        Ok(pre)
    }

    fn alt(&mut self) -> Result<Pre, PreParseError> {
        let mut left = self.seq()?;
        loop {
            self.skip_ws();
            if matches!(self.peek(), Some((_, '|'))) {
                self.bump();
                self.skip_ws();
                let right = self.seq()?;
                left = self.shallow(Pre::alt(left, right))?;
            } else {
                return Ok(left);
            }
        }
    }

    fn seq(&mut self) -> Result<Pre, PreParseError> {
        let mut parts = vec![self.postfix()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some((_, '·')) | Some((_, '.')) => {
                    self.bump();
                    self.skip_ws();
                    parts.push(self.postfix()?);
                }
                // Implicit concatenation: another atom starts directly.
                Some((_, c)) if is_atom_start(c) => {
                    parts.push(self.postfix()?);
                }
                _ => break,
            }
        }
        // Right-associated: `a·b·c` is `a·(b·c)`.
        let mut seq = Pre::Empty;
        for part in parts.into_iter().rev() {
            seq = self.shallow(Pre::seq(part, seq))?;
        }
        Ok(seq)
    }

    fn postfix(&mut self) -> Result<Pre, PreParseError> {
        let mut base = self.atom()?;
        loop {
            self.skip_ws();
            if matches!(self.peek(), Some((_, '*'))) {
                self.bump();
                self.skip_ws();
                let mut digits = String::new();
                while let Some((_, c)) = self.peek() {
                    if c.is_ascii_digit() {
                        digits.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                let repeated = if digits.is_empty() {
                    Pre::star(base)
                } else {
                    let k: u32 = digits
                        .parse()
                        .map_err(|_| self.err("repetition bound out of range"))?;
                    Pre::bounded(base, k)
                };
                base = self.shallow(repeated)?;
            } else {
                return Ok(base);
            }
        }
    }

    fn atom(&mut self) -> Result<Pre, PreParseError> {
        self.skip_ws();
        match self.peek() {
            Some((_, '(')) if self.depth == MAX_NESTING => {
                Err(self.err(format!("groups nested deeper than {MAX_NESTING}")))
            }
            Some((_, '(')) => {
                self.bump();
                self.depth += 1;
                let inner = self.alt()?;
                self.depth -= 1;
                self.skip_ws();
                match self.peek() {
                    Some((_, ')')) => {
                        self.bump();
                        Ok(inner)
                    }
                    _ => Err(self.err("expected ')'")),
                }
            }
            Some((_, c)) => {
                if let Some(t) = LinkType::from_symbol(&c.to_string()) {
                    self.bump();
                    Ok(Pre::sym(t))
                } else {
                    Err(self.err(format!("expected link symbol I/L/G/N, found {c:?}")))
                }
            }
            None => Err(self.err("unexpected end of expression")),
        }
    }
}

fn is_atom_start(c: char) -> bool {
    c == '(' || LinkType::from_symbol(&c.to_string()).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_model::LinkType::{Global as G, Local as L};

    #[test]
    fn group_nesting_is_bounded() {
        // The descent recurses per `(`: 200 000 of them used to overflow
        // the stack and abort the process.
        let nested = |depth: usize| format!("{}L{}", "(".repeat(depth), ")".repeat(depth));
        let deepest = parse(&nested(MAX_NESTING as usize)).unwrap();
        assert_eq!(deepest, parse("L").unwrap());
        for depth in [MAX_NESTING as usize + 1, 200_000] {
            let err = parse(&nested(depth)).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
            assert_eq!(err.position, MAX_NESTING as usize);
        }
        // Siblings do not count, only what is open around a position.
        assert!(parse(&"(L)".repeat(MAX_DEPTH as usize)).is_ok());
    }

    #[test]
    fn chains_count_toward_the_depth_the_decoder_accepts() {
        // A `·` or `|` chain parses in a loop into a tree as deep as it
        // is long; the decoder refuses trees deeper than MAX_DEPTH, so
        // the parser refuses to build them. `L*k` is one level deep.
        let seq = |n: usize| vec!["L*1"; n].join("·");
        let alt = |n: usize| {
            (1..=n)
                .map(|k| format!("L*{k}"))
                .collect::<Vec<_>>()
                .join("|")
        };
        let stars = |n: usize| format!("L{}", "*1".repeat(n));
        let deepest = MAX_DEPTH as usize;
        for chain in [&seq as &dyn Fn(usize) -> String, &alt, &stars] {
            assert_eq!(parse(&chain(deepest)).unwrap().depth(), MAX_DEPTH);
            for n in [deepest + 1, 200_000] {
                let err = parse(&chain(n)).unwrap_err();
                assert!(err.message.contains("deeper than 65 levels"), "{err}");
            }
        }
        // ε operands add nothing, so they do not count.
        assert_eq!(
            parse(&format!("{}L", "N·".repeat(1_000))).unwrap(),
            parse("L").unwrap()
        );
    }

    #[test]
    fn parses_paper_examples() {
        // "N | G · (L *4)" from Section 2.
        let p = parse("N | G · (L *4)").unwrap();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[G, L, L, L, L]));
        assert!(!p.accepts(&[G, L, L, L, L, L]));

        // "L*" from Example Query 1.
        let p = parse("L*").unwrap();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[L, L, L, L, L, L]));
        assert!(!p.accepts(&[G]));

        // "G·(L*1)" from Example Query 2.
        let p = parse("G·(L*1)").unwrap();
        assert!(p.accepts(&[G]));
        assert!(p.accepts(&[G, L]));
        assert!(!p.accepts(&[G, L, L]));
        assert!(!p.accepts(&[]));

        // "G·(G|L)" from the Figure 1 query.
        let p = parse("G·(G|L)").unwrap();
        assert!(p.accepts(&[G, G]));
        assert!(p.accepts(&[G, L]));
        assert!(!p.accepts(&[G]));
    }

    #[test]
    fn ascii_dot_is_concat() {
        assert_eq!(parse("G.L").unwrap(), parse("G·L").unwrap());
    }

    #[test]
    fn implicit_concat() {
        assert_eq!(parse("G L").unwrap(), parse("G·L").unwrap());
        assert_eq!(parse("GL").unwrap(), parse("G·L").unwrap());
        assert_eq!(parse("G(L|G)").unwrap(), parse("G·(L|G)").unwrap());
    }

    #[test]
    fn case_insensitive_symbols() {
        assert_eq!(parse("g·l").unwrap(), parse("G·L").unwrap());
    }

    #[test]
    fn precedence_star_tighter_than_concat_tighter_than_alt() {
        // G·L*2|N == (G·(L*2)) | N
        let p = parse("G·L*2|N").unwrap();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[G, L, L]));
        assert!(!p.accepts(&[G, G]));
    }

    #[test]
    fn nested_repetition() {
        let p = parse("(G·L)*2").unwrap();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[G, L]));
        assert!(p.accepts(&[G, L, G, L]));
        assert!(!p.accepts(&[G, L, G, L, G, L]));
    }

    #[test]
    fn star_zero_is_epsilon() {
        let p = parse("L*0").unwrap();
        assert!(p.accepts(&[]));
        assert!(!p.accepts(&[L]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("X").is_err());
        assert!(parse("(L").is_err());
        assert!(parse("L)").is_err());
        assert!(parse("|L").is_err());
        assert!(parse("L**999999999999999999999").is_err());
    }

    #[test]
    fn error_positions_point_at_problem() {
        let e = parse("G·X").unwrap_err();
        assert_eq!(e.position, 3); // '·' is two bytes in UTF-8
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["N|G·L*4", "L*", "G·L*1", "G·(G|L)", "(G|L)*", "I·L·G"] {
            let p = parse(s).unwrap();
            let printed = p.to_string();
            let reparsed = parse(&printed).unwrap();
            assert_eq!(p, reparsed, "round-trip failed for {s}");
        }
    }
}

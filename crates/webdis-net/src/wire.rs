//! A hand-written binary codec.
//!
//! No self-describing format: both sides know the schema, every compound
//! value is a fixed field sequence, collections are `u32`-length-prefixed,
//! enums are `u8`-tagged. Numbers are big-endian. The codec is total on
//! the encode side and defensive on the decode side (checked lengths,
//! bounded recursion), so a corrupt or malicious frame yields a
//! [`WireError`], never a panic.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use webdis_disql::Stage;
use webdis_model::{LinkType, Url};
use webdis_pre::{Pre, MAX_DEPTH};
use webdis_rel::{CmpOp, Expr, NodeQuery, RelKind, ResultRow, Value, VarDecl};

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Maximum element count accepted for any length-prefixed collection.
const MAX_LEN: usize = 1 << 24;

/// Binary encode/decode. Implemented for every type that crosses the wire.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::new(format!(
            "truncated input: need {n} bytes for {what}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_len(buf: &mut &[u8], what: &str) -> Result<usize, WireError> {
    let n = u32::decode(buf)? as usize;
    if n > MAX_LEN {
        return Err(WireError::new(format!("{what} length {n} exceeds limit")));
    }
    Ok(n)
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
}

impl Wire for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 2, "u16")?;
        Ok(buf.get_u16())
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32())
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64())
    }
}

impl Wire for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_i64(*self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        need(buf, 8, "i64")?;
        Ok(buf.get_i64())
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::new(format!("invalid bool tag {other}"))),
        }
    }
}

fn put_str(s: &str, buf: &mut Vec<u8>) {
    (s.len() as u32).encode(buf);
    buf.put_slice(s.as_bytes());
}

/// A length-prefixed string, borrowed from the frame.
fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, WireError> {
    let n = get_len(buf, "string")?;
    need(buf, n, "string body")?;
    let (bytes, rest) = buf.split_at(n);
    *buf = rest;
    std::str::from_utf8(bytes).map_err(|_| WireError::new("invalid UTF-8 in string"))
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(self, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_str(buf).map(str::to_owned)
    }
}

/// A shared string travels exactly as a `String` does.
impl Wire for Arc<str> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(self, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_str(buf).map(Arc::from)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let n = get_len(buf, "vector")?;
        // Guard against absurd pre-allocations from hostile lengths: each
        // element needs at least one byte of input.
        if n > buf.remaining() {
            return Err(WireError::new(format!(
                "vector length {n} exceeds remaining input {}",
                buf.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// A shared list travels exactly as a `Vec` does.
impl<T: Wire> Wire for Arc<[T]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        self.iter().for_each(|item| item.encode(buf));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Vec::decode(buf).map(Arc::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(WireError::new(format!("invalid option tag {other}"))),
        }
    }
}

impl Wire for Url {
    /// The URL's `Display` form as a string, written straight into the
    /// frame: the length prefix is patched in once the text is there.
    fn encode(&self, buf: &mut Vec<u8>) {
        use std::io::Write as _;
        let at = buf.len();
        buf.put_u32(0);
        write!(buf, "{self}").expect("writing to a Vec cannot fail");
        let n = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&n.to_be_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let s = get_str(buf)?;
        Url::parse(s).map_err(|e| WireError::new(format!("invalid URL on wire: {e}")))
    }
}

impl Wire for LinkType {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            LinkType::Interior => 0,
            LinkType::Local => 1,
            LinkType::Global => 2,
            LinkType::Null => 3,
        };
        buf.put_u8(tag);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(LinkType::Interior),
            1 => Ok(LinkType::Local),
            2 => Ok(LinkType::Global),
            3 => Ok(LinkType::Null),
            other => Err(WireError::new(format!("invalid link type tag {other}"))),
        }
    }
}

impl Wire for Pre {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Pre::Empty => buf.put_u8(0),
            Pre::Never => buf.put_u8(1),
            Pre::Sym(t) => {
                buf.put_u8(2);
                t.encode(buf);
            }
            Pre::Seq(a, b) => {
                buf.put_u8(3);
                a.encode(buf);
                b.encode(buf);
            }
            Pre::Alt(a, b) => {
                buf.put_u8(4);
                a.encode(buf);
                b.encode(buf);
            }
            Pre::Star(p) => {
                buf.put_u8(5);
                p.encode(buf);
            }
            Pre::Bounded(p, k) => {
                buf.put_u8(6);
                p.encode(buf);
                k.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_pre(buf, 0)
    }
}

/// Refuses a PRE deeper than [`MAX_DEPTH`] as malformed — the parsers
/// refuse to build one, so whatever parses decodes.
fn decode_pre(buf: &mut &[u8], depth: u32) -> Result<Pre, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("PRE nesting too deep"));
    }
    Ok(match u8::decode(buf)? {
        0 => Pre::Empty,
        1 => Pre::Never,
        2 => Pre::Sym(LinkType::decode(buf)?),
        3 => {
            let a = decode_pre(buf, depth + 1)?;
            let b = decode_pre(buf, depth + 1)?;
            Pre::Seq(Arc::new(a), Arc::new(b))
        }
        4 => {
            let a = decode_pre(buf, depth + 1)?;
            let b = decode_pre(buf, depth + 1)?;
            Pre::Alt(Arc::new(a), Arc::new(b))
        }
        5 => Pre::Star(Arc::new(decode_pre(buf, depth + 1)?)),
        6 => {
            let p = decode_pre(buf, depth + 1)?;
            let k = u32::decode(buf)?;
            Pre::Bounded(Arc::new(p), k)
        }
        other => return Err(WireError::new(format!("invalid PRE tag {other}"))),
    })
}

impl Wire for CmpOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        };
        buf.put_u8(tag);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            other => return Err(WireError::new(format!("invalid cmp tag {other}"))),
        })
    }
}

impl Wire for Expr {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Expr::Attr { var, attr } => {
                buf.put_u8(0);
                var.encode(buf);
                attr.encode(buf);
            }
            Expr::StrLit(s) => {
                buf.put_u8(1);
                s.encode(buf);
            }
            Expr::IntLit(i) => {
                buf.put_u8(2);
                i.encode(buf);
            }
            Expr::Contains(a, b) => {
                buf.put_u8(3);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::Cmp(op, a, b) => {
                buf.put_u8(4);
                op.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::And(a, b) => {
                buf.put_u8(5);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::Or(a, b) => {
                buf.put_u8(6);
                a.encode(buf);
                b.encode(buf);
            }
            Expr::Not(a) => {
                buf.put_u8(7);
                a.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_expr(buf, 0)
    }
}

/// Refuses an expression deeper than [`MAX_DEPTH`], as `decode_pre`.
fn decode_expr(buf: &mut &[u8], depth: u32) -> Result<Expr, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("expression nesting too deep"));
    }
    Ok(match u8::decode(buf)? {
        0 => Expr::Attr {
            var: String::decode(buf)?,
            attr: String::decode(buf)?,
        },
        1 => Expr::StrLit(String::decode(buf)?),
        2 => Expr::IntLit(i64::decode(buf)?),
        3 => {
            let a = decode_expr(buf, depth + 1)?;
            let b = decode_expr(buf, depth + 1)?;
            Expr::Contains(Box::new(a), Box::new(b))
        }
        4 => {
            let op = CmpOp::decode(buf)?;
            let a = decode_expr(buf, depth + 1)?;
            let b = decode_expr(buf, depth + 1)?;
            Expr::Cmp(op, Box::new(a), Box::new(b))
        }
        5 => {
            let a = decode_expr(buf, depth + 1)?;
            let b = decode_expr(buf, depth + 1)?;
            Expr::And(Box::new(a), Box::new(b))
        }
        6 => {
            let a = decode_expr(buf, depth + 1)?;
            let b = decode_expr(buf, depth + 1)?;
            Expr::Or(Box::new(a), Box::new(b))
        }
        7 => Expr::Not(Box::new(decode_expr(buf, depth + 1)?)),
        other => return Err(WireError::new(format!("invalid expr tag {other}"))),
    })
}

impl Wire for RelKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            RelKind::Document => 0,
            RelKind::Anchor => 1,
            RelKind::Relinfon => 2,
        };
        buf.put_u8(tag);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => RelKind::Document,
            1 => RelKind::Anchor,
            2 => RelKind::Relinfon,
            other => return Err(WireError::new(format!("invalid relation tag {other}"))),
        })
    }
}

impl Wire for VarDecl {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.kind.encode(buf);
        self.cond.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(VarDecl {
            name: String::decode(buf)?,
            kind: RelKind::decode(buf)?,
            cond: Option::<Expr>::decode(buf)?,
        })
    }
}

impl Wire for (String, String) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((String::decode(buf)?, String::decode(buf)?))
    }
}

impl Wire for NodeQuery {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.vars.encode(buf);
        self.where_cond.encode(buf);
        self.select.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NodeQuery {
            vars: Vec::<VarDecl>::decode(buf)?,
            where_cond: Option::<Expr>::decode(buf)?,
            select: Vec::<(String, String)>::decode(buf)?,
        })
    }
}

impl Wire for Stage {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.pre.encode(buf);
        self.doc_var.encode(buf);
        self.query.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Stage {
            pre: Pre::decode(buf)?,
            doc_var: String::decode(buf)?,
            query: NodeQuery::decode(buf)?,
        })
    }
}

impl Wire for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Str(s) => {
                buf.put_u8(0);
                s.encode(buf);
            }
            Value::Int(i) => {
                buf.put_u8(1);
                i.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Value::Str(String::decode(buf)?),
            1 => Value::Int(i64::decode(buf)?),
            other => return Err(WireError::new(format!("invalid value tag {other}"))),
        })
    }
}

impl Wire for ResultRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.values.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ResultRow {
            values: Vec::<Value>::decode(buf)?,
        })
    }
}

/// Encodes a [`crate::messages::Message`] into a fresh buffer.
pub fn encode_message(msg: &crate::messages::Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    msg.encode(&mut buf);
    buf
}

/// Decodes a complete message frame; trailing bytes are an error (frames
/// carry exactly one message).
pub fn decode_message(mut buf: &[u8]) -> Result<crate::messages::Message, WireError> {
    let msg = crate::messages::Message::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(WireError::new(format!(
            "{} trailing bytes after message",
            buf.len()
        )));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "leftover bytes");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(65535u16);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("héllo ≠ wörld"));
        round_trip(String::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
    }

    #[test]
    fn url_round_trip() {
        round_trip(Url::parse("http://h:8080/a/b#frag").unwrap());
    }

    #[test]
    fn pre_round_trip() {
        for s in ["N|G·L*4", "L*", "G·(G|L)", "(G|L)*2·I"] {
            round_trip(webdis_pre::parse(s).unwrap());
        }
        round_trip(Pre::Never);
    }

    #[test]
    fn expr_round_trip() {
        let e = Expr::And(
            Box::new(Expr::Contains(
                Box::new(Expr::Attr {
                    var: "d".into(),
                    attr: "title".into(),
                }),
                Box::new(Expr::StrLit("lab".into())),
            )),
            Box::new(Expr::Not(Box::new(Expr::Cmp(
                CmpOp::Ge,
                Box::new(Expr::Attr {
                    var: "d".into(),
                    attr: "length".into(),
                }),
                Box::new(Expr::IntLit(100)),
            )))),
        );
        round_trip(e);
    }

    #[test]
    fn node_query_round_trip() {
        let q = NodeQuery {
            vars: vec![
                VarDecl {
                    name: "d".into(),
                    kind: RelKind::Document,
                    cond: None,
                },
                VarDecl {
                    name: "r".into(),
                    kind: RelKind::Relinfon,
                    cond: Some(Expr::Cmp(
                        CmpOp::Eq,
                        Box::new(Expr::Attr {
                            var: "r".into(),
                            attr: "delimiter".into(),
                        }),
                        Box::new(Expr::StrLit("hr".into())),
                    )),
                },
            ],
            where_cond: None,
            select: vec![("d".into(), "url".into()), ("r".into(), "text".into())],
        };
        round_trip(q);
    }

    #[test]
    fn value_and_row_round_trip() {
        round_trip(Value::Str("x".into()));
        round_trip(Value::Int(-5));
        round_trip(ResultRow {
            values: vec![Value::Str("a".into()), Value::Int(1)],
        });
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = Vec::new();
        String::from("hello").encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                String::decode(&mut slice).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut slice: &[u8] = &[9u8];
        assert!(Pre::decode(&mut slice).is_err());
        let mut slice: &[u8] = &[99u8];
        assert!(Expr::decode(&mut slice).is_err());
        let mut slice: &[u8] = &[2u8];
        assert!(bool::decode(&mut slice).is_err());
    }

    #[test]
    fn hostile_vector_length_rejected() {
        // Vector claiming u32::MAX elements with no bytes behind it.
        let mut buf = Vec::new();
        (u32::MAX).encode(&mut buf);
        let mut slice = buf.as_slice();
        assert!(Vec::<u8>::decode(&mut slice).is_err());
    }

    #[test]
    fn deep_pre_nesting_rejected() {
        // 100 nested Star tags then a Never.
        let mut buf = vec![5u8; 100];
        buf.push(1);
        let mut slice = buf.as_slice();
        assert!(Pre::decode(&mut slice).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        2u32.encode(&mut buf);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = buf.as_slice();
        assert!(String::decode(&mut slice).is_err());
    }
}

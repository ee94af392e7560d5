//! A hand-written binary codec.
//!
//! No self-describing format: both sides know the schema, every compound
//! value is a fixed field sequence, collections are `u32`-length-prefixed,
//! enums are `u8`-tagged. Numbers are big-endian. The codec is total on
//! the encode side and defensive on the decode side (checked lengths,
//! bounded recursion), so a corrupt or malicious frame yields a
//! [`WireError`], never a panic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use webdis_disql::Stage;
use webdis_model::{LinkType, Url};
use webdis_pre::{closure, Pre, MAX_DEPTH};
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

/// Fixed-width integers, big-endian.
macro_rules! wire_int {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                need(buf, std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(buf.$get())
            }
        }
    )*};
}

wire_int! {
    u8: put_u8, get_u8;
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    i64: put_i64, get_i64;
}

/// A fieldless enum as a `u8` tag: its variants' places in the list.
macro_rules! wire_tag {
    ($t:ident, $what:literal, [$($v:ident),*]) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                let tag = [$($t::$v),*].iter().position(|v| v == self);
                buf.put_u8(tag.expect("every variant is listed") as u8);
            }

            fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
                let tag = u8::decode(buf)?;
                let value = [$($t::$v),*].get(usize::from(tag)).copied();
                value.ok_or_else(|| WireError::new(format!(concat!("invalid ", $what, " tag {}"), tag)))
            }
        }
    };
}

wire_tag!(LinkType, "link type", [Interior, Local, Global, Null]);
wire_tag!(CmpOp, "cmp", [Eq, Ne, Lt, Le, Gt, Ge]);
wire_tag!(RelKind, "relation", [Document, Anchor, Relinfon]);

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
        by_string(buf, |m| &mut m.strs, |s| Ok(Arc::from(s)))
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

/// A clone's shared stage list travels exactly as a `Vec` does. A list
/// this thread encoded lately is spliced in from the memo: every clone of
/// a query shares one list.
impl Wire for Arc<[Stage]> {
    fn encode(&self, buf: &mut Vec<u8>) {
        let spliced = MEMO.with_borrow(|m| {
            let (bytes, _) = m
                .encoded
                .iter()
                .rev()
                .find(|(_, list)| Arc::ptr_eq(list, self))?;
            buf.extend_from_slice(bytes);
            Some(())
        });
        if spliced.is_none() {
            let at = buf.len();
            (self.len() as u32).encode(buf);
            self.iter().for_each(|item| item.encode(buf));
            MEMO.with_borrow_mut(|m| m.keep(|m| &mut m.encoded, &buf[at..], self.clone()));
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        by_prefix(buf, |m| &mut m.stages, |b| Vec::decode(b).map(Arc::from))
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
    /// The URL's `Display` form as a string, its parts written straight
    /// into the frame: the length prefix is patched in once they are there.
    fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.put_u32(0);
        buf.put_slice(b"http://");
        buf.put_slice(self.host().as_bytes());
        if self.port() != 80 {
            use std::io::Write as _;
            write!(buf, ":{}", self.port()).expect("writing to a Vec cannot fail");
        }
        buf.put_slice(self.path().as_bytes());
        if let Some(fragment) = self.fragment() {
            buf.put_u8(b'#');
            buf.put_slice(fragment.as_bytes());
        }
        let n = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&n.to_be_bytes());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        by_string(buf, |m| &mut m.urls, parse_url)
    }
}

/// The memo's miss path for a URL: the one place the decoder parses one.
fn parse_url(s: &str) -> Result<Url, WireError> {
    Url::parse(s).map_err(|e| WireError::new(format!("invalid URL on wire: {e}")))
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
        by_prefix(buf, |m| &mut m.pres, |b| decode_pre(b, 0))
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

/// A PRE a clone runs on — its remaining PRE or a stage's — refused as
/// [`webdis_pre::parse`] refuses one: with a derivative deeper than
/// [`MAX_DEPTH`], or more derivatives than
/// [`MAX_STATES`](webdis_pre::MAX_STATES). So every forward derived
/// from a clone that decodes can ship.
pub(crate) fn decode_clone_pre(buf: &mut &[u8]) -> Result<Pre, WireError> {
    by_prefix(buf, |m| &mut m.clone_pres, checked_clone_pre)
}

/// The memo's miss path for a clone PRE, the one closure check: a refused PRE is never stored.
fn checked_clone_pre(buf: &mut &[u8]) -> Result<Pre, WireError> {
    let pre = decode_pre(buf, 0)?;
    closure(&pre).map_err(|e| WireError::new(format!("clone PRE refused: {e}")))?;
    Ok(pre)
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
        let (pre, doc_var) = (decode_clone_pre(buf)?, String::decode(buf)?);
        Ok(Stage::new(pre, doc_var, NodeQuery::decode(buf)?))
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

/// Values this thread decoded before, found again by their bytes on the
/// wire, so what a query's frames repeat (stages, PREs, URLs, hosts) is
/// decoded and closure-checked once per thread: once per TCP endpoint,
/// which only the thread that waits on it reads. URLs and shared strings
/// are keyed by their string bytes; PREs and stage lists are found by
/// prefix, as the codec is prefix-free: a frame that starts with a stored
/// encoding decodes to its value, consuming exactly it. Only a value that
/// decoded, closure check included, is stored. At most [`MEMO_ENTRIES`]
/// entries, [`MEMO_KEY_BYTES`] key bytes in all (cleared whole when full),
/// none over [`MEMO_KEY_MAX`]; a value is linear in its key.
///
/// Encoding shares the memo and its bound: `encoded` holds the last
/// [`MEMO_RECENT`] stage lists this thread encoded, each beside its
/// bytes and found by `Arc` identity. The memo holds the `Arc`, so no
/// other list can take its address while its bytes are kept.
#[derive(Default)]
struct Memo {
    urls: HashMap<Box<[u8]>, Url>,
    strs: HashMap<Box<[u8]>, Arc<str>>,
    pres: Recent<Pre>,
    clone_pres: Recent<Pre>,
    stages: Recent<Arc<[Stage]>>,
    encoded: Recent<Arc<[Stage]>>,
    entries: usize,
    key_bytes: usize,
}

/// Values each beside its encoding: the last [`MEMO_RECENT`], newest last.
type Recent<T> = Vec<(Box<[u8]>, T)>;

const MEMO_ENTRIES: usize = 1024;
const MEMO_KEY_BYTES: usize = 64 << 10;
const MEMO_KEY_MAX: usize = 4 << 10;
const MEMO_RECENT: usize = 16;

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::default();
}

impl Memo {
    /// Counts a new `n`-byte key, clearing a full memo first; false for one too long.
    fn room(&mut self, n: usize) -> bool {
        if n > MEMO_KEY_MAX {
            return false;
        }
        if self.entries == MEMO_ENTRIES || self.key_bytes + n > MEMO_KEY_BYTES {
            *self = Memo::default();
        }
        self.entries += 1;
        self.key_bytes += n;
        true
    }

    /// Stores `value` beside its encoding `key` as the newest of `list`,
    /// dropping the oldest when the list is full.
    fn keep<T>(&mut self, list: fn(&mut Memo) -> &mut Recent<T>, key: &[u8], value: T) {
        if !self.room(key.len()) {
            return;
        }
        if list(self).len() == MEMO_RECENT {
            let (old, _) = list(self).remove(0);
            self.entries -= 1;
            self.key_bytes -= old.len();
        }
        list(self).push((key.into(), value));
    }
}

/// A string's value: the one stored under its bytes, or `miss`'s, stored.
fn by_string<T: Clone>(
    buf: &mut &[u8],
    table: fn(&mut Memo) -> &mut HashMap<Box<[u8]>, T>,
    miss: fn(&str) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let s = get_str(buf)?;
    if let Some(hit) = MEMO.with_borrow_mut(|m| table(m).get(s.as_bytes()).cloned()) {
        return Ok(hit);
    }
    let value = miss(s)?;
    MEMO.with_borrow_mut(|m| {
        if m.room(s.len()) {
            table(m).insert(s.as_bytes().into(), value.clone());
        }
    });
    Ok(value)
}

/// The stored value whose encoding `buf` starts with, or `miss`'s, stored under what it read.
fn by_prefix<T: Clone>(
    buf: &mut &[u8],
    list: fn(&mut Memo) -> &mut Recent<T>,
    miss: fn(&mut &[u8]) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let frame = *buf;
    let hit = MEMO.with_borrow_mut(|m| {
        let found = list(m).iter().rev().find(|(key, _)| frame.starts_with(key));
        found.map(|(key, value)| (key.len(), value.clone()))
    });
    if let Some((n, value)) = hit {
        *buf = &frame[n..];
        return Ok(value);
    }
    let value = miss(buf)?;
    let key = &frame[..frame.len() - buf.len()];
    MEMO.with_borrow_mut(|m| m.keep(list, key, value.clone()));
    Ok(value)
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

    /// A clone whose stages are one `(L|G)*` crawl with `stage_pre` as
    /// its PRE, encoded.
    fn clone_frame(rem_pre: Pre, stage_pre: Pre) -> Vec<u8> {
        use crate::messages::{Message, QueryClone, QueryId};
        let q = webdis_disql::parse_disql(
            r#"select d.url from document d such that "http://a.test/" (L|G)* d
               where d.title contains "x""#,
        )
        .unwrap();
        let mut stages = q.stages.to_vec();
        stages[0].pre = stage_pre;
        encode_message(&Message::Query(QueryClone {
            id: QueryId {
                user: "u".into(),
                host: "user.test".into(),
                port: 9,
                query_num: 1,
            },
            dest_nodes: q.start_nodes,
            rem_pre,
            stages: stages.into(),
            stage_offset: 0,
            hops: 0,
            ack_host: "user.test".into(),
            ack_port: 9,
        }))
    }

    fn lg() -> Pre {
        use LinkType::{Global as G, Local as L};
        Pre::star(Pre::alt(Pre::sym(L), Pre::sym(G)))
    }

    #[test]
    fn a_memoized_prefix_never_masks_a_refusal() {
        assert!(decode_message(&clone_frame(lg(), lg())).is_ok());
        // `(L|G)*·G*1·…` with 64 links: its derivative by `G` is 66 deep.
        let links = (0..64).fold(Pre::Empty, |rest, _| {
            Pre::seq(Pre::bounded(Pre::sym(LinkType::Global), 1), rest)
        });
        let chain = Pre::seq(lg(), links);
        let frame = clone_frame(lg(), chain.clone());
        let lists = || MEMO.with_borrow(|m| (m.clone_pres.len(), m.stages.len()));
        let before = lists();
        // Refused, and refused again: the refusal left no entry behind.
        for _ in 0..2 {
            let err = decode_message(&frame).unwrap_err();
            assert!(
                err.message.contains("derivative deeper than 65 levels"),
                "{err}"
            );
        }
        assert_eq!(lists(), before);
        let mut key = Vec::new();
        chain.encode(&mut key);
        MEMO.with_borrow(|m| assert!(m.clone_pres.iter().all(|(k, _)| **k != key[..])));
    }

    #[test]
    fn a_memoized_frame_with_trailing_or_missing_bytes_is_still_an_error() {
        let frame = clone_frame(lg(), lg());
        assert!(decode_message(&frame).is_ok());
        let mut longer = frame.clone();
        longer.push(0);
        let err = decode_message(&longer).unwrap_err();
        assert!(err.message.contains("1 trailing bytes"), "{err}");
        for cut in 0..frame.len() {
            assert!(decode_message(&frame[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_message(&frame).is_ok());
    }

    /// The bound DESIGN.md states, held against a peer that never repeats
    /// a URL, a host or a clone state, on a thread that also encodes a
    /// new stage list for every message.
    #[test]
    fn the_memo_holds_its_bound_against_distinct_values() {
        use crate::messages::{CloneState, Disposition, Message, NodeReport, QueryId};
        use crate::messages::{ResultReport, StageRows};
        let held = |m: &Memo| {
            let lists = m.pres.iter().chain(&m.clone_pres).map(|(k, _)| k.len());
            let stages = m.stages.iter().chain(&m.encoded).map(|(k, _)| k.len());
            let tables = m.urls.keys().chain(m.strs.keys()).map(|k| k.len());
            tables.chain(lists).chain(stages).sum::<usize>()
        };
        let stage = webdis_disql::parse_disql(
            r#"select d.url from document d such that "http://a.test/" L d"#,
        )
        .unwrap()
        .stages[0]
            .clone();
        for i in 0..10_000u32 {
            let mut list = vec![stage.clone(); 1 + i as usize % 4];
            list[0].doc_var = format!("d{i}");
            let list: Arc<[Stage]> = list.into();
            let (mut once, mut twice) = (Vec::new(), Vec::new());
            list.encode(&mut once);
            list.encode(&mut twice);
            assert_eq!(once, twice);
            let host: Arc<str> = format!("h{i}.test").into();
            let node = Url::parse(&format!("http://{host}/{}", "p".repeat(i as usize % 64)));
            let msg = Message::Report(ResultReport {
                id: QueryId {
                    user: "u".into(),
                    host: host.clone(),
                    port: 9,
                    query_num: u64::from(i),
                },
                origin: host,
                seq: 1,
                reports: vec![NodeReport {
                    node: node.unwrap(),
                    state: CloneState {
                        num_q: 1,
                        rem_pre: Pre::bounded(Pre::sym(LinkType::Local), i),
                    },
                    disposition: Disposition::Answered,
                    results: vec![StageRows {
                        stage: 0,
                        rows: Vec::new(),
                    }],
                    new_entries: Vec::new(),
                }],
            });
            assert_eq!(decode_message(&encode_message(&msg)), Ok(msg));
            MEMO.with_borrow(|m| {
                let lists = m.pres.len() + m.clone_pres.len() + m.stages.len();
                let lists = lists + m.encoded.len();
                assert_eq!(m.entries, m.urls.len() + m.strs.len() + lists);
                assert!(m.encoded.len() <= MEMO_RECENT);
                assert_eq!(m.key_bytes, held(m));
                assert!(m.entries <= MEMO_ENTRIES, "{} entries", m.entries);
                assert!(m.key_bytes <= MEMO_KEY_BYTES, "{} key bytes", m.key_bytes);
            });
        }
        // A key over the per-key limit decodes but is never stored.
        let long = "x".repeat(MEMO_KEY_MAX + 1);
        let mut buf = Vec::new();
        Url::parse(&format!("http://h.test/{long}"))
            .unwrap()
            .encode(&mut buf);
        assert!(Url::decode(&mut buf.as_slice()).is_ok());
        MEMO.with_borrow(|m| assert!(m.urls.keys().all(|k| k.len() <= MEMO_KEY_MAX)));
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

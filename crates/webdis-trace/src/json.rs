//! The workspace's one JSON module: a [`Value`], one [`parse`], typed
//! field accessors, one writer — and, stated once on top of them, the
//! JSON-lines wire form of [`TraceRecord`]s.
//!
//! **The subset.** Objects, arrays, strings, `true`/`false` and
//! *unsigned integers*. Every format in this tree is float-free by
//! design (fractional signals travel as fixed-point milli-units), so a
//! sign, a fraction, an exponent or `null` is a parse error, not a value
//! quietly rounded. Nesting deeper than [`MAX_DEPTH`] is refused, so
//! input read from a file or a socket cannot overflow the stack;
//! parsing is linear in the input and never panics.
//!
//! **The writer.** [`ToJson`] renders compactly (no whitespace) and
//! escapes strings one way everywhere; a `BTreeMap` — and so a
//! [`Value::Obj`] — is written with its keys sorted, which makes
//! [`write()`] canonical: equal values give equal bytes. Formats whose
//! key order is part of their bytes (trace lines, `/status`,
//! `chaos-repro.json`) write their objects field by field through
//! [`ObjWriter`].
//!
//! **Who uses it.** Trace JSONL (here), [`crate::Histogram`],
//! `webdis-monitor` (`/status`, series and alert log), `webdis-chaos`
//! (`chaos-repro.json`) and `webdis-bench` (`BENCH_*.json`).
//!
//! One trace record is one flat object per line; event-specific fields
//! sit next to the common stamp fields, so the output greps well:
//!
//! ```text
//! {"time_us":1532,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":1,"hop":1,"event":"query_sent","to_site":"n2.test","nodes":1}
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{QueryId, TermReason, TraceEvent, TraceRecord};

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document this workspace writes (a BENCH file: report →
/// scenarios → scenario → histograms → histogram → counts) nests six.
pub const MAX_DEPTH: usize = 32;

/// The members of a [`Value::Obj`], sorted by key.
pub type Map = BTreeMap<String, Value>;

/// One parsed JSON value of the subset this workspace writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (a repeated key keeps its last value).
    Obj(Map),
}

/// Parses one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.parse_value(0)?;
    match parser.peek() {
        None => Ok(value),
        Some(_) => Err(parser.error("trailing bytes")),
    }
}

/// `pos` only ever rests on a `char` boundary of `text`: it advances
/// over whole ASCII bytes or up to the next ASCII delimiter.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'0'..=b'9') => {
                let mut n: u64 = 0;
                while let Some(digit @ b'0'..=b'9') = self.text.as_bytes().get(self.pos) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(digit - b'0')))
                        .ok_or_else(|| self.error("number overflows u64"))?;
                    self.pos += 1;
                }
                Ok(Value::Num(n))
            }
            Some(b't' | b'f') => {
                for (word, value) in [("true", true), ("false", false)] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(Value::Bool(value));
                    }
                }
                Err(self.error("bad literal"))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.parse_items(b']', depth, |p| {
                    items.push(p.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut map = Map::new();
                self.parse_items(b'}', depth, |p| {
                    let key = p.parse_string()?;
                    p.expect(b':')?;
                    map.insert(key, p.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            _ => Err(self.error("expected a value")),
        }
    }

    /// The body of an array or object whose opening bracket is the next
    /// byte: comma-separated items up to `close`.
    fn parse_items(
        &mut self,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return Err(self.error(&format!("nested deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    /// A string literal. Unescaped runs are copied a slice at a time, so
    /// the cost is linear in the literal's length. `\uXXXX` must name a
    /// scalar value (the writer emits it for control characters only;
    /// everything else travels as UTF-8), so a surrogate is an error.
    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escape = self.text.as_bytes().get(self.pos).copied();
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    self.pos += 4;
                    code
                }
                _ => return Err(self.error("bad escape")),
            });
            self.pos += 1;
        }
    }
}

/// A Rust type a [`Value`] can be read as. The error is the complaint
/// alone (`"is not a string"`, `"out of range"`); the accessors of
/// [`Value`] put the field's name in front of it.
pub trait FromValue<'a>: Sized {
    /// `value` as `Self`, or what is wrong with it.
    fn from_value(value: &'a Value) -> Result<Self, &'static str>;
}

impl FromValue<'_> for u64 {
    fn from_value(value: &Value) -> Result<u64, &'static str> {
        match value {
            Value::Num(n) => Ok(*n),
            _ => Err("is not an unsigned integer"),
        }
    }
}

/// The narrower integers are range-checked, never truncated.
macro_rules! narrow_from_value {
    ($($int:ty)*) => {$(
        impl FromValue<'_> for $int {
            fn from_value(value: &Value) -> Result<$int, &'static str> {
                <$int>::try_from(u64::from_value(value)?).map_err(|_| "out of range")
            }
        }
    )*};
}
narrow_from_value!(u32 u16 usize);

impl FromValue<'_> for bool {
    fn from_value(value: &Value) -> Result<bool, &'static str> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err("is not a boolean"),
        }
    }
}

impl<'a> FromValue<'a> for &'a str {
    fn from_value(value: &'a Value) -> Result<&'a str, &'static str> {
        match value {
            Value::Str(s) => Ok(s),
            _ => Err("is not a string"),
        }
    }
}

impl FromValue<'_> for String {
    fn from_value(value: &Value) -> Result<String, &'static str> {
        <&str>::from_value(value).map(str::to_string)
    }
}

impl<'a> FromValue<'a> for &'a [Value] {
    fn from_value(value: &'a Value) -> Result<&'a [Value], &'static str> {
        match value {
            Value::Arr(items) => Ok(items),
            _ => Err("is not an array"),
        }
    }
}

impl<'a, T: FromValue<'a>> FromValue<'a> for Vec<T> {
    fn from_value(value: &'a Value) -> Result<Vec<T>, &'static str> {
        <&[Value]>::from_value(value)?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<'a> FromValue<'a> for &'a Map {
    fn from_value(value: &'a Value) -> Result<&'a Map, &'static str> {
        match value {
            Value::Obj(map) => Ok(map),
            _ => Err("is not an object"),
        }
    }
}

impl Value {
    /// Member `key` of this object as a `T`, `None` when absent. A
    /// member of the wrong type or out of `T`'s range is an error, as is
    /// asking a non-object for a member.
    pub fn opt<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        let Value::Obj(map) = self else {
            return Err(format!("expected an object with a field {key:?}"));
        };
        map.get(key)
            .map(T::from_value)
            .transpose()
            .map_err(|complaint| format!("field {key:?} {complaint}"))
    }

    /// Member `key` as a `T`; absent is an error.
    pub fn req<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Member `key` as a `T`, `default` when absent — and only when
    /// absent: a present member of the wrong type is still an error.
    pub fn or<'a, T: FromValue<'a>>(&'a self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }
}

/// A Rust value with a JSON form.
pub trait ToJson {
    /// Appends the compact JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// `value` as a JSON document.
pub fn write<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// The one string escaper: `"` and `\` backslashed, `\n` `\r` `\t` by
/// name, other control characters as `\u00XX`, the rest as UTF-8.
impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_to_json {
    ($($int:ty)*) => {$(
        impl ToJson for $int {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_to_json!(u64 u32 u16 usize);

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjWriter::new(out);
        for (key, value) in self {
            obj.field(key, value);
        }
        obj.end();
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => b.write_json(out),
            Value::Num(n) => n.write_json(out),
            Value::Str(s) => s.write_json(out),
            Value::Arr(items) => items.write_json(out),
            Value::Obj(map) => map.write_json(out),
        }
    }
}

/// Writes one object field by field, in call order:
/// `ObjWriter::new(out).field("a", &1).field("b", "x").end()`.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    /// What goes before the next key: the opening brace, then commas.
    sep: char,
}

impl<'a> ObjWriter<'a> {
    /// Starts an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjWriter<'a> {
        ObjWriter { out, sep: '{' }
    }

    /// Appends `"key":value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.out.push(self.sep);
        self.sep = ',';
        key.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Closes the object.
    pub fn end(&mut self) {
        if self.sep == '{' {
            self.out.push('{');
        }
        self.out.push('}');
    }
}

impl ToJson for TermReason {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

impl FromValue<'_> for TermReason {
    fn from_value(value: &Value) -> Result<TermReason, &'static str> {
        Ok(match <&str>::from_value(value)? {
            "passive" => TermReason::Passive,
            "cht-complete" => TermReason::ChtComplete,
            "ack-complete" => TermReason::AckComplete,
            "expired" => TermReason::Expired,
            "shed" => TermReason::Shed,
            _ => return Err("is not a termination reason"),
        })
    }
}

/// Reads one event field: required, or `default` when the table gives
/// one (a field younger than traces still worth reading).
macro_rules! event_field {
    ($obj:ident, $field:ident: $kind:ty) => {
        $obj.req::<$kind>(stringify!($field))?
    };
    ($obj:ident, $field:ident: $kind:ty = $default:expr) => {
        $obj.or::<$kind>(stringify!($field), $default)?
    };
}

/// The trace vocabulary, stated once: each [`TraceEvent`] variant, its
/// wire name and its fields in wire order, each with the Rust type it
/// is written from and read as (a field's JSON key is its name). From
/// this table come [`EVENT_NAMES`], [`TraceEvent::name`], the encoder
/// and the decoder. The enum itself is written out in `lib.rs`, and
/// the two cannot drift: a variant missing here fails `name`'s
/// exhaustive match, and a field missing here fails both the encoder's
/// pattern (which has no `..`) and the decoder's struct literal.
macro_rules! trace_events {
    ($($variant:ident $name:literal {
        $($field:ident: $kind:ty $(= $default:expr)?),* $(,)?
    })*) => {
        /// Every event's wire name, in declaration order.
        pub const EVENT_NAMES: &[&str] = &[$($name),*];

        impl TraceEvent {
            /// Stable lowercase event name (JSONL `event` field, registry
            /// counter key).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }
        }

        fn encode_event(event: &TraceEvent, obj: &mut ObjWriter<'_>) {
            match event {
                $(TraceEvent::$variant { $($field),* } => {
                    $(obj.field(stringify!($field), $field);)*
                })*
            }
        }

        fn decode_event(name: &str, obj: &Value) -> Result<TraceEvent, String> {
            Ok(match name {
                $($name => TraceEvent::$variant {
                    $($field: event_field!(obj, $field: $kind $(= $default)?)),*
                },)*
                other => return Err(format!("unknown event {other:?}")),
            })
        }
    };
}

trace_events! {
    QuerySent "query_sent" { to_site: String, nodes: u32 }
    QueryRecv "query_recv" { nodes: u32 }
    EvalStart "eval_start" { node: String, stage: u32 }
    EvalFinish "eval_finish" { node: String, stage: u32, rows: u32, answered: bool, span_us: u64 }
    StageTransition "stage_transition" { node: String, from_stage: u32, to_stage: u32 }
    LogDuplicate "log_duplicate" { node: String, exact: bool }
    LogRewrite "log_rewrite" { node: String }
    ChtAdd "cht_add" { node: String }
    ChtDelete "cht_delete" { node: String }
    DocFetch "doc_fetch" {
        url: String,
        cache_hit: bool,
        // Absent in traces written before the living web.
        content_version: u64 = 0,
    }
    Purge "purge" { records: u32 }
    Termination "termination" { reason: TermReason }
    MessageSent "message_sent" { kind: String, to: String, bytes: u32 }
    MessageDropped "message_dropped" { kind: String, to: String, bytes: u32, reason: String }
    MessageDuplicated "message_duplicated" { kind: String, to: String, bytes: u32 }
    MessageCorrupted "message_corrupted" { kind: String, to: String, bytes: u32 }
    EntryExpired "entry_expired" { node: String }
    SendRetried "send_retried" { kind: String, to: String, attempt: u32 }
    QueryShed "query_shed" { nodes: u32 }
    CacheHit "cache_hit" { node: String, subsumed: bool, rows: u32 }
    CacheMiss "cache_miss" { node: String }
    CacheEvict "cache_evict" { node: String, bytes: u32, resident_bytes: u32 }
    StageSpans "stage_spans" {
        // Absent in traces written before queue-wait attribution.
        queue_us: u64 = 0,
        parse_us: u64,
        log_us: u64,
        // Absent in traces written before the answer cache.
        cache_us: u64 = 0,
        eval_us: u64,
        // Absent in traces written before probe-vs-scan attribution.
        eval_probe_us: u64 = 0,
        eval_scan_us: u64 = 0,
        build_us: u64,
        forward_us: u64,
    }
    AlertFired "alert_fired" { rule: String, value_milli: u64, threshold_milli: u64 }
    AlertResolved "alert_resolved" { rule: String, value_milli: u64 }
    WebMutation "web_mutation" { op: String, url: String, site_version: u64 }
    DeadLink "dead_link" { node: String, version: u64 }
}

/// Encodes one record as a single JSON object (no trailing newline).
pub fn encode_record(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(128);
    let mut obj = ObjWriter::new(&mut out);
    obj.field("time_us", &r.time_us).field("site", &r.site);
    if let Some(id) = &r.query {
        obj.field("user", &*id.user)
            .field("query_host", &*id.host)
            .field("query_port", &id.port)
            .field("query_num", &id.query_num);
    }
    if let Some(hop) = &r.hop {
        obj.field("hop", hop);
    }
    obj.field("event", r.event.name());
    encode_event(&r.event, &mut obj);
    obj.end();
    out
}

/// Decodes one line previously produced by [`encode_record`].
pub fn decode_record(line: &str) -> Result<TraceRecord, String> {
    let obj = parse(line)?;
    let query = match obj.opt("query_num")? {
        Some(query_num) => Some(QueryId {
            user: obj.req::<&str>("user")?.into(),
            host: obj.req::<&str>("query_host")?.into(),
            port: obj.req("query_port")?,
            query_num,
        }),
        None => None,
    };
    Ok(TraceRecord {
        time_us: obj.req("time_us")?,
        site: obj.req("site")?,
        query,
        hop: obj.opt("hop")?,
        event: decode_event(obj.req("event")?, &obj)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid() -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 7,
        }
    }

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QuerySent {
                to_site: "n2.test".into(),
                nodes: 3,
            },
            TraceEvent::QueryRecv { nodes: 3 },
            TraceEvent::EvalStart {
                node: "http://n2.test/".into(),
                stage: 0,
            },
            TraceEvent::EvalFinish {
                node: "http://n2.test/".into(),
                stage: 0,
                rows: 4,
                answered: true,
                span_us: 1_250,
            },
            TraceEvent::StageTransition {
                node: "http://n4.test/".into(),
                from_stage: 0,
                to_stage: 1,
            },
            TraceEvent::LogDuplicate {
                node: "http://n4.test/".into(),
                exact: false,
            },
            TraceEvent::LogRewrite {
                node: "http://n4.test/".into(),
            },
            TraceEvent::ChtAdd {
                node: "http://n5.test/".into(),
            },
            TraceEvent::ChtDelete {
                node: "http://n5.test/".into(),
            },
            TraceEvent::DocFetch {
                url: "http://n1.test/".into(),
                cache_hit: false,
                content_version: 3,
            },
            TraceEvent::Purge { records: 12 },
            TraceEvent::Termination {
                reason: TermReason::ChtComplete,
            },
            TraceEvent::MessageSent {
                kind: "query".into(),
                to: "n2.test".into(),
                bytes: 311,
            },
            TraceEvent::MessageDropped {
                kind: "query".into(),
                to: "n2.test".into(),
                bytes: 311,
                reason: "partition".into(),
            },
            TraceEvent::MessageDuplicated {
                kind: "report".into(),
                to: "user.test".into(),
                bytes: 98,
            },
            TraceEvent::MessageCorrupted {
                kind: "query".into(),
                to: "n3.test".into(),
                bytes: 245,
            },
            TraceEvent::EntryExpired {
                node: "http://n5.test/".into(),
            },
            TraceEvent::SendRetried {
                kind: "report".into(),
                to: "user.test".into(),
                attempt: 2,
            },
            TraceEvent::Termination {
                reason: TermReason::Expired,
            },
            TraceEvent::QueryShed { nodes: 5 },
            TraceEvent::Termination {
                reason: TermReason::Shed,
            },
            TraceEvent::CacheHit {
                node: "http://n2.test/".into(),
                subsumed: true,
                rows: 4,
            },
            TraceEvent::CacheMiss {
                node: "http://n3.test/".into(),
            },
            TraceEvent::CacheEvict {
                node: "http://n2.test/".into(),
                bytes: 512,
                resident_bytes: 1_024,
            },
            TraceEvent::StageSpans {
                queue_us: 12,
                parse_us: 1_000,
                log_us: 3,
                cache_us: 2,
                eval_us: 400,
                eval_probe_us: 250,
                eval_scan_us: 150,
                build_us: 0,
                forward_us: 27,
            },
            TraceEvent::AlertFired {
                rule: "shed_rate_burn".into(),
                value_milli: 412,
                threshold_milli: 100,
            },
            TraceEvent::AlertResolved {
                rule: "shed_rate_burn".into(),
                value_milli: 0,
            },
            TraceEvent::WebMutation {
                op: "delete_page".into(),
                url: "http://n2.test/gone.html".into(),
                site_version: 4,
            },
            TraceEvent::DeadLink {
                node: "http://n2.test/gone.html".into(),
                version: 4,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for (i, event) in all_events().into_iter().enumerate() {
            let record = TraceRecord {
                time_us: 1_000 + i as u64,
                site: "n1.test".into(),
                query: Some(qid()),
                hop: Some(i as u32),
                event,
            };
            let line = encode_record(&record);
            let back = decode_record(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, record, "line: {line}");
        }
    }

    #[test]
    fn the_round_trip_fixture_covers_every_event_name() {
        // A variant added to the table but not to `all_events` would
        // otherwise sit outside `every_event_round_trips` unnoticed.
        let covered: Vec<&str> = all_events().iter().map(TraceEvent::name).collect();
        for name in EVENT_NAMES {
            assert!(covered.contains(name), "no fixture record for {name:?}");
        }
    }

    #[test]
    fn design_doc_lists_exactly_the_event_names() {
        let design = include_str!("../../../DESIGN.md");
        let listing = design
            .split_once("Wire names of the events:")
            .and_then(|(_, after)| after.split_once('.'))
            .expect("DESIGN.md §2c lists the event wire names")
            .0;
        let listed: Vec<&str> = listing
            .split(',')
            .map(|name| name.trim().trim_matches('`'))
            .collect();
        assert_eq!(listed, EVENT_NAMES);
    }

    #[test]
    fn legacy_stage_spans_without_queue_us_still_decode() {
        // Traces recorded before queue-wait attribution carry no
        // queue_us field, and those before probe-vs-scan attribution no
        // eval_probe_us / eval_scan_us; they decode with the spans zero.
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"stage_spans\",\
                    \"parse_us\":10,\"log_us\":1,\"eval_us\":5,\"build_us\":0,\"forward_us\":2}";
        let record = decode_record(line).unwrap();
        assert_eq!(
            record.event,
            TraceEvent::StageSpans {
                queue_us: 0,
                parse_us: 10,
                log_us: 1,
                cache_us: 0,
                eval_us: 5,
                eval_probe_us: 0,
                eval_scan_us: 0,
                build_us: 0,
                forward_us: 2,
            }
        );
    }

    #[test]
    fn mistyped_legacy_field_is_rejected_not_defaulted() {
        // The absent-default is for *absent*: a queue_us that is there
        // but is not a number must not quietly decode as 0.
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"stage_spans\",\
                    \"queue_us\":\"x\",\"parse_us\":10,\"log_us\":1,\"eval_us\":5,\
                    \"build_us\":0,\"forward_us\":2}";
        let err = decode_record(line).unwrap_err();
        assert!(err.contains("queue_us"), "{err}");
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"doc_fetch\",\
                    \"url\":\"http://n1.test/a\",\"cache_hit\":true,\"content_version\":true}";
        assert!(decode_record(line).is_err());
    }

    #[test]
    fn legacy_doc_fetch_without_content_version_still_decodes() {
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"doc_fetch\",\
                    \"url\":\"http://n1.test/a\",\"cache_hit\":true}";
        let record = decode_record(line).unwrap();
        assert_eq!(
            record.event,
            TraceEvent::DocFetch {
                url: "http://n1.test/a".into(),
                cache_hit: true,
                content_version: 0,
            }
        );
    }

    #[test]
    fn queryless_hopless_records_round_trip() {
        let record = TraceRecord {
            time_us: 5,
            site: "n1.test".into(),
            query: None,
            hop: None,
            event: TraceEvent::DocFetch {
                url: "http://n1.test/a".into(),
                cache_hit: true,
                content_version: 0,
            },
        };
        let line = encode_record(&record);
        assert!(!line.contains("query_num") && !line.contains("\"hop\""));
        assert_eq!(decode_record(&line).unwrap(), record);
    }

    #[test]
    fn strings_with_quotes_escapes_and_unicode_round_trip() {
        let record = TraceRecord {
            time_us: 1,
            site: "we\"ird\\site\n\u{1}𐀀".into(),
            query: None,
            hop: None,
            event: TraceEvent::LogRewrite {
                node: "näïve <&> \t".into(),
            },
        };
        let line = encode_record(&record);
        assert_eq!(decode_record(&line).unwrap(), record);
    }

    #[test]
    fn parse_accepts_the_subset_and_nothing_else() {
        let doc = parse(" { \"a\" : [ 1 , true , \"x\\u0041\\n\" ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            doc.req::<&[Value]>("a").unwrap(),
            [
                Value::Num(1),
                Value::Bool(true),
                Value::Str("xA\n".to_string())
            ]
        );
        assert_eq!(doc.req::<&Map>("b").unwrap().len(), 0);
        for bad in [
            "",
            "nul",
            "null",
            "-1",
            "1.5",
            "1e3",
            "tru",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "1 2",
            "[1",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(parse("18446744073709551615"), Ok(Value::Num(u64::MAX)));
    }

    #[test]
    fn accessors_check_type_range_and_presence() {
        let doc = parse("{\"n\":65536,\"s\":\"x\",\"big\":4294967297}").unwrap();
        assert_eq!(doc.req::<u32>("n"), Ok(65_536));
        assert_eq!(doc.req::<u16>("n").unwrap_err(), "field \"n\" out of range");
        assert!(doc.req::<u32>("big").unwrap_err().contains("out of range"));
        assert!(doc.req::<u64>("s").is_err() && doc.req::<&str>("n").is_err());
        assert_eq!(doc.opt::<u64>("absent"), Ok(None));
        assert_eq!(doc.or("absent", 7u64), Ok(7));
        assert!(doc.or("s", 7u64).is_err(), "present but mistyped");
        assert!(doc.req::<u64>("absent").unwrap_err().contains("missing"));
        assert!(Value::Num(1).opt::<u64>("n").is_err(), "not an object");
    }

    #[test]
    fn writer_is_canonical_and_escapes_one_way() {
        let doc = parse("{\"b\":[],\"a\":{\"k\":\"q\\\"\\\\\\n\\r\\t\\u0001é\"}}").unwrap();
        assert_eq!(
            write(&doc),
            "{\"a\":{\"k\":\"q\\\"\\\\\\n\\r\\t\\u0001é\"},\"b\":[]}"
        );
        assert_eq!(write(&Value::Obj(Map::new())), "{}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let past_limit = format!("[{at_limit}]");
        assert!(parse(&past_limit).unwrap_err().contains("nested deeper"));
    }

    /// The monitor and chaos readers this module replaced re-validated
    /// the rest of the input once per character: quadratic in a string's
    /// length, on a `/status` body read from a socket.
    #[test]
    fn a_long_string_parses_in_time_linear_in_its_length() {
        // Debug builds are too slow for a wall-clock bound to mean much.
        if cfg!(debug_assertions) {
            return;
        }
        let body = "é\\n".repeat(1 << 18);
        let started = std::time::Instant::now();
        let parsed = parse(&format!("\"{body}\"")).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, Value::Str("é\n".repeat(1 << 18)));
        assert!(elapsed.as_millis() < 1000, "1 MiB string took {elapsed:?}");
    }
}

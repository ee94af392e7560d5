//! `chaos-repro.json`: the replayable encoding of a failing plan.
//!
//! One JSON object holding the plan's seeds and knobs plus a `faults`
//! array of flat objects — everything integers and strings, so the
//! file is diff-friendly and replays bit-identically. Hand-written
//! writer and parser in the same spirit as `webdis-trace`'s JSONL
//! codec: the parser accepts exactly what the writer produces (flat
//! values plus one array of flat objects), not general JSON.

use std::collections::BTreeMap;

use crate::plan::{ChaosPlan, FaultSpec};

/// Format version stamped into every file.
pub const REPRO_VERSION: u64 = 1;

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn field_u64(out: &mut String, key: &str, value: u64) {
    esc(out, key);
    out.push(':');
    out.push_str(&value.to_string());
    out.push(',');
}

fn field_str(out: &mut String, key: &str, value: &str) {
    esc(out, key);
    out.push(':');
    esc(out, value);
    out.push(',');
}

/// Encodes a failing plan (and the violation kind it reproduces, when
/// known) as a `chaos-repro.json` document.
pub fn encode(plan: &ChaosPlan, violation: Option<&str>) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    field_u64(&mut out, "version", REPRO_VERSION);
    if let Some(kind) = violation {
        field_str(&mut out, "violation", kind);
    }
    field_u64(&mut out, "sites", plan.sites as u64);
    field_u64(&mut out, "docs_per_site", plan.docs_per_site as u64);
    field_u64(&mut out, "web_seed", plan.web_seed);
    field_u64(&mut out, "users", plan.users as u64);
    field_u64(&mut out, "queries_per_user", plan.queries_per_user as u64);
    field_u64(&mut out, "interarrival_us", plan.interarrival_us);
    field_u64(&mut out, "workload_seed", plan.workload_seed);
    field_u64(&mut out, "sim_seed", plan.sim_seed);
    field_u64(&mut out, "jitter_us", plan.jitter_us);
    field_u64(&mut out, "horizon_us", plan.horizon_us);
    if let Some(expiry) = plan.expiry_us {
        field_u64(&mut out, "expiry_us", expiry);
    }
    if let Some(budget) = plan.cache_budget_bytes {
        field_u64(&mut out, "cache_budget_bytes", budget);
    }
    // Living-web knobs, written only off their defaults so pre-living
    // repro files stay byte-identical under re-encode.
    if plan.doc_cache_size != 0 {
        field_u64(&mut out, "doc_cache_size", plan.doc_cache_size as u64);
    }
    if !plan.validate_doc_cache {
        field_u64(&mut out, "validate_doc_cache", 0);
    }
    esc(&mut out, "faults");
    out.push_str(":[");
    for (i, fault) in plan.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        field_str(&mut out, "kind", fault.kind());
        match fault {
            FaultSpec::Drop { from, to, rate_ppm }
            | FaultSpec::Dup { from, to, rate_ppm }
            | FaultSpec::Corrupt { from, to, rate_ppm } => {
                field_str(&mut out, "from", from);
                field_str(&mut out, "to", to);
                field_u64(&mut out, "rate_ppm", u64::from(*rate_ppm));
            }
            FaultSpec::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            } => {
                field_u64(&mut out, "start_us", *start_us);
                field_u64(&mut out, "end_us", *end_us);
                field_str(&mut out, "side_a", &side_a.join(";"));
                field_str(&mut out, "side_b", &side_b.join(";"));
            }
            FaultSpec::CrashRestart {
                host,
                port,
                at_us,
                down_us,
            } => {
                field_str(&mut out, "host", host);
                field_u64(&mut out, "port", u64::from(*port));
                field_u64(&mut out, "at_us", *at_us);
                field_u64(&mut out, "down_us", *down_us);
            }
            FaultSpec::Mutation {
                at_us,
                op,
                url,
                arg,
            } => {
                field_u64(&mut out, "at_us", *at_us);
                field_str(&mut out, "op", op);
                field_str(&mut out, "url", url);
                field_str(&mut out, "arg", arg);
            }
        }
        // Drop the trailing comma inside the fault object.
        out.pop();
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// One parsed scalar.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    U64(u64),
    Faults(Vec<BTreeMap<String, Value>>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(c), self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected digits at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }

    /// A flat object: string keys, string/u64 values only.
    fn parse_flat_object(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = match self.peek() {
                Some(b'"') => Value::Str(self.parse_string()?),
                _ => Value::U64(self.parse_u64()?),
            };
            map.insert(key, value);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    /// The top-level object: flat values plus the `faults` array.
    fn parse_document(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = match self.peek() {
                Some(b'"') => Value::Str(self.parse_string()?),
                Some(b'[') => {
                    self.pos += 1;
                    let mut faults = Vec::new();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        loop {
                            faults.push(self.parse_flat_object()?);
                            match self.peek() {
                                Some(b',') => {
                                    self.pos += 1;
                                }
                                Some(b']') => {
                                    self.pos += 1;
                                    break;
                                }
                                other => return Err(format!("expected ',' or ']', got {other:?}")),
                            }
                        }
                    }
                    Value::Faults(faults)
                }
                _ => Value::U64(self.parse_u64()?),
            };
            map.insert(key, value);
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

fn get_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    match map.get(key) {
        Some(Value::U64(v)) => Ok(*v),
        Some(_) => Err(format!("field {key:?} is not an integer")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn get_str(map: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Value::Str(v)) => Ok(v.clone()),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn get_usize(map: &BTreeMap<String, Value>, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(map, key)?).map_err(|_| format!("field {key:?} out of range"))
}

fn sides(joined: &str) -> Vec<String> {
    joined
        .split(';')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Decodes a `chaos-repro.json` document back into the plan and the
/// recorded violation kind (if one was stamped).
pub fn decode(text: &str) -> Result<(ChaosPlan, Option<String>), String> {
    let mut parser = Parser {
        bytes: text.trim().as_bytes(),
        pos: 0,
    };
    let map = parser.parse_document()?;
    let version = get_u64(&map, "version")?;
    if version != REPRO_VERSION {
        return Err(format!("unsupported repro version {version}"));
    }
    let mut faults = Vec::new();
    match map.get("faults") {
        Some(Value::Faults(list)) => {
            for f in list {
                let kind = get_str(f, "kind")?;
                faults.push(match kind.as_str() {
                    "drop" => FaultSpec::Drop {
                        from: get_str(f, "from")?,
                        to: get_str(f, "to")?,
                        rate_ppm: get_u64(f, "rate_ppm")? as u32,
                    },
                    "dup" => FaultSpec::Dup {
                        from: get_str(f, "from")?,
                        to: get_str(f, "to")?,
                        rate_ppm: get_u64(f, "rate_ppm")? as u32,
                    },
                    "corrupt" => FaultSpec::Corrupt {
                        from: get_str(f, "from")?,
                        to: get_str(f, "to")?,
                        rate_ppm: get_u64(f, "rate_ppm")? as u32,
                    },
                    "partition" => FaultSpec::Partition {
                        start_us: get_u64(f, "start_us")?,
                        end_us: get_u64(f, "end_us")?,
                        side_a: sides(&get_str(f, "side_a")?),
                        side_b: sides(&get_str(f, "side_b")?),
                    },
                    "crash_restart" => FaultSpec::CrashRestart {
                        host: get_str(f, "host")?,
                        port: u16::try_from(get_u64(f, "port")?)
                            .map_err(|_| "port out of range".to_string())?,
                        at_us: get_u64(f, "at_us")?,
                        down_us: get_u64(f, "down_us")?,
                    },
                    "mutation" => FaultSpec::Mutation {
                        at_us: get_u64(f, "at_us")?,
                        op: get_str(f, "op")?,
                        url: get_str(f, "url")?,
                        arg: get_str(f, "arg")?,
                    },
                    other => return Err(format!("unknown fault kind {other:?}")),
                });
            }
        }
        Some(_) => return Err("field \"faults\" is not an array".to_string()),
        None => return Err("missing field \"faults\"".to_string()),
    }
    let plan = ChaosPlan {
        sites: get_usize(&map, "sites")?,
        docs_per_site: get_usize(&map, "docs_per_site")?,
        web_seed: get_u64(&map, "web_seed")?,
        users: get_usize(&map, "users")?,
        queries_per_user: get_usize(&map, "queries_per_user")?,
        interarrival_us: get_u64(&map, "interarrival_us")?,
        workload_seed: get_u64(&map, "workload_seed")?,
        sim_seed: get_u64(&map, "sim_seed")?,
        jitter_us: get_u64(&map, "jitter_us")?,
        horizon_us: get_u64(&map, "horizon_us")?,
        expiry_us: match map.get("expiry_us") {
            Some(Value::U64(v)) => Some(*v),
            Some(_) => return Err("field \"expiry_us\" is not an integer".to_string()),
            None => None,
        },
        cache_budget_bytes: match map.get("cache_budget_bytes") {
            Some(Value::U64(v)) => Some(*v),
            Some(_) => return Err("field \"cache_budget_bytes\" is not an integer".to_string()),
            None => None,
        },
        doc_cache_size: match map.get("doc_cache_size") {
            Some(Value::U64(v)) => usize::try_from(*v)
                .map_err(|_| "field \"doc_cache_size\" out of range".to_string())?,
            Some(_) => return Err("field \"doc_cache_size\" is not an integer".to_string()),
            None => 0,
        },
        validate_doc_cache: match map.get("validate_doc_cache") {
            Some(Value::U64(v)) => *v != 0,
            Some(_) => return Err("field \"validate_doc_cache\" is not an integer".to_string()),
            None => true,
        },
        faults,
    };
    let violation = match map.get("violation") {
        Some(Value::Str(v)) => Some(v.clone()),
        _ => None,
    };
    Ok((plan, violation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FaultScheduleGen;
    use crate::plan::ANY_HOST;

    #[test]
    fn round_trips_every_fault_kind() {
        let plan = ChaosPlan {
            expiry_us: Some(123_456),
            faults: vec![
                FaultSpec::Drop {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 100_000,
                },
                FaultSpec::Dup {
                    from: "user0.load.test".into(),
                    to: "wdqs.site1.test".into(),
                    rate_ppm: 1_000_000,
                },
                FaultSpec::Corrupt {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 5,
                },
                FaultSpec::Partition {
                    start_us: 10,
                    end_us: 20,
                    side_a: vec!["wdqs.site0.test".into()],
                    side_b: vec!["wdqs.site1.test".into(), "wdqs.site2.test".into()],
                },
                FaultSpec::CrashRestart {
                    host: "wdqs.site2.test".into(),
                    port: 80,
                    at_us: 1_000,
                    down_us: 2_000,
                },
            ],
            ..ChaosPlan::default()
        };
        let text = encode(&plan, Some("hang"));
        let (back, violation) = decode(&text).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(violation.as_deref(), Some("hang"));
    }

    #[test]
    fn expiry_none_round_trips_as_absent_field() {
        let plan = ChaosPlan {
            expiry_us: None,
            ..ChaosPlan::default()
        };
        let text = encode(&plan, None);
        assert!(!text.contains("expiry_us"));
        let (back, violation) = decode(&text).expect("round trip");
        assert_eq!(back.expiry_us, None);
        assert_eq!(violation, None);
    }

    #[test]
    fn generated_plans_round_trip() {
        let g = FaultScheduleGen::new(99);
        for i in 0..25 {
            let plan = g.plan(i);
            let (back, _) = decode(&encode(&plan, None)).expect("round trip");
            assert_eq!(back, plan, "plan {i}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"version\":99,\"faults\":[]}").is_err());
        assert!(decode("{\"version\":1,\"faults\":[{\"kind\":\"nope\"}]}").is_err());
    }
}

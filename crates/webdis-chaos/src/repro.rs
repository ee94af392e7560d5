//! `chaos-repro.json`: the replayable encoding of a failing plan.
//!
//! One JSON object holding the plan's seeds and knobs plus a `faults`
//! array of flat objects — everything integers and strings, so the
//! file is diff-friendly and replays bit-identically. Written and read
//! through the workspace's one JSON module (`webdis_trace::json`); the
//! key order below is part of the file's bytes.

use webdis_trace::json::{self, ObjWriter, ToJson, Value};

use crate::plan::{ChaosPlan, FaultSpec};

/// Format version stamped into every file.
pub const REPRO_VERSION: u64 = 1;

impl ToJson for FaultSpec {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjWriter::new(out);
        obj.field("kind", self.kind());
        match self {
            FaultSpec::Drop { from, to, rate_ppm }
            | FaultSpec::Dup { from, to, rate_ppm }
            | FaultSpec::Corrupt { from, to, rate_ppm } => {
                obj.field("from", from)
                    .field("to", to)
                    .field("rate_ppm", rate_ppm);
            }
            FaultSpec::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            } => {
                obj.field("start_us", start_us)
                    .field("end_us", end_us)
                    .field("side_a", &side_a.join(";"))
                    .field("side_b", &side_b.join(";"));
            }
            FaultSpec::CrashRestart {
                host,
                port,
                at_us,
                down_us,
            } => {
                obj.field("host", host)
                    .field("port", port)
                    .field("at_us", at_us)
                    .field("down_us", down_us);
            }
            FaultSpec::Mutation {
                at_us,
                op,
                url,
                arg,
            } => {
                obj.field("at_us", at_us)
                    .field("op", op)
                    .field("url", url)
                    .field("arg", arg);
            }
        }
        obj.end();
    }
}

/// Encodes a failing plan (and the violation kind it reproduces, when
/// known) as a `chaos-repro.json` document.
pub fn encode(plan: &ChaosPlan, violation: Option<&str>) -> String {
    let mut out = String::with_capacity(512);
    let mut obj = ObjWriter::new(&mut out);
    obj.field("version", &REPRO_VERSION);
    if let Some(kind) = violation {
        obj.field("violation", kind);
    }
    obj.field("sites", &plan.sites)
        .field("docs_per_site", &plan.docs_per_site)
        .field("web_seed", &plan.web_seed)
        .field("users", &plan.users)
        .field("queries_per_user", &plan.queries_per_user)
        .field("interarrival_us", &plan.interarrival_us)
        .field("workload_seed", &plan.workload_seed)
        .field("sim_seed", &plan.sim_seed)
        .field("jitter_us", &plan.jitter_us)
        .field("horizon_us", &plan.horizon_us);
    if let Some(expiry) = &plan.expiry_us {
        obj.field("expiry_us", expiry);
    }
    if let Some(budget) = &plan.cache_budget_bytes {
        obj.field("cache_budget_bytes", budget);
    }
    // Living-web knobs, written only off their defaults so pre-living
    // repro files stay byte-identical under re-encode.
    if plan.doc_cache_size != 0 {
        obj.field("doc_cache_size", &plan.doc_cache_size);
    }
    if !plan.validate_doc_cache {
        obj.field("validate_doc_cache", &0u64);
    }
    obj.field("faults", &plan.faults[..]);
    obj.end();
    out
}

fn sides(joined: &str) -> Vec<String> {
    joined
        .split(';')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn decode_fault(f: &Value) -> Result<FaultSpec, String> {
    Ok(match f.req::<&str>("kind")? {
        "drop" => FaultSpec::Drop {
            from: f.req("from")?,
            to: f.req("to")?,
            rate_ppm: f.req("rate_ppm")?,
        },
        "dup" => FaultSpec::Dup {
            from: f.req("from")?,
            to: f.req("to")?,
            rate_ppm: f.req("rate_ppm")?,
        },
        "corrupt" => FaultSpec::Corrupt {
            from: f.req("from")?,
            to: f.req("to")?,
            rate_ppm: f.req("rate_ppm")?,
        },
        "partition" => FaultSpec::Partition {
            start_us: f.req("start_us")?,
            end_us: f.req("end_us")?,
            side_a: sides(f.req("side_a")?),
            side_b: sides(f.req("side_b")?),
        },
        "crash_restart" => FaultSpec::CrashRestart {
            host: f.req("host")?,
            port: f.req("port")?,
            at_us: f.req("at_us")?,
            down_us: f.req("down_us")?,
        },
        "mutation" => FaultSpec::Mutation {
            at_us: f.req("at_us")?,
            op: f.req("op")?,
            url: f.req("url")?,
            arg: f.req("arg")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    })
}

/// Decodes a `chaos-repro.json` document back into the plan and the
/// recorded violation kind (if one was stamped).
pub fn decode(text: &str) -> Result<(ChaosPlan, Option<String>), String> {
    let doc = json::parse(text)?;
    let version: u64 = doc.req("version")?;
    if version != REPRO_VERSION {
        return Err(format!("unsupported repro version {version}"));
    }
    let plan = ChaosPlan {
        sites: doc.req("sites")?,
        docs_per_site: doc.req("docs_per_site")?,
        web_seed: doc.req("web_seed")?,
        users: doc.req("users")?,
        queries_per_user: doc.req("queries_per_user")?,
        interarrival_us: doc.req("interarrival_us")?,
        workload_seed: doc.req("workload_seed")?,
        sim_seed: doc.req("sim_seed")?,
        jitter_us: doc.req("jitter_us")?,
        horizon_us: doc.req("horizon_us")?,
        expiry_us: doc.opt("expiry_us")?,
        cache_budget_bytes: doc.opt("cache_budget_bytes")?,
        doc_cache_size: doc.or("doc_cache_size", 0)?,
        validate_doc_cache: doc.or("validate_doc_cache", 1u64)? != 0,
        faults: doc
            .req::<&[Value]>("faults")?
            .iter()
            .map(decode_fault)
            .collect::<Result<_, _>>()?,
    };
    Ok((plan, doc.opt("violation")?))
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
    fn out_of_range_rate_is_an_error_not_a_truncation() {
        // `as u32` used to replay a rate_ppm of 2^32 + 1 as 1.
        for kind in ["drop", "dup", "corrupt"] {
            let plan = ChaosPlan {
                faults: vec![FaultSpec::Drop {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 7,
                }],
                ..ChaosPlan::default()
            };
            let text = encode(&plan, None)
                .replace("\"drop\"", &format!("{kind:?}"))
                .replace("\"rate_ppm\":7", "\"rate_ppm\":4294967297");
            let err = decode(&text).unwrap_err();
            assert!(
                err.contains("rate_ppm") && err.contains("out of range"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_repro_written_before_the_shared_module_re_encodes_to_the_same_bytes() {
        // Written by the hand-rolled encoder this module replaced: every
        // fault kind, every optional knob, every escape.
        let text = r#"{"version":1,"violation":"hang","sites":4,"docs_per_site":2,"web_seed":1,"users":1,"queries_per_user":2,"interarrival_us":50000,"workload_seed":1,"sim_seed":1,"jitter_us":0,"horizon_us":60000000,"expiry_us":123456,"cache_budget_bytes":4096,"doc_cache_size":3,"validate_doc_cache":0,"faults":[{"kind":"drop","from":"*","to":"*","rate_ppm":100000},{"kind":"dup","from":"user0.load.test","to":"wdqs.site1.test","rate_ppm":1000000},{"kind":"corrupt","from":"*","to":"*","rate_ppm":5},{"kind":"partition","start_us":10,"end_us":20,"side_a":"wdqs.site0.test","side_b":"wdqs.site1.test;wdqs.site2.test"},{"kind":"crash_restart","host":"wdqs.site2.test","port":80,"at_us":1000,"down_us":2000},{"kind":"mutation","at_us":77,"op":"edit_page","url":"http://site0.test/a \"q\"\\\n\t\u0001é","arg":"x"}]}"#;
        let (plan, violation) = decode(text).expect("decodes");
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(encode(&plan, violation.as_deref()), text);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"version\":99,\"faults\":[]}").is_err());
        assert!(decode("{\"version\":1,\"faults\":[{\"kind\":\"nope\"}]}").is_err());
    }
}

//! `chaos-repro.json`: the replayable encoding of a failing plan.
//!
//! One JSON object holding the plan's seeds and knobs plus a `faults`
//! array of flat objects — everything integers and strings, so the
//! file is diff-friendly and replays bit-identically: a rate is written
//! in parts per million, a uniform rate's link as `"*"` to `"*"`, a
//! mutation as its op label, primary URL and one string argument. Written
//! and read through the workspace's one JSON module
//! (`webdis_trace::json`); the key order below is part of the file's
//! bytes. Decoding refuses what the runtimes could not run, naming the
//! field.

use webdis_model::{SiteAddr, Url};
use webdis_sim::{Fault, FaultKind};
use webdis_trace::json::{self, ObjWriter, ToJson, Value};
use webdis_web::{Mutation, MutationOp};

use crate::plan::{ChaosFault, ChaosPlan};

/// Format version stamped into every file.
pub const REPRO_VERSION: u64 = 1;

/// Both ends of a uniform rate fault's link in the file.
const ANY_HOST: &str = "*";

/// A rate of one, in the file's parts per million.
const PPM: u32 = 1_000_000;

/// The label of an anchor an `add_anchor` mutation grafts (the file
/// carries only its target).
const ANCHOR_LABEL: &str = "chaos link";

/// The doc cache's version check was once a switch, written as `0` when
/// off. A file that names it was recorded against an engine that could
/// serve a superseded build, so decoding refuses it.
const REMOVED_SWITCH: &str = "validate_doc_cache";

impl ToJson for ChaosFault {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjWriter::new(out);
        obj.field("kind", self.kind());
        match self {
            ChaosFault::Net(Fault::Rate { link, rate, .. }) => {
                let (from, to) = match link {
                    Some((from, to)) => (from.as_str(), to.as_str()),
                    None => (ANY_HOST, ANY_HOST),
                };
                let rate_ppm = (rate * f64::from(PPM)).round() as u32;
                obj.field("from", from)
                    .field("to", to)
                    .field("rate_ppm", &rate_ppm);
            }
            ChaosFault::Net(Fault::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            }) => {
                obj.field("start_us", start_us)
                    .field("end_us", end_us)
                    .field("side_a", &side_a.join(";"))
                    .field("side_b", &side_b.join(";"));
            }
            ChaosFault::Net(Fault::Crash {
                site,
                at_us,
                down_us,
            }) => {
                obj.field("host", &*site.host)
                    .field("port", &site.port)
                    .field("at_us", at_us);
                if let Some(down_us) = down_us {
                    obj.field("down_us", down_us);
                }
            }
            ChaosFault::Web(Mutation { at_us, op }) => {
                let arg = match op {
                    MutationOp::EditPage { token: arg, .. }
                    | MutationOp::CreatePage { title: arg, .. } => arg.clone(),
                    MutationOp::AddAnchor { href, .. } => href.to_string(),
                    _ => String::new(),
                };
                obj.field("at_us", at_us)
                    .field("op", op.label())
                    .field("url", &op.url_string())
                    .field("arg", &arg);
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
    // The living-web knob, written only off its default so pre-living
    // repro files stay byte-identical under re-encode.
    if plan.doc_cache_size != 0 {
        obj.field("doc_cache_size", &plan.doc_cache_size);
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

fn decode_rate(f: &Value, kind: FaultKind) -> Result<Fault, String> {
    let (from, to): (&str, &str) = (f.req("from")?, f.req("to")?);
    let rate_ppm: u32 = f.req("rate_ppm")?;
    if rate_ppm > PPM {
        return Err(format!("field \"rate_ppm\" {rate_ppm} is above {PPM}"));
    }
    let fault = Fault::rate(kind, f64::from(rate_ppm) / f64::from(PPM));
    Ok(match (from, to) {
        (ANY_HOST, ANY_HOST) => fault,
        _ => fault.on(from, to),
    })
}

fn decode_mutation(f: &Value) -> Result<Mutation, String> {
    let url = |key: &str| -> Result<Url, String> {
        Url::parse(f.req(key)?).map_err(|e| format!("field {key:?} does not parse: {e}"))
    };
    let arg = || f.req::<String>("arg");
    let op = match f.req::<&str>("op")? {
        "edit_page" => MutationOp::EditPage {
            url: url("url")?,
            token: arg()?,
        },
        "create_page" => MutationOp::CreatePage {
            url: url("url")?,
            title: arg()?,
        },
        "delete_page" => MutationOp::DeletePage { url: url("url")? },
        "add_anchor" => MutationOp::AddAnchor {
            url: url("url")?,
            href: url("arg")?,
            label: ANCHOR_LABEL.to_owned(),
        },
        "remove_anchor" => MutationOp::RemoveAnchor { url: url("url")? },
        "site_leave" => MutationOp::SiteLeave {
            host: url("url")?.host().to_owned(),
        },
        "site_join" => MutationOp::SiteJoin {
            host: url("url")?.host().to_owned(),
        },
        other => return Err(format!("field \"op\" {other:?} is not a mutation op")),
    };
    let at_us = f.req("at_us")?;
    Ok(Mutation { at_us, op })
}

fn decode_fault(f: &Value) -> Result<ChaosFault, String> {
    Ok(match f.req::<&str>("kind")? {
        "drop" => decode_rate(f, FaultKind::Drop)?.into(),
        "dup" => decode_rate(f, FaultKind::Dup)?.into(),
        "corrupt" => decode_rate(f, FaultKind::Corrupt)?.into(),
        "partition" => Fault::Partition {
            start_us: f.req("start_us")?,
            end_us: f.req("end_us")?,
            side_a: sides(f.req("side_a")?),
            side_b: sides(f.req("side_b")?),
        }
        .into(),
        "crash_restart" => Fault::Crash {
            site: SiteAddr {
                host: f.req::<&str>("host")?.into(),
                port: f.req("port")?,
            },
            at_us: f.req("at_us")?,
            down_us: f.opt("down_us")?,
        }
        .into(),
        "mutation" => decode_mutation(f)?.into(),
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
    if matches!(&doc, Value::Obj(map) if map.contains_key(REMOVED_SWITCH)) {
        return Err(format!(
            "field {REMOVED_SWITCH:?} names a removed switch: every doc-cache hit now \
             checks the document's version, so this file would replay another program"
        ));
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

    fn crash(down_us: Option<u64>) -> ChaosFault {
        let site = SiteAddr {
            host: "wdqs.site2.test".into(),
            port: 80,
        };
        let at_us = 1_000;
        Fault::Crash {
            site,
            at_us,
            down_us,
        }
        .into()
    }

    fn mutation(op: MutationOp) -> ChaosFault {
        Mutation { at_us: 77, op }.into()
    }

    #[test]
    fn round_trips_every_fault_kind() {
        let url = |u| Url::parse(u).unwrap();
        let plan = ChaosPlan {
            expiry_us: Some(123_456),
            faults: vec![
                Fault::rate(FaultKind::Drop, 0.1).into(),
                Fault::rate(FaultKind::Dup, 1.0)
                    .on("user0.load.test", "wdqs.site1.test")
                    .into(),
                Fault::rate(FaultKind::Corrupt, 0.000_005).into(),
                Fault::Partition {
                    start_us: 10,
                    end_us: 20,
                    side_a: vec!["wdqs.site0.test".into()],
                    side_b: vec!["wdqs.site1.test".into(), "wdqs.site2.test".into()],
                }
                .into(),
                crash(Some(2_000)),
                crash(None),
                mutation(MutationOp::AddAnchor {
                    url: url("http://site0.test/doc0.html"),
                    href: url("http://site1.test/doc1.html"),
                    label: ANCHOR_LABEL.into(),
                }),
                mutation(MutationOp::SiteLeave {
                    host: "site1.test".into(),
                }),
                mutation(MutationOp::RemoveAnchor {
                    url: url("http://site0.test/doc0.html"),
                }),
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

    /// `plan` encoded, with `from` replaced by `to` in the text.
    fn edited(plan: &ChaosPlan, from: &str, to: &str) -> String {
        let text = encode(plan, None);
        assert!(text.contains(from), "{text}");
        text.replace(from, to)
    }

    fn one_fault(fault: ChaosFault) -> ChaosPlan {
        ChaosPlan {
            faults: vec![fault],
            ..ChaosPlan::default()
        }
    }

    #[test]
    fn out_of_range_rate_is_an_error_not_a_truncation() {
        // `as u32` used to replay a rate_ppm of 2^32 + 1 as 1.
        for kind in [FaultKind::Drop, FaultKind::Dup, FaultKind::Corrupt] {
            let plan = one_fault(Fault::rate(kind, 0.000_007).into());
            let text = edited(&plan, "\"rate_ppm\":7", "\"rate_ppm\":4294967297");
            let err = decode(&text).unwrap_err();
            assert!(
                err.contains("rate_ppm") && err.contains("out of range"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_rate_above_one_is_refused_not_clamped() {
        let plan = one_fault(Fault::rate(FaultKind::Drop, 1.0).into());
        let text = edited(&plan, "\"rate_ppm\":1000000", "\"rate_ppm\":1000001");
        let err = decode(&text).unwrap_err();
        assert!(err.contains("\"rate_ppm\" 1000001 is above"), "{err}");
    }

    fn edit_page(url: &str) -> ChaosFault {
        let url = Url::parse(url).unwrap();
        let token = "x".into();
        mutation(MutationOp::EditPage { url, token })
    }

    #[test]
    fn an_unknown_mutation_op_is_refused() {
        let plan = one_fault(edit_page("http://site0.test/"));
        let text = edited(&plan, "\"edit_page\"", "\"rename_page\"");
        let err = decode(&text).unwrap_err();
        assert!(err.contains("\"op\" \"rename_page\""), "{err}");
    }

    #[test]
    fn an_unparsable_mutation_url_is_refused() {
        let plan = one_fault(edit_page("http://site0.test/"));
        let text = edited(&plan, "http://site0.test/", "http://:8080/");
        let err = decode(&text).unwrap_err();
        assert!(err.contains("field \"url\" does not parse"), "{err}");
    }

    #[test]
    fn an_unparsable_anchor_target_is_refused() {
        let url = Url::parse("http://site0.test/").unwrap();
        let href = Url::parse("http://site1.test/").unwrap();
        let label = ANCHOR_LABEL.into();
        let plan = one_fault(mutation(MutationOp::AddAnchor { url, href, label }));
        let text = edited(&plan, "http://site1.test/", "ftp://site1.test/");
        let err = decode(&text).unwrap_err();
        assert!(err.contains("field \"arg\" does not parse"), "{err}");
    }

    #[test]
    fn a_repro_written_before_the_shared_module_re_encodes_to_the_same_bytes() {
        // Written by the hand-rolled encoder this module replaced: every
        // fault kind, every optional knob, every escape.
        let text = r#"{"version":1,"violation":"hang","sites":4,"docs_per_site":2,"web_seed":1,"users":1,"queries_per_user":2,"interarrival_us":50000,"workload_seed":1,"sim_seed":1,"jitter_us":0,"horizon_us":60000000,"expiry_us":123456,"cache_budget_bytes":4096,"doc_cache_size":3,"faults":[{"kind":"drop","from":"*","to":"*","rate_ppm":100000},{"kind":"dup","from":"user0.load.test","to":"wdqs.site1.test","rate_ppm":1000000},{"kind":"corrupt","from":"*","to":"*","rate_ppm":5},{"kind":"partition","start_us":10,"end_us":20,"side_a":"wdqs.site0.test","side_b":"wdqs.site1.test;wdqs.site2.test"},{"kind":"crash_restart","host":"wdqs.site2.test","port":80,"at_us":1000,"down_us":2000},{"kind":"mutation","at_us":77,"op":"edit_page","url":"http://site0.test/a \"q\"\\\n\t\u0001é","arg":"x"}]}"#;
        let (plan, violation) = decode(text).expect("decodes");
        assert_eq!(plan.faults.len(), 6);
        assert_eq!(encode(&plan, violation.as_deref()), text);
    }

    #[test]
    fn a_repro_that_sets_the_removed_cache_switch_is_refused() {
        let plan = ChaosPlan {
            doc_cache_size: 8,
            ..ChaosPlan::default()
        };
        let text = edited(&plan, "\"faults\"", "\"validate_doc_cache\":0,\"faults\"");
        let err = decode(&text).unwrap_err();
        assert!(
            err.contains("\"validate_doc_cache\" names a removed switch"),
            "{err}"
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"version\":99,\"faults\":[]}").is_err());
        assert!(decode("{\"version\":1,\"faults\":[{\"kind\":\"nope\"}]}").is_err());
    }
}

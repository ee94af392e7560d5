//! The `/status` snapshot: in-flight queries and active alerts at one
//! instant, with a JSON round-trip so `webdis-doctor --live` can poll
//! a daemon's admin socket and render the decoded structure.

use webdis_trace::json::{self, ObjWriter, ToJson, Value};

/// One in-flight (admitted, not yet terminated) query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InflightStatus {
    /// Login name at the user-site.
    pub user: String,
    /// User-site host.
    pub host: String,
    /// User-site result port.
    pub port: u16,
    /// Locally unique query number.
    pub query_num: u64,
    /// Admission timestamp, µs.
    pub submitted_us: u64,
    /// `now - submitted`, µs.
    pub age_us: u64,
    /// The site a clone was most recently seen at.
    pub site: String,
    /// The deepest pipeline stage any clone has reached.
    pub stage: u32,
    /// The deepest hop count any clone has reached.
    pub hops: u32,
    /// Clone arrivals recorded for this query.
    pub clones_recv: u64,
    /// Total clone fan-out (successor forwards) so far.
    pub fanout: u64,
}

/// A point-in-time view of the monitor, served as JSON on `/status`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusSnapshot {
    /// The timestamp the snapshot was taken at, µs.
    pub now_us: u64,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Queries admitted so far.
    pub admitted: u64,
    /// Queries retired (terminated for any reason) so far.
    pub retired: u64,
    /// Names of rules currently firing, in rule order.
    pub active_alerts: Vec<String>,
    /// In-flight queries, ordered by (user, host, port, query_num).
    pub inflight: Vec<InflightStatus>,
}

impl ToJson for InflightStatus {
    fn write_json(&self, out: &mut String) {
        ObjWriter::new(out)
            .field("user", &self.user)
            .field("host", &self.host)
            .field("port", &self.port)
            .field("query_num", &self.query_num)
            .field("submitted_us", &self.submitted_us)
            .field("age_us", &self.age_us)
            .field("site", &self.site)
            .field("stage", &self.stage)
            .field("hops", &self.hops)
            .field("clones_recv", &self.clones_recv)
            .field("fanout", &self.fanout)
            .end();
    }
}

impl InflightStatus {
    fn from_value(q: &Value) -> Result<InflightStatus, String> {
        Ok(InflightStatus {
            user: q.or("user", String::new())?,
            host: q.or("host", String::new())?,
            port: q.or("port", 0)?,
            query_num: q.or("query_num", 0)?,
            submitted_us: q.or("submitted_us", 0)?,
            age_us: q.or("age_us", 0)?,
            site: q.or("site", String::new())?,
            stage: q.or("stage", 0)?,
            hops: q.or("hops", 0)?,
            clones_recv: q.or("clones_recv", 0)?,
            fanout: q.or("fanout", 0)?,
        })
    }
}

impl StatusSnapshot {
    /// Renders the snapshot as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        ObjWriter::new(&mut out)
            .field("now_us", &self.now_us)
            .field("windows_closed", &self.windows_closed)
            .field("admitted", &self.admitted)
            .field("retired", &self.retired)
            .field("active_alerts", &self.active_alerts[..])
            .field("inflight", &self.inflight[..])
            .end();
        out
    }

    /// Parses a snapshot back from its JSON form. Tolerates unknown
    /// keys (ignored), so older doctors keep working against newer
    /// daemons; missing keys default to zero/empty. A known key of the
    /// wrong type, or a number too large for its field, is an error.
    pub fn from_json(text: &str) -> Result<StatusSnapshot, String> {
        let snap = json::parse(text)?;
        Ok(StatusSnapshot {
            now_us: snap.or("now_us", 0)?,
            windows_closed: snap.or("windows_closed", 0)?,
            admitted: snap.or("admitted", 0)?,
            retired: snap.or("retired", 0)?,
            active_alerts: snap.or("active_alerts", Vec::new())?,
            inflight: snap
                .or::<&[Value]>("inflight", &[])?
                .iter()
                .map(InflightStatus::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusSnapshot {
        StatusSnapshot {
            now_us: 1_234_567,
            windows_closed: 12,
            admitted: 9,
            retired: 7,
            active_alerts: vec!["shed_rate_burn".into()],
            inflight: vec![
                InflightStatus {
                    user: "alice".into(),
                    host: "user.test".into(),
                    port: 9900,
                    query_num: 3,
                    submitted_us: 1_000_000,
                    age_us: 234_567,
                    site: "site2.test".into(),
                    stage: 4,
                    hops: 2,
                    clones_recv: 5,
                    fanout: 3,
                },
                InflightStatus {
                    user: "bob \"q\"".into(),
                    host: "user.test".into(),
                    port: 9901,
                    query_num: 1,
                    submitted_us: 1_100_000,
                    age_us: 134_567,
                    site: "site1.test".into(),
                    stage: 1,
                    hops: 1,
                    clones_recv: 1,
                    fanout: 0,
                },
            ],
        }
    }

    #[test]
    fn status_json_round_trips() {
        let snap = sample();
        let json = snap.to_json();
        let back = StatusSnapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn parser_tolerates_unknown_keys_and_whitespace() {
        let json = r#" { "now_us" : 5 , "future_field" : { "a" : [ 1 , "x" ] } ,
                        "admitted" : 2 , "inflight" : [ ] } "#;
        let snap = StatusSnapshot::from_json(json).expect("parse");
        assert_eq!(snap.now_us, 5);
        assert_eq!(snap.admitted, 2);
        assert!(snap.inflight.is_empty());
    }

    #[test]
    fn out_of_range_and_mistyped_fields_are_errors_not_truncations() {
        // `as u16` used to read port 65537 back as 1.
        let narrow = |field: &str, value: &str| {
            StatusSnapshot::from_json(&format!("{{\"inflight\":[{{\"{field}\":{value}}}]}}"))
        };
        for (field, value) in [
            ("port", "65537"),
            ("stage", "4294967297"),
            ("hops", "4294967297"),
        ] {
            let err = narrow(field, value).unwrap_err();
            assert!(err.contains(field) && err.contains("out of range"), "{err}");
        }
        assert_eq!(narrow("port", "65535").unwrap().inflight[0].port, 65_535);
        assert!(narrow("user", "7").is_err());
        assert!(StatusSnapshot::from_json("[]").is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(StatusSnapshot::from_json("not json").is_err());
        assert!(StatusSnapshot::from_json("{\"now_us\":}").is_err());
    }
}

//! The WEBDIS message set.

use std::fmt;
use std::sync::Arc;

use bytes::BufMut;
use webdis_disql::Stage;
use webdis_model::{SiteAddr, Url};
use webdis_pre::Pre;
use webdis_rel::ResultRow;

use crate::wire::{Wire, WireError};

/// The globally unique identity of a web-query, carried by every message
/// (Section 4.1): who asked, where results go, and a locally unique number.
/// The strings are shared, so the copy every message, log key and trace
/// record holds is a counter bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId {
    /// Login name of the user at the user-site.
    pub user: Arc<str>,
    /// Host of the user-site (where the result listener runs).
    pub host: Arc<str>,
    /// Port of the user-site's listening result socket.
    pub port: u16,
    /// Locally unique query number at the user-site.
    pub query_num: u64,
}

impl QueryId {
    /// The network address results are returned to.
    pub fn reply_to(&self) -> SiteAddr {
        SiteAddr {
            host: self.host.clone(),
            port: self.port,
        }
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}:{}/#{}",
            self.user, self.host, self.port, self.query_num
        )
    }
}

/// The processing state of a clone (Section 2.7.1): how many node-queries
/// remain, and the remaining part of the current PRE. This is everything
/// the CHT and the log table need — "only the number is required, not the
/// details of the queries".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CloneState {
    /// Node-queries yet to be processed (including the current one).
    pub num_q: u32,
    /// Remaining PRE before the next node-query can be evaluated.
    pub rem_pre: Pre,
}

impl fmt::Display for CloneState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.num_q, self.rem_pre)
    }
}

/// One entry of the Current Hosts Table: a node that is (supposed to be)
/// hosting a clone, with the clone's state on arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChtEntry {
    /// The destination node.
    pub node: Url,
    /// The clone's state as it will arrive there.
    pub state: CloneState,
}

/// A web-query clone in flight between sites. One clone message covers all
/// destination nodes on the same site (optimization 4 of Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryClone {
    /// Query identity (also tells the server where to send results).
    pub id: QueryId,
    /// Destination nodes, all on the receiving site.
    pub dest_nodes: Vec<Url>,
    /// Remaining PRE of the current stage, already rewritten to reflect
    /// the traversal to these destinations.
    pub rem_pre: Pre,
    /// The remaining stages: `stages[0]` holds the current node-query,
    /// later entries the node-queries still ahead. Shared by every clone
    /// forwarded within the same stage; on the wire, a plain list.
    pub stages: Arc<[Stage]>,
    /// Index of `stages[0]` in the original query (for labeling results).
    pub stage_offset: u32,
    /// Sites traversed so far — a safety valve: servers drop clones whose
    /// hop count exceeds the engine's configured maximum, which bounds
    /// runaway traversal when the log table is disabled for ablation.
    pub hops: u32,
    /// Host to acknowledge under ack-chain completion (the sender's query
    /// endpoint, or the user site for StartNode clones). Unused — but
    /// still carried — under CHT completion.
    pub ack_host: Arc<str>,
    /// Port companion of [`QueryClone::ack_host`].
    pub ack_port: u16,
}

impl QueryClone {
    /// The clone's CHT/log-table state.
    pub fn state(&self) -> CloneState {
        CloneState {
            num_q: self.stages.len() as u32,
            rem_pre: self.rem_pre.clone(),
        }
    }

    /// Where this clone must be acknowledged (ack-chain completion).
    pub fn ack_to(&self) -> SiteAddr {
        SiteAddr {
            host: self.ack_host.clone(),
            port: self.ack_port,
        }
    }
}

/// How a query server disposed of a clone at one node — the protocol only
/// needs the CHT bookkeeping, but dispositions drive the figure traces and
/// the experiment counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// ServerRouter: node-query evaluated, answers found (results attached).
    Answered,
    /// PureRouter: no node-query due here; only forwarded.
    PureRouted,
    /// Node-query evaluated but found no answer, or no matching links:
    /// traversal stops here.
    DeadEnd,
    /// The log table recognized an equivalent earlier clone; dropped.
    Duplicate,
    /// The log table recognized a superset arrival; the PRE was rewritten
    /// and the node acted as a PureRouter (Section 3.1.1, m > n case).
    Rewritten,
    /// The destination site runs no query server (Section 7.1): the
    /// forwarding server hands the nodes back to the user site, which
    /// processes them centrally (hybrid mode) or records them as dead
    /// ends (pure distributed mode).
    Handoff,
    /// The server refused the clone under admission control (its
    /// per-site in-flight query limit was reached) and shed the load:
    /// the node was not processed, and the report exists solely so the
    /// user site can clear its CHT entry instead of hanging.
    Shed,
    /// The destination page existed but was deleted before the clone
    /// arrived (the web changed under the query — link rot): traversal
    /// stops here gracefully, and the report clears the CHT entry so
    /// the query terminates instead of hanging on a dead link.
    DeadLink,
}

impl Disposition {
    /// Short label used in traces.
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Answered => "answered",
            Disposition::PureRouted => "pure-routed",
            Disposition::DeadEnd => "dead-end",
            Disposition::Duplicate => "duplicate-dropped",
            Disposition::Rewritten => "rewritten",
            Disposition::Handoff => "handoff",
            Disposition::Shed => "shed",
            Disposition::DeadLink => "dead-link",
        }
    }
}

/// Result rows of one node-query evaluation, labeled with the global
/// stage index. A single arrival can answer several stages at the same
/// node (Figure 1's node 4 "acts twice") when the follow-on PRE contains
/// the null link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRows {
    /// Global index of the evaluated node-query.
    pub stage: u32,
    /// The projected rows.
    pub rows: Vec<ResultRow>,
}

/// The outcome of processing one destination node, shipped back to the
/// user-site: the CHT entry to mark deleted (this node + arrival state,
/// the "topmost entry"), the new CHT entries for the clones about to be
/// forwarded, and any local results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The node that was processed.
    pub node: Url,
    /// The clone state it was processed in (identifies the CHT entry).
    pub state: CloneState,
    /// What happened.
    pub disposition: Disposition,
    /// Results per evaluated stage, in evaluation order.
    pub results: Vec<StageRows>,
    /// CHT entries for every clone this node causes to be forwarded.
    pub new_entries: Vec<ChtEntry>,
}

impl NodeReport {
    /// A report that only clears its CHT entry: no rows, no forwards
    /// (duplicates, dead ends, dead links, shed and handed-off nodes).
    pub fn empty(node: Url, state: CloneState, disposition: Disposition) -> NodeReport {
        NodeReport {
            node,
            state,
            disposition,
            results: Vec::new(),
            new_entries: Vec::new(),
        }
    }
}

/// Results + CHT updates for every node of a clone, shipped together
/// (optimization 3 of Section 3.2) directly to the user-site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultReport {
    /// The query this report belongs to.
    pub id: QueryId,
    /// Host of the site that produced this report. Together with `seq`
    /// this identifies the report itself (not its content): the user
    /// site dedupes on `(origin, seq)` so a report delivered twice by
    /// the network merges its rows and CHT updates exactly once.
    pub origin: Arc<str>,
    /// Per-origin report sequence number, strictly increasing across a
    /// sender's lifetime *including restarts* (senders derive it from
    /// their clock, so a respawned daemon never reuses a live number).
    /// `0` means untracked: such reports bypass deduplication —
    /// locally synthesized reports that never cross the network use it.
    pub seq: u64,
    /// One report per destination node processed at this site.
    pub reports: Vec<NodeReport>,
}

/// A Dijkstra–Scholten acknowledgement (ack-chain completion mode): the
/// receiver's subtree of the query's spawn tree has fully terminated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckMsg {
    /// The query being acknowledged.
    pub id: QueryId,
}

/// Whole-document fetch (data-shipping baseline only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRequest {
    /// The document to download.
    pub url: Url,
    /// Host of the requester (where the reply goes).
    pub reply_host: Arc<str>,
    /// Port of the requester's endpoint.
    pub reply_port: u16,
}

impl FetchRequest {
    /// The address the server replies to.
    pub fn reply_to(&self) -> SiteAddr {
        SiteAddr {
            host: self.reply_host.clone(),
            port: self.reply_port,
        }
    }
}

/// Response to a [`FetchRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResponse {
    /// The requested document.
    pub url: Url,
    /// Raw HTML, or `None` when the document does not exist.
    pub html: Option<String>,
}

/// Every message that crosses the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Query clone forwarded to a query server.
    Query(QueryClone),
    /// Results + CHT updates sent to the user-site.
    Report(ResultReport),
    /// Subtree-termination acknowledgement (ack-chain completion mode).
    Ack(AckMsg),
    /// Document download request (baseline).
    Fetch(FetchRequest),
    /// Document download response (baseline).
    FetchReply(FetchResponse),
}

impl Message {
    /// Short kind label for metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Query(_) => "query",
            Message::Report(_) => "report",
            Message::Ack(_) => "ack",
            Message::Fetch(_) => "fetch",
            Message::FetchReply(_) => "fetch-reply",
        }
    }
}

// ---- Wire implementations -------------------------------------------------

impl Wire for QueryId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.user.encode(buf);
        self.host.encode(buf);
        self.port.encode(buf);
        self.query_num.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(QueryId {
            user: Arc::decode(buf)?,
            host: Arc::decode(buf)?,
            port: u16::decode(buf)?,
            query_num: u64::decode(buf)?,
        })
    }
}

impl Wire for CloneState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.num_q.encode(buf);
        self.rem_pre.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(CloneState {
            num_q: u32::decode(buf)?,
            rem_pre: Pre::decode(buf)?,
        })
    }
}

impl Wire for ChtEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.encode(buf);
        self.state.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ChtEntry {
            node: Url::decode(buf)?,
            state: CloneState::decode(buf)?,
        })
    }
}

impl Wire for QueryClone {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.dest_nodes.encode(buf);
        self.rem_pre.encode(buf);
        self.stages.encode(buf);
        self.stage_offset.encode(buf);
        self.hops.encode(buf);
        self.ack_host.encode(buf);
        self.ack_port.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(QueryClone {
            id: QueryId::decode(buf)?,
            dest_nodes: Vec::<Url>::decode(buf)?,
            rem_pre: Pre::decode(buf)?,
            stages: Arc::decode(buf)?,
            stage_offset: u32::decode(buf)?,
            hops: u32::decode(buf)?,
            ack_host: Arc::decode(buf)?,
            ack_port: u16::decode(buf)?,
        })
    }
}

impl Wire for Disposition {
    fn encode(&self, buf: &mut Vec<u8>) {
        let tag: u8 = match self {
            Disposition::Answered => 0,
            Disposition::PureRouted => 1,
            Disposition::DeadEnd => 2,
            Disposition::Duplicate => 3,
            Disposition::Rewritten => 4,
            Disposition::Handoff => 5,
            Disposition::Shed => 6,
            Disposition::DeadLink => 7,
        };
        buf.put_u8(tag);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Disposition::Answered,
            1 => Disposition::PureRouted,
            2 => Disposition::DeadEnd,
            3 => Disposition::Duplicate,
            4 => Disposition::Rewritten,
            5 => Disposition::Handoff,
            6 => Disposition::Shed,
            7 => Disposition::DeadLink,
            other => return Err(WireError::new(format!("invalid disposition tag {other}"))),
        })
    }
}

impl Wire for StageRows {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.stage.encode(buf);
        self.rows.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(StageRows {
            stage: u32::decode(buf)?,
            rows: Vec::<ResultRow>::decode(buf)?,
        })
    }
}

impl Wire for NodeReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.encode(buf);
        self.state.encode(buf);
        self.disposition.encode(buf);
        self.results.encode(buf);
        self.new_entries.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NodeReport {
            node: Url::decode(buf)?,
            state: CloneState::decode(buf)?,
            disposition: Disposition::decode(buf)?,
            results: Vec::<StageRows>::decode(buf)?,
            new_entries: Vec::<ChtEntry>::decode(buf)?,
        })
    }
}

impl Wire for ResultReport {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.origin.encode(buf);
        self.seq.encode(buf);
        self.reports.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ResultReport {
            id: QueryId::decode(buf)?,
            origin: Arc::decode(buf)?,
            seq: u64::decode(buf)?,
            reports: Vec::<NodeReport>::decode(buf)?,
        })
    }
}

impl Wire for FetchRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.url.encode(buf);
        self.reply_host.encode(buf);
        self.reply_port.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(FetchRequest {
            url: Url::decode(buf)?,
            reply_host: Arc::decode(buf)?,
            reply_port: u16::decode(buf)?,
        })
    }
}

impl Wire for FetchResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.url.encode(buf);
        self.html.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(FetchResponse {
            url: Url::decode(buf)?,
            html: Option::<String>::decode(buf)?,
        })
    }
}

impl Wire for AckMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(AckMsg {
            id: QueryId::decode(buf)?,
        })
    }
}

impl Wire for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Query(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            Message::Report(m) => {
                buf.put_u8(1);
                m.encode(buf);
            }
            Message::Fetch(m) => {
                buf.put_u8(2);
                m.encode(buf);
            }
            Message::FetchReply(m) => {
                buf.put_u8(3);
                m.encode(buf);
            }
            Message::Ack(m) => {
                buf.put_u8(4);
                m.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match u8::decode(buf)? {
            0 => Message::Query(QueryClone::decode(buf)?),
            1 => Message::Report(ResultReport::decode(buf)?),
            2 => Message::Fetch(FetchRequest::decode(buf)?),
            3 => Message::FetchReply(FetchResponse::decode(buf)?),
            4 => Message::Ack(AckMsg::decode(buf)?),
            other => return Err(WireError::new(format!("invalid message tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_message, encode_message};
    use webdis_disql::parse_disql;
    use webdis_rel::Value;

    fn sample_id() -> QueryId {
        QueryId {
            user: "maya".into(),
            host: "user.iisc.ernet.in".into(),
            port: 5001,
            query_num: 1,
        }
    }

    fn sample_clone() -> QueryClone {
        let q = parse_disql(
            r#"select d0.url, d1.url, r.text
               from document d0 such that "http://csa.iisc.ernet.in" L d0,
               where d0.title contains "lab"
                    document d1 such that d0 G·(L*1) d1,
                    relinfon r such that r.delimiter = "hr",
               where r.text contains "convener""#,
        )
        .unwrap();
        QueryClone {
            id: sample_id(),
            dest_nodes: q.start_nodes.clone(),
            rem_pre: q.stages[0].pre.clone(),
            stages: q.stages,
            stage_offset: 0,
            hops: 0,
            ack_host: "user.iisc.ernet.in".into(),
            ack_port: 5001,
        }
    }

    #[test]
    fn query_clone_round_trips() {
        let clone = sample_clone();
        let msg = Message::Query(clone.clone());
        let bytes = encode_message(&msg);
        let back = decode_message(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(clone.state().num_q, 2);
    }

    #[test]
    fn report_round_trips() {
        let report = ResultReport {
            id: sample_id(),
            origin: "csa.iisc.ernet.in".into(),
            seq: 17,
            reports: vec![NodeReport {
                node: Url::parse("http://csa.iisc.ernet.in/Labs").unwrap(),
                state: CloneState {
                    num_q: 2,
                    rem_pre: webdis_pre::parse("N").unwrap(),
                },
                disposition: Disposition::Answered,
                results: vec![StageRows {
                    stage: 0,
                    rows: vec![ResultRow {
                        values: vec![Value::Str("x".into())],
                    }],
                }],
                new_entries: vec![ChtEntry {
                    node: Url::parse("http://dsl.serc.iisc.ernet.in/").unwrap(),
                    state: CloneState {
                        num_q: 1,
                        rem_pre: webdis_pre::parse("L*1").unwrap(),
                    },
                }],
            }],
        };
        let msg = Message::Report(report);
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
    }

    #[test]
    fn fetch_round_trips() {
        let msg = Message::Fetch(FetchRequest {
            url: Url::parse("http://h/x").unwrap(),
            reply_host: "user".into(),
            reply_port: 9,
        });
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        let msg = Message::FetchReply(FetchResponse {
            url: Url::parse("http://h/x").unwrap(),
            html: Some("<html></html>".into()),
        });
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        let msg = Message::FetchReply(FetchResponse {
            url: Url::parse("http://h/x").unwrap(),
            html: None,
        });
        assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_message(&Message::Fetch(FetchRequest {
            url: Url::parse("http://h/x").unwrap(),
            reply_host: "user".into(),
            reply_port: 9,
        }));
        bytes.push(0);
        assert!(decode_message(&bytes).is_err());
    }

    #[test]
    fn reply_to_address() {
        let id = sample_id();
        assert_eq!(id.reply_to().to_string(), "user.iisc.ernet.in:5001");
        assert_eq!(id.to_string(), "maya@user.iisc.ernet.in:5001/#1");
    }

    #[test]
    fn message_kinds() {
        assert_eq!(Message::Query(sample_clone()).kind(), "query");
    }

    #[test]
    fn disposition_labels_distinct() {
        let all = [
            Disposition::Answered,
            Disposition::PureRouted,
            Disposition::DeadEnd,
            Disposition::Duplicate,
            Disposition::Rewritten,
            Disposition::Handoff,
            Disposition::Shed,
            Disposition::DeadLink,
        ];
        let labels: std::collections::BTreeSet<_> = all.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), all.len());
        // Every disposition survives the wire unchanged.
        for d in all {
            let mut buf = Vec::new();
            d.encode(&mut buf);
            assert_eq!(Disposition::decode(&mut buf.as_slice()).unwrap(), d);
        }
    }
}

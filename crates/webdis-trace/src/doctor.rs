//! Trace diagnosis for `webdis-doctor`: turns a JSONL query-trajectory
//! trace into an actionable report.
//!
//! The doctor answers the questions an operator asks of a slow or
//! wedged run: *where did the time go* (per-query critical path with
//! hop and stage attribution), *which queries hurt* (top-k slowest with
//! their dominant stage), *did anything get lost* (hang/orphan
//! detection that distinguishes a clone dropped by fault injection —
//! visible as a `message_dropped` record — from one that silently
//! vanished), *were the sites busy* (per-site busy/idle timeline from
//! the stage spans), and *what did the wire carry* (byte accounting per
//! message type). Everything is computed from the trace alone, so the
//! same report works for simulator and TCP runs alike.
//!
//! The report is a table of passes (`PASSES`, DESIGN.md §2c): each
//! owns its state, its folds over the stream and over each query, its
//! findings and its section. [`diagnose`] walks the stream once and the
//! queries once; a new view of a trace is one more entry.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::trajectory::{self, Trajectory, Visit};
use crate::{QueryId, TraceEvent, TraceRecord, STAGES};

/// One line of the report's `flagged` or `anomalies` section, with the
/// query it is about when it is about one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The query the finding names (`None` for fleet-level findings:
    /// superseded visits, dead links, duplications outside a query).
    pub query: Option<QueryId>,
    /// The line as the report prints it.
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// What the doctor concluded about one query's fate.
#[derive(Debug, Clone)]
pub struct QueryDiagnosis {
    /// The query.
    pub id: QueryId,
    /// Termination reasons observed (empty = the query never
    /// terminated — a hang).
    pub terminations: Vec<String>,
    /// `query_sent` records whose parent visit could not be found.
    pub orphans: usize,
    /// Visits whose clone was provably lost to fault injection
    /// (`(site, hop, reason)`) — flagged, but *not* an anomaly.
    pub dropped_visits: Vec<(String, u32, String)>,
    /// Visits whose clone was sent but never received, with no drop
    /// record to explain it — a hang.
    pub hung_visits: Vec<(String, u32)>,
}

/// The full diagnosis of a trace.
#[derive(Debug)]
pub struct Diagnosis {
    /// Per-query fates, in first-seen order.
    pub queries: Vec<QueryDiagnosis>,
    /// Hard failures: orphaned sends and hung clones/queries. A clean
    /// trace has none, even under heavy injected loss.
    pub anomalies: Vec<Finding>,
    /// Notable-but-explained events: injected drops and duplications,
    /// expiries, sheds, superseded visits, dead links.
    pub flagged: Vec<Finding>,
    /// Last event timestamp (the run's extent on the trace clock).
    pub end_us: u64,
    /// The folded passes, in table order: what the report prints.
    passes: Vec<Box<dyn Pass>>,
}

/// One query as every per-query fold sees it.
struct QueryView<'a> {
    /// The query's own records, in stream order.
    own: &'a [&'a TraceRecord],
    /// Its shipping tree.
    trajectory: &'a Trajectory,
    /// The chain of visits that finished last, root excluded — the
    /// completion-limiting path through the shipping tree.
    critical: Vec<&'a Visit>,
}

/// Where a pass puts its findings; [`diagnose`] lists them pass by
/// pass, in table order.
#[derive(Default)]
struct Findings {
    flagged: Vec<Finding>,
    anomalies: Vec<Finding>,
}

impl Findings {
    fn flag(&mut self, query: Option<&QueryId>, text: String) {
        let query = query.cloned();
        self.flagged.push(Finding { query, text });
    }

    fn anomaly(&mut self, query: &QueryId, text: String) {
        let query = Some(query.clone());
        self.anomalies.push(Finding { query, text });
    }
}

/// A named pass over a trace (see the module docs). Every step but the
/// section has nothing to do by default.
trait Pass: fmt::Debug {
    /// Folds one record of the stream.
    fn record(&mut self, _r: &TraceRecord, _found: &mut Findings) {}
    /// Folds one query, writing what it concludes of the query's fate
    /// into `fate`.
    fn query(&mut self, _q: &QueryView<'_>, _fate: &mut QueryDiagnosis, _found: &mut Findings) {}
    /// Runs once both walks are done.
    fn finish(&mut self, _found: &mut Findings) {}
    /// The section's heading and body; `None` leaves it out.
    fn section(&self, _d: &Diagnosis, _top: usize) -> Option<(String, String)> {
        None
    }
}

/// The passes, in report order — which is also the order their findings
/// are listed in.
const PASSES: [fn() -> Box<dyn Pass>; 7] = [
    || Box::<Slowest>::default(),
    || Box::<Sites>::default(),
    || Box::<Cache>::default(),
    || Box::<Wire>::default(),
    || Box::<LivingWeb>::default(),
    || Box::<Alerts>::default(),
    || Box::new(Fates),
];

/// Diagnoses a full record stream.
pub fn diagnose(records: &[TraceRecord]) -> Diagnosis {
    let mut passes: Vec<Box<dyn Pass>> = PASSES.iter().map(|new| new()).collect();
    let mut found: Vec<Findings> = passes.iter().map(|_| Findings::default()).collect();
    let mut end_us = 0;
    for r in records {
        end_us = end_us.max(r.time_us);
        for (pass, found) in passes.iter_mut().zip(&mut found) {
            pass.record(r, found);
        }
    }
    // The stream is split by query once: filtering it per query (and
    // again inside `reconstruct`) made a trace of q queries cost q
    // passes over every record.
    let mut queries = Vec::new();
    for (id, own) in trajectory::by_query(records) {
        let trajectory = trajectory::reconstruct_own(own.clone(), &id);
        let view = QueryView {
            own: &own,
            trajectory: &trajectory,
            critical: critical_chain(&trajectory.root),
        };
        let mut fate = QueryDiagnosis {
            id,
            terminations: Vec::new(),
            orphans: 0,
            dropped_visits: Vec::new(),
            hung_visits: Vec::new(),
        };
        for (pass, found) in passes.iter_mut().zip(&mut found) {
            pass.query(&view, &mut fate, found);
        }
        queries.push(fate);
    }
    let (mut flagged, mut anomalies) = (Vec::new(), Vec::new());
    for (pass, mut found) in passes.iter_mut().zip(found) {
        pass.finish(&mut found);
        flagged.append(&mut found.flagged);
        anomalies.append(&mut found.anomalies);
    }
    Diagnosis {
        queries,
        anomalies,
        flagged,
        end_us,
        passes,
    }
}

impl Diagnosis {
    /// Renders the full report as plain text. `top` bounds the slowest-
    /// queries section.
    pub fn render_text(&self, top: usize) -> String {
        let n = self.queries.len();
        let mut out = format!(
            "webdis-doctor: {n} quer{} over {}us of trace\n",
            if n == 1 { "y" } else { "ies" },
            self.end_us
        );
        let mut sections: Vec<(String, String)> = self
            .passes
            .iter()
            .filter_map(|pass| pass.section(self, top))
            .collect();
        if !self.flagged.is_empty() {
            sections.push(("flagged (explained)".into(), lines(&self.flagged)));
        }
        let anomalies = if self.anomalies.is_empty() {
            "none — every send was received or accounted for, every query terminated\n".into()
        } else {
            lines(&self.anomalies)
        };
        sections.push(("anomalies".into(), anomalies));
        for (heading, body) in sections {
            out += &format!("\n== {heading} ==\n{body}");
        }
        out
    }
}

fn lines(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

/// The entry of `map` at `key`, inserted empty when missing — every
/// per-site and per-kind tally.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    map.entry(key.to_owned()).or_default()
}

/// The backpressure span's stage label.
const QUEUE_STAGE: &str = STAGES[0];

/// Stage-attributed µs by stage name. Queue wait is attribution, not
/// busy time: it may be a query's dominant "stage" (a queue-bound
/// query's honestly is `queue_wait`) but never counts toward busy time
/// or a visit's or site's dominant service stage.
#[derive(Debug, Default)]
struct Stages(BTreeMap<&'static str, u64>);

impl Stages {
    /// Adds one clone's spans; returns the busy µs they add.
    fn add(&mut self, spans: [(&'static str, u64); 7]) -> u64 {
        let before = self.busy_us();
        for (stage, us) in spans {
            *self.0.entry(stage).or_default() += us;
        }
        self.busy_us() - before
    }

    fn queue_us(&self) -> u64 {
        self.0.get(QUEUE_STAGE).copied().unwrap_or(0)
    }

    fn busy_us(&self) -> u64 {
        self.0
            .iter()
            .filter(|(s, _)| **s != QUEUE_STAGE)
            .map(|(_, us)| us)
            .sum()
    }

    /// The stage with the most attributed time, when any saw any; queue
    /// wait competes only `with_queue`.
    fn dominant(&self, with_queue: bool) -> Option<(&'static str, u64)> {
        self.0
            .iter()
            .filter(|(s, us)| **us > 0 && (with_queue || **s != QUEUE_STAGE))
            .max_by_key(|(_, us)| **us)
            .map(|(s, us)| (*s, *us))
    }
}

/// The chain of visits that finished last, root excluded.
fn critical_chain(root: &Visit) -> Vec<&Visit> {
    // Deepest finish time anywhere in a visit's subtree.
    fn subtree_max(v: &Visit) -> u64 {
        let own = v.received_us.unwrap_or(v.sent_us);
        v.children.iter().map(subtree_max).fold(own, u64::max)
    }
    let mut chain = Vec::new();
    let mut cur = root;
    while let Some(child) = cur.children.iter().max_by_key(|c| subtree_max(c)) {
        chain.push(child);
        cur = child;
    }
    chain
}

/// Visits whose clone was sent but never received, root excluded, in
/// depth-first order.
fn in_flight_visits(root: &Visit) -> Vec<&Visit> {
    let mut out = Vec::new();
    let mut stack: Vec<&Visit> = root.children.iter().rev().collect();
    while let Some(v) = stack.pop() {
        if v.received_us.is_none() {
            out.push(v);
        }
        stack.extend(v.children.iter().rev());
    }
    out
}

/// A dropped-query record explains an in-flight visit when the kinds,
/// query, and hop line up and the drop's destination host resolves to
/// the visit's site (transports stamp the query-server host, e.g.
/// `wdqs.site0.test`, while the shipping tree uses the plain site).
fn drop_explains(to: &str, hop: Option<u32>, visit_site: &str, visit_hop: u32) -> bool {
    let site_match = to == visit_site || to.ends_with(&format!(".{visit_site}"));
    site_match && hop.is_none_or(|h| h == visit_hop)
}

/// The top-k slowest queries: first-to-last stamped event, dominant
/// stage, and the critical path with each hop's transit and busy time.
#[derive(Debug, Default)]
struct Slowest {
    /// Per query, in first-seen order: `(total_us, dominant stage,
    /// critical-path lines)`.
    queries: Vec<(u64, String, String)>,
}

impl Pass for Slowest {
    fn query(&mut self, q: &QueryView<'_>, _: &mut QueryDiagnosis, _: &mut Findings) {
        let first = q.own.iter().map(|r| r.time_us).min().unwrap_or(0);
        let last = q.own.iter().map(|r| r.time_us).max().unwrap_or(0);
        let mut total = Stages::default();
        let mut visits: BTreeMap<(&str, Option<u32>), Stages> = BTreeMap::new();
        for r in q.own {
            if let Some(spans) = r.event.stage_spans() {
                total.add(spans);
                visits.entry((&r.site, r.hop)).or_default().add(spans);
            }
        }
        let dominant = match total.dominant(true) {
            Some((stage, us)) => format!("dominant stage {stage} ({us}us)"),
            None => "no stage spans".into(),
        };
        let mut path = String::new();
        for v in &q.critical {
            let transit = match v.received_us {
                Some(at) => format!("transit {}us", at.saturating_sub(v.sent_us)),
                None => "in flight".into(),
            };
            let busy = visits.get(&(v.site.as_str(), Some(v.hop)));
            let stage = busy
                .and_then(|s| Some((s.busy_us(), s.dominant(false)?)))
                .map(|(busy, (s, us))| format!(", busy {busy}us (mostly {s}: {us}us)"))
                .unwrap_or_default();
            path += &format!("  critical: {} hop {} — {transit}{stage}\n", v.site, v.hop);
        }
        self.queries
            .push((last.saturating_sub(first), dominant, path));
    }

    fn section(&self, d: &Diagnosis, top: usize) -> Option<(String, String)> {
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.queries[i].0));
        let mut body = String::new();
        for i in order.into_iter().take(top) {
            let ((total_us, dominant, path), fate) = (&self.queries[i], &d.queries[i]);
            let terminated = match fate.terminations.as_slice() {
                [] => "NEVER".to_string(),
                reasons => reasons.join(", "),
            };
            body += &format!(
                "{}#{}: {total_us}us, {dominant} — terminated: {terminated}\n{path}",
                fate.id.user, fate.id.query_num
            );
        }
        Some((format!("slowest queries (top {top})"), body))
    }
}

/// Timeline buckets per site.
const TIMELINE_BUCKETS: usize = 24;

/// A site's busy time per timeline bucket over `[0, end_us]`, one
/// character each: `.` idle, `-` under a third busy, `+` under two
/// thirds, `#` more.
fn timeline_bar(spans: &[(u64, u64)], end_us: u64) -> String {
    let bucket_us = (end_us / TIMELINE_BUCKETS as u64).max(1);
    let mut timeline = [0u64; TIMELINE_BUCKETS];
    for &(end, busy) in spans {
        // The busy interval [end - busy, end] split across the buckets
        // it overlaps; what lies before 0 lands in the first bucket,
        // what lies past the last bucket's start in the last.
        let start = end.saturating_sub(busy);
        timeline[0] += busy - (end - start);
        for (i, slot) in timeline.iter_mut().enumerate() {
            let lo = i as u64 * bucket_us;
            let hi = if i + 1 == TIMELINE_BUCKETS {
                u64::MAX
            } else {
                lo + bucket_us
            };
            *slot += end.min(hi).saturating_sub(start.max(lo));
        }
    }
    timeline
        .iter()
        .map(|&busy| match busy as f64 / bucket_us as f64 {
            frac if frac <= 0.0 => '.',
            frac if frac < 0.33 => '-',
            frac if frac < 0.66 => '+',
            _ => '#',
        })
        .collect()
}

/// One line per site from the stage spans: clones, queue wait vs
/// service time, utilization, a busy timeline and the dominant service
/// stage, with the saturated site named. The utilization law in play:
/// for a single sequential processor per site, queue wait grows without
/// bound as utilization (service time per unit wall clock) approaches 1
/// — so the site carrying the most queue wait *is* the saturated one,
/// and its dominant service stage is where added capacity pays off
/// first.
#[derive(Debug, Default)]
struct Sites {
    /// Per site: its clones' stages, and each clone's span record as
    /// `(time_us, busy_us)`.
    sites: BTreeMap<String, (Stages, Vec<(u64, u64)>)>,
}

impl Pass for Sites {
    fn record(&mut self, r: &TraceRecord, _: &mut Findings) {
        if let Some(spans) = r.event.stage_spans() {
            let (stages, busy) = slot(&mut self.sites, &r.site);
            busy.push((r.time_us, stages.add(spans)));
        }
    }

    fn section(&self, d: &Diagnosis, _: usize) -> Option<(String, String)> {
        let heading = "sites (queue wait vs service time, busy timeline)".to_string();
        // The saturated site carries the most queue wait; a trace with
        // no queueing at all falls back to raw service time.
        let mut sites: Vec<_> = self.sites.iter().collect();
        sites.sort_by_key(|(site, (s, _))| (std::cmp::Reverse((s.queue_us(), s.busy_us())), *site));
        let Some(&(sat, (sat_stages, _))) = sites.first() else {
            let body = "no stage spans in trace — nothing to attribute\n";
            return Some((heading, body.into()));
        };
        let util = |s: &Stages| 100.0 * s.busy_us() as f64 / d.end_us.max(1) as f64;
        let mut body = String::new();
        for (site, (s, spans)) in &sites {
            let (clones, queue, service) = (spans.len(), s.queue_us(), s.busy_us());
            let avg = queue / clones as u64;
            let bar = timeline_bar(spans, d.end_us);
            let dom = s.dominant(false);
            let dom = dom.map_or("-".into(), |(stage, us)| format!("{stage} ({us}us)"));
            body += &format!(
                "{site:<24} {clones:>4} clone(s)  queue {queue:>8}us (avg {avg:>6}us)  \
                 service {service:>8}us (util {:5.1}%)  [{bar}]  dominant: {dom}\n",
                util(s)
            );
        }
        let dom = sat_stages
            .dominant(false)
            .map_or(QUEUE_STAGE, |(stage, _)| stage);
        body += &match sat_stages.queue_us() {
            0 => format!(
                "no queueing observed — busiest site is {sat} (util {:.1}%, dominant stage {dom})\n",
                util(sat_stages)
            ),
            queue => format!(
                "saturated site: {sat} — {queue}us queued against {}us of service \
                 (util {:.1}%); spend capacity on `{dom}`\n",
                sat_stages.busy_us(),
                util(sat_stages)
            ),
        };
        Some((heading, body))
    }
}

/// Answer-cache activity per site, from the `cache_hit`/`cache_miss`/
/// `cache_evict` events, plus how often the cache shortened the
/// completion-limiting path. Absent when the trace has no cache events.
#[derive(Debug, Default)]
struct Cache {
    /// Per site: hits, the subsumed share of them, misses, evictions.
    sites: BTreeMap<String, [u64; 4]>,
    /// Queries with a cache hit at a visit on their critical path — the
    /// hits that moved the completion time, not just some branch's.
    critical_path_served: usize,
}

impl Pass for Cache {
    fn record(&mut self, r: &TraceRecord, _: &mut Findings) {
        let counts = match &r.event {
            TraceEvent::CacheHit { subsumed, .. } => [1, u64::from(*subsumed), 0, 0],
            TraceEvent::CacheMiss { .. } => [0, 0, 1, 0],
            TraceEvent::CacheEvict { .. } => [0, 0, 0, 1],
            _ => return,
        };
        let line = slot(&mut self.sites, &r.site);
        for (total, n) in line.iter_mut().zip(counts) {
            *total += n;
        }
    }

    fn query(&mut self, q: &QueryView<'_>, _: &mut QueryDiagnosis, _: &mut Findings) {
        let hits: BTreeSet<(&str, Option<u32>)> = q
            .own
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CacheHit { .. }))
            .map(|r| (r.site.as_str(), r.hop))
            .collect();
        if q.critical
            .iter()
            .any(|v| hits.contains(&(&v.site, Some(v.hop))))
        {
            self.critical_path_served += 1;
        }
    }

    fn section(&self, d: &Diagnosis, _: usize) -> Option<(String, String)> {
        if self.sites.is_empty() {
            return None;
        }
        let mut body = String::new();
        for (site, [hits, subsumed, misses, evictions]) in &self.sites {
            let rate = 100.0 * *hits as f64 / (hits + misses).max(1) as f64;
            body += &format!(
                "{site:<24} {hits:>5} hit(s) ({subsumed} subsumed)  {misses:>5} miss(es)  \
                 {evictions:>4} eviction(s)  hit rate {rate:5.1}%\n"
            );
        }
        let (served, n) = (self.critical_path_served, d.queries.len());
        body += &format!(
            "critical path served from cache: {served}/{n} quer{} ({:.1}%)\n",
            if n == 1 { "y" } else { "ies" },
            100.0 * served as f64 / n.max(1) as f64
        );
        Some(("answer cache".into(), body))
    }
}

/// What the wire carried, per message kind, from the transport records.
#[derive(Debug, Default)]
struct Wire {
    /// Per kind: `(messages, bytes)` sent, dropped, corrupted (the
    /// decode-path drop) and duplicated.
    kinds: BTreeMap<String, [(u64, u64); 4]>,
}

impl Pass for Wire {
    fn record(&mut self, r: &TraceRecord, found: &mut Findings) {
        let (fate, kind, bytes) = match &r.event {
            TraceEvent::MessageSent { kind, bytes, .. } => (0, kind, bytes),
            TraceEvent::MessageDropped { kind, bytes, .. } => (1, kind, bytes),
            TraceEvent::MessageCorrupted { kind, bytes, .. } => (2, kind, bytes),
            TraceEvent::MessageDuplicated { kind, bytes, to } => {
                // Benign for the trajectory: the extra copy carries no
                // `MessageSent`, so it can neither orphan nor hang
                // anything. Query-scoped ones are flagged per query.
                if r.query.is_none() {
                    let text = format!(
                        "{}: {kind} to {to} delivered twice (injected duplication)",
                        r.site
                    );
                    found.flag(None, text);
                }
                (3, kind, bytes)
            }
            _ => return,
        };
        let (msgs, total) = &mut slot(&mut self.kinds, kind)[fate];
        *msgs += 1;
        *total += u64::from(*bytes);
    }

    fn section(&self, _: &Diagnosis, _: usize) -> Option<(String, String)> {
        if self.kinds.is_empty() {
            return None;
        }
        let mut body = String::new();
        for (kind, [(msgs, bytes), lost @ ..]) in &self.kinds {
            body += &format!("{kind:<12} {msgs:>6} msg(s) {bytes:>10} byte(s)");
            for ((n, bytes), how) in lost.iter().zip(["dropped", "corrupted", "duplicated"]) {
                if *n > 0 {
                    body += &format!("  (+{n} {how}, {bytes} byte(s))");
                }
            }
            body.push('\n');
        }
        Some(("wire bytes per message type".into(), body))
    }
}

/// Living-web staleness: which sites changed mid-run (the mutation
/// driver's `WebMutation` records), which visits answered from
/// superseded content, and which clones terminated at dead links.
/// Absent on a frozen trace.
///
/// A `DocFetch` is superseded when its stamped version is older than
/// the version its document had held since strictly before the visit (a
/// fetch at *exactly* a mutation's instant may land on either side of
/// it). The doctor sees only the trace, so that is *flagged*: the chaos
/// oracle, which holds the authoritative schedule, is the one that
/// promotes staleness to a violation. Dead links are link rot the
/// engine completed around — flagged, never an anomaly.
#[derive(Debug, Default)]
struct LivingWeb {
    /// Per site: edits, deletes, creates, other mutations (anchor
    /// grafts, membership), and its version after its last mutation.
    sites: BTreeMap<String, [u64; 5]>,
    /// Per document: `(time_us, site version)` of each mutation.
    versions: BTreeMap<String, Vec<(u64, u64)>>,
    /// Every `(site, url, time_us, version)` fetched; judged at finish,
    /// once every mutation is known.
    fetches: Vec<(String, String, u64, u64)>,
    /// The superseded fetches, with the version current at the visit.
    superseded: Vec<((String, String, u64, u64), u64)>,
    /// `(site, node, version)` of each dead-link termination.
    dead_links: Vec<(String, String, u64)>,
}

impl Pass for LivingWeb {
    fn record(&mut self, r: &TraceRecord, _: &mut Findings) {
        match &r.event {
            TraceEvent::WebMutation {
                op,
                url,
                site_version,
            } => {
                let line = slot(&mut self.sites, &r.site);
                let op = ["edit_page", "delete_page", "create_page"]
                    .iter()
                    .position(|o| *o == op.as_str());
                line[op.unwrap_or(3)] += 1;
                line[4] = line[4].max(*site_version);
                slot(&mut self.versions, url).push((r.time_us, *site_version));
            }
            TraceEvent::DocFetch {
                url,
                content_version,
                ..
            } => {
                let fetch = (r.site.clone(), url.clone(), r.time_us, *content_version);
                self.fetches.push(fetch);
            }
            TraceEvent::DeadLink { node, version } => {
                self.dead_links
                    .push((r.site.clone(), node.clone(), *version));
            }
            _ => {}
        }
    }

    fn finish(&mut self, found: &mut Findings) {
        for timeline in self.versions.values_mut() {
            timeline.sort_unstable();
        }
        let versions = &self.versions;
        let superseded = std::mem::take(&mut self.fetches)
            .into_iter()
            .filter_map(|fetch| {
                let timeline = versions.get(&fetch.1)?.iter();
                let (_, current) = timeline.take_while(|(at, _)| *at < fetch.2).last()?;
                (fetch.3 < *current).then_some((fetch, *current))
            });
        self.superseded = superseded.collect();
        for ((site, url, time_us, saw), current) in &self.superseded {
            let text = format!(
                "{site}: served {url} at t={time_us}us from version {saw} (current since before \
                 the visit: {current})"
            );
            found.flag(None, text);
        }
        for (site, node, version) in &self.dead_links {
            let text = format!(
                "{site}: clone terminated at dead link {node} (deleted at site version \
                 {version}) — link rot, completed around"
            );
            found.flag(None, text);
        }
    }

    fn section(&self, _: &Diagnosis, _: usize) -> Option<(String, String)> {
        if self.sites.is_empty() && self.dead_links.is_empty() {
            return None;
        }
        let mut body = String::new();
        for (site, [edits, deletes, creates, other, version]) in &self.sites {
            body += &format!(
                "{site:<24} {edits:>3} edit(s)  {deletes:>3} delete(s)  {creates:>3} create(s)  \
                 {other:>3} other  final version {version}\n"
            );
        }
        if self.superseded.is_empty() {
            body += "no visit answered from superseded content\n";
        }
        for ((site, url, time_us, saw), current) in &self.superseded {
            body += &format!(
                "SUPERSEDED: {site} served {url} at t={time_us}us from version {saw} (current: \
                 {current})\n"
            );
        }
        for (site, node, version) in &self.dead_links {
            body += &format!(
                "dead link: {site} reached {node} after deletion (site version {version}) — \
                 terminated gracefully\n"
            );
        }
        Some(("living web".into(), body))
    }
}

/// The monitor's `alert_fired`/`alert_resolved` transitions in time
/// order. A rule still firing at the end of the trace is itself worth a
/// look — the run ended inside an incident. Absent when no monitor ran.
#[derive(Debug, Default)]
struct Alerts {
    /// `(time_us, rule, value_milli, threshold_milli)`; resolved
    /// transitions carry no threshold.
    transitions: Vec<(u64, String, u64, Option<u64>)>,
}

impl Pass for Alerts {
    fn record(&mut self, r: &TraceRecord, _: &mut Findings) {
        let (rule, value, threshold) = match &r.event {
            TraceEvent::AlertFired {
                rule,
                value_milli,
                threshold_milli,
            } => (rule, value_milli, Some(*threshold_milli)),
            TraceEvent::AlertResolved { rule, value_milli } => (rule, value_milli, None),
            _ => return,
        };
        self.transitions
            .push((r.time_us, rule.clone(), *value, threshold));
    }

    fn section(&self, _: &Diagnosis, _: usize) -> Option<(String, String)> {
        if self.transitions.is_empty() {
            return None;
        }
        let mut transitions: Vec<_> = self.transitions.iter().collect();
        transitions.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut body = String::new();
        let mut last: BTreeMap<&str, bool> = BTreeMap::new();
        for (time_us, rule, value, threshold) in transitions {
            body += &match threshold {
                Some(threshold) => format!(
                    "t={time_us:>10}us  FIRED     {rule}  (value {value} milli, threshold \
                     {threshold} milli)\n"
                ),
                None => format!("t={time_us:>10}us  resolved  {rule}  (value {value} milli)\n"),
            };
            last.insert(rule, threshold.is_some());
        }
        let open: Vec<&str> = last
            .into_iter()
            .filter(|(_, fired)| *fired)
            .map(|(r, _)| r)
            .collect();
        body += &if open.is_empty() {
            "all alerts resolved by end of trace\n".to_string()
        } else {
            format!("STILL FIRING at end of trace: {}\n", open.join(", "))
        };
        Some(("alert timeline".into(), body))
    }
}

/// Each query's fate: how it terminated, which of its clones were lost
/// and whether a drop or corruption record explains each loss, what
/// expired, was shed or delivered twice. The only source of anomalies.
#[derive(Debug)]
struct Fates;

impl Pass for Fates {
    fn query(&mut self, q: &QueryView<'_>, fate: &mut QueryDiagnosis, found: &mut Findings) {
        let id = fate.id.clone();
        let label = format!("{}#{}", id.user, id.query_num);
        // In-flight visits are explained by a drop or a corruption
        // record (a corrupted frame is a loss through the decode path),
        // each record explaining one visit, or they hung.
        let mut drops: Vec<(Option<u32>, &str, &str)> = q
            .own
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::MessageDropped {
                    kind, to, reason, ..
                } if kind == "query" => Some((r.hop, to.as_str(), reason.as_str())),
                TraceEvent::MessageCorrupted { kind, to, .. } if kind == "query" => {
                    Some((r.hop, to.as_str(), "corrupted"))
                }
                _ => None,
            })
            .collect();
        for visit in in_flight_visits(&q.trajectory.root) {
            let (site, hop) = (visit.site.clone(), visit.hop);
            let explains =
                |(at, to, _): &(Option<u32>, &str, &str)| drop_explains(to, *at, &site, hop);
            match drops.iter().position(explains) {
                Some(at) => fate
                    .dropped_visits
                    .push((site, hop, drops.remove(at).2.into())),
                None => fate.hung_visits.push((site, hop)),
            }
        }
        let (mut expired, mut shed, mut twice) = (Vec::new(), Vec::new(), Vec::new());
        for r in q.own {
            match &r.event {
                TraceEvent::Termination { reason } => {
                    fate.terminations.push(reason.name().to_string())
                }
                TraceEvent::EntryExpired { node } => {
                    expired.push(format!("{label}: entry expired for {node} (§7.1 recovery)"))
                }
                TraceEvent::QueryShed { nodes } => shed.push(format!(
                    "{label}: clone shed by admission control ({nodes} node(s))"
                )),
                TraceEvent::MessageDuplicated { kind, to, .. } => twice.push(format!(
                    "{label}: {kind} to {to} delivered twice (injected duplication)"
                )),
                _ => {}
            }
        }
        fate.orphans = q.trajectory.orphans.len();
        let orphans = q.trajectory.orphans.iter().map(|r| {
            format!(
                "{label}: orphaned send from {} at hop {:?} (t={}us)",
                r.site, r.hop, r.time_us
            )
        });
        let hung = fate.hung_visits.iter().map(|(site, hop)| {
            format!(
                "{label}: clone to {site} (hop {hop}) sent but never received, and no drop \
                 record explains it"
            )
        });
        let never = fate.terminations.is_empty();
        let never = never.then(|| format!("{label}: no termination record — the query hung"));
        for text in orphans.chain(hung).chain(never) {
            found.anomaly(&id, text);
        }
        let dropped = fate.dropped_visits.iter().map(|(site, hop, reason)| {
            format!("{label}: clone to {site} (hop {hop}) dropped in flight ({reason})")
        });
        for text in dropped.chain(expired).chain(shed).chain(twice) {
            found.flag(Some(&id), text);
        }
    }
}

/// Streams a JSONL trace off disk one line at a time. A long workload
/// run's trace reaches hundreds of megabytes; `read_to_string` would
/// hold the whole text *and* the decoded records simultaneously, while
/// this path only ever holds one line of text alongside the records.
/// Errors carry the 1-based line number, blank lines are skipped (a
/// trailing newline is not a record).
pub fn load_trace(path: &std::path::Path) -> Result<Vec<TraceRecord>, String> {
    use std::io::BufRead;

    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{path:?}:{}: read error: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let record =
            crate::json::decode_record(&line).map_err(|e| format!("{path:?}:{}: {e}", idx + 1))?;
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TermReason;

    fn qid() -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 1,
        }
    }

    fn rec(t: u64, site: &str, hop: Option<u32>, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time_us: t,
            site: site.into(),
            query: Some(qid()),
            hop,
            event,
        }
    }

    fn sent(t: u64, site: &str, to: &str, hop: u32) -> TraceRecord {
        rec(
            t,
            site,
            Some(hop),
            TraceEvent::QuerySent {
                to_site: to.into(),
                nodes: 1,
            },
        )
    }

    fn recv(t: u64, site: &str, hop: u32) -> TraceRecord {
        rec(t, site, Some(hop), TraceEvent::QueryRecv { nodes: 1 })
    }

    fn spans(t: u64, site: &str, hop: u32, eval_us: u64) -> TraceRecord {
        spans_queued(t, site, hop, eval_us, 0)
    }

    fn spans_queued(t: u64, site: &str, hop: u32, eval_us: u64, queue_us: u64) -> TraceRecord {
        rec(
            t,
            site,
            Some(hop),
            TraceEvent::StageSpans {
                queue_us,
                parse_us: 10,
                log_us: 2,
                cache_us: 0,
                eval_us,
                eval_probe_us: 0,
                eval_scan_us: eval_us,
                build_us: 3,
                forward_us: 5,
            },
        )
    }

    fn terminated(t: u64) -> TraceRecord {
        rec(
            t,
            "user.test",
            None,
            TraceEvent::Termination {
                reason: TermReason::ChtComplete,
            },
        )
    }

    /// The report with every run of whitespace one space: column
    /// padding is the format's business, the numbers are the tests'.
    fn report(d: &Diagnosis) -> String {
        d.render_text(5)
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn any(findings: &[Finding], needle: &str) -> bool {
        findings.iter().any(|f| f.text.contains(needle))
    }

    #[test]
    fn dropped_clone_is_flagged_not_anomalous() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            sent(11, "site1.test", "site2.test", 1),
            rec(
                11,
                "site1.test",
                Some(1),
                TraceEvent::MessageDropped {
                    kind: "query".into(),
                    to: "wdqs.site2.test".into(),
                    bytes: 150,
                    reason: "injected".into(),
                },
            ),
            rec(
                500,
                "user.test",
                None,
                TraceEvent::EntryExpired {
                    node: "http://site2.test/doc0.html".into(),
                },
            ),
            rec(
                501,
                "user.test",
                None,
                TraceEvent::Termination {
                    reason: TermReason::Expired,
                },
            ),
        ];
        let d = diagnose(&records);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(d.queries[0].dropped_visits.len(), 1);
        assert_eq!(d.queries[0].orphans, 0);
        assert!(any(&d.flagged, "dropped in flight (injected)"));
        assert!(any(&d.flagged, "entry expired"));
        assert!(d.flagged.iter().all(|f| f.query == Some(qid())));
    }

    #[test]
    fn corrupted_clone_is_flagged_not_anomalous() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            sent(11, "site1.test", "site2.test", 1),
            rec(
                11,
                "site1.test",
                Some(1),
                TraceEvent::MessageCorrupted {
                    kind: "query".into(),
                    to: "wdqs.site2.test".into(),
                    bytes: 150,
                },
            ),
            rec(
                501,
                "user.test",
                None,
                TraceEvent::Termination {
                    reason: TermReason::Expired,
                },
            ),
        ];
        let d = diagnose(&records);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(
            d.queries[0].dropped_visits,
            vec![("site2.test".into(), 1, "corrupted".into())]
        );
        assert!(d.queries[0].hung_visits.is_empty());
        assert!(any(&d.flagged, "dropped in flight (corrupted)"));
        assert!(report(&d).contains("query 0 msg(s) 0 byte(s) (+1 corrupted, 150 byte(s))"));
    }

    #[test]
    fn duplicated_delivery_is_flagged_never_anomalous() {
        let twice = |query: Option<QueryId>| TraceRecord {
            time_us: 20,
            site: "site1.test".into(),
            query,
            hop: None,
            event: TraceEvent::MessageDuplicated {
                kind: "report".into(),
                to: "user.test".into(),
                bytes: 90,
            },
        };
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            twice(Some(qid())),
            twice(None),
            terminated(30),
        ];
        let d = diagnose(&records);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        // The copy outside any query is flagged by the stream pass, ahead
        // of the query's own.
        let flagged: Vec<_> = d.flagged.iter().map(|f| (&f.query, &f.text[..])).collect();
        assert_eq!(
            flagged,
            vec![
                (
                    &None,
                    "site1.test: report to user.test delivered twice (injected duplication)"
                ),
                (
                    &Some(qid()),
                    "alice#1: report to user.test delivered twice (injected duplication)"
                ),
            ]
        );
        assert!(report(&d).contains("report 0 msg(s) 0 byte(s) (+2 duplicated, 180 byte(s))"));
    }

    #[test]
    fn unexplained_loss_and_missing_termination_are_anomalies() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            sent(11, "site1.test", "site2.test", 1),
            // No drop record, no receive, no termination.
        ];
        let d = diagnose(&records);
        assert_eq!(d.queries[0].hung_visits, vec![("site2.test".into(), 1)]);
        assert!(d.queries[0].terminations.is_empty());
        assert!(any(&d.anomalies, "never received"), "{:?}", d.anomalies);
        assert!(any(&d.anomalies, "no termination"));
        // Every anomaly names its query: what the CLI reports offenders by.
        assert!(d.anomalies.iter().all(|a| a.query == Some(qid())));
        let text = report(&d);
        assert!(text.contains("alice#1: 11us, no stage spans — terminated: NEVER"));
        assert!(
            text.contains("critical: site2.test hop 1 — in flight"),
            "{text}"
        );
    }

    #[test]
    fn orphaned_send_is_an_anomaly() {
        // A hop-2 send whose hop-1 parent visit never appears.
        let d = diagnose(&[
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            sent(30, "site9.test", "site3.test", 2),
            terminated(40),
        ]);
        assert_eq!(d.queries[0].orphans, 1);
        assert_eq!(
            d.anomalies[0].text,
            "alice#1: orphaned send from site9.test at hop Some(2) (t=30us)"
        );
    }

    #[test]
    fn stage_totals_and_dominant_stage_aggregate_across_visits() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            spans(40, "site1.test", 0, 100),
            sent(41, "site1.test", "site2.test", 1),
            recv(50, "site2.test", 1),
            spans(90, "site2.test", 1, 300),
            terminated(120),
        ];
        let text = report(&diagnose(&records));
        // eval 100 + 300 across both visits; parse 10 + 10.
        assert!(
            text.contains("alice#1: 120us, dominant stage eval (400us) — terminated: cht-complete"),
            "{text}"
        );
        // The critical path ends at site2 with its own dominant stage:
        // busy is parse 10 + log 2 + eval 300 + build 3 + forward 5.
        assert!(
            text.contains(
                "critical: site2.test hop 1 — transit 9us, busy 320us (mostly eval: 300us)"
            ),
            "{text}"
        );
        // Both sites, with their busy timelines over 24 buckets of 5us:
        // site1's 120us ended at 40us, site2's 320us at 90us, the part
        // before 0 landing in the first bucket.
        assert!(
            text.contains(
                "site2.test 1 clone(s) queue 0us (avg 0us) service 320us (util 266.7%) \
                 [##################......] dominant: eval (300us)\n\
                 site1.test 1 clone(s) queue 0us (avg 0us) service 120us (util 100.0%) \
                 [########................] dominant: eval (100us)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn stages_keep_queue_wait_out_of_busy_time() {
        let mut s = Stages::default();
        let spans = |queue, eval| {
            let mut spans = STAGES.map(|stage| (stage, 0));
            spans[0].1 = queue;
            spans[4].1 = eval;
            spans
        };
        assert_eq!(s.add(spans(900, 50)), 50);
        assert_eq!(s.add(spans(5, 100)), 100);
        assert_eq!((s.queue_us(), s.busy_us()), (905, 150));
        assert_eq!(s.dominant(true), Some(("queue_wait", 905)));
        assert_eq!(s.dominant(false), Some(("eval", 150)));
        assert_eq!(Stages::default().dominant(true), None);
    }

    #[test]
    fn wire_accounting_sums_per_kind() {
        let records = vec![
            rec(
                1,
                "user.test",
                Some(0),
                TraceEvent::MessageSent {
                    kind: "query".into(),
                    to: "wdqs.site1.test".into(),
                    bytes: 200,
                },
            ),
            rec(
                2,
                "site1.test",
                None,
                TraceEvent::MessageSent {
                    kind: "report".into(),
                    to: "user.test".into(),
                    bytes: 90,
                },
            ),
            rec(
                3,
                "site1.test",
                Some(1),
                TraceEvent::MessageDropped {
                    kind: "query".into(),
                    to: "wdqs.site2.test".into(),
                    bytes: 210,
                    reason: "random".into(),
                },
            ),
            terminated(10),
        ];
        let text = report(&diagnose(&records));
        assert!(
            text.contains("query 1 msg(s) 200 byte(s) (+1 dropped, 210 byte(s))\nreport 1 msg(s) 90 byte(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn bottleneck_report_names_the_queue_heavy_site() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            spans_queued(40, "site1.test", 0, 100, 5),
            sent(41, "site1.test", "site2.test", 1),
            recv(50, "site2.test", 1),
            spans_queued(90, "site2.test", 1, 50, 900),
            terminated(120),
        ];
        let text = report(&diagnose(&records));
        // Saturated first: 900us of queue wait against 70us of service
        // (parse 10 + log 2 + eval 50 + build 3 + forward 5).
        assert!(
            text.contains(
                "== sites (queue wait vs service time, busy timeline) ==\n\
                 site2.test 1 clone(s) queue 900us (avg 900us) service 70us (util 58.3%) \
                 [....##############......] dominant: eval (50us)\n\
                 site1.test 1 clone(s) queue 5us (avg 5us) service 120us (util 100.0%) \
                 [########................] dominant: eval (100us)\n\
                 saturated site: site2.test — 900us queued against 70us of service (util 58.3%); spend capacity on `eval`"
            ),
            "{text}"
        );
        // Queue wait counts toward query stage totals but never toward
        // site busy time (above: 70us of service, a 70us bar).
        assert!(text.contains("dominant stage queue_wait (905us)"), "{text}");
    }

    #[test]
    fn bottleneck_report_survives_traces_with_no_spans() {
        // A trace with zero completed queries (and zero stage spans)
        // must render without panicking.
        let records = vec![sent(0, "user.test", "site1.test", 0)];
        let text = report(&diagnose(&records));
        assert!(text.contains("no stage spans in trace"), "{text}");

        // Fully empty trace too.
        let text = report(&diagnose(&[]));
        assert!(text.starts_with("webdis-doctor: 0 queries over 0us of trace"));
        assert!(text.contains("no stage spans in trace"), "{text}");
    }

    #[test]
    fn cache_report_counts_sites_and_critical_path_hits() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            rec(
                11,
                "site1.test",
                Some(0),
                TraceEvent::CacheMiss {
                    node: "http://site1.test/doc0.html".into(),
                },
            ),
            spans(40, "site1.test", 0, 100),
            sent(41, "site1.test", "site2.test", 1),
            recv(50, "site2.test", 1),
            // The hit on the deepest visit — the critical path ends here.
            rec(
                51,
                "site2.test",
                Some(1),
                TraceEvent::CacheHit {
                    node: "http://site2.test/doc0.html".into(),
                    subsumed: true,
                    rows: 3,
                },
            ),
            rec(
                52,
                "site2.test",
                Some(1),
                TraceEvent::CacheEvict {
                    node: "http://site2.test/doc9.html".into(),
                    bytes: 120,
                    resident_bytes: 480,
                },
            ),
            spans(90, "site2.test", 1, 5),
            terminated(120),
        ];
        let text = report(&diagnose(&records));
        assert!(
            text.contains(
                "== answer cache ==\n\
                 site1.test 0 hit(s) (0 subsumed) 1 miss(es) 0 eviction(s) hit rate 0.0%\n\
                 site2.test 1 hit(s) (1 subsumed) 0 miss(es) 1 eviction(s) hit rate 100.0%\n\
                 critical path served from cache: 1/1 query (100.0%)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn cache_hit_off_the_critical_path_does_not_count() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            // Two children: site2 finishes last (critical), site3 is the
            // fast branch and the only one served from cache.
            sent(11, "site1.test", "site2.test", 1),
            sent(11, "site1.test", "site3.test", 1),
            recv(20, "site3.test", 1),
            rec(
                21,
                "site3.test",
                Some(1),
                TraceEvent::CacheHit {
                    node: "http://site3.test/doc0.html".into(),
                    subsumed: false,
                    rows: 1,
                },
            ),
            recv(500, "site2.test", 1),
            terminated(600),
        ];
        let text = report(&diagnose(&records));
        assert!(
            text.contains(
                "== answer cache ==\n\
                 site3.test 1 hit(s) (0 subsumed) 0 miss(es) 0 eviction(s) hit rate 100.0%\n\
                 critical path served from cache: 0/1 query (0.0%)\n"
            ),
            "the hit was off-path:\n{text}"
        );
    }

    #[test]
    fn cache_report_is_empty_for_traces_without_cache_events() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            spans(40, "site1.test", 0, 100),
            terminated(60),
        ];
        let text = report(&diagnose(&records));
        assert!(
            !text.contains("answer cache"),
            "cache-free trace must not render a cache section:\n{text}"
        );
    }

    #[test]
    fn alert_timeline_orders_transitions_and_names_open_incidents() {
        let alert = |t: u64, event: TraceEvent| TraceRecord {
            time_us: t,
            site: "monitor".into(),
            query: None,
            hop: None,
            event,
        };
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            terminated(120),
            // Out of time order: the timeline sorts.
            alert(
                500_000,
                TraceEvent::AlertFired {
                    rule: "queue_depth_high".into(),
                    value_milli: 70_000_000,
                    threshold_milli: 64_000,
                },
            ),
            alert(
                200_000,
                TraceEvent::AlertFired {
                    rule: "shed_rate_burn".into(),
                    value_milli: 40_000,
                    threshold_milli: 1_000,
                },
            ),
            alert(
                400_000,
                TraceEvent::AlertResolved {
                    rule: "shed_rate_burn".into(),
                    value_milli: 0,
                },
            ),
        ];
        let text = report(&diagnose(&records));
        assert!(
            text.contains(
                "== alert timeline ==\n\
                 t= 200000us FIRED shed_rate_burn (value 40000 milli, threshold 1000 milli)\n\
                 t= 400000us resolved shed_rate_burn (value 0 milli)\n\
                 t= 500000us FIRED queue_depth_high (value 70000000 milli, threshold 64000 milli)\n\
                 STILL FIRING at end of trace: queue_depth_high\n"
            ),
            "{text}"
        );
        // Monitor-free traces keep the section out entirely.
        let quiet = diagnose(&[sent(0, "user.test", "site1.test", 0), terminated(10)]);
        assert!(!report(&quiet).contains("alert timeline"));
    }

    #[test]
    fn streaming_loader_handles_multi_megabyte_traces() {
        use std::io::Write;

        // ~80k records of realistic size lands well past 2 MB on disk —
        // enough to make an accidental read_to_string regression visible
        // in memory profiles, small enough for a unit test.
        let dir = std::env::temp_dir().join(format!("webdis-doctor-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big-trace.jsonl");
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            for i in 0..80_000u64 {
                let r = sent(i, "user.test", &format!("site{}.test", i % 7), 0);
                writeln!(f, "{}", crate::json::encode_record(&r)).unwrap();
                if i % 1000 == 0 {
                    writeln!(f).unwrap(); // blank lines are skipped
                }
            }
        }
        assert!(
            std::fs::metadata(&path).unwrap().len() > 2_000_000,
            "synthetic trace should be multi-MB"
        );
        let records = load_trace(&path).expect("stream decode");
        assert_eq!(records.len(), 80_000);
        assert_eq!(records[79_999].time_us, 79_999);

        // A corrupt line reports its 1-based line number, blank lines
        // included in the count.
        let bad = dir.join("bad-trace.jsonl");
        let good = crate::json::encode_record(&sent(1, "user.test", "a.test", 0));
        std::fs::write(&bad, format!("{good}\n\n{{\"broken\n")).unwrap();
        let err = load_trace(&bad).unwrap_err();
        assert!(err.contains(":3:"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    fn mutation(t: u64, site: &str, op: &str, url: &str, version: u64) -> TraceRecord {
        TraceRecord {
            time_us: t,
            site: site.into(),
            query: None,
            hop: None,
            event: TraceEvent::WebMutation {
                op: op.into(),
                url: url.into(),
                site_version: version,
            },
        }
    }

    fn fetch(t: u64, site: &str, url: &str, version: u64) -> TraceRecord {
        rec(
            t,
            site,
            Some(0),
            TraceEvent::DocFetch {
                url: url.into(),
                cache_hit: true,
                content_version: version,
            },
        )
    }

    #[test]
    fn staleness_report_counts_mutations_and_superseded_visits() {
        let url = "http://site1.test/doc0.html";
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            // Fresh visit before the edit: version 0 is current.
            fetch(20, "site1.test", url, 0),
            // A visit *after* the edit served from the pre-edit build —
            // stamped before the edit's record reaches the stream.
            fetch(200, "site1.test", url, 0),
            mutation(100, "site1.test", "edit_page", url, 1),
            mutation(
                150,
                "site1.test",
                "delete_page",
                "http://site1.test/doc1.html",
                2,
            ),
            mutation(160, "site1.test", "link_graft", url, 3),
            terminated(300),
        ];
        let d = diagnose(&records);
        // Superseded visits are flagged, never anomalies: only the
        // chaos oracle holds the authoritative schedule.
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(
            d.flagged[0].text,
            "site1.test: served http://site1.test/doc0.html at t=200us from version 0 \
             (current since before the visit: 3)"
        );
        assert_eq!(d.flagged.len(), 1, "{:?}", d.flagged);
        let text = report(&d);
        assert!(
            text.contains(
                "== living web ==\n\
                 site1.test 1 edit(s) 1 delete(s) 0 create(s) 1 other final version 3\n\
                 SUPERSEDED: site1.test served http://site1.test/doc0.html at t=200us from version 0 (current: 3)\n"
            ),
            "{text}"
        );
    }

    #[test]
    fn boundary_fetch_at_the_mutation_instant_is_not_superseded() {
        let url = "http://site1.test/doc0.html";
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            mutation(100, "site1.test", "edit_page", url, 1),
            // Same instant as the mutation: either version is legal.
            fetch(100, "site1.test", url, 0),
            terminated(300),
        ];
        let d = diagnose(&records);
        assert!(d.flagged.is_empty(), "{:?}", d.flagged);
        assert!(report(&d).contains("no visit answered from superseded content"));
    }

    #[test]
    fn dead_link_termination_is_flagged_never_anomalous() {
        let node = "http://site1.test/doc1.html";
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            mutation(50, "site1.test", "delete_page", node, 1),
            rec(
                60,
                "site1.test",
                Some(0),
                TraceEvent::DeadLink {
                    node: node.into(),
                    version: 1,
                },
            ),
            terminated(100),
        ];
        let d = diagnose(&records);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert!(any(
            &d.flagged,
            "dead link http://site1.test/doc1.html (deleted at site version 1) — link rot"
        ));
        assert!(report(&d).contains(
            "dead link: site1.test reached http://site1.test/doc1.html after deletion (site version 1) — terminated gracefully"
        ));
    }

    #[test]
    fn frozen_traces_render_no_living_web_section() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            fetch(20, "site1.test", "http://site1.test/doc0.html", 0),
            terminated(60),
        ];
        let text = report(&diagnose(&records));
        assert!(
            !text.contains("living web"),
            "frozen trace must not render a staleness section:\n{text}"
        );
    }

    #[test]
    fn bottleneck_report_falls_back_to_service_time_without_queueing() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            spans(40, "site1.test", 0, 300),
            terminated(60),
        ];
        let text = report(&diagnose(&records));
        assert!(
            text.contains("no queueing observed — busiest site is site1.test (util 533.3%, dominant stage eval)"),
            "{text}"
        );
    }
}

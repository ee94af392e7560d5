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

use std::collections::BTreeMap;

use crate::trajectory::{self, Visit};
use crate::{QueryId, TraceEvent, TraceRecord};

pub use crate::STAGES;

/// The backpressure span's stage label.
pub const QUEUE_STAGE: &str = STAGES[0];

/// One hop on a query's critical path.
#[derive(Debug, Clone)]
pub struct CriticalHop {
    /// The visited site.
    pub site: String,
    /// The clone's hop count at this visit.
    pub hop: u32,
    /// Transit time from the parent's send to this site's receive
    /// (`None` while the clone is still in flight).
    pub transit_us: Option<u64>,
    /// Total stage-attributed busy time at this visit.
    pub busy_us: u64,
    /// The visit's dominant stage, when any stage time was attributed.
    pub dominant_stage: Option<(&'static str, u64)>,
}

/// Everything the doctor concluded about one query.
#[derive(Debug, Clone)]
pub struct QueryDiagnosis {
    /// The query.
    pub id: QueryId,
    /// First to last stamped event, in trace microseconds.
    pub total_us: u64,
    /// Termination reasons observed (empty = the query never
    /// terminated — a hang).
    pub terminations: Vec<String>,
    /// The chain of visits that finished last — the completion-limiting
    /// path through the shipping tree.
    pub critical_path: Vec<CriticalHop>,
    /// Per-stage busy time summed over every visit.
    pub stage_totals: BTreeMap<&'static str, u64>,
    /// `query_sent` records whose parent visit could not be found.
    pub orphans: usize,
    /// Visits whose clone was provably lost to fault injection
    /// (`(site, hop, reason)`) — flagged, but *not* an anomaly.
    pub dropped_visits: Vec<(String, u32, String)>,
    /// Visits whose clone was sent but never received, with no drop
    /// record to explain it — a hang.
    pub hung_visits: Vec<(String, u32)>,
    /// Nodes written off by §7.1 expiry.
    pub expired_nodes: Vec<String>,
    /// Clones refused by admission control (destination-node counts).
    pub shed_clones: Vec<u32>,
    /// Extra message copies delivered by injected duplication
    /// (`(kind, to)`) — flagged, never an anomaly: the duplicate carries
    /// no `MessageSent`, so it cannot orphan or hang the trajectory.
    pub duplicated_deliveries: Vec<(String, String)>,
}

impl QueryDiagnosis {
    /// The stage with the most attributed time, if any stage saw any.
    pub fn dominant_stage(&self) -> Option<(&'static str, u64)> {
        self.stage_totals
            .iter()
            .filter(|(_, us)| **us > 0)
            .max_by_key(|(_, us)| **us)
            .map(|(s, us)| (*s, *us))
    }
}

/// Per-site busy/idle accounting over the run.
#[derive(Debug, Clone)]
pub struct SiteUtilization {
    /// The site host.
    pub site: String,
    /// Total stage-attributed busy microseconds.
    pub busy_us: u64,
    /// Busy microseconds per timeline bucket (fixed bucket count over
    /// the whole run).
    pub timeline: Vec<u64>,
}

/// One site's queue-wait vs service-time attribution — the inputs to
/// the utilization-law bottleneck call.
#[derive(Debug, Clone)]
pub struct SiteBottleneck {
    /// The site host.
    pub site: String,
    /// Clones processed (stage-span records seen).
    pub clones: u64,
    /// Total queue-wait microseconds across those clones.
    pub queue_us: u64,
    /// Total service (busy) microseconds across those clones.
    pub service_us: u64,
    /// The service stage with the most attributed time, if any.
    pub dominant_stage: Option<(&'static str, u64)>,
}

impl SiteBottleneck {
    /// Mean queue wait per clone, µs.
    pub fn mean_queue_us(&self) -> u64 {
        self.queue_us.checked_div(self.clones).unwrap_or(0)
    }

    /// Mean service time per clone, µs.
    pub fn mean_service_us(&self) -> u64 {
        self.service_us.checked_div(self.clones).unwrap_or(0)
    }

    /// Utilization over the run: service time / trace extent.
    pub fn utilization(&self, end_us: u64) -> f64 {
        self.service_us as f64 / end_us.max(1) as f64
    }
}

/// The utilization-law bottleneck report: per-site queue-wait vs
/// service-time attribution, with the saturated site named. The law in
/// play: for a single sequential processor per site, queue wait grows
/// without bound as utilization (service time per unit wall clock)
/// approaches 1 — so the site carrying the most queue wait *is* the
/// saturated one, and its dominant service stage is where added
/// capacity (or the multicore refactor) pays off first.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Per-site attribution, sorted by total queue wait descending
    /// (service time breaks ties).
    pub sites: Vec<SiteBottleneck>,
}

impl BottleneckReport {
    /// The saturated site: the one with the most queue wait (most
    /// service time among queue-free sites). `None` when the trace
    /// carried no stage spans at all — e.g. zero completed queries.
    pub fn saturated(&self) -> Option<&SiteBottleneck> {
        self.sites.first()
    }
}

/// One site's answer-cache activity, accumulated from its
/// `cache_hit`/`cache_miss`/`cache_evict` trace events.
#[derive(Debug, Clone, Default)]
pub struct SiteCacheLine {
    /// The site host.
    pub site: String,
    /// Lookups served from the cache (exact and subsumed).
    pub hits: u64,
    /// The subset of `hits` served through subsumption replay.
    pub subsumed_hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

impl SiteCacheLine {
    /// Hits over consults; 0 when the site saw no lookups.
    pub fn hit_rate(&self) -> f64 {
        let consults = self.hits + self.misses;
        if consults == 0 {
            return 0.0;
        }
        self.hits as f64 / consults as f64
    }
}

/// The fleet-wide answer-cache report: per-site hit/miss/eviction
/// counts plus how often the cache shortened the completion-limiting
/// path. Empty (no sites, zero queries counted) when the trace carries
/// no cache events — caching off or a pre-cache trace.
#[derive(Debug, Clone, Default)]
pub struct CacheReport {
    /// Per-site activity, in site order.
    pub sites: Vec<SiteCacheLine>,
    /// Queries with at least one cache hit at a (site, hop) on their
    /// critical path — the hits that moved the completion time, not
    /// just some branch's.
    pub critical_path_served: usize,
    /// Queries examined (all queries in the trace, cached or not).
    pub queries: usize,
}

impl CacheReport {
    /// True when the trace recorded any cache activity at all.
    pub fn any_activity(&self) -> bool {
        !self.sites.is_empty()
    }

    /// Fraction of queries whose critical path had a cache hit on it.
    pub fn critical_path_fraction(&self) -> f64 {
        self.critical_path_served as f64 / self.queries.max(1) as f64
    }
}

/// One site's living-web activity, accumulated from the mutation
/// driver's `WebMutation` records.
#[derive(Debug, Clone, Default)]
pub struct SiteStalenessLine {
    /// The mutated site's host.
    pub site: String,
    /// `edit_page` mutations applied.
    pub edits: u64,
    /// `delete_page` mutations applied.
    pub deletes: u64,
    /// `create_page` mutations applied.
    pub creates: u64,
    /// Anchor grafts and site-membership changes.
    pub other: u64,
    /// The site's content version after its last traced mutation.
    pub final_version: u64,
}

/// One visit that answered from superseded content: a `DocFetch` whose
/// stamped version is older than the version the document had held
/// since strictly before the visit (a fetch at *exactly* a mutation's
/// instant may land on either side of it, so the boundary is tolerant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupersededVisit {
    /// The visiting server's host.
    pub site: String,
    /// The document served.
    pub url: String,
    /// Visit time on the trace clock.
    pub time_us: u64,
    /// The version the visit answered from.
    pub saw_version: u64,
    /// The version current since before the visit.
    pub current_version: u64,
}

/// The living-web staleness report: which sites changed mid-run, which
/// visits answered from superseded content, and which clones terminated
/// at dead links. Empty — and absent from the rendered report — on a
/// frozen trace (no `WebMutation` or `DeadLink` records), so pre-living
/// traces read exactly as before.
#[derive(Debug, Clone, Default)]
pub struct StalenessReport {
    /// Per-site mutation accounting, in site order.
    pub sites: Vec<SiteStalenessLine>,
    /// Visits that answered from superseded content. Flagged, not
    /// anomalous: only the plan's authoritative schedule (the chaos
    /// oracle's twin replay) can promote one to a contract violation.
    pub superseded_visits: Vec<SupersededVisit>,
    /// Dead-link terminations, `(site, node, version)` — link rot the
    /// engine completed around, flagged and *never* an anomaly.
    pub dead_links: Vec<(String, String, u64)>,
}

impl StalenessReport {
    /// True when the trace recorded any living-web activity at all.
    pub fn any_activity(&self) -> bool {
        !self.sites.is_empty() || !self.dead_links.is_empty()
    }
}

/// Wire traffic for one message kind.
#[derive(Debug, Clone, Default)]
pub struct WireLine {
    /// Message kind (`query`, `report`, …).
    pub kind: String,
    /// Messages put on the wire.
    pub msgs: u64,
    /// Bytes put on the wire.
    pub bytes: u64,
    /// Messages lost to fault injection.
    pub dropped_msgs: u64,
    /// Bytes lost to fault injection.
    pub dropped_bytes: u64,
    /// Messages lost to injected byte corruption (the decode-path drop).
    pub corrupted_msgs: u64,
    /// Bytes lost to injected byte corruption.
    pub corrupted_bytes: u64,
    /// Extra copies delivered by injected duplication.
    pub duplicated_msgs: u64,
    /// Bytes carried by those extra copies.
    pub duplicated_bytes: u64,
}

/// One alert transition lifted from the trace — the monitor's
/// `alert_fired`/`alert_resolved` records in time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTimelineEntry {
    /// Trace timestamp of the transition (the closing window's end).
    pub time_us: u64,
    /// The rule's name.
    pub rule: String,
    /// True for fired, false for resolved.
    pub fired: bool,
    /// The signal value at the transition, fixed-point milli-units.
    pub value_milli: u64,
    /// The rule's threshold (0 on resolved records, which carry none).
    pub threshold_milli: u64,
}

/// The full diagnosis of a trace.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Per-query findings, in first-seen order.
    pub queries: Vec<QueryDiagnosis>,
    /// Per-site busy/idle accounting (sites with stage spans only).
    pub sites: Vec<SiteUtilization>,
    /// Wire byte accounting per message kind.
    pub wire: Vec<WireLine>,
    /// Queue-wait vs service-time attribution per site, saturated site
    /// first (the utilization-law bottleneck call).
    pub bottleneck: BottleneckReport,
    /// Answer-cache activity per site, plus the fraction of queries
    /// whose critical path was served from cache. Empty when the trace
    /// has no cache events.
    pub cache: CacheReport,
    /// Alert transitions in trace order (empty when no monitor ran).
    /// A rule still firing at the end of the trace is itself worth a
    /// look — the run ended inside an incident.
    pub alerts: Vec<AlertTimelineEntry>,
    /// Living-web staleness accounting: per-site mutations, superseded
    /// visits, dead-link terminations. Empty on a frozen trace.
    pub staleness: StalenessReport,
    /// Hard failures: orphaned sends and hung clones/queries. A clean
    /// trace has none, even under heavy injected loss.
    pub anomalies: Vec<String>,
    /// Notable-but-explained events: injected drops, expiries, sheds.
    pub flagged: Vec<String>,
    /// Last event timestamp (the run's extent on the trace clock).
    pub end_us: u64,
}

/// Timeline buckets per site in the utilization report.
const TIMELINE_BUCKETS: usize = 24;

fn visit_finish_us(v: &Visit) -> u64 {
    v.received_us.unwrap_or(v.sent_us)
}

/// The chain of visits that finished last, root excluded.
fn critical_chain(root: &Visit) -> Vec<&Visit> {
    let mut chain = Vec::new();
    let mut cur = root;
    loop {
        let next = cur.children.iter().max_by_key(|c| {
            // Deepest finish time anywhere in the child's subtree.
            fn subtree_max(v: &Visit) -> u64 {
                v.children
                    .iter()
                    .map(subtree_max)
                    .max()
                    .unwrap_or(0)
                    .max(visit_finish_us(v))
            }
            subtree_max(c)
        });
        match next {
            Some(child) => {
                chain.push(child);
                cur = child;
            }
            None => break,
        }
    }
    chain
}

fn in_flight_visits(root: &Visit) -> Vec<(String, u32, u64)> {
    let mut out = Vec::new();
    fn walk(v: &Visit, out: &mut Vec<(String, u32, u64)>, is_root: bool) {
        if !is_root && v.received_us.is_none() {
            out.push((v.site.clone(), v.hop, v.sent_us));
        }
        for c in &v.children {
            walk(c, out, false);
        }
    }
    walk(root, &mut out, true);
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

/// Diagnoses a full record stream.
pub fn diagnose(records: &[TraceRecord]) -> Diagnosis {
    let end_us = records.iter().map(|r| r.time_us).max().unwrap_or(0);
    let mut anomalies = Vec::new();
    let mut flagged = Vec::new();

    // Wire accounting straight from the transport records.
    let mut wire_map: BTreeMap<String, WireLine> = BTreeMap::new();
    for r in records {
        let (kind, bytes) = match &r.event {
            TraceEvent::MessageSent { kind, bytes, .. }
            | TraceEvent::MessageDropped { kind, bytes, .. }
            | TraceEvent::MessageCorrupted { kind, bytes, .. }
            | TraceEvent::MessageDuplicated { kind, bytes, .. } => (kind, u64::from(*bytes)),
            _ => continue,
        };
        let line = wire_map.entry(kind.clone()).or_insert_with(|| WireLine {
            kind: kind.clone(),
            ..WireLine::default()
        });
        let (msgs, total) = match &r.event {
            TraceEvent::MessageSent { .. } => (&mut line.msgs, &mut line.bytes),
            TraceEvent::MessageDropped { .. } => (&mut line.dropped_msgs, &mut line.dropped_bytes),
            TraceEvent::MessageCorrupted { .. } => {
                (&mut line.corrupted_msgs, &mut line.corrupted_bytes)
            }
            _ => (&mut line.duplicated_msgs, &mut line.duplicated_bytes),
        };
        *msgs += 1;
        *total += bytes;
    }

    // Injected duplications are notable but always benign for the
    // trajectory: the extra copy never carries a `MessageSent`, so it
    // can neither orphan nor hang anything. Flag the ones that are not
    // tied to a query here; query-scoped ones are flagged per query.
    for r in records {
        if r.query.is_none() {
            if let TraceEvent::MessageDuplicated { kind, to, .. } = &r.event {
                flagged.push(format!(
                    "{}: {kind} to {to} delivered twice (injected duplication)",
                    r.site
                ));
            }
        }
    }

    // Per-site utilization from the stage spans, plus the queue-wait vs
    // service-time split the bottleneck report is built from.
    let mut sites: BTreeMap<String, SiteUtilization> = BTreeMap::new();
    let mut site_stages: BTreeMap<String, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
    let bucket_us = (end_us / TIMELINE_BUCKETS as u64).max(1);
    for r in records {
        if let Some(spans) = r.event.stage_spans() {
            let busy: u64 = spans
                .iter()
                .filter(|(stage, _)| *stage != QUEUE_STAGE)
                .map(|(_, us)| us)
                .sum();
            let (clones, stages) = site_stages.entry(r.site.clone()).or_default();
            *clones += 1;
            for (stage, us) in spans {
                *stages.entry(stage).or_default() += us;
            }
            let entry = sites
                .entry(r.site.clone())
                .or_insert_with(|| SiteUtilization {
                    site: r.site.clone(),
                    busy_us: 0,
                    timeline: vec![0; TIMELINE_BUCKETS],
                });
            entry.busy_us += busy;
            // Attribute the busy interval [time - busy, time] backwards
            // across the buckets it covers.
            let mut remaining = busy;
            let mut t_end = r.time_us;
            while remaining > 0 {
                let idx = ((t_end.saturating_sub(1)) / bucket_us).min(TIMELINE_BUCKETS as u64 - 1)
                    as usize;
                let bucket_start = idx as u64 * bucket_us;
                let chunk = remaining.min(t_end.saturating_sub(bucket_start)).max(1);
                entry.timeline[idx] += chunk;
                remaining = remaining.saturating_sub(chunk);
                t_end = t_end.saturating_sub(chunk);
                if t_end == 0 {
                    // Clamp anything left over into the first bucket.
                    entry.timeline[0] += remaining;
                    break;
                }
            }
        }
    }

    // Per-site answer-cache accounting, straight from the cache events.
    let mut cache_sites: BTreeMap<String, SiteCacheLine> = BTreeMap::new();
    for r in records {
        let (hit, subsumed_hit, miss, evict) = match &r.event {
            TraceEvent::CacheHit { subsumed, .. } => (1, u64::from(*subsumed), 0, 0),
            TraceEvent::CacheMiss { .. } => (0, 0, 1, 0),
            TraceEvent::CacheEvict { .. } => (0, 0, 0, 1),
            _ => continue,
        };
        let line = cache_sites
            .entry(r.site.clone())
            .or_insert_with(|| SiteCacheLine {
                site: r.site.clone(),
                ..SiteCacheLine::default()
            });
        line.hits += hit;
        line.subsumed_hits += subsumed_hit;
        line.misses += miss;
        line.evictions += evict;
    }
    let mut critical_path_served = 0usize;

    // Living-web staleness accounting: per-site mutation counts, a
    // per-document version timeline from the `WebMutation` records, and
    // every `DocFetch` held against it. The doctor sees only the trace,
    // so a visit from superseded content is *flagged* (the chaos
    // oracle, which holds the authoritative schedule, is the one that
    // promotes staleness to a violation).
    let mut staleness_sites: BTreeMap<String, SiteStalenessLine> = BTreeMap::new();
    let mut doc_versions: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        let TraceEvent::WebMutation {
            op,
            url,
            site_version,
        } = &r.event
        else {
            continue;
        };
        let line = staleness_sites
            .entry(r.site.clone())
            .or_insert_with(|| SiteStalenessLine {
                site: r.site.clone(),
                ..SiteStalenessLine::default()
            });
        match op.as_str() {
            "edit_page" => line.edits += 1,
            "delete_page" => line.deletes += 1,
            "create_page" => line.creates += 1,
            _ => line.other += 1,
        }
        line.final_version = line.final_version.max(*site_version);
        doc_versions
            .entry(url.as_str())
            .or_default()
            .push((r.time_us, *site_version));
    }
    for timeline in doc_versions.values_mut() {
        timeline.sort_unstable();
    }
    let mut superseded_visits = Vec::new();
    let mut dead_links = Vec::new();
    for r in records {
        match &r.event {
            TraceEvent::DocFetch {
                url,
                content_version,
                ..
            } => {
                let Some(timeline) = doc_versions.get(url.as_str()) else {
                    continue;
                };
                let current = timeline
                    .iter()
                    .take_while(|(at, _)| *at < r.time_us)
                    .last()
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                if *content_version < current {
                    superseded_visits.push(SupersededVisit {
                        site: r.site.clone(),
                        url: url.clone(),
                        time_us: r.time_us,
                        saw_version: *content_version,
                        current_version: current,
                    });
                }
            }
            TraceEvent::DeadLink { node, version } => {
                dead_links.push((r.site.clone(), node.clone(), *version));
            }
            _ => {}
        }
    }
    for v in &superseded_visits {
        flagged.push(format!(
            "{}: served {} at t={}us from version {} (current since before \
             the visit: {})",
            v.site, v.url, v.time_us, v.saw_version, v.current_version
        ));
    }
    for (site, node, version) in &dead_links {
        flagged.push(format!(
            "{site}: clone terminated at dead link {node} (deleted at site \
             version {version}) — link rot, completed around"
        ));
    }

    // Per-query diagnosis. The stream is split by query once: filtering
    // it per query (and again inside `reconstruct`) made a trace of q
    // queries cost q passes over every record.
    let mut queries = Vec::new();
    for (id, own) in trajectory::by_query(records) {
        let first = own.iter().map(|r| r.time_us).min().unwrap_or(0);
        let last = own.iter().map(|r| r.time_us).max().unwrap_or(0);

        let trajectory = trajectory::reconstruct_own(own.clone(), &id);

        // Stage totals per (site, hop) visit, and overall.
        let mut per_visit: BTreeMap<(String, Option<u32>), u64> = BTreeMap::new();
        let mut per_visit_dom: BTreeMap<(String, Option<u32>), BTreeMap<&'static str, u64>> =
            BTreeMap::new();
        let mut stage_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &own {
            if let Some(spans) = r.event.stage_spans() {
                let key = (r.site.clone(), r.hop);
                for (stage, us) in spans {
                    *stage_totals.entry(stage).or_default() += us;
                    // Queue wait is attribution, not busy time: it feeds
                    // the totals (so a queue-bound query's dominant
                    // "stage" is honestly queue_wait) but never the
                    // per-visit busy accounting.
                    if stage == QUEUE_STAGE {
                        continue;
                    }
                    *per_visit.entry(key.clone()).or_default() += us;
                    *per_visit_dom
                        .entry(key.clone())
                        .or_default()
                        .entry(stage)
                        .or_default() += us;
                }
            }
        }

        let critical_path: Vec<CriticalHop> = {
            let chain = critical_chain(&trajectory.root);
            let mut hops = Vec::new();
            for visit in chain {
                let key = (visit.site.clone(), Some(visit.hop));
                let dominant = per_visit_dom.get(&key).and_then(|m| {
                    m.iter()
                        .filter(|(_, us)| **us > 0)
                        .max_by_key(|(_, us)| **us)
                        .map(|(s, us)| (*s, *us))
                });
                hops.push(CriticalHop {
                    site: visit.site.clone(),
                    hop: visit.hop,
                    transit_us: visit.received_us.map(|r| r.saturating_sub(visit.sent_us)),
                    busy_us: per_visit.get(&key).copied().unwrap_or(0),
                    dominant_stage: dominant,
                });
            }
            hops
        };

        // A cache hit shortened this query's completion time only if it
        // happened at a (site, hop) on the completion-limiting path.
        let hit_visits: std::collections::BTreeSet<(String, Option<u32>)> = own
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::CacheHit { .. }))
            .map(|r| (r.site.clone(), r.hop))
            .collect();
        if critical_path
            .iter()
            .any(|h| hit_visits.contains(&(h.site.clone(), Some(h.hop))))
        {
            critical_path_served += 1;
        }

        // Classify in-flight visits: explained by a drop or corruption
        // record (a corrupted frame is a loss through the decode path),
        // or hung.
        let mut drops: Vec<(&TraceRecord, bool)> = own
            .iter()
            .filter(|r| {
                matches!(
                    &r.event,
                    TraceEvent::MessageDropped { kind, .. }
                        | TraceEvent::MessageCorrupted { kind, .. } if kind == "query"
                )
            })
            .map(|r| (*r, false))
            .collect();
        let mut dropped_visits = Vec::new();
        let mut hung_visits = Vec::new();
        for (site, hop, _) in in_flight_visits(&trajectory.root) {
            let explained = drops.iter_mut().find(|(r, used)| {
                if *used {
                    return false;
                }
                match &r.event {
                    TraceEvent::MessageDropped { to, .. }
                    | TraceEvent::MessageCorrupted { to, .. } => {
                        drop_explains(to, r.hop, &site, hop)
                    }
                    _ => false,
                }
            });
            match explained {
                Some((r, used)) => {
                    *used = true;
                    let reason = match &r.event {
                        TraceEvent::MessageDropped { reason, .. } => reason.clone(),
                        TraceEvent::MessageCorrupted { .. } => "corrupted".to_string(),
                        _ => unreachable!(),
                    };
                    dropped_visits.push((site, hop, reason));
                }
                None => hung_visits.push((site, hop)),
            }
        }

        let mut terminations = Vec::new();
        let mut expired_nodes = Vec::new();
        let mut shed_clones = Vec::new();
        let mut duplicated_deliveries = Vec::new();
        for r in &own {
            match &r.event {
                TraceEvent::Termination { reason } => terminations.push(reason.name().to_string()),
                TraceEvent::EntryExpired { node } => expired_nodes.push(node.clone()),
                TraceEvent::QueryShed { nodes } => shed_clones.push(*nodes),
                TraceEvent::MessageDuplicated { kind, to, .. } => {
                    duplicated_deliveries.push((kind.clone(), to.clone()))
                }
                _ => {}
            }
        }

        let label = format!("{}#{}", id.user, id.query_num);
        for record in &trajectory.orphans {
            anomalies.push(format!(
                "{label}: orphaned send from {} at hop {:?} (t={}us)",
                record.site, record.hop, record.time_us
            ));
        }
        for (site, hop) in &hung_visits {
            anomalies.push(format!(
                "{label}: clone to {site} (hop {hop}) sent but never received, \
                 and no drop record explains it"
            ));
        }
        if terminations.is_empty() {
            anomalies.push(format!("{label}: no termination record — the query hung"));
        }
        for (site, hop, reason) in &dropped_visits {
            flagged.push(format!(
                "{label}: clone to {site} (hop {hop}) dropped in flight ({reason})"
            ));
        }
        for node in &expired_nodes {
            flagged.push(format!("{label}: entry expired for {node} (§7.1 recovery)"));
        }
        for nodes in &shed_clones {
            flagged.push(format!(
                "{label}: clone shed by admission control ({nodes} node(s))"
            ));
        }
        for (kind, to) in &duplicated_deliveries {
            flagged.push(format!(
                "{label}: {kind} to {to} delivered twice (injected duplication)"
            ));
        }

        queries.push(QueryDiagnosis {
            id,
            total_us: last.saturating_sub(first),
            terminations,
            critical_path,
            stage_totals,
            orphans: trajectory.orphans.len(),
            dropped_visits,
            hung_visits,
            expired_nodes,
            shed_clones,
            duplicated_deliveries,
        });
    }

    // The saturated site is the one carrying the most queue wait; a
    // trace with no queueing at all falls back to raw service time.
    let mut bottleneck_sites: Vec<SiteBottleneck> = site_stages
        .into_iter()
        .map(|(site, (clones, stages))| {
            let queue_us = stages.get(QUEUE_STAGE).copied().unwrap_or(0);
            let service_us: u64 = stages
                .iter()
                .filter(|(s, _)| **s != QUEUE_STAGE)
                .map(|(_, us)| *us)
                .sum();
            let dominant_stage = stages
                .iter()
                .filter(|(s, us)| **s != QUEUE_STAGE && **us > 0)
                .max_by_key(|(_, us)| **us)
                .map(|(s, us)| (*s, *us));
            SiteBottleneck {
                site,
                clones,
                queue_us,
                service_us,
                dominant_stage,
            }
        })
        .collect();
    bottleneck_sites.sort_by(|a, b| {
        (b.queue_us, b.service_us, &a.site).cmp(&(a.queue_us, a.service_us, &b.site))
    });

    let cache = CacheReport {
        sites: cache_sites.into_values().collect(),
        critical_path_served,
        queries: queries.len(),
    };

    // The alert timeline, straight from the monitor's trace records.
    let mut alerts: Vec<AlertTimelineEntry> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::AlertFired {
                rule,
                value_milli,
                threshold_milli,
            } => Some(AlertTimelineEntry {
                time_us: r.time_us,
                rule: rule.clone(),
                fired: true,
                value_milli: *value_milli,
                threshold_milli: *threshold_milli,
            }),
            TraceEvent::AlertResolved { rule, value_milli } => Some(AlertTimelineEntry {
                time_us: r.time_us,
                rule: rule.clone(),
                fired: false,
                value_milli: *value_milli,
                threshold_milli: 0,
            }),
            _ => None,
        })
        .collect();
    alerts.sort_by(|a, b| (a.time_us, &a.rule).cmp(&(b.time_us, &b.rule)));

    Diagnosis {
        queries,
        sites: sites.into_values().collect(),
        bottleneck: BottleneckReport {
            sites: bottleneck_sites,
        },
        cache,
        wire: wire_map.into_values().collect(),
        alerts,
        staleness: StalenessReport {
            sites: staleness_sites.into_values().collect(),
            superseded_visits,
            dead_links,
        },
        anomalies,
        flagged,
        end_us,
    }
}

impl Diagnosis {
    /// Rules whose last transition in the trace is a fire — incidents
    /// still open when the run ended.
    pub fn alerts_still_firing(&self) -> Vec<&str> {
        let mut last: BTreeMap<&str, bool> = BTreeMap::new();
        for a in &self.alerts {
            last.insert(&a.rule, a.fired);
        }
        last.into_iter()
            .filter(|(_, fired)| *fired)
            .map(|(rule, _)| rule)
            .collect()
    }

    /// Renders the full report as plain text. `top` bounds the slowest-
    /// queries section.
    pub fn render_text(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "webdis-doctor: {} quer{} over {}us of trace\n",
            self.queries.len(),
            if self.queries.len() == 1 { "y" } else { "ies" },
            self.end_us
        ));

        // Top-k slowest with dominant stage.
        let mut slowest: Vec<&QueryDiagnosis> = self.queries.iter().collect();
        slowest.sort_by_key(|q| std::cmp::Reverse(q.total_us));
        out.push_str(&format!("\n== slowest queries (top {top}) ==\n"));
        for q in slowest.iter().take(top) {
            let dom = q
                .dominant_stage()
                .map(|(s, us)| format!("dominant stage {s} ({us}us)"))
                .unwrap_or_else(|| "no stage spans".to_string());
            out.push_str(&format!(
                "{}#{}: {}us, {} — terminated: {}\n",
                q.id.user,
                q.id.query_num,
                q.total_us,
                dom,
                if q.terminations.is_empty() {
                    "NEVER".to_string()
                } else {
                    q.terminations.join(", ")
                }
            ));
            for hop in &q.critical_path {
                let transit = hop
                    .transit_us
                    .map(|t| format!("transit {t}us"))
                    .unwrap_or_else(|| "in flight".to_string());
                let stage = hop
                    .dominant_stage
                    .map(|(s, us)| format!(", busy {}us (mostly {s}: {us}us)", hop.busy_us))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  critical: {} hop {} — {transit}{stage}\n",
                    hop.site, hop.hop
                ));
            }
        }

        // Per-site utilization timeline.
        if !self.sites.is_empty() {
            out.push_str("\n== site utilization (stage-attributed busy time) ==\n");
            let bucket_us = (self.end_us / TIMELINE_BUCKETS as u64).max(1);
            for site in &self.sites {
                let bar: String = site
                    .timeline
                    .iter()
                    .map(|&busy| {
                        let frac = busy as f64 / bucket_us as f64;
                        if frac <= 0.0 {
                            '.'
                        } else if frac < 0.33 {
                            '-'
                        } else if frac < 0.66 {
                            '+'
                        } else {
                            '#'
                        }
                    })
                    .collect();
                let pct = 100.0 * site.busy_us as f64 / self.end_us.max(1) as f64;
                out.push_str(&format!(
                    "{:<24} busy {:>8}us ({pct:5.1}%)  [{bar}]\n",
                    site.site, site.busy_us
                ));
            }
        }

        // Utilization-law bottleneck report.
        out.push_str("\n== bottleneck (queue wait vs service time) ==\n");
        if self.bottleneck.sites.is_empty() {
            out.push_str("no stage spans in trace — nothing to attribute\n");
        } else {
            for b in &self.bottleneck.sites {
                let rho = b.utilization(self.end_us);
                let dom = match b.dominant_stage {
                    Some((stage, us)) => format!("{stage} ({us}us)"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:<24} {:>4} clone(s)  queue {:>8}us (avg {:>6}us)  service {:>8}us \
                     (util {:5.1}%)  dominant: {dom}\n",
                    b.site,
                    b.clones,
                    b.queue_us,
                    b.mean_queue_us(),
                    b.service_us,
                    100.0 * rho,
                ));
            }
            if let Some(sat) = self.bottleneck.saturated() {
                let dom = sat
                    .dominant_stage
                    .map(|(stage, _)| stage)
                    .unwrap_or("queue_wait");
                if sat.queue_us > 0 {
                    out.push_str(&format!(
                        "saturated site: {} — {}us queued against {}us of service \
                         (util {:.1}%); spend capacity on `{dom}`\n",
                        sat.site,
                        sat.queue_us,
                        sat.service_us,
                        100.0 * sat.utilization(self.end_us),
                    ));
                } else {
                    out.push_str(&format!(
                        "no queueing observed — busiest site is {} \
                         (util {:.1}%, dominant stage {dom})\n",
                        sat.site,
                        100.0 * sat.utilization(self.end_us),
                    ));
                }
            }
        }

        // Answer-cache activity (only when the trace recorded any —
        // a cache-off or pre-cache trace skips the section entirely).
        if self.cache.any_activity() {
            out.push_str("\n== answer cache ==\n");
            for line in &self.cache.sites {
                out.push_str(&format!(
                    "{:<24} {:>5} hit(s) ({} subsumed)  {:>5} miss(es)  {:>4} eviction(s)  \
                     hit rate {:5.1}%\n",
                    line.site,
                    line.hits,
                    line.subsumed_hits,
                    line.misses,
                    line.evictions,
                    100.0 * line.hit_rate(),
                ));
            }
            out.push_str(&format!(
                "critical path served from cache: {}/{} quer{} ({:.1}%)\n",
                self.cache.critical_path_served,
                self.cache.queries,
                if self.cache.queries == 1 { "y" } else { "ies" },
                100.0 * self.cache.critical_path_fraction(),
            ));
        }

        // Wire accounting.
        if !self.wire.is_empty() {
            out.push_str("\n== wire bytes per message type ==\n");
            for line in &self.wire {
                out.push_str(&format!(
                    "{:<12} {:>6} msg(s) {:>10} byte(s)",
                    line.kind, line.msgs, line.bytes
                ));
                if line.dropped_msgs > 0 {
                    out.push_str(&format!(
                        "  (+{} dropped, {} byte(s))",
                        line.dropped_msgs, line.dropped_bytes
                    ));
                }
                if line.corrupted_msgs > 0 {
                    out.push_str(&format!(
                        "  (+{} corrupted, {} byte(s))",
                        line.corrupted_msgs, line.corrupted_bytes
                    ));
                }
                if line.duplicated_msgs > 0 {
                    out.push_str(&format!(
                        "  (+{} duplicated, {} byte(s))",
                        line.duplicated_msgs, line.duplicated_bytes
                    ));
                }
                out.push('\n');
            }
        }

        // Living-web staleness (only when the trace saw mutations or
        // dead links — a frozen trace keeps the section out entirely).
        if self.staleness.any_activity() {
            out.push_str("\n== living web ==\n");
            for line in &self.staleness.sites {
                out.push_str(&format!(
                    "{:<24} {:>3} edit(s)  {:>3} delete(s)  {:>3} create(s)  \
                     {:>3} other  final version {}\n",
                    line.site,
                    line.edits,
                    line.deletes,
                    line.creates,
                    line.other,
                    line.final_version
                ));
            }
            if self.staleness.superseded_visits.is_empty() {
                out.push_str("no visit answered from superseded content\n");
            } else {
                for v in &self.staleness.superseded_visits {
                    out.push_str(&format!(
                        "SUPERSEDED: {} served {} at t={}us from version {} \
                         (current: {})\n",
                        v.site, v.url, v.time_us, v.saw_version, v.current_version
                    ));
                }
            }
            for (site, node, version) in &self.staleness.dead_links {
                out.push_str(&format!(
                    "dead link: {site} reached {node} after deletion (site \
                     version {version}) — terminated gracefully\n"
                ));
            }
        }

        // Alert timeline (only when a monitor emitted transitions).
        if !self.alerts.is_empty() {
            out.push_str("\n== alert timeline ==\n");
            for a in &self.alerts {
                if a.fired {
                    out.push_str(&format!(
                        "t={:>10}us  FIRED     {}  (value {} milli, threshold {} milli)\n",
                        a.time_us, a.rule, a.value_milli, a.threshold_milli
                    ));
                } else {
                    out.push_str(&format!(
                        "t={:>10}us  resolved  {}  (value {} milli)\n",
                        a.time_us, a.rule, a.value_milli
                    ));
                }
            }
            let open = self.alerts_still_firing();
            if open.is_empty() {
                out.push_str("all alerts resolved by end of trace\n");
            } else {
                out.push_str(&format!(
                    "STILL FIRING at end of trace: {}\n",
                    open.join(", ")
                ));
            }
        }

        if !self.flagged.is_empty() {
            out.push_str("\n== flagged (explained) ==\n");
            for f in &self.flagged {
                out.push_str(&format!("{f}\n"));
            }
        }
        out.push_str("\n== anomalies ==\n");
        if self.anomalies.is_empty() {
            out.push_str(
                "none — every send was received or accounted for, every query terminated\n",
            );
        } else {
            for a in &self.anomalies {
                out.push_str(&format!("{a}\n"));
            }
        }
        out
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
        assert!(d
            .flagged
            .iter()
            .any(|f| f.contains("dropped in flight (injected)")));
        assert!(d.flagged.iter().any(|f| f.contains("entry expired")));
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
        assert!(d
            .flagged
            .iter()
            .any(|f| f.contains("dropped in flight (corrupted)")));
    }

    #[test]
    fn duplicated_delivery_is_flagged_never_anomalous() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            rec(
                20,
                "site1.test",
                None,
                TraceEvent::MessageDuplicated {
                    kind: "report".into(),
                    to: "user.test".into(),
                    bytes: 90,
                },
            ),
            terminated(30),
        ];
        let d = diagnose(&records);
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert_eq!(
            d.queries[0].duplicated_deliveries,
            vec![("report".into(), "user.test".into())]
        );
        assert!(d
            .flagged
            .iter()
            .any(|f| f.contains("report to user.test delivered twice")));
        let query_wire = d.wire.iter().find(|w| w.kind == "report").unwrap();
        assert_eq!(
            (query_wire.duplicated_msgs, query_wire.duplicated_bytes),
            (1, 90)
        );
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
        assert!(
            d.anomalies.iter().any(|a| a.contains("never received")),
            "{:?}",
            d.anomalies
        );
        assert!(d.anomalies.iter().any(|a| a.contains("no termination")));
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
        let d = diagnose(&records);
        let q = &d.queries[0];
        assert_eq!(q.stage_totals["eval"], 400);
        assert_eq!(q.stage_totals["parse"], 20);
        assert_eq!(q.dominant_stage(), Some(("eval", 400)));
        // Critical path ends at site2 with its own dominant stage.
        let last = q.critical_path.last().unwrap();
        assert_eq!(last.site, "site2.test");
        assert_eq!(last.transit_us, Some(9));
        assert_eq!(last.dominant_stage, Some(("eval", 300)));
        // Site utilization saw both sites.
        assert_eq!(d.sites.len(), 2);
        assert!(d
            .sites
            .iter()
            .any(|s| s.site == "site1.test" && s.busy_us == 120));
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
        let d = diagnose(&records);
        let query = d.wire.iter().find(|w| w.kind == "query").unwrap();
        assert_eq!((query.msgs, query.bytes), (1, 200));
        assert_eq!((query.dropped_msgs, query.dropped_bytes), (1, 210));
        let report = d.wire.iter().find(|w| w.kind == "report").unwrap();
        assert_eq!((report.msgs, report.bytes), (1, 90));
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
        let d = diagnose(&records);
        let sat = d.bottleneck.saturated().expect("spans present");
        assert_eq!(sat.site, "site2.test");
        assert_eq!(sat.queue_us, 900);
        assert_eq!(sat.service_us, 70);
        assert_eq!(sat.dominant_stage, Some(("eval", 50)));
        // Queue wait counts toward query stage totals but never toward
        // site busy time.
        assert_eq!(d.queries[0].stage_totals["queue_wait"], 905);
        let site2 = d.sites.iter().find(|s| s.site == "site2.test").unwrap();
        assert_eq!(site2.busy_us, 70);
        let text = d.render_text(5);
        assert!(
            text.contains("saturated site: site2.test"),
            "render must name the saturated site:\n{text}"
        );
        assert!(text.contains("spend capacity on `eval`"));
    }

    #[test]
    fn bottleneck_report_survives_traces_with_no_spans() {
        // A trace with zero completed queries (and zero stage spans)
        // must render without panicking.
        let records = vec![sent(0, "user.test", "site1.test", 0)];
        let d = diagnose(&records);
        assert!(d.bottleneck.sites.is_empty());
        assert!(d.bottleneck.saturated().is_none());
        let text = d.render_text(5);
        assert!(text.contains("no stage spans in trace"));

        // Fully empty trace too.
        let d = diagnose(&[]);
        assert!(d.bottleneck.saturated().is_none());
        d.render_text(5);
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
        let d = diagnose(&records);
        assert!(d.cache.any_activity());
        let s1 = d
            .cache
            .sites
            .iter()
            .find(|s| s.site == "site1.test")
            .unwrap();
        assert_eq!((s1.hits, s1.misses, s1.evictions), (0, 1, 0));
        let s2 = d
            .cache
            .sites
            .iter()
            .find(|s| s.site == "site2.test")
            .unwrap();
        assert_eq!((s2.hits, s2.subsumed_hits, s2.evictions), (1, 1, 1));
        assert_eq!(s2.hit_rate(), 1.0);
        // The hit sits on the critical path (site2 is the last hop).
        assert_eq!(d.cache.critical_path_served, 1);
        assert_eq!(d.cache.queries, 1);
        let text = d.render_text(5);
        assert!(text.contains("== answer cache =="), "{text}");
        assert!(
            text.contains("critical path served from cache: 1/1 query (100.0%)"),
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
        let d = diagnose(&records);
        assert_eq!(d.cache.sites.len(), 1);
        assert_eq!(d.cache.critical_path_served, 0, "hit was off-path");
        assert_eq!(d.cache.queries, 1);
    }

    #[test]
    fn cache_report_is_empty_for_traces_without_cache_events() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            spans(40, "site1.test", 0, 100),
            terminated(60),
        ];
        let d = diagnose(&records);
        assert!(!d.cache.any_activity());
        assert_eq!(d.cache.critical_path_served, 0);
        let text = d.render_text(5);
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
            alert(
                500_000,
                TraceEvent::AlertFired {
                    rule: "queue_depth_high".into(),
                    value_milli: 70_000_000,
                    threshold_milli: 64_000,
                },
            ),
        ];
        let d = diagnose(&records);
        assert_eq!(d.alerts.len(), 3);
        assert!(d.alerts[0].fired && d.alerts[0].rule == "shed_rate_burn");
        assert!(!d.alerts[1].fired);
        assert_eq!(d.alerts_still_firing(), vec!["queue_depth_high"]);
        let text = d.render_text(5);
        assert!(text.contains("== alert timeline =="), "{text}");
        assert!(text.contains("FIRED     shed_rate_burn"), "{text}");
        assert!(text.contains("resolved  shed_rate_burn"), "{text}");
        assert!(
            text.contains("STILL FIRING at end of trace: queue_depth_high"),
            "{text}"
        );
        // Monitor-free traces keep the section out entirely.
        let quiet = diagnose(&[sent(0, "user.test", "site1.test", 0), terminated(10)]);
        assert!(quiet.alerts.is_empty());
        assert!(!quiet.render_text(5).contains("alert timeline"));
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

        // A corrupt line reports its 1-based line number.
        let bad = dir.join("bad-trace.jsonl");
        std::fs::write(&bad, "{\"broken\n").unwrap();
        let err = load_trace(&bad).unwrap_err();
        assert!(err.contains(":1:"), "{err}");

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
            mutation(100, "site1.test", "edit_page", url, 1),
            mutation(
                150,
                "site1.test",
                "delete_page",
                "http://site1.test/doc1.html",
                2,
            ),
            // A visit *after* the edit served from the pre-edit build.
            fetch(200, "site1.test", url, 0),
            terminated(300),
        ];
        let d = diagnose(&records);
        assert!(d.staleness.any_activity());
        let line = &d.staleness.sites[0];
        assert_eq!((line.edits, line.deletes, line.final_version), (1, 1, 2));
        assert_eq!(
            d.staleness.superseded_visits,
            vec![SupersededVisit {
                site: "site1.test".into(),
                url: url.into(),
                time_us: 200,
                saw_version: 0,
                current_version: 1,
            }]
        );
        // Superseded visits are flagged, never anomalies: only the
        // chaos oracle holds the authoritative schedule.
        assert!(d.anomalies.is_empty(), "{:?}", d.anomalies);
        assert!(d.flagged.iter().any(|f| f.contains("served")));
        let text = d.render_text(5);
        assert!(text.contains("== living web =="), "{text}");
        assert!(text.contains("SUPERSEDED"), "{text}");
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
        assert!(d.staleness.superseded_visits.is_empty());
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
        assert_eq!(
            d.staleness.dead_links,
            vec![("site1.test".into(), node.into(), 1)]
        );
        assert!(d.flagged.iter().any(|f| f.contains("link rot")));
        let text = d.render_text(5);
        assert!(text.contains("terminated gracefully"), "{text}");
    }

    #[test]
    fn frozen_traces_render_no_living_web_section() {
        let records = vec![
            sent(0, "user.test", "site1.test", 0),
            recv(10, "site1.test", 0),
            fetch(20, "site1.test", "http://site1.test/doc0.html", 0),
            terminated(60),
        ];
        let d = diagnose(&records);
        assert!(!d.staleness.any_activity());
        let text = d.render_text(5);
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
        let d = diagnose(&records);
        let sat = d.bottleneck.saturated().unwrap();
        assert_eq!(sat.site, "site1.test");
        assert_eq!(sat.queue_us, 0);
        let text = d.render_text(5);
        assert!(text.contains("no queueing observed"), "{text}");
    }
}

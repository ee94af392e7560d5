//! End-to-end measurement: one self-contained round — set up, warm up,
//! timed block, verify, tear down — per call, driven from this one
//! thread through the system's public functions only.
//!
//! Every time a round reports is corrected for the host's speed: the
//! timed block runs in slices of about 200 ms with a reading of the
//! [`Probe`] at each boundary, and a slice's latencies, wall time and CPU
//! are divided by the mean of the two readings around it. The uncorrected
//! latencies and the readings are kept beside the corrected ones.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdis_core::{
    run_datashipping_sim, run_query_sim, ClientProcess, EngineConfig, ServerStats, TcpCluster,
    TcpFaultPlan, TcpNet, UserSite,
};
use webdis_disql::parse_disql;
use webdis_net::{Message, MESSAGE_KINDS};
use webdis_sim::SimConfig;
use webdis_web::{HostedWeb, LiveWeb};

use crate::host::Probe;
use crate::stats::median;
use crate::sysinfo::process_cpu_ms;
use crate::workloads::{
    Kind, Workload, HUNG_DEADLINE_MS, LATENCY_LIMIT_MS, OPEN_LOOP_QPS, SETUPS_PER_ROUND,
};

/// Order-insensitive view of a query's rows: `(stage, node, values)`.
pub type ResultSet = BTreeSet<(u32, String, Vec<String>)>;

/// Everything one round measured.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Cold start to first answer: web generation, engine and cluster
    /// start, first query complete. Median of the round's cold starts,
    /// each at the host's undisturbed speed.
    pub setup_s: f64,
    /// Latency of every timed query at the host's undisturbed speed, ms,
    /// in submission order. Failed queries carry the time until they were
    /// given up on.
    pub latencies_ms: Vec<f64>,
    /// The same latencies as the clock read them.
    pub raw_latencies_ms: Vec<f64>,
    /// Every reading of the host's slowdown taken around the timed block.
    pub slowdowns: Vec<f64>,
    /// Open loop: how late after its due time each query was submitted.
    pub lateness_ms: Vec<f64>,
    /// Submission (open loop: due time) to first result row, where known.
    pub first_row_ms: Vec<f64>,
    /// Wall time of the timed block without the probe readings. Closed
    /// loop: at the host's undisturbed speed. Open loop: as the clock
    /// read it, since the timetable sets it and not the host.
    pub block_wall_s: f64,
    /// Process CPU (user+system, all threads) over the timed block,
    /// without the probe readings, at the host's undisturbed speed.
    pub block_cpu_ms: f64,
    /// Encoded bytes put on the wire by timed queries.
    pub wire_bytes: u64,
    /// Messages sent by timed queries.
    pub messages: u64,
    /// Timed queries submitted.
    pub attempted: u64,
    /// Timed queries that hung, were incomplete, or answered wrongly.
    pub failed: u64,
    /// Timed queries answered correctly (open loop: within the limit).
    pub good: u64,
    /// Reasons for the first few failures.
    pub failures: Vec<String>,
    /// Server counters summed over sites, whole round (warm-up included).
    pub server: BTreeMap<&'static str, u64>,
}

impl Round {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// The canonical row set of collected results.
pub fn result_set(
    results: &BTreeMap<u32, Vec<(webdis_model::Url, webdis_rel::ResultRow)>>,
) -> ResultSet {
    let mut out = BTreeSet::new();
    for (stage, rows) in results {
        for (node, row) in rows {
            out.insert((
                *stage,
                node.to_string(),
                row.values.iter().map(|v| v.render()).collect(),
            ));
        }
    }
    out
}

fn sum_stats<'a>(all: impl IntoIterator<Item = &'a ServerStats>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in all {
        for (k, v) in s.counters() {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

/// Runs the cold start [`SETUPS_PER_ROUND`] times — `start` builds
/// everything up to and including the first answered query, `stop` tears
/// it down again — and keeps the last one running. Returns it with the
/// median start time, each start corrected by the probe readings around
/// it: one cold start of a few milliseconds is at the mercy of whichever
/// state the core is in.
fn cold_starts<S>(probe: &Probe, start: impl Fn() -> S, stop: impl Fn(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut running: Option<S> = None;
    for _ in 0..SETUPS_PER_ROUND {
        if let Some(previous) = running.take() {
            stop(previous);
        }
        let before = probe.slowdown();
        let t0 = Instant::now();
        running = Some(start());
        let took = t0.elapsed().as_secs_f64();
        times.push(took / ((before + probe.slowdown()) / 2.0));
    }
    (running.expect("at least one cold start"), median(&times))
}

/// The timed block of a closed-loop round: `timed` calls of `one`, which
/// runs one query and returns its latency in ms, in slices of `slice`
/// queries with a probe reading at every boundary. Fills the round's
/// latencies, wall time, CPU and readings; the readings themselves are
/// outside every timed interval.
fn timed_slices(
    probe: &Probe,
    r: &mut Round,
    timed: usize,
    slice: usize,
    mut one: impl FnMut() -> f64,
) {
    let mut before = probe.slowdown();
    r.slowdowns.push(before);
    let mut left = timed;
    while left > 0 {
        let n = left.min(slice.max(1));
        left -= n;
        let first = r.raw_latencies_ms.len();
        let cpu0 = process_cpu_ms();
        let t0 = Instant::now();
        for _ in 0..n {
            r.raw_latencies_ms.push(one());
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ms = process_cpu_ms() - cpu0;
        let after = probe.slowdown();
        r.slowdowns.push(after);
        let slowdown = (before + after) / 2.0;
        before = after;
        r.latencies_ms
            .extend(r.raw_latencies_ms[first..].iter().map(|ms| ms / slowdown));
        r.block_wall_s += wall_s / slowdown;
        r.block_cpu_ms += cpu_ms / slowdown;
    }
}

/// One round of a workload with the given per-round counts.
pub fn run_round(
    w: &Workload,
    probe: &Probe,
    seed: u64,
    round: usize,
    warmup: usize,
    timed: usize,
) -> Round {
    match w.kind {
        Kind::Crawl16Sim => sim_round(w, probe, warmup, timed),
        Kind::CampusTcp | Kind::Crawl16Tcp => closed_tcp_round(w, probe, warmup, timed),
        Kind::ZipfLiveTcp => open_tcp_round(w, probe, seed, round, warmup, timed),
    }
}

fn sim_round(w: &Workload, probe: &Probe, warmup: usize, timed: usize) -> Round {
    let mut r = Round::default();
    let query = &w.templates()[0];
    let cfg = w.engine_config();
    let run = |web: &Arc<HostedWeb>| {
        run_query_sim(Arc::clone(web), query, cfg.clone(), SimConfig::default())
            .expect("workload DISQL parses")
    };

    let (web, setup_s) = cold_starts(
        probe,
        || {
            let web = Arc::new(w.web());
            assert!(
                run(&web).complete,
                "first query of the round did not complete"
            );
            web
        },
        drop,
    );
    r.setup_s = setup_s;

    for _ in 0..warmup {
        std::hint::black_box(run(&web));
    }

    let mut outcomes = Vec::with_capacity(timed);
    timed_slices(probe, &mut r, timed, w.slice, || {
        let q0 = Instant::now();
        let outcome = run(&web);
        let ms = q0.elapsed().as_secs_f64() * 1e3;
        outcomes.push(outcome);
        ms
    });

    // Verify against the centralized answer, computed once per round.
    let reference = run_datashipping_sim(Arc::clone(&web), query, SimConfig::default())
        .expect("workload DISQL parses")
        .result_set();
    let docs = web.len() as u64;
    r.attempted = timed as u64;
    for (i, o) in outcomes.iter().enumerate() {
        r.wire_bytes += o.metrics.total.bytes;
        r.messages += o.metrics.total.messages;
        let evals = o.sum_stat(|s| s.evaluations);
        if !o.complete {
            r.fail(format!("query {i}: incomplete: {:?}", o.why_incomplete));
        } else if o.result_set() != reference {
            r.fail(format!(
                "query {i}: rows differ from the centralized answer"
            ));
        } else if evals != docs {
            r.fail(format!(
                "query {i}: {evals} evaluations for {docs} documents"
            ));
        } else {
            r.good += 1;
        }
    }
    r.server = sum_stats(outcomes.iter().flat_map(|o| o.server_stats.values()));
    r
}

/// A started loopback cluster plus the one client process that talks to it.
struct Session {
    cluster: TcpCluster,
    client: ClientProcess,
    net: TcpNet,
}

impl Session {
    fn start_frozen(web: Arc<HostedWeb>, cfg: &EngineConfig) -> Session {
        Session::over(TcpCluster::start(web, cfg, TcpFaultPlan::default()), cfg)
    }

    fn start_live(web: Arc<LiveWeb>, cfg: &EngineConfig) -> Session {
        // The generator applies the edits itself, at fixed positions in
        // the query sequence, so the cluster gets no mutator thread.
        Session::over(
            TcpCluster::start_live(web, cfg, TcpFaultPlan::default(), None),
            cfg,
        )
    }

    fn over(cluster: TcpCluster, cfg: &EngineConfig) -> Session {
        let client = ClientProcess::new("hwbench", cluster.user_site().clone(), cfg.clone());
        let net = cluster.user_net();
        Session {
            cluster,
            client,
            net,
        }
    }

    /// Parses and submits one query; the parse is part of what a user
    /// waits for, so it sits inside the timed interval.
    fn submit(&mut self, disql: &str) -> u64 {
        let query = parse_disql(disql).expect("workload DISQL parses");
        self.client.submit(&mut self.net, query)
    }

    /// Waits up to `timeout` for one message and routes it. Returns the
    /// number of the query it belonged to.
    fn pump(&mut self, timeout: Duration) -> Option<u64> {
        let msg = self.cluster.recv_timeout(timeout)?;
        let num = match &msg {
            Message::Report(r) => Some(r.id.query_num),
            Message::Ack(a) => Some(a.id.query_num),
            _ => None,
        };
        self.client.on_message(&mut self.net, msg);
        num
    }

    fn is_complete(&self, num: u64) -> bool {
        self.client.query(num).is_some_and(|q| q.complete)
    }

    /// Submits one query and waits for it (closed loop). Returns the
    /// finished user site and the latency, or `None` when it hung.
    fn run_one(&mut self, disql: &str) -> (Option<UserSite>, f64) {
        let q0 = Instant::now();
        let num = self.submit(disql);
        let deadline = Duration::from_millis(HUNG_DEADLINE_MS);
        while !self.is_complete(num) {
            let left = deadline.saturating_sub(q0.elapsed());
            if left.is_zero() {
                break;
            }
            self.pump(left);
        }
        let ms = q0.elapsed().as_secs_f64() * 1e3;
        let done = self.is_complete(num);
        let site = self.client.forget(num);
        (site.filter(|_| done), ms)
    }

    fn wire_totals(&self) -> (u64, u64) {
        let wire = self.cluster.wire_counters();
        let msgs = MESSAGE_KINDS.iter().map(|k| wire.msgs_of(k)).sum();
        (msgs, wire.total_bytes())
    }

    /// Waits until no daemon has sent anything for a while: a query is
    /// complete at the user before the last silently-dropped duplicate
    /// clones have been written, and those belong to its block.
    fn quiesce(&self) -> (u64, u64) {
        let mut last = self.wire_totals();
        let mut stable_since = Instant::now();
        let give_up = Instant::now() + Duration::from_millis(500);
        while stable_since.elapsed() < Duration::from_millis(8) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
            let now = self.wire_totals();
            if now != last {
                last = now;
                stable_since = Instant::now();
            }
        }
        last
    }

    fn shutdown(self) -> BTreeMap<&'static str, u64> {
        let engines = self.cluster.shutdown();
        sum_stats(engines.iter().map(|e| &e.stats))
    }
}

fn closed_tcp_round(w: &Workload, probe: &Probe, warmup: usize, timed: usize) -> Round {
    let mut r = Round::default();
    let query = &w.templates()[0];
    let cfg = w.engine_config();

    let ((web, mut s), setup_s) = cold_starts(
        probe,
        || {
            let web = Arc::new(w.web());
            let mut s = Session::start_frozen(Arc::clone(&web), &cfg);
            let (first, _) = s.run_one(query);
            assert!(first.is_some(), "first query of the round did not complete");
            (web, s)
        },
        |(_, s)| drop(s.shutdown()),
    );
    r.setup_s = setup_s;

    for _ in 0..warmup {
        std::hint::black_box(s.run_one(query));
    }

    let (msgs0, bytes0) = s.quiesce();
    let mut sites = Vec::with_capacity(timed);
    let mut first_row_ms = Vec::with_capacity(timed);
    timed_slices(probe, &mut r, timed, w.slice, || {
        let cluster_t0 = s.cluster.now_us();
        let (site, ms) = s.run_one(query);
        if let Some(first_row) = site.as_ref().and_then(|u| u.first_result_us) {
            first_row_ms.push(first_row.saturating_sub(cluster_t0) as f64 / 1e3);
        }
        sites.push(site);
        ms
    });
    r.first_row_ms = first_row_ms;
    let (msgs1, bytes1) = s.quiesce();
    r.messages = msgs1 - msgs0;
    r.wire_bytes = bytes1 - bytes0;
    r.server = s.shutdown();

    // Verify: every query's rows equal the centralized answer, and the
    // sites together evaluated each reachable node once per query.
    let reference = run_datashipping_sim(Arc::clone(&web), query, SimConfig::default())
        .expect("workload DISQL parses")
        .result_set();
    r.attempted = timed as u64;
    for (i, site) in sites.iter().enumerate() {
        match site {
            None => r.fail(format!("query {i}: hung past {HUNG_DEADLINE_MS} ms")),
            Some(u) if result_set(&u.results) != reference => r.fail(format!(
                "query {i}: rows differ from the centralized answer"
            )),
            Some(_) => r.good += 1,
        }
    }
    let per_query = run_query_sim(Arc::clone(&web), query, cfg, SimConfig::default())
        .expect("workload DISQL parses")
        .sum_stat(|s| s.evaluations);
    let expected = per_query * (1 + warmup + timed) as u64;
    let evaluated = r.server.get("evaluations").copied().unwrap_or(0);
    if evaluated != expected && r.failed == 0 {
        r.good -= 1;
        r.fail(format!(
            "sites evaluated {evaluated} node-queries, {expected} expected"
        ));
    }
    r
}

/// The open-loop timetable: query `i` is due `i` gaps after the start,
/// whatever happened to the queries before it. Latency counts from the
/// due time, so a stall of the generator or the system is charged to
/// every query it delayed, not hidden by submitting them late.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopClock {
    start: Instant,
    gap: Duration,
}

impl OpenLoopClock {
    /// A timetable starting at `start` with one query every `gap`.
    pub fn new(start: Instant, gap: Duration) -> OpenLoopClock {
        OpenLoopClock { start, gap }
    }

    /// When query `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.gap * i as u32
    }

    /// Latency of query `i`, completed at `done`, from its due time.
    pub fn latency_ms(&self, i: usize, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3
    }

    /// How late after its due time query `i` was submitted.
    pub fn lateness_ms(&self, i: usize, submitted: Instant) -> f64 {
        submitted
            .saturating_duration_since(self.due(i))
            .as_secs_f64()
            * 1e3
    }
}

/// A query of an open-loop stream that was answered or given up on.
struct Done {
    /// Position in the stream.
    index: usize,
    /// When it was retired.
    at: Instant,
    /// The finished user site, or `None` when the query hung.
    site: Option<UserSite>,
    /// Due time to first result row, ms, where known.
    first_row_ms: Option<f64>,
    /// Edits applied before it was submitted, and before it was retired.
    versions: (usize, usize),
}

/// What one open-loop stream saw.
struct Stream {
    clock: OpenLoopClock,
    end: Instant,
    lateness_ms: Vec<f64>,
    done: Vec<Done>,
    /// Probe readings `(when, slowdown)`, oldest first; one before the
    /// first query and one after the last at the least.
    readings: Vec<(Instant, f64)>,
    /// Time the readings inside the stream took.
    probe_wall_s: f64,
}

impl Stream {
    /// The host's slowdown while a query due at `due` and retired at
    /// `done` ran: the mean of the two nearest readings before it and the
    /// two nearest after it (fewer at the ends of the stream).
    fn slowdown(&self, due: Instant, done: Instant) -> f64 {
        let after = self.readings.partition_point(|(t, _)| *t < done);
        let before = self.readings.partition_point(|(t, _)| *t <= due);
        let near = &self.readings[before.saturating_sub(2)..(after + 2).min(self.readings.len())];
        near.iter().map(|(_, x)| x).sum::<f64>() / near.len() as f64
    }
}

/// Sends `sequence` (a template index per query) at the fixed rate, query
/// `i` due `i` gaps after the start whatever happened before it, applies
/// each edit just before the query it is attached to, and returns once
/// every query is answered or hung. With a probe, the host's speed is
/// read whenever nothing is in flight and the next query is not yet due.
fn open_stream(
    s: &mut Session,
    live: &LiveWeb,
    probe: Option<&Probe>,
    templates: &[String],
    sequence: &[usize],
    edits: &[(usize, webdis_web::Mutation)],
) -> Stream {
    const READING_EVERY: Duration = Duration::from_millis(100);
    const READING_ROOM: Duration = Duration::from_millis(4);
    let deadline = Duration::from_millis(HUNG_DEADLINE_MS);
    let gap = Duration::from_secs_f64(1.0 / OPEN_LOOP_QPS);
    let mut readings: Vec<(Instant, f64)> = Vec::new();
    let read_probe = |readings: &mut Vec<(Instant, f64)>| {
        if let Some(p) = probe {
            let slowdown = p.slowdown();
            readings.push((Instant::now(), slowdown));
        }
    };
    read_probe(&mut readings);
    let clock = OpenLoopClock::new(Instant::now() + Duration::from_millis(2), gap);
    let start_cluster_us = s.cluster.now_us() + 2000;
    let mut out = Stream {
        clock,
        end: clock.due(0),
        lateness_ms: Vec::with_capacity(sequence.len()),
        done: Vec::with_capacity(sequence.len()),
        readings: Vec::new(),
        probe_wall_s: 0.0,
    };
    // query number → (position, edits applied before it was submitted)
    let mut in_flight: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    let (mut next, mut next_edit) = (0usize, 0usize);
    let mut last_reading = Instant::now();

    while next < sequence.len() || !in_flight.is_empty() {
        let now = Instant::now();
        if next < sequence.len() && now >= clock.due(next) {
            while next_edit < edits.len() && edits[next_edit].0 == next {
                live.apply(&edits[next_edit].1);
                next_edit += 1;
            }
            let num = s.submit(&templates[sequence[next]]);
            out.lateness_ms.push(clock.lateness_ms(next, now));
            in_flight.insert(num, (next, next_edit));
            next += 1;
            continue;
        }
        let until_due = if next < sequence.len() {
            clock.due(next).saturating_duration_since(now)
        } else {
            Duration::from_millis(5)
        };
        if in_flight.is_empty()
            && next < sequence.len()
            && until_due > READING_ROOM
            && last_reading.elapsed() > READING_EVERY
        {
            read_probe(&mut readings);
            last_reading = Instant::now();
            out.probe_wall_s += last_reading.duration_since(now).as_secs_f64();
            continue;
        }
        let finished = s
            .pump(until_due.min(Duration::from_millis(5)))
            .filter(|num| s.is_complete(*num));
        let now = Instant::now();
        let mut retire: Vec<u64> = finished.into_iter().collect();
        retire.extend(
            in_flight
                .iter()
                .filter(|(_, f)| now.saturating_duration_since(clock.due(f.0)) > deadline)
                .map(|(num, _)| *num),
        );
        for num in retire {
            let Some((index, version_at_submit)) = in_flight.remove(&num) else {
                continue;
            };
            let complete = s.is_complete(num);
            let site = s.client.forget(num).filter(|_| complete);
            let due_cluster_us = start_cluster_us + (gap * index as u32).as_micros() as u64;
            out.done.push(Done {
                index,
                at: now,
                first_row_ms: site
                    .as_ref()
                    .and_then(|u| u.first_result_us)
                    .map(|us| us.saturating_sub(due_cluster_us) as f64 / 1e3),
                site,
                versions: (version_at_submit, next_edit),
            });
        }
    }
    out.end = Instant::now();
    read_probe(&mut readings);
    if readings.is_empty() {
        readings.push((out.end, 1.0));
    }
    out.readings = readings;
    out.done.sort_by_key(|d| d.index);
    out
}

fn open_tcp_round(
    w: &Workload,
    probe: &Probe,
    seed: u64,
    round: usize,
    warmup: usize,
    timed: usize,
) -> Round {
    let mut r = Round::default();
    let templates = w.templates();
    let cfg = w.engine_config();
    let sequence = w.sequence(seed, round, warmup, timed);
    let edits = w.mutations(seed, round, timed);

    let ((frozen, live, mut s), setup_s) = cold_starts(
        probe,
        || {
            let frozen = w.web();
            let live = Arc::new(LiveWeb::from_hosted(&frozen));
            let mut s = Session::start_live(Arc::clone(&live), &cfg);
            // Always the most popular template: a cold start that now and
            // then opened with the heavy crawl would time the draw.
            let (first, _) = s.run_one(&templates[0]);
            assert!(first.is_some(), "first query of the round did not complete");
            (frozen, live, s)
        },
        |(_, _, s)| drop(s.shutdown()),
    );
    r.setup_s = setup_s;

    // The warm-up stream runs dry before the timed one starts, so the
    // counters' baseline holds no traffic of a query still in flight.
    open_stream(&mut s, &live, None, &templates, &sequence[..warmup], &[]);
    let (msgs0, bytes0) = s.quiesce();
    let cpu0 = process_cpu_ms();
    let stream = open_stream(
        &mut s,
        &live,
        Some(probe),
        &templates,
        &sequence[warmup..],
        &edits,
    );
    let raw_cpu_ms = process_cpu_ms() - cpu0 - stream.probe_wall_s * 1e3;
    let (msgs1, bytes1) = s.quiesce();
    r.messages = msgs1 - msgs0;
    r.wire_bytes = bytes1 - bytes0;
    r.server = s.shutdown();
    r.server
        .insert("mutations_applied", live.mutations_applied());
    r.slowdowns = stream.readings.iter().map(|(_, x)| *x).collect();
    r.block_wall_s = stream.end.duration_since(stream.clock.due(0)).as_secs_f64();
    r.block_cpu_ms = raw_cpu_ms.max(0.0) / median(&r.slowdowns);
    r.lateness_ms = stream.lateness_ms.clone();
    r.first_row_ms = stream.done.iter().filter_map(|d| d.first_row_ms).collect();

    // Verify: rows must come from the versions of the web that were
    // current while the query ran — exactly that version's centralized
    // answer when only one was, a subset of their union otherwise.
    // The versions themselves are rebuilt here, outside the timed block,
    // by replaying the same edits on a second copy of the web.
    let mut versions: Vec<HostedWeb> = vec![frozen.clone()];
    let shadow = LiveWeb::from_hosted(&frozen);
    for (_, m) in &edits {
        shadow.apply(m);
        versions.push(shadow.snapshot());
    }
    let mut baselines: BTreeMap<(usize, usize), ResultSet> = BTreeMap::new();
    let mut baseline = |version: usize, template: usize| -> ResultSet {
        baselines
            .entry((version, template))
            .or_insert_with(|| {
                let web = Arc::new(versions[version].clone());
                run_datashipping_sim(web, &templates[template], SimConfig::default())
                    .expect("workload DISQL parses")
                    .result_set()
            })
            .clone()
    };
    r.attempted = timed as u64;
    for d in &stream.done {
        let template = sequence[warmup + d.index];
        let due = stream.clock.due(d.index);
        let raw_ms = stream.clock.latency_ms(d.index, d.at);
        r.raw_latencies_ms.push(raw_ms);
        r.latencies_ms.push(raw_ms / stream.slowdown(due, d.at));
        let Some(site) = &d.site else {
            r.fail(format!(
                "query {}: hung past {HUNG_DEADLINE_MS} ms",
                d.index
            ));
            continue;
        };
        let rows = result_set(&site.results);
        let (submitted, retired) = d.versions;
        let ok = if submitted == retired {
            rows == baseline(retired, template)
        } else {
            let mut envelope = ResultSet::new();
            for v in submitted..=retired {
                envelope.extend(baseline(v, template));
            }
            rows.is_subset(&envelope)
        };
        if !ok {
            r.fail(format!(
                "query {} (template {template}): rows outside web versions {submitted}..={retired}",
                d.index
            ));
        } else if raw_ms <= LATENCY_LIMIT_MS {
            // The limit is the user's, on the user's clock.
            r.good += 1;
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time_of_a_late_generator() {
        let start = Instant::now();
        let clock = OpenLoopClock::new(start, Duration::from_micros(12_500));
        assert_eq!(clock.due(4), start + Duration::from_millis(50));
        // The generator stalls: query 4 goes out 30 ms late and is
        // answered 5 ms after that. The user waited 35 ms, not 5.
        let submitted = clock.due(4) + Duration::from_millis(30);
        let done = submitted + Duration::from_millis(5);
        assert!((clock.lateness_ms(4, submitted) - 30.0).abs() < 1e-9);
        assert!((clock.latency_ms(4, done) - 35.0).abs() < 1e-9);
        // On time: lateness 0, latency is the service time.
        assert_eq!(clock.lateness_ms(5, clock.due(5)), 0.0);
        assert!((clock.latency_ms(5, clock.due(5) + Duration::from_millis(2)) - 2.0).abs() < 1e-9);
        // A clock read just before the due time never goes negative.
        assert_eq!(clock.lateness_ms(6, start), 0.0);
    }

    #[test]
    fn sim_round_verifies_every_query_against_the_centralized_answer() {
        let w = Workload::by_name("crawl16_sim").unwrap();
        let r = run_round(&w, &Probe::new().unwrap(), 11, 0, 1, 3);
        assert_eq!((r.attempted, r.failed, r.good), (3, 0, 3));
        assert_eq!((r.latencies_ms.len(), r.raw_latencies_ms.len()), (3, 3));
        // One slice of three queries: a reading before and one after.
        assert_eq!(r.slowdowns.len(), 2);
        let slowdown = (r.slowdowns[0] + r.slowdowns[1]) / 2.0;
        assert!((r.latencies_ms[0] * slowdown - r.raw_latencies_ms[0]).abs() < 1e-9);
        assert!(r.messages > 300 && r.wire_bytes > 100_000 && r.setup_s > 0.0);
        assert_eq!(r.server["evaluations"], 3 * 96);
    }
}

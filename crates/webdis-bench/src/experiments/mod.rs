//! The experiment registry: every figure and table of `EXPERIMENTS.md`
//! and every `BENCH_<name>.json` is one entry of [`EXPERIMENTS`], one
//! `pub fn run(&Ctx) -> Outcome` in one file of this directory, run by
//! the one `webdis-bench` binary.
//!
//! An experiment *asserts* the claims it reproduces (a regression
//! panics), returns the tables it renders for `EXPERIMENTS.md`, and —
//! when it has numbers worth freezing — a [`ScenarioReport`]. Simulator
//! numbers are virtual time and therefore exact; the few wall-clock
//! medians (`t16_eval_scale`) carry a noise band, and `baseline` strips
//! them so the committed `bench/baseline.json` stays machine-independent.

use std::sync::Arc;

use webdis_core::{Deployment, EngineConfig, QueryOutcome};
use webdis_sim::{ProcModel, SimConfig};
use webdis_trace::RegistrySnapshot;
use webdis_web::live::{fnv_fold, FNV_OFFSET};
use webdis_web::{generate, HostedWeb, WebGenConfig};

use crate::report::ScenarioReport;
use crate::{Table, TraceOpt};

mod fig1_traversal;
mod fig5_multivisit;
mod fig7;
mod t10_doc_cache;
mod t11_completion_protocols;
mod t12_fault_recovery;
mod t13;
mod t16_eval_scale;
mod t17_cache;
mod t18_monitor;
mod t19_soak;
mod t1_shipping_vs_size;
mod t2_selectivity;
mod t3_logtable_ablation;
mod t5_batching;
mod t6_latency;
mod t7_migration;
mod t8_purge_period;
mod t9_load_distribution;

/// What the runner tells an experiment about this invocation.
pub struct Ctx {
    /// `--smoke`: the CI-sized variant (only the experiments with a
    /// sweep to shrink look at it).
    pub smoke: bool,
    /// `--trace FILE`: the runner's collector; the experiments with a
    /// showcase run (fig1, fig7, t12, t13's probe point) record into it.
    pub tracer: TraceOpt,
}

impl Ctx {
    /// An untraced invocation, full size or `--smoke`.
    pub fn new(smoke: bool) -> Ctx {
        Ctx {
            smoke,
            tracer: TraceOpt::with_path(None),
        }
    }
}

/// What one experiment run produced (its assertions already held).
#[derive(Default)]
pub struct Outcome {
    /// The tables `EXPERIMENTS.md` records, in print order.
    pub tables: Vec<Table>,
    /// The closing lines: what was shown, ending in the ✓ line.
    pub verdict: String,
    /// The metrics and histograms of `BENCH_<name>.json` (empty for the
    /// table-only experiments).
    pub report: ScenarioReport,
}

impl Outcome {
    /// A table-only outcome: `tables` and the closing `verdict`.
    pub fn shown(tables: Vec<Table>, verdict: impl Into<String>) -> Outcome {
        Outcome {
            tables,
            verdict: verdict.into(),
            report: ScenarioReport::default(),
        }
    }
}

/// One registry entry.
pub struct Experiment {
    /// The name `run` selects it by and `BENCH_<name>.json` is written
    /// under (also its file name in this directory).
    pub name: &'static str,
    /// The figure, table or claim it regenerates.
    pub artifact: &'static str,
    /// Its exact metrics reproduce bit for bit on any machine: the only
    /// experiments `baseline` writes and `compare --smoke` reruns.
    pub pinned: bool,
    /// Runs it.
    pub run: fn(&Ctx) -> Outcome,
}

macro_rules! experiments {
    ($($name:ident $pinned:literal $artifact:literal,)*) => {
        &[$(Experiment {
            name: stringify!($name),
            artifact: $artifact,
            pinned: $pinned,
            run: $name::run,
        }),*]
    };
}

/// Every experiment, in suite order.
pub const EXPERIMENTS: &[Experiment] = experiments![
    fig1_traversal false "Figure 1 — web traversal path and node roles",
    fig5_multivisit false "Figure 5 — multiple visits to a node, log-table effect",
    fig7 true "Figures 7 and 8 — sample query traversal with states, its result table; the campus run's wire and stage numbers",
    t1_shipping_vs_size false "T1 — traffic vs web size, both engines",
    t2_selectivity false "T2 — traffic vs predicate selectivity",
    t3_logtable_ablation false "T3 — duplicate elimination on/off",
    t5_batching false "T5 — §3.2 batching optimizations on/off",
    t6_latency false "T6 — first-result/completion latency, both engines",
    t7_migration false "T7 — §7.1 hybrid migration path, participation sweep",
    t8_purge_period false "T8 — §3.1.1 log purge period vs recomputation",
    t9_load_distribution false "T9 — per-endpoint load, both engines",
    t10_doc_cache false "T10 — footnote-3 document cache under repeated queries",
    t11_completion_protocols false "T11 — CHT (paper vs strict) vs §6's acknowledgement chains",
    t12_fault_recovery false "T12 — §7.1 completion and recall under drops and crashes",
    t13 true "T13 — throughput and latency vs offered load, admission control",
    t16_eval_scale true "T16 — eval work vs corpus size, scan vs index",
    t17_cache true "T17 — answer cache against its cache-off twin",
    t18_monitor true "T18 — burn-rate alert fires and resolves under a shed storm",
    t19_soak true "T19 — living-web soak with both caches on",
];

/// The registry entry called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The needle crawl over the whole generated web — the query of T3–T6,
/// T8–T11 and the head of the t13/t17/t19 workload mixes.
const GLOBAL_QUERY: &str = r#"
    select d.url
    from document d such that "http://site0.test/doc0.html" (L|G)* d
    where d.title contains "needle"
"#;

/// The same crawl confined to the start site (the workload mixes' second
/// template).
const LOCAL_QUERY: &str = r#"
    select d.url, d.title
    from document d such that "http://site0.test/doc0.html" L* d
    where d.title contains "needle"
"#;

/// The simulator with the paper-era workstation's processor, so
/// evaluation and parsing take time; everything else at its default.
fn workstation_sim() -> SimConfig {
    SimConfig {
        proc: ProcModel::workstation_1999(),
        ..SimConfig::default()
    }
}

/// The generated web of the workload experiments (t13, t17–t19): one
/// extra local and one extra global link per document, so clones meet
/// along many paths, and the needle in 40 % of the titles.
fn workload_web(sites: usize, docs_per_site: usize, seed: u64) -> HostedWeb {
    generate(&WebGenConfig {
        sites,
        docs_per_site,
        extra_local_links: 1,
        extra_global_links: 1,
        title_needle_prob: 0.4,
        seed,
        ..WebGenConfig::default()
    })
}

/// Ships `query` over `web` on the default simulator; the run must
/// detect completion.
fn shipped(web: &Arc<HostedWeb>, query: &str, cfg: EngineConfig) -> QueryOutcome {
    let outcome = Deployment::new(Arc::clone(web), cfg)
        .query_sim(query, SimConfig::default())
        .expect("query parses");
    assert!(outcome.complete, "CHT must detect completion");
    outcome
}

/// Runs `query` over `web` under both strategies — query shipping and
/// the centralized data-shipping baseline — and holds them to what
/// every comparison of the two rests on: both complete, with the same
/// result set. Returns `(shipped, downloaded)`.
fn both_strategies(
    web: &Arc<HostedWeb>,
    query: &str,
    cfg: EngineConfig,
    sim: SimConfig,
) -> (QueryOutcome, QueryOutcome) {
    let deployment = Deployment::new(Arc::clone(web), cfg);
    let ship = deployment
        .query_sim(query, sim.clone())
        .expect("query parses");
    let data = deployment
        .datashipping_sim(query, sim)
        .expect("query parses");
    assert!(ship.complete && data.complete);
    assert_eq!(
        ship.result_set(),
        data.result_set(),
        "strategies must agree"
    );
    (ship, data)
}

/// The node-queries a visit answered, as the figures label them: `q1,q2`.
fn stages_label(stages_answered: &[u32]) -> String {
    let labels = stages_answered.iter().map(|s| format!("q{}", s + 1));
    labels.collect::<Vec<_>>().join(",")
}

/// Freezes the fleet-level histograms into a report: the pipeline
/// stages (queue wait first) and the probe-vs-scan split of the eval
/// stage, plus end-to-end query latency.
fn freeze_histograms(report: &mut ScenarioReport, snap: &RegistrySnapshot) {
    let stages = webdis_trace::stage_histograms().map(|stage| format!("stage_us.{stage}"));
    for name in stages.chain(["query_latency_us".to_owned()]) {
        if let Some(h) = snap.histogram(&name).filter(|h| h.count > 0) {
            report.histograms.insert(name, h.clone());
        }
    }
}

/// Fixed-point milli-units for fractional rates, so BENCH files stay
/// float-free.
fn milli(value: f64) -> u64 {
    (value * 1_000.0).round() as u64
}

/// FNV-1a over a text artifact, newline-terminated — the same digest
/// shape `t14_chaos` commits for its verdict lines. A one-byte change
/// anywhere in the digested text moves the pinned value.
fn artifact_digest(text: &str) -> u64 {
    fnv_fold(fnv_fold(FNV_OFFSET, text.as_bytes()), b"\n")
}

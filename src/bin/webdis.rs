//! `webdis` — the command-line face of the engine.
//!
//! ```text
//! webdis gen   --out DIR [--sites N] [--docs N] [--seed S] [--filler W] [--needle-prob P]
//! webdis query --web DIR [--data-shipping | --tcp | --hybrid K] [--wan] [--trace]
//!              [--explain] [--html FILE] (<DISQL> | @query.disql)
//! webdis index --web DIR TERM [TERM...]
//! webdis graph --web DIR
//! ```
//!
//! `gen` writes a synthetic web as a directory tree (one sub-directory
//! per site); `query` runs DISQL against such a tree on the simulated
//! network (default), over real loopback TCP daemons (`--tcp`), with the
//! centralized baseline (`--data-shipping`), or in hybrid mode with only
//! the first `K` sites participating (`--hybrid K`). `index` consults the
//! keyword index; `graph` prints a site summary and any floating links.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

/// `println!` that tolerates a closed pipe (`webdis graph | head` must
/// not panic when `head` hangs up).
macro_rules! say {
    ($($t:tt)*) => {{
        if writeln!(std::io::stdout(), $($t)*).is_err() {
            exit(0);
        }
    }};
}

/// `print!` companion of [`say!`].
macro_rules! sayn {
    ($($t:tt)*) => {{
        if write!(std::io::stdout(), $($t)*).is_err() {
            exit(0);
        }
    }};
}

use webdis::core::{
    run_datashipping_sim, run_query_hybrid_sim, run_query_sim, run_query_tcp, EngineConfig,
};
use webdis::sim::{LatencyModel, SimConfig};
use webdis::web::{generate, HostedWeb, SearchIndex, WebGenConfig};

fn usage() -> ! {
    eprintln!(
        "usage:\n  webdis gen   --out DIR [--sites N] [--docs N] [--seed S] [--filler W] [--needle-prob P]\n  webdis query --web DIR [--data-shipping | --tcp | --hybrid K] [--wan] [--trace] [--explain] [--html FILE] (<DISQL> | @FILE)\n  webdis index --web DIR TERM [TERM...]\n  webdis graph --web DIR"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("webdis: {msg}");
    exit(1)
}

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

/// Flags that take a value; everything else starting with `--` is boolean.
const VALUED: [&str; 8] = [
    "--out",
    "--web",
    "--sites",
    "--docs",
    "--seed",
    "--filler",
    "--needle-prob",
    "--html",
];

fn parse_args(args: &[String]) -> Args {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let name = format!("--{name}");
            if VALUED.contains(&name.as_str()) || name == "--hybrid" {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("flag {name} needs a value")))
                    .clone();
                flags.push((name, Some(value)));
            } else {
                flags.push((name, None));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Args { flags, positional }
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("invalid value for {name}: {v:?}"))),
        }
    }
}

fn load_web(args: &Args) -> Arc<HostedWeb> {
    let dir = args
        .get("--web")
        .unwrap_or_else(|| fail("--web DIR is required"));
    let web = HostedWeb::from_dir(&PathBuf::from(dir))
        .unwrap_or_else(|e| fail(&format!("cannot load web from {dir}: {e}")));
    if web.is_empty() {
        fail(&format!("no documents found under {dir}"));
    }
    Arc::new(web)
}

fn cmd_gen(args: &Args) {
    let out = args
        .get("--out")
        .unwrap_or_else(|| fail("--out DIR is required"));
    let cfg = WebGenConfig {
        sites: args.num("--sites", 8usize),
        docs_per_site: args.num("--docs", 4usize),
        seed: args.num("--seed", 1u64),
        filler_words: args.num("--filler", 120usize),
        title_needle_prob: args.num("--needle-prob", 0.3f64),
        ..WebGenConfig::default()
    };
    if cfg.sites == 0 {
        fail("--sites must be at least 1");
    }
    if cfg.docs_per_site == 0 {
        fail("--docs must be at least 1");
    }
    if !(0.0..=1.0).contains(&cfg.title_needle_prob) {
        fail("--needle-prob must be between 0.0 and 1.0");
    }
    let web = generate(&cfg);
    web.to_dir(&PathBuf::from(out))
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    say!(
        "wrote {} documents across {} sites ({} bytes of HTML) to {out}",
        web.len(),
        web.sites().len(),
        web.total_bytes()
    );
}

fn read_disql(args: &Args) -> String {
    let arg = args
        .positional
        .first()
        .unwrap_or_else(|| fail("a DISQL query (or @file) is required"));
    match arg.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        None => arg.clone(),
    }
}

fn cmd_query(args: &Args) {
    let web = load_web(args);
    let disql = read_disql(args);
    if args.has("--explain") {
        let query = webdis::disql::parse_disql(&disql).unwrap_or_else(|e| fail(&format!("{e}")));
        sayn!("{}", webdis::disql::explain(&query));
        return;
    }
    let engine_cfg = EngineConfig::default();
    let sim_cfg = SimConfig {
        latency: if args.has("--wan") {
            LatencyModel::wan()
        } else {
            LatencyModel::lan()
        },
        ..SimConfig::default()
    };

    // The query's record, and — simulated runs only — the traffic
    // metrics; rows, trace and page are read off the record either way.
    let (record, metrics) = if args.has("--tcp") {
        let deadline = std::time::Duration::from_secs(60);
        let record = run_query_tcp(web, &disql, engine_cfg, deadline)
            .unwrap_or_else(|e| fail(&format!("{e}")));
        if !record.complete {
            fail("query did not complete within the deadline");
        }
        let latency = record.latency_us().expect("complete");
        say!(
            "completed over TCP in {:?}",
            std::time::Duration::from_micros(latency)
        );
        (record, None)
    } else {
        let outcome = if args.has("--data-shipping") {
            run_datashipping_sim(web, &disql, sim_cfg)
        } else if let Some(k) = args.get("--hybrid") {
            let k: usize = k
                .parse()
                .unwrap_or_else(|_| fail("--hybrid takes a site count"));
            let participating: Vec<_> = web.sites().into_iter().take(k).collect();
            run_query_hybrid_sim(web, &disql, engine_cfg, sim_cfg, &participating).map(|(o, s)| {
                say!(
                    "hybrid: {} handoffs, {} downloads, {} re-entries",
                    s.handoffs,
                    s.fetches,
                    s.reentries
                );
                o
            })
        } else {
            run_query_sim(web, &disql, engine_cfg, sim_cfg)
        }
        .unwrap_or_else(|e| fail(&format!("{e}")));
        if !outcome.complete {
            fail("query did not complete (see trace)");
        }
        (outcome.record, Some(outcome.metrics))
    };

    for (stage, rows) in &record.results {
        say!("q{}:", stage + 1);
        for (node, row) in rows {
            say!("  [{node}] {row}");
        }
    }
    if let Some(metrics) = metrics {
        say!();
        say!("{metrics}");
        say!(
            "virtual time: first result {} ms, complete {} ms",
            record
                .first_result_us
                .map(|t| t as f64 / 1000.0)
                .unwrap_or(f64::NAN),
            record
                .completed_at_us
                .map(|t| t as f64 / 1000.0)
                .unwrap_or(f64::NAN),
        );
    }
    if args.has("--trace") {
        say!("\ntrace:");
        for ev in &record.trace {
            say!(
                "  {:>8.1}ms {:<50} {:<14} {}",
                ev.time_us as f64 / 1000.0,
                ev.node.to_string(),
                ev.state.to_string(),
                ev.disposition.label()
            );
        }
    }
    if let Some(path) = args.get("--html") {
        // Re-render through the report module shape: reconstruct a view.
        let query = webdis::disql::parse_disql(&disql).expect("parsed once already");
        let id = webdis::net::QueryId {
            user: whoami().into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 1,
        };
        let view = webdis::core::ResultsView {
            id: &id,
            query: &query,
            results: &record.results,
        };
        std::fs::write(path, webdis::core::render_html(&view))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        say!("wrote results page to {path}");
    }
}

fn whoami() -> String {
    std::env::var("USER").unwrap_or_else(|_| "webdis".into())
}

fn cmd_index(args: &Args) {
    let web = load_web(args);
    if args.positional.is_empty() {
        fail("at least one search term is required");
    }
    let index = SearchIndex::build(&web);
    say!(
        "index: {} documents, {} terms",
        index.doc_count(),
        index.term_count()
    );
    let terms: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    let hits = index.lookup_all(&terms);
    say!("{} documents match {:?}:", hits.len(), terms);
    for url in hits {
        say!("  {url}");
    }
}

fn cmd_graph(args: &Args) {
    let web = load_web(args);
    let graph = web.graph();
    say!(
        "{} documents, {} links, {} sites",
        graph.node_count(),
        graph.link_count(),
        web.sites().len()
    );
    for site in web.sites() {
        say!("  {site}: {} documents", web.docs_of_site(&site).len());
    }
    let floating = graph.floating_links();
    if floating.is_empty() {
        say!("no floating links");
    } else {
        say!("{} floating links:", floating.len());
        for link in floating {
            say!("  {} -> {}", link.base, link.href);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "query" => cmd_query(&args),
        "index" => cmd_index(&args),
        "graph" => cmd_graph(&args),
        "--help" | "-h" | "help" => usage(),
        other => fail(&format!("unknown command {other:?} (try --help)")),
    }
}

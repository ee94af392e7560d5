//! `webdis-bench` — run the experiment suite and gate regressions.
//!
//! ```text
//! webdis-bench list                                   # the registry: name, pinned, artifact
//! webdis-bench run [--smoke] [--trace <file>] [--expo] [--out-dir <dir>] [name...]
//! webdis-bench baseline [--smoke] --out <file>        # write the sim-deterministic baseline
//! webdis-bench compare <baseline.json> <candidate.json>
//! webdis-bench compare --smoke <baseline.json>        # rerun pinned experiments, compare in-memory
//! ```
//!
//! `run` executes the named experiments (all of them when none is
//! named): each asserts its claims, prints its tables and closing ✓
//! line, and — when it has a report — emits `BENCH_<name>.json` into
//! `--out-dir` (default `target/bench`). `--trace` (exactly one
//! experiment) writes that experiment's showcase run as JSON lines for
//! `webdis-doctor`, then prints its trajectories and metrics registry;
//! `--expo` makes t13 print a mid-flight `/metrics` sample. `baseline`
//! runs only the pinned experiments — the ones whose exact metrics
//! reproduce bit-for-bit on any machine — strips their banded
//! wall-clock metrics, and writes one combined file: what the repo
//! commits under `bench/baseline.json`. `compare` applies each baseline
//! metric's own policy (exact for sim, percentage band for wall clock)
//! and exits non-zero on any regression: the CI gate.

use webdis_bench::{
    compare, experiment, BenchReport, Ctx, Experiment, ScenarioReport, TraceOpt, EXPERIMENTS,
};

fn usage() -> ! {
    eprintln!(
        "usage: webdis-bench list\n\
         \x20      webdis-bench run [--smoke] [--trace <file>] [--expo] [--out-dir <dir>] [name...]\n\
         \x20      webdis-bench baseline [--smoke] --out <file>\n\
         \x20      webdis-bench compare <baseline.json> <candidate.json>\n\
         \x20      webdis-bench compare --smoke <baseline.json>"
    );
    std::process::exit(2);
}

fn die(message: String) -> ! {
    eprintln!("webdis-bench: {message}");
    std::process::exit(2);
}

fn mode_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

fn known(name: &str) -> &'static Experiment {
    experiment(name).unwrap_or_else(|| die(format!("unknown experiment {name:?} (see `list`)")))
}

fn read_report(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| die(format!("cannot read {path}: {err}")));
    BenchReport::from_json(&text)
        .unwrap_or_else(|err| die(format!("{path} is not a BENCH file: {err}")))
}

fn summarize(name: &str, scenario: &ScenarioReport) {
    println!(
        "{name}: {} metric(s), {} histogram(s)",
        scenario.metrics.len(),
        scenario.histograms.len()
    );
    for (metric, m) in &scenario.metrics {
        let policy = if m.tol_pct == 0 {
            "exact".to_string()
        } else {
            format!("±{}%", m.tol_pct)
        };
        println!("  {metric:<36} {:>12}  ({policy})", m.value);
    }
    for (hname, h) in &scenario.histograms {
        println!(
            "  {hname:<36} {:>12}n  p50={} p95={} p99={}",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99)
        );
    }
}

fn cmd_list() {
    for e in EXPERIMENTS {
        let pinned = if e.pinned { "pinned" } else { "" };
        println!("{:<26} {pinned:<7} {}", e.name, e.artifact);
    }
}

fn cmd_run(ctx: &Ctx, out_dir: &str, only: &[&str]) {
    for e in EXPERIMENTS {
        if !only.is_empty() && !only.contains(&e.name) {
            continue;
        }
        println!("### {} — {}\n", e.name, e.artifact);
        let outcome = (e.run)(ctx);
        for table in &outcome.tables {
            table.print();
            println!();
        }
        if !outcome.verdict.is_empty() {
            println!("{}\n", outcome.verdict);
        }
        if outcome.report != ScenarioReport::default() {
            std::fs::create_dir_all(out_dir)
                .unwrap_or_else(|err| die(format!("cannot create {out_dir}: {err}")));
            summarize(e.name, &outcome.report);
            let path = format!("{out_dir}/BENCH_{}.json", e.name);
            let report = BenchReport::single(mode_name(ctx.smoke), e.name, outcome.report);
            std::fs::write(&path, report.to_json())
                .unwrap_or_else(|err| die(format!("cannot write {path}: {err}")));
            println!("  -> {path}\n");
        }
    }
    ctx.tracer
        .finish()
        .unwrap_or_else(|err| die(format!("cannot write the trace file: {err}")));
}

/// The reports of the pinned experiments among `names`, run afresh.
fn pinned_reports<'a>(names: impl Iterator<Item = &'a str>, smoke: bool) -> BenchReport {
    let mut report = BenchReport {
        mode: mode_name(smoke).to_string(),
        scenarios: Default::default(),
    };
    for name in names {
        let e = known(name);
        if !e.pinned {
            // Only the sim-deterministic experiments are honest to
            // regenerate on whatever machine this is.
            die(format!("experiment {name:?} is not pinned"));
        }
        let scenario = (e.run)(&Ctx::new(smoke)).report;
        report.scenarios.insert(name.to_string(), scenario);
    }
    report
}

fn cmd_baseline(smoke: bool, out: &str) {
    let pinned = EXPERIMENTS.iter().filter(|e| e.pinned).map(|e| e.name);
    let mut report = pinned_reports(pinned, smoke);
    for (name, scenario) in &mut report.scenarios {
        // Keep only the exact (machine-independent) metrics: a committed
        // baseline must not pin this machine's wall-clock numbers.
        scenario.metrics.retain(|_, m| m.tol_pct == 0);
        summarize(name, scenario);
        println!();
    }
    std::fs::write(out, report.to_json())
        .unwrap_or_else(|err| die(format!("cannot write {out}: {err}")));
    println!("baseline written to {out}");
}

fn cmd_compare(baseline_path: &str, candidate: Option<&str>, smoke: bool) {
    let baseline = read_report(baseline_path);
    let candidate = match candidate {
        Some(path) => read_report(path),
        None => pinned_reports(baseline.scenarios.keys().map(String::as_str), smoke),
    };

    let outcome = compare(&baseline, &candidate);
    println!(
        "compared {} metric(s)/histogram(s) against {baseline_path}",
        outcome.checked
    );
    for line in &outcome.improvements {
        println!("improved: {line}");
    }
    if outcome.ok() {
        println!("no regressions");
    } else {
        for line in &outcome.regressions {
            eprintln!("REGRESSION: {line}");
        }
        eprintln!(
            "webdis-bench: {} regression(s) against {baseline_path}",
            outcome.regressions.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(cmd) = args.get(1) else { usage() };
    let (mut smoke, mut expo) = (false, false);
    let (mut trace, mut out_dir, mut out) = (None, None, None);
    let mut positional: Vec<&str> = Vec::new();
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--expo" => expo = true,
            "--trace" => trace = Some(value()),
            "--out-dir" => out_dir = Some(value()),
            "--out" => out = Some(value()),
            flag if flag.starts_with("--") => usage(),
            name => positional.push(name),
        }
    }

    match (cmd.as_str(), positional.as_slice()) {
        ("list", []) => cmd_list(),
        ("run", only) => {
            for name in only {
                known(name);
            }
            if trace.is_some() && only.len() != 1 {
                die("--trace shows one experiment's run: name exactly one".to_string());
            }
            let ctx = Ctx {
                smoke,
                expo,
                tracer: TraceOpt::with_path(trace.map(Into::into)),
            };
            cmd_run(&ctx, out_dir.as_deref().unwrap_or("target/bench"), only);
        }
        ("baseline", []) => cmd_baseline(smoke, &out.unwrap_or_else(|| usage())),
        ("compare", [baseline, candidate]) if !smoke => {
            cmd_compare(baseline, Some(candidate), smoke)
        }
        ("compare", [baseline]) if smoke => cmd_compare(baseline, None, smoke),
        _ => usage(),
    }
}

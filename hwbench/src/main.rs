//! hwbench — the wall-clock benchmark of WEBDIS on this hardware.
//!
//! ```text
//! hwbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <dir>]
//! hwbench agree <dirA> <dirB>
//! hwbench probe <seconds>
//! ```
//!
//! The last line of standard output is the result object; everything
//! else a human wants to read goes to standard error and to the result
//! file. See README.md for what each number means.

mod agree;
mod drive;
mod host;
mod json;
mod replay;
mod report;
mod stats;
mod sysinfo;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use report::{Metric, RunInfo};
use workloads::{Workload, QUICK_ROUNDS, ROUNDS, WORKLOADS};

/// Parsed command line of a measuring invocation.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hwbench --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1> \
         [--quick] [--out <dir>]\n       hwbench agree <dirA> <dirB>\n       hwbench probe <seconds>",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        out: out.unwrap_or_else(default_out_dir),
    })
}

/// Result files go under the package's own directory, which is inside
/// the checkout whether the command runs from the repository root (the
/// usual case) or from `hwbench/` itself.
fn default_out_dir() -> PathBuf {
    if Path::new("hwbench").is_dir() {
        PathBuf::from("hwbench/results")
    } else {
        PathBuf::from("results")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("agree") => return agree::main(&args[1..]),
        Some("probe") => {
            return match host::main(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("hwbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {}
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hwbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match measure(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hwbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure(opts: &Options) -> Result<ExitCode, String> {
    let w = &opts.workload;
    let rounds = if opts.quick { QUICK_ROUNDS } else { ROUNDS };
    let counts = w.counts(opts.seconds, opts.quick);
    let steal0 = sysinfo::steal_ms();
    let time_wait0 = sysinfo::time_wait_sockets();
    // One CPU for the generator, the probe and every thread the cluster
    // spawns: the probe can only speak for the CPU it runs on.
    let cpu = host::pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!("hwbench: cannot pin to one CPU here; the host-speed correction is approximate");
    }
    let probe = host::Probe::new()?;
    // Bring the core to speed before the first round's set-up is timed.
    sysinfo::busy_spin(Duration::from_millis(200));

    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let (metrics, measured, extra): (Vec<Metric>, Vec<drive::Round>, _) = if opts.trace {
        let t = replay::run(w, &probe, opts.seed, counts, opts.quick)?;
        let path = opts.out.join(format!("trace_{}.json", w.name));
        let spans = replay::spans_json(w.name, opts.seed, &t.spans);
        std::fs::write(&path, spans.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", t.spans.len(), path.display());
        (t.metrics, t.measured, t.extra)
    } else {
        let measured: Vec<drive::Round> = (0..rounds)
                .map(|round| {
                    let r = drive::run_round(w, &probe, opts.seed, round, counts.0, counts.1);
                    eprintln!(
                        "round {round}: setup {:.4} s, {} queries in {:.3} s, {} failed, host slowdown {:.2}",
                        r.setup_s,
                        r.attempted,
                        r.block_wall_s,
                        r.failed,
                        stats::median(&r.slowdowns)
                    );
                    r
                })
                .collect();
        (report::end_to_end(&measured), measured, Vec::new())
    };

    let (attempted, failed) = report::totals(&measured);
    let result = report::result_line(failed == 0, attempted, failed, &metrics);
    let info = RunInfo {
        workload: w.name.to_owned(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        rounds: measured.len(),
        counts,
        cpu,
        steal_ms: sysinfo::steal_ms() - steal0,
        time_wait: (time_wait0, sysinfo::time_wait_sockets()),
    };
    let file = report::result_file(
        &info,
        &sysinfo::Fingerprint::collect(),
        &result,
        &measured,
        extra,
    );
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = opts.out.join(format!(
        "{}_seed{}_trace{}_{stamp}.json",
        w.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    std::fs::write(&path, file.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;

    for m in &metrics {
        eprintln!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{attempted} attempted, {failed} failed; {} samples per timed block support up to p{:.0} \
         with {} beyond; result file {}",
        counts.1,
        stats::highest_supported_percentile(counts.1) * 100.0,
        stats::MIN_BEYOND,
        path.display()
    );
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

//! `hwbench agree <dirA> <dirB>`: do two sets of invocations of the same
//! benchmark tell the same story? One row per (workload, end-to-end
//! metric), judged under the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{iqr_share, median, quartiles};

/// Fewest invocations per (workload, set) for quartiles to mean anything.
pub const MIN_INVOCATIONS: usize = 5;

/// How two sets compare on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound and both spreads within the bound.
    Agree,
    /// Medians within the bound, but a set's own interquartile spread is
    /// wider than the bound: the sets cannot tell a change that size.
    Unresolved,
    /// Medians further apart than the bound.
    Disagree,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
            Verdict::Disagree => "disagree",
        }
    }
}

/// Judges two sets of one metric under `bound` (a share of set A's
/// median). Returns the verdict, the signed median shift of B against A,
/// and the wider of the two interquartile spreads.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let shift = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = iqr_share(a).max(iqr_share(b));
    let v = if shift.abs() > bound {
        Verdict::Disagree
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    };
    (v, shift, spread)
}

/// workload → metric → values, from the `--trace 0` result files of a
/// directory.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // Span files and traced runs share the directory; skip them.
        if file.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            file.get("workload").and_then(Json::as_str),
            file.get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj),
        ) else {
            return Err(format!("{}: not a hwbench result file", path.display()));
        };
        let by_metric = set.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// `name → bound` of the end-to-end metrics, in declaration order.
fn load_bounds(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bench = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
            ) {
                (Some(n), Some(b)) => Ok((n.to_owned(), b)),
                _ => Err(format!("{}: metric without name or bound", path.display())),
            }
        })
        .collect()
}

/// Compares two loaded sets; returns the printed rows and whether any
/// pair disagreed.
fn compare(a: &Set, b: &Set, bounds: &[(String, f64)]) -> Result<(Vec<String>, bool), String> {
    let mut rows = vec![format!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "shift%", "iqr%", "bound%"
    )];
    let mut any_disagree = false;
    for (workload, metrics_a) in a {
        let metrics_b = b
            .get(workload)
            .ok_or_else(|| format!("{workload}: present in A, missing in B"))?;
        for (name, bound) in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                return Err(format!("{workload}/{name}: missing from a set"));
            };
            if va.len() < MIN_INVOCATIONS || vb.len() < MIN_INVOCATIONS {
                return Err(format!(
                    "{workload}/{name}: {} and {} invocations, need {MIN_INVOCATIONS} each",
                    va.len(),
                    vb.len()
                ));
            }
            let (v, shift, spread) = verdict(va, vb, *bound);
            any_disagree |= v == Verdict::Disagree;
            let (q1, q3) = quartiles(va);
            rows.push(format!(
                "{workload:<14} {name:<22} {:>12.4} {:>12.4} {:>+8.2} {:>8.2} {:>6.1}  {} (A quartiles {q1:.4}..{q3:.4})",
                median(va),
                median(vb),
                shift * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.label(),
            ));
        }
    }
    if let Some(extra) = b.keys().find(|w| !a.contains_key(*w)) {
        return Err(format!("{extra}: present in B, missing in A"));
    }
    Ok((rows, any_disagree))
}

/// Entry point of the `agree` subcommand. The bounds come from the
/// `BENCHMARK.json` of the working directory, the repository root.
pub fn main(args: &[String]) -> ExitCode {
    let [dir_a, dir_b] = args else {
        eprintln!("usage: hwbench agree <dirA> <dirB>");
        return ExitCode::from(2);
    };
    let run = || -> Result<bool, String> {
        let bounds = load_bounds(Path::new("BENCHMARK.json"))?;
        let (a, b) = (load_set(Path::new(dir_a))?, load_set(Path::new(dir_b))?);
        if a.is_empty() {
            return Err(format!("{dir_a}: no result files"));
        }
        let (rows, any_disagree) = compare(&a, &b, &bounds)?;
        for row in rows {
            println!("{row}");
        }
        Ok(any_disagree)
    };
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hwbench agree: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_sets() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let tight_b = [102.0, 103.0, 101.0, 102.5, 101.5];
        let (v, shift, spread) = verdict(&tight_a, &tight_b, 0.10);
        assert_eq!(v, Verdict::Agree);
        assert!((shift - 0.02).abs() < 1e-9 && spread < 0.02);

        // Same medians, but one set's own quartiles are wider than the bound.
        let wide = [70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(verdict(&tight_a, &wide, 0.10).0, Verdict::Unresolved);

        // Medians 20 % apart: disagree whatever the spread, either direction.
        let far = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&tight_a, &far, 0.10).0, Verdict::Disagree);
        assert_eq!(verdict(&far, &tight_a, 0.10).0, Verdict::Disagree);
        assert_eq!(verdict(&wide, &far, 0.10).0, Verdict::Disagree);

        // Exact counts under a 1 % bound.
        assert_eq!(verdict(&[8.0; 5], &[8.0; 5], 0.01).0, Verdict::Agree);
        assert_eq!(verdict(&[8.0; 5], &[8.1; 5], 0.01).0, Verdict::Disagree);
    }

    fn set(workload: &str, metric: &str, values: &[f64]) -> Set {
        let mut s = Set::new();
        s.entry(workload.into())
            .or_default()
            .insert(metric.into(), values.to_vec());
        s
    }

    #[test]
    fn compare_flags_disagreement_and_short_sets() {
        let bounds = vec![("setup_s".to_owned(), 0.10)];
        let a = set("w", "setup_s", &[1.0, 1.01, 0.99, 1.0, 1.0]);
        let b = set("w", "setup_s", &[1.5, 1.51, 1.49, 1.5, 1.5]);
        let (rows, bad) = compare(&a, &a, &bounds).unwrap();
        assert!(!bad && rows[1].contains("agree"));
        let (rows, bad) = compare(&a, &b, &bounds).unwrap();
        assert!(bad && rows[1].contains("disagree"));
        let short = set("w", "setup_s", &[1.0, 1.0]);
        assert!(compare(&a, &short, &bounds).is_err());
        assert!(compare(&a, &set("other", "setup_s", &[1.0; 5]), &bounds).is_err());
    }
}

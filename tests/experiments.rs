//! EXPERIMENTS.md is held to what the experiments print: every table an
//! experiment renders at full size must appear verbatim in the file, and
//! the names the documents give experiments and examples must exist.
//! The simulator is deterministic, so a table that moved means engine
//! behaviour moved — rerun `webdis-bench run <name>` and refresh the
//! block (and re-read the prose that quotes it).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use webdis_bench::{experiment, Ctx, EXPERIMENTS};

const RECORDED: &str = include_str!("../EXPERIMENTS.md");
const README: &str = include_str!("../README.md");

#[test]
fn every_table_an_experiment_prints_is_the_one_experiments_md_records() {
    let mut tables = 0;
    let mut stale = Vec::new();
    for e in EXPERIMENTS {
        // The report-only experiments (t16…t19) print no table, and
        // their full-size runs are the suite's slow ones.
        if e.pinned && !["fig7", "t13"].contains(&e.name) {
            continue;
        }
        let outcome = (e.run)(&Ctx::new(false));
        assert!(!outcome.tables.is_empty(), "{} prints no table", e.name);
        for table in &outcome.tables {
            tables += 1;
            let rendered = table.render();
            if !RECORDED.contains(&rendered) {
                stale.push(format!("--- {} prints:\n{rendered}", e.name));
            }
        }
    }
    assert_eq!(
        tables, 18,
        "fig1, fig5 ×2, fig7 ×3 (Figures 7 and 8), T1–T3, T5–T13"
    );
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md no longer records what these print:\n{}",
        stale.join("\n")
    );
}

/// The file stems in `dir`; none when it does not exist.
fn stems(dir: impl AsRef<Path>) -> BTreeSet<String> {
    let entries = fs::read_dir(dir).into_iter().flatten();
    let paths = entries.map(|f| f.unwrap().path());
    paths
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// Every `` (`name`) `` closing an EXPERIMENTS.md `##` heading names a
/// registered experiment (or a suite binary of its own, as `t14_chaos`
/// is), and every registered experiment has its heading. Every
/// `cargo run --example X` in README.md names a file in `examples/`,
/// and every file there is named.
#[test]
fn every_experiment_and_example_the_documents_name_exists() {
    let crates = fs::read_dir("crates").unwrap();
    let bins: BTreeSet<String> = crates
        .flat_map(|c| stems(c.unwrap().path().join("src/bin")))
        .collect();
    let mut headed = BTreeSet::new();
    for heading in RECORDED.lines().filter(|l| l.starts_with("## ")) {
        // One name in the parentheses; T15's names two commands.
        let name = heading
            .strip_suffix("`)")
            .and_then(|h| h.rsplit_once(" (`"));
        let Some((_, name)) = name.filter(|(_, name)| !name.contains('`')) else {
            continue;
        };
        assert!(
            experiment(name).is_some() || bins.contains(name),
            "EXPERIMENTS.md heading names no experiment: {heading}"
        );
        headed.insert(name);
    }
    for e in EXPERIMENTS {
        assert!(
            headed.contains(e.name),
            "{} has no EXPERIMENTS.md heading",
            e.name
        );
    }

    let named: BTreeSet<String> = README
        .split("cargo run --example ")
        .skip(1)
        .map(|rest| {
            let name = rest.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            name.take(1).collect()
        })
        .collect();
    assert_eq!(
        named,
        stems("examples"),
        "README.md's examples are not the ones in examples/"
    );
}

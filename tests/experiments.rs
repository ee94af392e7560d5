//! EXPERIMENTS.md is held to what the experiments print: every table an
//! experiment renders at full size must appear verbatim in the file.
//! The simulator is deterministic, so a table that moved means engine
//! behaviour moved — rerun `webdis-bench run <name>` and refresh the
//! block (and re-read the prose that quotes it).

use webdis_bench::{Ctx, EXPERIMENTS};

const RECORDED: &str = include_str!("../EXPERIMENTS.md");

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
    assert_eq!(tables, 19, "fig1, fig5 ×2, fig7, fig8 ×2, T1–T13");
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md no longer records what these print:\n{}",
        stale.join("\n")
    );
}

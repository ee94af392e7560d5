use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_web::figures;

use super::{shipped, Ctx, Outcome};
use crate::Table;

/// Figure 8 — the result table of the Section-5 sample query, rendered
/// the way the paper's browser screenshot presents it: the stage-1
/// binding (`d0.url`) first, then one row per lab with `d1.url`,
/// `d1.title` and the `hr`-delimited rel-infon text naming the convener.
pub fn run(_: &Ctx) -> Outcome {
    let web = Arc::new(figures::campus());
    let outcome = shipped(&web, figures::CAMPUS_QUERY, EngineConfig::default());

    println!("Results of the query by user webdis\n");

    let mut t0 = Table::new("d0", &["d0.url"]);
    for (_, row) in outcome.rows_of_stage(0) {
        t0.row(&[row.values[0].render()]);
    }

    let mut t1 = Table::new("d1 / r", &["d1.url", "d1.title", "r.text"]);
    let mut rows: Vec<_> = outcome.rows_of_stage(1).to_vec();
    rows.sort_by_key(|(_, r)| r.values[0].render());
    for (_, row) in &rows {
        t1.row(&[
            row.values[0].render(),
            row.values[1].render(),
            row.values[2].render(),
        ]);
    }

    // Machine-check against the paper's Figure 8 rows.
    assert_eq!(rows.len(), 3);
    for (url, title, convener) in figures::CAMPUS_EXPECTED {
        let row = rows
            .iter()
            .find(|(_, r)| r.values[0].render() == url)
            .unwrap_or_else(|| panic!("Figure 8 row missing: {url}"));
        assert_eq!(row.1.values[1].render(), title);
        assert!(
            row.1.values[2].render().contains(convener),
            "{url}: rel-infon must name {convener}"
        );
    }
    Outcome::shown(vec![t0, t1], "all Figure 8 result assertions hold ✓")
}

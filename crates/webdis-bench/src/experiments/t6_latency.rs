use std::sync::Arc;

use webdis_core::EngineConfig;
use webdis_sim::{LatencyModel, SimConfig};
use webdis_web::{generate, WebGenConfig};

use super::{both_strategies, workstation_sim, Ctx, Outcome, GLOBAL_QUERY};
use crate::{fmt_ms, Table};

/// T6 — response latency under a wide-area latency model.
///
/// Data shipping serializes round trips through the user site (download,
/// inspect, download the next wave), while query shipping fans out
/// across servers and streams results back as they are found. The
/// virtual-clock simulator measures time-to-first-result and
/// time-to-completion for both engines as the web (and hence the
/// traversal depth) grows, under WAN latency (80 ms/message, ~1 Mbit/s)
/// and a 1999-workstation CPU model (1 ms/KiB parsed, 200 µs per
/// evaluation): the parses that query shipping spreads across the
/// servers all queue on the user site's single processor under data
/// shipping.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T6: latency under WAN model (ms of virtual time)",
        &[
            "sites",
            "qship first",
            "qship done",
            "dship first",
            "dship done",
            "completion speedup",
        ],
    );

    for sites in [4usize, 8, 16, 32] {
        let cfg = WebGenConfig {
            sites,
            docs_per_site: 3,
            filler_words: 300,
            title_needle_prob: 0.4,
            seed: 67,
            ..WebGenConfig::default()
        };
        let web = Arc::new(generate(&cfg));
        let sim = SimConfig {
            latency: LatencyModel::wan(),
            ..workstation_sim()
        };
        let (ship, data) = both_strategies(&web, GLOBAL_QUERY, EngineConfig::default(), sim);

        let ship_done = ship.completed_at_us.unwrap_or(ship.duration_us);
        let data_done = data.completed_at_us.unwrap_or(data.duration_us);
        table.row(&[
            sites.to_string(),
            fmt_ms(ship.first_result_us.unwrap_or(0)),
            fmt_ms(ship_done),
            fmt_ms(data.first_result_us.unwrap_or(0)),
            fmt_ms(data_done),
            format!("{:.1}x", data_done as f64 / ship_done as f64),
        ]);

        assert!(
            ship_done < data_done,
            "query shipping must complete earlier at {sites} sites"
        );
    }
    Outcome::shown(
        vec![table],
        "query shipping completes earlier at every size under WAN latency ✓",
    )
}

use std::sync::Arc;

use webdis_core::{run_query_sim, CompletionMode, EngineConfig};
use webdis_sim::{LatencyModel, SimConfig};
use webdis_web::{generate, WebGenConfig};

use super::{Ctx, Outcome, GLOBAL_QUERY};
use crate::{fmt_bytes, fmt_ms, Table};

/// T11 — completion-detection protocols head to head.
///
/// Section 6 contrasts WEBDIS's Current Hosts Table with the
/// acknowledgement-chain detection of Abiteboul–Vianu-style systems
/// ("the StartNode acknowledges the message only if all the nodes to
/// which it had forwarded the query have acknowledged"). Both are
/// implemented here; the sweep measures what each costs and buys:
///
/// * **protocol bytes** — CHT entries ride inside reports; ack chains
///   send small separate ack messages but no CHT entries, and resultless
///   nodes send the user nothing at all;
/// * **detection lag** — virtual time between the last result and
///   detected completion: the CHT detects one report after the last node;
///   the ack wave must collapse back up the spawn tree first;
/// * **cancellation knowledge** — only the CHT tells the user *where*
///   the query currently runs (Section 2.8's active-termination option);
/// * **the §3.1.1 refinement** — the paper's CHT (skip equivalent
///   entries, drop duplicates silently) against the strict one (every
///   clone reported): report messages and bytes, query bytes, CHT
///   entries added and skipped; the refinement must never cost more.
pub fn run(_: &Ctx) -> Outcome {
    let mut table = Table::new(
        "T11: completion protocols under WAN latency",
        &[
            "sites",
            "protocol",
            "report msgs",
            "report bytes",
            "query bytes",
            "CHT adds",
            "CHT skips",
            "ack msgs",
            "ack bytes",
            "last result (ms)",
            "complete (ms)",
            "detection lag (ms)",
        ],
    );

    for sites in [4usize, 8, 16, 32] {
        let web = Arc::new(generate(&WebGenConfig {
            sites,
            docs_per_site: 3,
            filler_words: 80,
            title_needle_prob: 0.3,
            extra_global_links: 2,
            seed: 271,
            ..WebGenConfig::default()
        }));
        let sim = SimConfig {
            latency: LatencyModel::wan(),
            ..SimConfig::default()
        };

        let configs = [
            ("CHT (paper)", EngineConfig::default()),
            ("CHT (strict)", EngineConfig::strict()),
            ("ack chain", EngineConfig::ack_chain()),
        ];
        let mut results = Vec::new();
        for (label, cfg) in configs {
            let outcome = run_query_sim(Arc::clone(&web), GLOBAL_QUERY, cfg.clone(), sim.clone())
                .expect("query parses");
            assert!(outcome.complete, "{label} must complete");
            // The last result row's arrival: the max trace time with rows.
            let last_result = outcome
                .trace
                .iter()
                .filter(|t| t.row_count > 0)
                .map(|t| t.time_us)
                .max()
                .unwrap_or(0);
            let done = outcome.completed_at_us.unwrap_or(outcome.duration_us);
            table.row(&[
                sites.to_string(),
                label.to_owned(),
                outcome.metrics.messages_of("report").to_string(),
                fmt_bytes(outcome.metrics.bytes_of("report")),
                fmt_bytes(outcome.metrics.bytes_of("query")),
                outcome.cht_stats.added.to_string(),
                outcome.cht_stats.skipped.to_string(),
                outcome.metrics.messages_of("ack").to_string(),
                fmt_bytes(outcome.metrics.bytes_of("ack")),
                fmt_ms(last_result),
                fmt_ms(done),
                fmt_ms(done.saturating_sub(last_result)),
            ]);
            results.push((label, cfg.completion, outcome, last_result, done));
        }
        // All protocols agree on the rows.
        let reference = results[0].2.result_set();
        for (label, _, o, _, _) in &results {
            assert_eq!(o.result_set(), reference, "{label} must agree");
        }
        // Shape assertions: ack chains trade report bytes for ack
        // messages and a longer detection tail.
        let (cht, strict, ack) = (&results[0], &results[1], &results[2]);
        assert!(
            cht.2.metrics.bytes_of("report") <= strict.2.metrics.bytes_of("report"),
            "§3.1.1 must not increase report traffic"
        );
        assert!(cht.2.cht_stats.added <= strict.2.cht_stats.added);
        assert!(ack.2.metrics.bytes_of("report") < cht.2.metrics.bytes_of("report"));
        assert!(ack.2.metrics.messages_of("ack") > 0);
        assert_eq!(cht.2.metrics.messages_of("ack"), 0);
        let cht_lag = cht.4.saturating_sub(cht.3);
        let ack_lag = ack.4.saturating_sub(ack.3);
        assert!(
            ack_lag >= cht_lag,
            "the ack wave cannot beat the CHT's one-hop detection \
             ({ack_lag} vs {cht_lag} µs at {sites} sites)"
        );
        assert_eq!(cht.1, CompletionMode::Cht);
        assert_eq!(ack.1, CompletionMode::AckChain);
    }
    Outcome::shown(
        vec![table],
        "§3.1.1 refinement reduces CHT entries and report traffic at every size; ack \
          chains cut report bytes (no CHT entries, silent dead ends) but pay ack \
          messages and detect completion later — the §6 trade-off, measured ✓",
    )
}

//! Engine configuration: every design choice of Section 3 is a switch, so
//! the ablation experiments can measure what each one buys.

use webdis_cache::CachePolicy;
use webdis_monitor::MonitorHandle;
use webdis_trace::TraceHandle;

/// Duplicate-recognition policy of the node-query log table
/// (Section 3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// No log table: every clone arrival is processed. Cyclic webs then
    /// rely on the hop limit — this mode exists to measure what the log
    /// table saves (experiment T3).
    Off,
    /// The paper's rule: exact state identity plus `A*m·B` bounded-head
    /// subsumption with the multiple-rewrite for supersets.
    Paper,
    /// The paper's rule, extended with general language containment
    /// (`webdis_pre::contains`, a search over pairs of derivatives) for
    /// PRE shapes the syntactic rule cannot relate (this crate's
    /// extension; see DESIGN.md).
    General,
}

/// Which completion-detection protocol runs: the three that experiments
/// T4 and T11 compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// The paper's Current Hosts Table (Section 2.7.1): servers report
    /// results and CHT deltas to the user site, which tracks every live
    /// clone. Detection happens one hop after the last node is processed,
    /// and the user always knows *where* the query currently runs. With
    /// the Section 3.1.1 refinement: the user site does not enter a CHT
    /// entry equivalent to one already present, and query servers drop
    /// duplicate clones silently. Saves report traffic; relies on the
    /// user-site's skip rule mirroring the servers' log decisions (made
    /// robust to reordering here with tombstones and subsumption-aware
    /// delete handling — see `cht`).
    Cht,
    /// The CHT with strict bookkeeping: every forwarded clone gets a CHT
    /// entry and every clone arrival — including duplicates — is
    /// reported. One add, one delete, exact matching; trivially robust,
    /// more report messages.
    ChtStrict,
    /// Dijkstra–Scholten acknowledgement chains — the approach of the
    /// related work the paper contrasts in Section 6 ("the StartNode
    /// acknowledges the message only if all the nodes to which it had
    /// forwarded the query have acknowledged"). Servers track a deficit
    /// per query and ack their spawn-tree parent once their subtree
    /// drains; the user site is the root. No CHT entries travel, and
    /// resultless nodes send nothing to the user — but detection waits
    /// for the ack wave to collapse back up the tree, and the user never
    /// learns which sites hold the query (experiment T11).
    AckChain,
}

/// Local processing-cost model, charged to the simulator's per-endpoint
/// sequential processor (Section 4.4's single Query Processor thread).
/// Zeros (the default) make processing instantaneous, so only network
/// costs shape virtual time; experiment T6 uses a 1999-workstation-ish
/// model to expose the user-site CPU bottleneck under data shipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcModel {
    /// Database-Constructor cost per KiB of raw HTML parsed.
    pub parse_us_per_kib: u64,
    /// Cost per node-query evaluation.
    pub eval_us: u64,
}

impl ProcModel {
    /// A 1999-workstation-ish model: ~1 ms to parse 1 KiB of HTML into
    /// virtual relations, 200 µs per node-query evaluation.
    pub fn workstation_1999() -> ProcModel {
        ProcModel {
            parse_us_per_kib: 1_000,
            eval_us: 200,
        }
    }

    /// The parse charge for a document of `bytes` raw bytes.
    pub fn parse_cost_us(&self, bytes: usize) -> u64 {
        (self.parse_us_per_kib * bytes as u64).div_ceil(1024)
    }
}

/// Engine configuration shared by user sites and query servers. Both
/// sides must run the same configuration (in particular the same
/// [`LogMode`]/[`CompletionMode`] pair) for completion detection to be
/// exact.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Duplicate recognition policy.
    pub log_mode: LogMode,
    /// Completion-detection protocol, CHT bookkeeping included.
    pub completion: CompletionMode,
    /// Optimization 4 of Section 3.2: one clone per destination *site*
    /// carrying all destination nodes, instead of one clone per node.
    pub batch_per_site: bool,
    /// Footnote 4 of Section 2.5: destinations on the server's own site
    /// are processed in place instead of being sent through the network.
    pub local_forwarding: bool,
    /// Safety valve: clones are dead-ended once they have crossed this
    /// many sites. Only reachable in practice when `log_mode` is `Off`
    /// on a cyclic web.
    pub max_hops: u32,
    /// Log-table entries older than this (virtual µs) may be purged when
    /// [`LogTable::purge`](crate::LogTable::purge) is called. `None`
    /// disables purging.
    pub log_purge_us: Option<u64>,
    /// Section 7.1 hybrid mode: when a clone's destination site runs no
    /// query server, the forwarding server *hands the nodes back* to the
    /// user site, which downloads those documents and evaluates the
    /// node-queries centrally — re-entering distributed processing when
    /// the traversal leads back into participating sites. Off, such
    /// destinations are reported as dead ends. Defined over CHT
    /// completion: a [`Deployment`](crate::Deployment) turns
    /// [`CompletionMode::AckChain`] into [`CompletionMode::Cht`] when
    /// this is set.
    pub hybrid: bool,
    /// Footnote 3 of Section 2.4: a site expecting a node to "receive
    /// several queries, … can choose to retain the associated database so
    /// that the construction cost does not have to be paid repeatedly."
    /// Number of parsed node databases each server retains (FIFO
    /// eviction); 0 disables the cache, reproducing the paper's default
    /// build-then-purge behaviour.
    pub doc_cache_size: usize,
    /// Living-web staleness guard for the footnote-3 cache: on every hit
    /// the cached build's content version is checked against the
    /// document's current status, and superseded builds are evicted and
    /// reparsed. `true` (the default) is the consistency contract; the
    /// `false` setting reproduces the historical serve-whatever-is-cached
    /// behaviour so the chaos oracle can demonstrate the staleness bug it
    /// guards against. Irrelevant while nothing mutates the web, since
    /// versions then never change.
    pub validate_doc_cache: bool,
    /// Section 7.1 graceful recovery: the age (µs) past which a live CHT
    /// row or tombstone counts as stale. When set, the user site sweeps
    /// every quarter of it — completion then lags the timeout by at most
    /// a quarter, and the sweeps do not dominate the event queue —
    /// calling [`UserSite::expire_stale`](crate::UserSite::expire_stale)
    /// so a query whose clones were lost to crashes or drops still
    /// completes, with the unresolved nodes listed in `failed_entries`
    /// instead of hanging forever. `None` (the default) never expires:
    /// completion then relies on every clone being accounted for. Only
    /// meaningful under the CHT protocols.
    pub expiry_us: Option<u64>,
    /// Server-side admission control for multi-query load: the most
    /// distinct queries one site processes concurrently. A clone of a
    /// query not yet admitted arriving while the site is full is *shed* —
    /// refused without processing, with an explicit report back to the
    /// user site so the query concludes with
    /// [`TermReason::Shed`](webdis_trace::TermReason) instead of hanging.
    /// Admitted queries are never shed mid-flight: later clones of an
    /// in-flight query always pass, so a traversal cannot be half-refused
    /// at one site. `None` (the default) admits everything — the
    /// single-query behaviour.
    pub admission: Option<usize>,
    /// Cross-query answer cache: each server keeps a
    /// memory-bounded, subsumption-aware store of node-query answers it
    /// consults before evaluating. `None` (the default) disables it and
    /// reproduces the uncached engine bit-for-bit; `Some(policy)` sets
    /// the byte budget and the modeled per-lookup processor cost.
    pub cache: Option<CachePolicy>,
    /// Local processing-cost model (simulated runs only).
    pub proc: ProcModel,
    /// Event sink for query-trajectory tracing (`webdis-trace`). The
    /// default no-op sink records nothing and costs one inlined branch
    /// per instrumentation point; runners copy this handle into the
    /// transport so engine and network events share one stream.
    pub tracer: TraceHandle,
    /// Live observability (`webdis-monitor`): windowed time-series,
    /// the in-flight query registry, and the alert-rule engine. `None`
    /// (the default) removes every hook, so an unmonitored run's
    /// metrics and traces are bit-identical to the pre-monitor engine.
    /// The runners drive window closes — the engine only feeds the
    /// in-flight registry from its admit/clone/terminate paths.
    pub monitor: Option<MonitorHandle>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            log_mode: LogMode::Paper,
            completion: CompletionMode::Cht,
            batch_per_site: true,
            local_forwarding: true,
            max_hops: 64,
            log_purge_us: None,
            hybrid: false,
            doc_cache_size: 0,
            validate_doc_cache: true,
            expiry_us: None,
            admission: None,
            cache: None,
            proc: ProcModel::default(),
            tracer: TraceHandle::noop(),
            monitor: None,
        }
    }
}

impl EngineConfig {
    /// The robust variant: strict CHT accounting (used under heavy
    /// message reordering) with the paper's log table.
    pub fn strict() -> EngineConfig {
        EngineConfig {
            completion: CompletionMode::ChtStrict,
            ..EngineConfig::default()
        }
    }

    /// Ack-chain completion detection (Section 6's alternative).
    pub fn ack_chain() -> EngineConfig {
        EngineConfig {
            completion: CompletionMode::AckChain,
            ..EngineConfig::default()
        }
    }

    /// Everything off — the unoptimized strawman for ablations.
    pub fn unoptimized() -> EngineConfig {
        EngineConfig {
            log_mode: LogMode::Off,
            completion: CompletionMode::ChtStrict,
            batch_per_site: false,
            local_forwarding: false,
            max_hops: 16,
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.log_mode, LogMode::Paper);
        assert_eq!(c.completion, CompletionMode::Cht);
        assert!(c.batch_per_site);
        assert!(c.local_forwarding);
    }

    #[test]
    fn presets_differ() {
        assert_eq!(EngineConfig::strict().completion, CompletionMode::ChtStrict);
        let u = EngineConfig::unoptimized();
        assert_eq!(u.log_mode, LogMode::Off);
        assert!(!u.batch_per_site);
    }
}

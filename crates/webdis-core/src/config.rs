//! Engine configuration: every design choice of Section 3 is a switch, so
//! the ablation experiments can measure what each one buys. A switch
//! stays only while its non-default value is the paper's or is measured
//! by a registered experiment.

use webdis_cache::CachePolicy;
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
}

/// Which completion-detection protocol runs: the three that experiment
/// T11 compares.
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
    /// A daemon forgets a query — its log rows, admission slot and
    /// flags — once no clone of it has arrived for this long (µs on the
    /// run's clock), checked as each message arrives
    /// ([`QueryLog`](crate::QueryLog)). `None` disables purging.
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
    /// build-then-purge behaviour. Every hit checks the cached build's
    /// content version against the document's, so on a living web a
    /// superseded build is dropped and the page reparsed.
    pub doc_cache_size: usize,
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
    /// its byte budget.
    pub cache: Option<CachePolicy>,
    /// Event sink for query-trajectory tracing (`webdis-trace`). The
    /// default no-op sink records nothing and costs one inlined branch
    /// per instrumentation point; runners copy this handle into the
    /// transport so engine and network events share one stream, and
    /// [`tick`](TraceHandle::tick) it on their sampling clock. Live
    /// observability is a sink here too: `webdis-monitor`'s `Monitor`
    /// wrapping the collecting tracer.
    pub tracer: TraceHandle,
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
            expiry_us: None,
            admission: None,
            cache: None,
            tracer: TraceHandle::noop(),
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
        assert_eq!(
            EngineConfig::ack_chain().completion,
            CompletionMode::AckChain
        );
    }
}

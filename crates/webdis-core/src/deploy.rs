//! What is deployed, said once: the web, its scheduled history, the
//! engine configuration and which sites run a query server.
//!
//! Every way of running a query starts from a [`Deployment`]. The
//! transports attach to it in their own modules: [`crate::simrun`] wires
//! it onto a simulated network ([`Deployment::sim_net`]) and
//! [`crate::tcprun`] starts it as loopback daemons
//! ([`Deployment::tcp_cluster`]); the run forms built on those —
//! `query_sim`, `workload_sim`, `datashipping_sim`, `query_tcp`,
//! `queries_tcp`, `workload_tcp` — are methods of the same value, and
//! each `run_*` function of this crate and of `webdis-load` is one of
//! them with the unsaid fields at their defaults (hybrid execution is
//! `query_sim` with `participating` and `config.hybrid` said).

use webdis_model::SiteAddr;
use webdis_trace::{TraceEvent as TrEvent, TraceRecord};
use webdis_web::{Mutation, MutationSchedule, WebView};

use crate::config::{CompletionMode, EngineConfig};

/// A web and the engines serving it, independent of the transport they
/// run on. A plain value: set the fields, then run it any number of
/// times (its web is one shared store, so its history carries across
/// runs).
#[derive(Clone)]
pub struct Deployment {
    /// The documents: one store every server of the deployment shares,
    /// made from an `Arc<HostedWeb>` or a shared `Arc<LiveWeb>` (both
    /// convert with `into()`).
    pub web: WebView,
    /// Mutations that land while the deployment runs — at their virtual
    /// times on the simulator, at their wall-clock offsets from cluster
    /// start on TCP. Empty on a web frozen in time.
    pub schedule: MutationSchedule,
    /// The configuration every query server and user site runs with.
    pub config: EngineConfig,
    /// The sites that run a query server; the rest only serve documents
    /// (Section 7.1's non-participating sites). `None` = every site.
    pub participating: Option<Vec<SiteAddr>>,
}

impl Deployment {
    /// Every site of `web` running a query server under `config`, and no
    /// scheduled mutations.
    pub fn new(web: impl Into<WebView>, config: EngineConfig) -> Deployment {
        Deployment {
            web: web.into(),
            schedule: MutationSchedule::default(),
            config,
            participating: None,
        }
    }

    /// The configuration as every query server and user site is handed
    /// it. Hybrid execution (Section 7.1) is defined over CHT completion
    /// — a server announces the destinations it could not reach in a
    /// report and the user-site fallback clears them, which ack chains
    /// cannot express — so `hybrid` turns an ack chain into the CHT here,
    /// once (a strict CHT stays strict).
    pub(crate) fn engine_config(&self) -> EngineConfig {
        let mut config = self.config.clone();
        if config.hybrid && config.completion == CompletionMode::AckChain {
            config.completion = CompletionMode::Cht;
        }
        config
    }

    /// True when `site` runs a query server.
    pub(crate) fn participates(&self, site: &SiteAddr) -> bool {
        self.participating
            .as_ref()
            .is_none_or(|sites| sites.contains(site))
    }

    /// Applies one scheduled mutation to the web and stamps it into the
    /// trace, from the mutated host, at `time_us`.
    pub(crate) fn apply_mutation(&self, m: &Mutation, time_us: u64) {
        let applied = self.web.apply(m);
        self.config.tracer.emit_with(|| TraceRecord {
            time_us,
            site: applied.host.clone(),
            query: None,
            hop: None,
            event: TrEvent::WebMutation {
                op: applied.label.to_string(),
                url: m.op.url_string(),
                site_version: applied.site_version,
            },
        });
    }
}

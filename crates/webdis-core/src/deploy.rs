//! What is deployed, said once: the web, its scheduled history, the
//! engine configuration and which sites run a query server.
//!
//! Every way of running a query starts from a [`Deployment`]. The
//! transports attach to it in their own modules: [`crate::simrun`] wires
//! it onto a simulated network ([`Deployment::sim_net`]) and
//! [`crate::tcprun`] starts it as loopback daemons
//! ([`Deployment::tcp_cluster`]). Each runtime has one single-query form
//! and one workload form, methods of the same value: `query_sim` and
//! `workload_sim`, `query_tcp` and `workload_tcp` (a workload of one
//! user), plus `datashipping_sim`, the centralized oracle. Hybrid
//! execution is `query_sim` with `participating` and `config.hybrid`
//! said.

use std::ops::ControlFlow;

use webdis_model::SiteAddr;
use webdis_sim::{Due, Runtime};
use webdis_trace::{TraceEvent as TrEvent, TraceRecord};
use webdis_web::{Mutation, MutationSchedule, WebView};

use crate::config::{CompletionMode, EngineConfig};

/// How often a run samples itself, in µs of its own clock: the
/// simulator's workload tick (the observer and the tracer) and a traced
/// TCP drive's tracer tick.
pub(crate) const SAMPLE_PERIOD_US: u64 = 50_000;

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
    /// How many reactor threads host a TCP cluster's daemons, each
    /// hosting an equal share of them; never more than the daemons, and
    /// at least one. One by default, the only layout whose cost has been
    /// measured (EXPERIMENTS.md "Sites share a reactor"); as many as the
    /// sites is a thread per daemon, which tests set to run both layouts.
    /// The simulator hosts every site on its one thread whatever this
    /// says.
    pub reactors: usize,
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
            reactors: 1,
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

    /// The one host loop of both runtimes: runs `rt` to `stop_us` and acts
    /// on it at times, as host entries of its agenda, so each act lands
    /// after all `rt` does up to and at its instant. Each scheduled
    /// mutation past the first `applied` — in time order, a tie in list
    /// order, the order `applied` counts — lands at its time; from
    /// `first_tick_us` on, `tick(rt, at_us, spent)` runs (`spent`: every
    /// mutation has landed) and is re-armed where it continues, until it
    /// breaks. Returns the mutations still to land, in that order.
    pub(crate) fn drive<R: Runtime>(
        &self,
        rt: &mut R,
        applied: &mut usize,
        stop_us: u64,
        first_tick_us: Option<u64>,
        mut tick: impl FnMut(&mut R, u64, bool) -> ControlFlow<(), u64>,
    ) -> Vec<&Mutation> {
        let mut due: Vec<&Mutation> = self.schedule.events.iter().collect();
        due.sort_by_key(|m| m.at_us);
        for (i, m) in due.iter().enumerate().skip(*applied) {
            rt.agenda().push(m.at_us, Due::Host(i as u64));
        }
        // A mutation's token is its place in `due`; the tick's is past them.
        let tick_token = due.len() as u64;
        if let Some(at_us) = first_tick_us {
            rt.agenda().push(at_us, Due::Host(tick_token));
        }
        while let Some((at_us, token)) = rt.run_to_host(stop_us) {
            if token != tick_token {
                self.apply_mutation(due[token as usize], at_us);
                *applied += 1;
            } else if let ControlFlow::Continue(next_us) = tick(rt, at_us, *applied == due.len()) {
                rt.agenda().push(next_us, Due::Host(tick_token));
            } else {
                break;
            }
        }
        due.split_off(*applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use webdis_model::Url;
    use webdis_sim::{Agenda, Event};
    use webdis_web::{HostedWeb, LiveWeb, MutationOp, PageBuilder};

    /// A runtime that only hands back what was pushed, its clock the last
    /// entry's time.
    #[derive(Default)]
    struct Echo {
        agenda: Agenda,
        now_us: u64,
    }

    impl Runtime for Echo {
        fn next(&mut self, limit_us: u64) -> Option<(u64, Due)> {
            let (at_us, due) = self.agenda.pop(limit_us)?;
            self.now_us = at_us;
            Some((at_us, due))
        }
        fn deliver(&mut self, _: u64, _: SiteAddr, event: Event) {
            panic!("only host entries were pushed, not {event:?}");
        }
        fn restart(&mut self, _: u64, site: SiteAddr) {
            panic!("only host entries were pushed, not a restart of {site}");
        }
        fn agenda(&mut self) -> &mut Agenda {
            &mut self.agenda
        }
    }

    /// A deployment over one page per host in `hosts`, whose schedule
    /// edits `(at_us, host)`'s index page, in list order.
    fn edits(hosts: &[&str], schedule: &[(u64, &str)]) -> (Arc<LiveWeb>, Deployment) {
        let mut web = HostedWeb::new();
        for host in hosts {
            web.insert_page(&format!("http://{host}/"), PageBuilder::new(host));
        }
        let web = Arc::new(LiveWeb::from_hosted(&web));
        let mut deployment = Deployment::new(Arc::clone(&web), EngineConfig::default());
        for &(at_us, host) in schedule {
            let url = Url::parse(&format!("http://{host}/")).unwrap();
            let op = MutationOp::EditPage {
                url,
                token: "x".into(),
            };
            deployment.schedule.events.push(Mutation { at_us, op });
        }
        (web, deployment)
    }

    /// What landed, in order: `host@at_us`.
    fn landed(web: &LiveWeb) -> Vec<String> {
        let history = web.history().into_iter();
        history.map(|m| format!("{}@{}", m.host, m.at_us)).collect()
    }

    #[test]
    fn mutations_land_once_each_in_time_order_whatever_the_lists_order() {
        let (web, deployment) = edits(&["a.test", "b.test"], &[(30, "b.test"), (10, "a.test")]);
        let (mut rt, mut applied) = (Echo::default(), 0);
        let never = |_: &mut Echo, _, _| -> ControlFlow<(), u64> { unreachable!("no tick armed") };
        let left = deployment.drive(&mut rt, &mut applied, u64::MAX, None, never);
        assert!(left.is_empty());
        assert_eq!(applied, 2);
        assert_eq!(landed(&web), ["a.test@10", "b.test@30"]);
        assert_eq!(
            (web.site_version("a.test"), web.site_version("b.test")),
            (1, 1)
        );
    }

    #[test]
    fn the_tick_rearms_where_it_continues_until_it_breaks() {
        let (web, deployment) = edits(&["a.test"], &[(15, "a.test")]);
        let (mut rt, mut ticks) = (Echo::default(), Vec::new());
        let tick = |_: &mut Echo, at_us, spent| {
            ticks.push((at_us, spent));
            if ticks.len() == 3 {
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(at_us + 10)
        };
        deployment.drive(&mut rt, &mut 0, u64::MAX, Some(5), tick);
        // A mutation and a tick of one instant would land in push order:
        // the mutation first.
        assert_eq!(ticks, [(5, false), (15, true), (25, true)]);
        assert_eq!(landed(&web), ["a.test@15"]);
        assert!(
            rt.agenda.next_us().is_none(),
            "nothing re-armed after Break"
        );
    }

    #[test]
    fn the_stop_instant_ends_the_loop_and_a_second_call_lands_only_what_is_left() {
        let schedule = [(150, "a.test"), (50, "a.test"), (100, "a.test")];
        let (web, deployment) = edits(&["a.test"], &schedule);
        let (mut rt, mut applied) = (Echo::default(), 0);
        let tick = |_: &mut Echo, at_us, _| ControlFlow::Continue(at_us + 40);
        let left = deployment.drive(&mut rt, &mut applied, 100, Some(0), tick);
        assert_eq!(left.iter().map(|m| m.at_us).collect::<Vec<_>>(), [150]);
        assert_eq!((applied, rt.now_us), (2, 100));
        assert_eq!(landed(&web), ["a.test@50", "a.test@100"]);

        // The next call starts from a fresh agenda, as a TCP drive does,
        // and the cursor it is handed.
        let mut rt = Echo::default();
        let none = deployment.drive(&mut rt, &mut applied, u64::MAX, None, tick);
        assert!(none.is_empty());
        assert_eq!(applied, 3);
        assert_eq!(landed(&web), ["a.test@50", "a.test@100", "a.test@150"]);
    }
}

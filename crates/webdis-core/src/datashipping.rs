//! The centralized **data-shipping** baseline (Sections 1 and 6).
//!
//! This is the approach the paper argues against: the user site downloads
//! every candidate document over the network, builds the virtual
//! relations locally, evaluates node-queries locally, and follows the PRE
//! by downloading further documents. Query semantics are identical to
//! the distributed engine — same PRE derivatives, same dead-end rule,
//! same per-state deduplication — only the execution locus differs, so
//! traffic and latency comparisons are apples-to-apples and the two
//! engines must produce the same result set (property-tested).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use webdis_disql::{parse_disql, DisqlError, WebQuery};
use webdis_model::{SiteAddr, Url};
use webdis_net::{FetchRequest, Message};
use webdis_pre::Pre;
use webdis_rel::NodeDb;
use webdis_sim::{Actor, Event, SimConfig};
use webdis_trace::{TraceEvent, TraceHandle, TraceRecord};

use crate::config::EngineConfig;
use crate::deploy::Deployment;
use crate::network::{Network, Work};
use crate::record::{QueryOutcome, QueryRecord};
use crate::simrun::user_addr;

/// One unit of traversal work: evaluate/forward at `node` with the given
/// remaining PRE for stage `stage_idx`.
#[derive(Debug, Clone)]
struct WorkItem {
    node: Url,
    stage_idx: usize,
    rem_pre: Pre,
}

/// The centralized user-site engine.
pub struct DataShipUser {
    query: WebQuery,
    self_addr: SiteAddr,
    /// Downloaded documents (None = known missing).
    cache: HashMap<Url, Option<Rc<NodeDb>>>,
    /// Work waiting on an in-flight download.
    pending: HashMap<Url, Vec<WorkItem>>,
    /// States already processed — the baseline's analogue of the log
    /// table.
    visited: HashSet<(Url, usize, Pre)>,
    outstanding: usize,
    /// The query's fate: rows, first-row time, and `complete` once no
    /// download is outstanding and all work is drained. There is no CHT
    /// and no node report, so the rest stays at its defaults.
    pub record: QueryRecord,
    tracer: TraceHandle,
}

impl DataShipUser {
    /// Creates the baseline engine, which [`Event::Start`] kicks off. The
    /// user site charges every parse and evaluation to its own runtime
    /// ([`Network::charge`]); events are stamped at the user site (there
    /// is no query shipping, so records carry no hop or query id).
    pub fn new(query: WebQuery, self_addr: SiteAddr, tracer: TraceHandle) -> DataShipUser {
        DataShipUser {
            query,
            self_addr,
            cache: HashMap::new(),
            pending: HashMap::new(),
            visited: HashSet::new(),
            outstanding: 0,
            record: QueryRecord::default(),
            tracer,
        }
    }

    fn emit(&self, time_us: u64, event: TraceEvent) {
        self.tracer.emit_with(|| TraceRecord {
            time_us,
            site: self.self_addr.host.to_string(),
            query: None,
            hop: None,
            event,
        });
    }

    /// Seeds the traversal with the StartNodes.
    fn start(&mut self, net: &mut dyn Network) {
        if self.query.stages.is_empty() {
            self.finish(net.now_us());
            return;
        }
        let first_pre = self.query.stages[0].pre.clone();
        let starts: Vec<Url> = self
            .query
            .start_nodes
            .iter()
            .map(Url::without_fragment)
            .collect();
        let mut queue = VecDeque::new();
        for node in starts {
            self.submit(net, node, 0, first_pre.clone(), &mut queue);
        }
        self.drain(net, queue);
    }

    /// Handles a completed download.
    fn on_message(&mut self, net: &mut dyn Network, msg: Message) {
        let Message::FetchReply(reply) = msg else {
            return;
        };
        let url = reply.url.without_fragment();
        if self.cache.contains_key(&url) {
            return; // duplicate reply
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        let db = reply.html.map(|html| {
            net.charge(Work::Parse { bytes: html.len() });
            Rc::new(NodeDb::parse(&url, html))
        });
        self.cache.insert(url.clone(), db);
        self.emit(
            net.now_us(),
            TraceEvent::DocFetch {
                url: url.to_string(),
                cache_hit: false,
                // Fetch replies carry no version (the wire format is
                // frozen); downloads stamp the frozen-web default.
                content_version: 0,
            },
        );
        let work = self.pending.remove(&url).unwrap_or_default();
        self.drain(net, work.into());
    }

    /// Queues a work item, requesting the document if necessary.
    fn submit(
        &mut self,
        net: &mut dyn Network,
        node: Url,
        stage_idx: usize,
        rem_pre: Pre,
        ready: &mut VecDeque<WorkItem>,
    ) {
        if !self
            .visited
            .insert((node.clone(), stage_idx, rem_pre.clone()))
        {
            return;
        }
        let item = WorkItem {
            node: node.clone(),
            stage_idx,
            rem_pre,
        };
        if self.cache.contains_key(&node) {
            self.emit(
                net.now_us(),
                TraceEvent::DocFetch {
                    url: node.to_string(),
                    cache_hit: true,
                    content_version: 0,
                },
            );
            ready.push_back(item);
            return;
        }
        let first_request = !self.pending.contains_key(&node);
        self.pending.entry(node.clone()).or_default().push(item);
        if first_request {
            let req = Message::Fetch(FetchRequest {
                url: node.clone(),
                reply_host: self.self_addr.host.clone(),
                reply_port: self.self_addr.port,
            });
            if net.send(&node.site(), req).is_err() {
                // No web server at the site: every pending item for the
                // document dead-ends.
                self.cache.insert(node.clone(), None);
                self.pending.remove(&node);
            } else {
                self.outstanding += 1;
            }
        }
    }

    /// Processes ready work to quiescence.
    fn drain(&mut self, net: &mut dyn Network, mut queue: VecDeque<WorkItem>) {
        while let Some(item) = queue.pop_front() {
            self.process(net, item, &mut queue);
        }
        if self.outstanding == 0 && !self.record.complete {
            self.finish(net.now_us());
        }
    }

    /// The same per-node semantics as the distributed server (Figure 4),
    /// executed locally.
    fn process(&mut self, net: &mut dyn Network, item: WorkItem, queue: &mut VecDeque<WorkItem>) {
        let Some(Some(db)) = self.cache.get(&item.node).cloned() else {
            return;
        };
        let stages = &self.query.stages;
        let mut work = vec![(item.rem_pre, item.stage_idx)];
        let mut submissions: Vec<(Url, usize, Pre)> = Vec::new();
        while let Some((pre, idx)) = work.pop() {
            if pre.nullable() {
                self.emit(
                    net.now_us(),
                    TraceEvent::EvalStart {
                        node: item.node.to_string(),
                        stage: idx as u32,
                    },
                );
                let eval_t0 = net.now_us();
                let evaluated = stages[idx].plan().execute(&db).map(|(rows, _)| rows);
                let span_us = net.now_us().saturating_sub(eval_t0) + net.charge(Work::Eval);
                match evaluated {
                    Err(_) => continue,
                    Ok(rows) if rows.is_empty() => {
                        // No answer here; traversal continues along the
                        // residual PRE (same rule as the distributed
                        // engine — see `server.rs`).
                        self.emit(
                            net.now_us(),
                            TraceEvent::EvalFinish {
                                node: item.node.to_string(),
                                stage: idx as u32,
                                rows: 0,
                                answered: false,
                                span_us,
                            },
                        );
                    }
                    Ok(rows) => {
                        self.emit(
                            net.now_us(),
                            TraceEvent::EvalFinish {
                                node: item.node.to_string(),
                                stage: idx as u32,
                                rows: rows.len() as u32,
                                answered: true,
                                span_us,
                            },
                        );
                        if self.record.first_result_us.is_none() {
                            self.record.first_result_us = Some(net.now_us());
                        }
                        let bucket = self.record.results.entry(idx as u32).or_default();
                        for row in rows {
                            bucket.push((item.node.clone(), row));
                        }
                        if idx + 1 < stages.len() {
                            self.emit(
                                net.now_us(),
                                TraceEvent::StageTransition {
                                    node: item.node.to_string(),
                                    from_stage: idx as u32,
                                    to_stage: idx as u32 + 1,
                                },
                            );
                            work.push((stages[idx + 1].pre.clone(), idx + 1));
                        }
                    }
                }
            }
            for t in pre.first().iter() {
                let d = pre.deriv(t);
                if d.is_never() {
                    continue;
                }
                for link in db.links_of_type(t) {
                    submissions.push((link.href.without_fragment(), idx, d.clone()));
                }
            }
        }
        for (node, idx, pre) in submissions {
            self.submit(net, node, idx, pre, queue);
        }
    }

    fn finish(&mut self, now_us: u64) {
        self.record.complete = true;
        self.record.completed_at_us = Some(now_us);
    }
}

impl Actor for DataShipUser {
    fn handle(&mut self, net: &mut dyn Network, event: Event) {
        match event {
            Event::Start => self.start(net),
            Event::Net(msg) => self.on_message(net, msg),
            Event::Timer(_) => {}
        }
    }
}

impl Deployment {
    /// Runs a DISQL query with the centralized data-shipping strategy over
    /// the simulated network: [`Deployment::sim_net`] with no site
    /// participating, so plain web servers (answering only document
    /// fetches) run at every site and no query server anywhere —
    /// `participating` is ignored. Of the configuration only the tracer,
    /// installed on both the engine and the simulated transport,
    /// applies; the simulator's `SimConfig::proc` prices every parse and
    /// evaluation, all charged to the user site's single processor.
    pub fn datashipping_sim(
        &self,
        disql: &str,
        sim_cfg: SimConfig,
    ) -> Result<QueryOutcome, DisqlError> {
        let query = parse_disql(disql)?;
        let no_daemons = Deployment {
            participating: Some(Vec::new()),
            ..self.clone()
        };
        let mut net = no_daemons.sim_net(sim_cfg);
        let addr = user_addr();
        let user = DataShipUser::new(query, addr.clone(), self.config.tracer.clone());
        net.register(addr.clone(), Box::new(user));
        net.start(&addr);
        let duration_us = self.drive_sim(&mut net, u64::MAX, u64::MAX);

        let user = net
            .actor_mut::<DataShipUser>(&addr)
            .expect("baseline user registered");
        Ok(QueryOutcome {
            record: std::mem::take(&mut user.record),
            metrics: net.metrics(),
            duration_us,
            server_stats: BTreeMap::new(),
        })
    }
}

/// Data shipping on the frozen `web`, untraced, each parse and
/// evaluation priced by `SimConfig::proc`: [`Deployment::datashipping_sim`]
/// with nothing else said.
pub fn run_datashipping_sim(
    web: Arc<webdis_web::HostedWeb>,
    disql: &str,
    sim_cfg: SimConfig,
) -> Result<QueryOutcome, DisqlError> {
    Deployment::new(web, EngineConfig::default()).datashipping_sim(disql, sim_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use webdis_web::figures;

    #[test]
    fn baseline_answers_campus_query() {
        let outcome = run_datashipping_sim(
            Arc::new(figures::campus()),
            figures::CAMPUS_QUERY,
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.rows_of_stage(1).len(), 3);
        // Every byte of every visited document crossed the network.
        assert!(outcome.metrics.bytes_of("fetch-reply") > 0);
    }

    #[test]
    fn baseline_matches_distributed_results() {
        let web = Arc::new(figures::campus());
        let ship = crate::run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let data = run_datashipping_sim(web, figures::CAMPUS_QUERY, SimConfig::default()).unwrap();
        assert_eq!(ship.result_set(), data.result_set());
    }

    #[test]
    fn baseline_ships_more_bytes_than_query_shipping() {
        let web = Arc::new(figures::campus());
        let ship = crate::run_query_sim(
            Arc::clone(&web),
            figures::CAMPUS_QUERY,
            EngineConfig::default(),
            SimConfig::default(),
        )
        .unwrap();
        let data = run_datashipping_sim(web, figures::CAMPUS_QUERY, SimConfig::default()).unwrap();
        assert!(
            data.metrics.total.bytes > ship.metrics.total.bytes,
            "data shipping {} bytes vs query shipping {} bytes",
            data.metrics.total.bytes,
            ship.metrics.total.bytes
        );
    }

    #[test]
    fn missing_site_dead_ends_cleanly() {
        let mut web = webdis_web::HostedWeb::new();
        web.insert_page(
            "http://a.test/",
            webdis_web::PageBuilder::new("A").link("http://ghost.test/x", "dangling"),
        );
        let outcome = run_datashipping_sim(
            Arc::new(web),
            r#"select d.url from document d such that "http://a.test/" (L|G)* d"#,
            SimConfig::default(),
        )
        .unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.rows_of_stage(0).len(), 1);
    }
}

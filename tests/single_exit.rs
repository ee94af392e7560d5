//! The clone pipeline has one exit: however a clone leaves a query
//! server — refused, dropped, terminated or forwarded — it is received
//! once, accounts for its time once (one `StageSpans` per `QueryRecv`),
//! and under ack-chain completion its sender gets exactly one `Ack`.

use std::sync::Arc;

use webdis::core::network::RecordingNetwork;
use webdis::core::{query_server_addr, EngineConfig, ServerEngine};
use webdis::disql::parse_disql;
use webdis::model::{SiteAddr, Url};
use webdis::net::{AckMsg, Message, QueryClone, QueryId};
use webdis::trace::{CollectingTracer, TraceHandle};
use webdis::web::{HostedWeb, PageBuilder};

fn site(host: &str, port: u16) -> SiteAddr {
    SiteAddr {
        host: host.into(),
        port,
    }
}

fn web() -> Arc<HostedWeb> {
    let mut web = HostedWeb::new();
    web.insert_page(
        "http://a.test/",
        PageBuilder::new("Alpha needle")
            .link("/sub.html", "local")
            .link("http://b.test/", "global"),
    );
    web.insert_page("http://a.test/sub.html", PageBuilder::new("Sub needle"));
    web.insert_page("http://b.test/", PageBuilder::new("Beta"));
    Arc::new(web)
}

/// A clone of query `num` for `http://a.test/`, sent by `sender`.
fn clone_from(sender: &SiteAddr, num: u64) -> QueryClone {
    let q = parse_disql(
        r#"select d.url from document d such that "http://a.test/" (L|G)* d
           where d.title contains "needle""#,
    )
    .unwrap();
    QueryClone {
        id: QueryId {
            user: "t".into(),
            host: "user.test".into(),
            port: 9,
            query_num: num,
        },
        dest_nodes: vec![Url::parse("http://a.test/").unwrap()],
        rem_pre: q.stages[0].pre.clone(),
        stages: q.stages,
        stage_offset: 0,
        hops: 0,
        ack_host: sender.host.clone(),
        ack_port: sender.port,
    }
}

struct Harness {
    engine: ServerEngine,
    net: RecordingNetwork,
    collector: Arc<CollectingTracer>,
    ack_chain: bool,
    /// Each delivered clone gets a sender of its own, so acks can be
    /// attributed to the clone they settle.
    senders: u16,
}

impl Harness {
    fn new(cfg: EngineConfig) -> Harness {
        let (collector, tracer) = TraceHandle::collecting(4096);
        let ack_chain = cfg.completion == webdis::core::CompletionMode::AckChain;
        let cfg = EngineConfig { tracer, ..cfg };
        Harness {
            engine: ServerEngine::new(site("a.test", 80), web(), cfg),
            net: RecordingNetwork::default(),
            collector,
            ack_chain,
            senders: 0,
        }
    }

    fn count(&self, event: &str) -> usize {
        let records = self.collector.snapshot();
        records.iter().filter(|r| r.event.name() == event).count()
    }

    /// Delivers one clone built by `make` (given its sender), then the
    /// acks of every clone it forwarded, and checks the single-exit
    /// invariants for it.
    fn deliver(&mut self, what: &str, make: impl FnOnce(&SiteAddr) -> QueryClone) {
        self.senders += 1;
        let sender = site("up.test", self.senders);
        let clone = make(&sender);
        let id = clone.id.clone();
        let (recv, spans, sent) = (
            self.count("query_recv"),
            self.count("stage_spans"),
            self.net.sent.len(),
        );
        self.engine.on_message(&mut self.net, Message::Query(clone));
        assert_eq!(self.count("query_recv"), recv + 1, "{what}: received once");
        assert_eq!(self.count("stage_spans"), spans + 1, "{what}: one exit");
        let forwarded = self.net.sent[sent..]
            .iter()
            .filter(|(_, m)| matches!(m, Message::Query(_)))
            .count();
        for _ in 0..forwarded {
            let ack = Message::Ack(AckMsg { id: id.clone() });
            self.engine.on_message(&mut self.net, ack);
        }
        let acks = self.net.sent[sent..]
            .iter()
            .filter(|(to, m)| to == &sender && matches!(m, Message::Ack(_)))
            .count();
        assert_eq!(acks, usize::from(self.ack_chain), "{what}: acks to sender");
        assert_eq!(
            self.count("stage_spans"),
            spans + 1,
            "{what}: acks emit none"
        );
    }
}

fn every_exit(base: fn() -> EngineConfig) {
    // Normal forward (a clone leaves for b.test), then the same state
    // again: every arrival an exact duplicate — silent under the CHT.
    let mut h = Harness::new(base());
    h.deliver("forward", |s| clone_from(s, 1));
    assert!(h.engine.stats.clones_forwarded > 0);
    h.deliver("duplicate", |s| clone_from(s, 1));
    assert!(h.engine.stats.duplicates_dropped > 0);

    // A clone with nothing left to run.
    h.deliver("empty", |s| QueryClone {
        stages: [].into(),
        ..clone_from(s, 2)
    });

    // The hop-count safety valve.
    h.deliver("hop limit", |s| QueryClone {
        hops: 1_000,
        ..clone_from(s, 3)
    });
    assert_eq!(h.engine.stats.hop_limit_drops, 1);

    // Admission control: query 1 still holds the only slot.
    let mut h = Harness::new(EngineConfig {
        admission: Some(1),
        ..base()
    });
    h.deliver("admitted", |s| clone_from(s, 1));
    h.deliver("shed", |s| clone_from(s, 2));
    assert_eq!(h.engine.stats.queries_shed, 1);

    // Passive termination (the user site is gone), then a late clone of
    // the purged query.
    let mut h = Harness::new(base());
    h.net.unreachable.push(site("user.test", 9));
    h.deliver("terminated", |s| clone_from(s, 1));
    assert_eq!(h.engine.stats.terminated_queries, 1);
    let arrivals = h.engine.stats.arrivals;
    h.deliver("purged", |s| clone_from(s, 1));
    assert_eq!(
        h.engine.stats.arrivals, arrivals,
        "a purged clone is not run"
    );

    // A forward to a site with no query server.
    let mut h = Harness::new(base());
    h.net
        .unreachable
        .push(query_server_addr(&site("b.test", 80)));
    h.deliver("unreachable forward", |s| clone_from(s, 1));
    assert_eq!(h.engine.stats.unreachable_sites, 1);
}

#[test]
fn every_exit_accounts_once_under_the_cht() {
    every_exit(EngineConfig::default);
    every_exit(EngineConfig::strict);
}

#[test]
fn every_exit_settles_the_ack_chain_once() {
    every_exit(EngineConfig::ack_chain);
}

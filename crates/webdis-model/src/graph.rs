//! The Web as a directed graph (Section 2.1).
//!
//! Vertices are *nodes* (web resources, identified by fragment-free URLs)
//! and edges are typed [`Link`]s. The graph is used by the synthetic web
//! generator, by tests that assert reachability properties, and by the
//! figure-reproduction harness; the engine itself never sees a global graph
//! — each query server only knows its own documents' outgoing links, which
//! is the whole point of the paper's distributed design.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::link::{Link, LinkType};
use crate::url::{SiteAddr, Url};

/// Per-node metadata stored in the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeInfo {
    /// Outgoing links, in document order.
    pub out: Vec<Link>,
}

/// A directed web graph. Node identity is the fragment-free URL.
///
/// Deterministic iteration order (BTreeMap) keeps generated webs and figure
/// traces reproducible run-to-run.
#[derive(Debug, Clone, Default)]
pub struct WebGraph {
    nodes: BTreeMap<Url, NodeInfo>,
}

impl WebGraph {
    /// An empty graph.
    pub fn new() -> WebGraph {
        WebGraph::default()
    }

    /// Adds a node with no links (idempotent).
    pub fn add_node(&mut self, url: Url) {
        self.nodes.entry(url.without_fragment()).or_default();
    }

    /// Adds a typed edge, creating both endpoints if absent. The link's
    /// type is classified from the URLs.
    pub fn add_link(&mut self, base: &Url, href: &Url) {
        let base = base.without_fragment();
        let link = Link::new(base.clone(), href.clone());
        self.add_node(href.without_fragment());
        match self.nodes.entry(base) {
            Entry::Occupied(mut e) => e.get_mut().out.push(link),
            Entry::Vacant(e) => {
                e.insert(NodeInfo { out: vec![link] });
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of links.
    pub fn link_count(&self) -> usize {
        self.nodes.values().map(|n| n.out.len()).sum()
    }

    /// True if the node exists.
    pub fn contains(&self, url: &Url) -> bool {
        self.nodes.contains_key(&url.without_fragment())
    }

    /// Outgoing links of a node (empty slice if unknown).
    pub fn links_from(&self, url: &Url) -> &[Link] {
        static EMPTY: [Link; 0] = [];
        self.nodes
            .get(&url.without_fragment())
            .map(|n| n.out.as_slice())
            .unwrap_or(&EMPTY)
    }

    /// Outgoing links of a given type.
    pub fn links_of_type(&self, url: &Url, lt: LinkType) -> impl Iterator<Item = &Link> {
        self.links_from(url).iter().filter(move |l| l.ltype == lt)
    }

    /// Iterates over all node URLs in deterministic order.
    pub fn nodes(&self) -> impl Iterator<Item = &Url> {
        self.nodes.keys()
    }

    /// Iterates over all links in deterministic order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.nodes.values().flat_map(|n| n.out.iter())
    }

    /// The set of distinct sites hosting at least one node.
    pub fn sites(&self) -> BTreeSet<SiteAddr> {
        self.nodes.keys().map(Url::site).collect()
    }

    /// Breadth-first set of nodes reachable from `start` following only the
    /// given link types (useful for test oracles).
    pub fn reachable(&self, start: &Url, types: &[LinkType]) -> BTreeSet<Url> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        let start = start.without_fragment();
        if !self.contains(&start) {
            return seen;
        }
        seen.insert(start.clone());
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for link in self.links_from(&u) {
                if !types.contains(&link.ltype) {
                    continue;
                }
                let dst = link.href.without_fragment();
                if seen.insert(dst.clone()) {
                    queue.push_back(dst);
                }
            }
        }
        seen
    }

    /// Links whose destination is not a node of this graph — "floating
    /// links" in the paper's terminology (Section 1.2), the target of the
    /// link-maintenance application.
    pub fn floating_links(&self) -> Vec<&Link> {
        self.links()
            .filter(|l| !self.contains(&l.href.without_fragment()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn triangle() -> WebGraph {
        let mut g = WebGraph::new();
        let a = url("http://s1/a");
        let b = url("http://s1/b");
        let c = url("http://s2/c");
        g.add_link(&a, &b); // local
        g.add_link(&b, &c); // global
        g.add_link(&c, &a); // global
        g
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
    }

    #[test]
    fn link_types_assigned() {
        let g = triangle();
        let a = url("http://s1/a");
        assert_eq!(g.links_from(&a)[0].ltype, LinkType::Local);
        let b = url("http://s1/b");
        assert_eq!(g.links_from(&b)[0].ltype, LinkType::Global);
    }

    #[test]
    fn node_identity_ignores_fragment() {
        let mut g = WebGraph::new();
        g.add_node(url("http://s/a#x"));
        assert!(g.contains(&url("http://s/a")));
        assert!(g.contains(&url("http://s/a#y")));
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn sites_and_site_nodes() {
        let g = triangle();
        let sites = g.sites();
        assert_eq!(sites.len(), 2);
        let s1 = url("http://s1/a").site();
        assert_eq!(g.nodes.keys().filter(|u| u.site() == s1).count(), 2);
    }

    #[test]
    fn reachable_respects_link_types() {
        let g = triangle();
        let a = url("http://s1/a");
        let only_local = g.reachable(&a, &[LinkType::Local]);
        assert_eq!(only_local.len(), 2); // a, b
        let all = g.reachable(&a, &[LinkType::Local, LinkType::Global]);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn reachable_from_unknown_node_is_empty() {
        let g = triangle();
        assert!(g
            .reachable(&url("http://nowhere/x"), &[LinkType::Local])
            .is_empty());
    }

    #[test]
    fn floating_links_detected() {
        let mut g = triangle();
        let a = url("http://s1/a");
        let dangling = url("http://gone/d");
        g.add_link(&a, &dangling);
        // `add_link` creates the destination node, so remove it by building
        // a graph where the destination was never added: simulate by
        // checking on a graph whose link target has no node entry.
        // add_link always adds the node, so floating links arise only when
        // constructed from parsed HTML against a partial graph; emulate:
        let mut g2 = WebGraph::new();
        g2.add_node(a.clone());
        g2.nodes
            .get_mut(&a)
            .unwrap()
            .out
            .push(Link::new(a.clone(), dangling.clone()));
        assert_eq!(g2.floating_links().len(), 1);
        assert_eq!(g.floating_links().len(), 0);
    }

    #[test]
    fn deterministic_order() {
        let g = triangle();
        let order1: Vec<String> = g.nodes().map(|u| u.to_string()).collect();
        let g2 = triangle();
        let order2: Vec<String> = g2.nodes().map(|u| u.to_string()).collect();
        assert_eq!(order1, order2);
        assert!(order1.windows(2).all(|w| w[0] < w[1]));
    }
}

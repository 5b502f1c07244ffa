//! Toy schemes for this crate's tests (compiled under `cfg(test)` only):
//! full next-hop tables, and schemes that make one decision everywhere.

use routing_graph::shortest_path::dijkstra;
use routing_graph::{Graph, GraphBuilder, Port, VertexId};

use crate::scheme::{Decision, HeaderSize, RoutingScheme};
use crate::RouteError;

/// The unit-weight graph on `n` vertices with `edges`.
pub fn graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        assert!(b.add_unit_edge(u, v).is_ok(), "edge {u}-{v} of a {n}-vertex graph");
    }
    b.build()
}

/// A header of a fixed number of words.
#[derive(Clone)]
pub struct Words(pub usize);

impl HeaderSize for Words {
    fn words(&self) -> usize {
        self.0
    }
}

/// Full routing tables — the port at every `u` towards every `v` on a
/// shortest path of the graph they were built on — so the simplest scheme
/// whose behaviour on another graph (a stale table) is easy to reason about.
pub struct FullTable {
    n: usize,
    /// `next[u][v]`; `None` when `u == v` or `v` is unreachable from `u`.
    next: Vec<Vec<Option<Port>>>,
    header_words: usize,
}

impl FullTable {
    /// Tables for `g`, with a one-word header.
    pub fn build(g: &Graph) -> Self {
        let n = g.n();
        let mut next = vec![vec![None; n]; n];
        for v in g.vertices() {
            // In the tree rooted at `v`, `u`'s parent is the next vertex on
            // a shortest path from `u` to `v`.
            let sp = dijkstra(g, v);
            for u in g.vertices().filter(|&u| u != v) {
                if let Some(p) = sp.parent(u) {
                    next[u.index()][v.index()] = g.port_to(u, p);
                }
            }
        }
        FullTable { n, next, header_words: 1 }
    }

    /// The same tables with a header of `words` words.
    pub fn with_header_words(self, words: usize) -> Self {
        FullTable { header_words: words, ..self }
    }
}

impl RoutingScheme for FullTable {
    type Label = VertexId;
    type Header = Words;
    fn name(&self) -> &str {
        "full"
    }
    fn n(&self) -> usize {
        self.n
    }
    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }
    fn init_header(&self, _: VertexId, _: &VertexId) -> Result<Words, RouteError> {
        Ok(Words(self.header_words))
    }
    fn decide(&self, at: VertexId, _: &mut Words, dest: &VertexId) -> Result<Decision, RouteError> {
        if at == *dest {
            return Ok(Decision::Deliver);
        }
        self.next[at.index()][dest.index()]
            .map(Decision::Forward)
            .ok_or_else(|| RouteError::MissingInformation { at, what: "no next hop".into() })
    }
    fn table_words(&self, _: VertexId) -> usize {
        self.n
    }
    fn label_words(&self, _: VertexId) -> usize {
        1
    }
}

/// A scheme for three vertices that makes the same decision at each.
pub struct Fixed(Decision);

/// Always forwards on port 0: loops forever on a cycle.
pub const LOOP: Fixed = Fixed(Decision::Forward(Port(0)));
/// Delivers at once, wherever the message is.
pub const EAGER: Fixed = Fixed(Decision::Deliver);
/// Forwards on a port no vertex of a small graph has.
pub const BAD_PORT: Fixed = Fixed(Decision::Forward(Port(99)));

impl RoutingScheme for Fixed {
    type Label = VertexId;
    type Header = ();
    fn name(&self) -> &str {
        "fixed"
    }
    fn n(&self) -> usize {
        3
    }
    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }
    fn init_header(&self, _: VertexId, _: &VertexId) -> Result<(), RouteError> {
        Ok(())
    }
    fn decide(&self, _: VertexId, _: &mut (), _: &VertexId) -> Result<Decision, RouteError> {
        Ok(self.0)
    }
    fn table_words(&self, _: VertexId) -> usize {
        0
    }
    fn label_words(&self, _: VertexId) -> usize {
        1
    }
}

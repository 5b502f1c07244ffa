use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GraphError;

/// Identifier of a vertex, an index in `0..n`.
///
/// The paper breaks ties "by lexicographical order of vertex names"; we use
/// the numeric order of `VertexId` for that purpose everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(value: u32) -> Self {
        VertexId(value)
    }
}

/// A port number: the index of a neighbour in a vertex's adjacency list.
///
/// In the fixed-port model a routing decision at `u` is "forward on port p";
/// the scheme has no control over how ports are numbered. Our ports are the
/// positions in the (id-sorted) adjacency list, fixed at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Port(pub u32);

impl Port {
    /// Returns the port as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Edge weight / distance type.
///
/// Weights are strictly positive integers; distances are sums of weights.
/// Unweighted graphs use weight 1 on every edge.
pub type Weight = u64;

/// Sentinel distance for "unreachable".
pub const INFINITY: Weight = Weight::MAX;

/// A reference to one directed half of an undirected edge, as seen from the
/// vertex whose adjacency list it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The neighbour reached over this edge.
    pub to: VertexId,
    /// The weight of the edge.
    pub weight: Weight,
    /// The port of this edge at the *source* vertex.
    pub port: Port,
}

/// An undirected graph in compressed sparse row (CSR) form with fixed ports.
///
/// Construction goes through [`GraphBuilder`]; the built graph is immutable.
/// Adjacency lists are sorted by neighbour id, so port numbers are a
/// deterministic function of the edge set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `adj` for vertex `u`.
    offsets: Vec<usize>,
    /// Flattened adjacency: `(neighbour, weight)` sorted by neighbour id.
    adj: Vec<(VertexId, Weight)>,
    /// Number of undirected edges.
    m: usize,
    /// True if every edge has weight 1.
    unweighted: bool,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Returns true if every edge has weight 1.
    #[inline]
    pub fn is_unweighted(&self) -> bool {
        self.unweighted
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.n() as u32).map(VertexId)
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Iterator over the edges incident to `u`, in port order.
    pub fn edges(&self, u: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        let lo = self.offsets[u.index()];
        let hi = self.offsets[u.index() + 1];
        self.adj[lo..hi]
            .iter()
            .enumerate()
            .map(|(i, &(to, weight))| EdgeRef { to, weight, port: Port(i as u32) })
    }

    /// The neighbour reached from `u` over `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a valid port of `u`.
    #[inline]
    pub fn neighbor_at(&self, u: VertexId, port: Port) -> EdgeRef {
        let lo = self.offsets[u.index()];
        let hi = self.offsets[u.index() + 1];
        let idx = lo + port.index();
        assert!(idx < hi, "port {port} out of range at vertex {u}");
        let (to, weight) = self.adj[idx];
        EdgeRef { to, weight, port }
    }

    /// The port at `u` leading to neighbour `v`, if the edge `(u, v)` exists.
    pub fn port_to(&self, u: VertexId, v: VertexId) -> Option<Port> {
        let lo = self.offsets[u.index()];
        let hi = self.offsets[u.index() + 1];
        self.adj[lo..hi]
            .binary_search_by_key(&v, |&(to, _)| to)
            .ok()
            .map(|i| Port(i as u32))
    }

    /// The weight of edge `(u, v)`, if it exists.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.port_to(u, v).map(|p| self.neighbor_at(u, p).weight)
    }

    /// Returns true if `(u, v)` is an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.port_to(u, v).is_some()
    }

    /// Iterator over every undirected edge `(u, v, w)` with `u < v`.
    pub fn all_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.edges(u)
                .filter(move |e| u < e.to)
                .map(move |e| (u, e.to, e.weight))
        })
    }

    /// The minimum and maximum edge weight, or `None` for an empty edge set.
    pub fn weight_range(&self) -> Option<(Weight, Weight)> {
        let mut it = self.all_edges().map(|(_, _, w)| w);
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for w in it {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        Some((lo, hi))
    }

    /// A bound no shortest-path distance of the graph exceeds: `n − 1`
    /// heaviest edges, saturating at [`Weight::MAX`], and `0` without an
    /// edge. A build that packs distances before its searches run sizes
    /// the field by it.
    pub fn distance_bound(&self) -> Weight {
        self.weight_range().map_or(0, |(_, hi)| hi.saturating_mul(self.n().saturating_sub(1) as u64))
    }

    /// Returns true if the graph is connected (the empty graph and the
    /// single-vertex graph count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![VertexId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for e in self.edges(u) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    count += 1;
                    stack.push(e.to);
                }
            }
        }
        count == n
    }
}

/// Builder for [`Graph`]. Duplicate edges keep the smallest weight.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Number of vertices the graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `(u, v)` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, the edge is a self
    /// loop, or the weight is zero.
    pub fn add_edge(&mut self, u: usize, v: usize, w: Weight) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        self.edges.push((u as u32, v as u32, w));
        Ok(())
    }

    /// Adds the undirected edge `(u, v)` with weight 1.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphBuilder::add_edge`].
    pub fn add_unit_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.add_edge(u, v, 1)
    }

    /// The edges added so far, as added: `(u, v, weight)`.
    pub(crate) fn added(&self) -> &[(u32, u32, Weight)] {
        &self.edges
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// Parallel edges are merged keeping the smallest weight; adjacency lists
    /// are sorted by neighbour id so that port numbers are deterministic.
    pub fn build(self) -> Graph {
        let n = self.n;
        // Deduplicate on normalized (min, max) endpoints keeping min weight.
        let mut canon: Vec<(u32, u32, Weight)> = self
            .edges
            .into_iter()
            .map(|(u, v, w)| if u < v { (u, v, w) } else { (v, u, w) })
            .collect();
        canon.sort_unstable();
        canon.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut degree = vec![0usize; n];
        for &(u, v, _) in &canon {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adj = vec![(VertexId(0), 0 as Weight); offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &canon {
            adj[cursor[u as usize]] = (VertexId(v), w);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (VertexId(u), w);
            cursor[v as usize] += 1;
        }
        // Sort each adjacency slice by neighbour id for deterministic ports.
        for u in 0..n {
            adj[offsets[u]..offsets[u + 1]].sort_unstable_by_key(|&(v, _)| v);
        }
        let unweighted = canon.iter().all(|&(_, _, w)| w == 1);
        Graph { offsets, adj, m: canon.len(), unweighted: unweighted || canon.is_empty() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2).unwrap();
        b.add_edge(1, 2, 3).unwrap();
        b.add_edge(0, 2, 4).unwrap();
        b.build()
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 5, 1),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 3 })
        );
        assert_eq!(b.add_edge(1, 1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(b.add_edge(0, 1, 0), Err(GraphError::ZeroWeight { u: 0, v: 1 }));
    }

    #[test]
    fn builds_correct_csr() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(!g.is_unweighted());
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(2)), Some(4));
        assert_eq!(g.edge_weight(VertexId(2), VertexId(0)), Some(4));
        assert!(g.has_edge(VertexId(1), VertexId(2)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
    }

    #[test]
    fn ports_are_positions_in_sorted_adjacency() {
        let g = triangle();
        // Vertex 1's neighbours sorted by id: 0 then 2.
        assert_eq!(g.port_to(VertexId(1), VertexId(0)), Some(Port(0)));
        assert_eq!(g.port_to(VertexId(1), VertexId(2)), Some(Port(1)));
        let e = g.neighbor_at(VertexId(1), Port(1));
        assert_eq!(e.to, VertexId(2));
        assert_eq!(e.weight, 3);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9).unwrap();
        b.add_edge(1, 0, 4).unwrap();
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(4));
    }

    #[test]
    fn all_edges_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn connectivity_detection() {
        let g = triangle();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build();
        assert!(!g.is_connected());
        let empty = GraphBuilder::new(1).build();
        assert!(empty.is_connected());
    }

    #[test]
    fn weight_range_and_unweighted_flag() {
        let g = triangle();
        assert_eq!(g.weight_range(), Some((2, 4)));
        let mut b = GraphBuilder::new(3);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(1, 2).unwrap();
        let g = b.build();
        assert!(g.is_unweighted());
        assert_eq!(g.weight_range(), Some((1, 1)));
    }

    /// `distance_bound` is `n − 1` heaviest edges: on a unit and a
    /// weighted graph, a single vertex, an edgeless pair and a graph whose
    /// heaviest edge saturates the product.
    #[test]
    fn distance_bound_is_n_minus_one_heaviest_edges() {
        let old = |g: &Graph| g.weight_range().map_or(0, |(_, hi)| hi.saturating_mul(g.n().saturating_sub(1) as u64));
        let mut unit = GraphBuilder::new(4);
        unit.add_unit_edge(0, 1).unwrap();
        unit.add_unit_edge(1, 2).unwrap();
        let mut huge = GraphBuilder::new(3);
        huge.add_edge(0, 1, 1).unwrap();
        huge.add_edge(1, 2, Weight::MAX).unwrap();
        let cases = [
            (unit.build(), 3),
            (triangle(), 8),
            (GraphBuilder::new(1).build(), 0),
            (GraphBuilder::new(2).build(), 0),
            (huge.build(), Weight::MAX),
        ];
        for (g, bound) in cases {
            assert_eq!(g.distance_bound(), bound, "n = {}, weights {:?}", g.n(), g.weight_range());
            assert_eq!(g.distance_bound(), old(&g), "n = {}", g.n());
        }
    }

    #[test]
    fn vertex_and_port_display() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(Port(1).to_string(), "p1");
        assert_eq!(VertexId::from(7u32), VertexId(7));
        assert_eq!(VertexId(7).index(), 7);
    }
}

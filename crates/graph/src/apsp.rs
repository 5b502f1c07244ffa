//! Exact all-pairs shortest paths, used as ground truth by tests and by the
//! stretch measurements in the experiment harness.
//!
//! Two ground-truth backends share the [`DistanceOracle`] interface:
//!
//! * [`DistanceMatrix`] — the dense matrix: `O(n^2)` memory, `n` (parallel)
//!   Dijkstra runs. Exact for every pair, but quadratic memory caps it at a
//!   few thousand vertices.
//! * [`crate::sampled::SampledDistances`] — `k` source rows plus on-demand
//!   pair queries: `O(k·n)` memory and `O(k·(m + n log n))` build time. This
//!   is what the harness uses beyond laptop scale (`n ≥ 10,000`): stretch is
//!   measured over pairs anchored at the sampled sources, where the oracle
//!   is still *exact*.
//!
//! Evaluation code should accept `&impl DistanceOracle` so both backends
//! plug in.

use crate::scratch::SearchScratch;
use crate::{Graph, VertexId, Weight, INFINITY};

/// Exact pairwise distances, by whatever backing strategy.
///
/// Implementations must return the **exact** graph distance for every pair
/// they answer (`None` strictly meaning "unreachable") — evaluation
/// normalizes routed path weights by these values, so an approximate answer
/// would silently corrupt every stretch statistic.
pub trait DistanceOracle {
    /// Number of vertices of the underlying graph.
    fn n(&self) -> usize;

    /// Exact distance between `u` and `v`, or `None` if unreachable.
    ///
    /// May cost a full graph search for pairs the oracle has no stored row
    /// for (see [`crate::sampled::SampledDistances`]); callers that route
    /// many pairs should anchor them at the sampled oracle's sources.
    fn distance(&self, u: VertexId, v: VertexId) -> Option<Weight>;
}

/// Dense all-pairs distance matrix.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<Weight>,
}

impl DistanceMatrix {
    /// Computes exact distances between every pair of vertices with one
    /// Dijkstra per source, fanned out over [`routing_par::threads`] threads.
    /// Each worker reuses one [`SearchScratch`] workspace across all its
    /// sources, so the only per-source allocation is the output row itself.
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let rows: Vec<Vec<Weight>> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(g),
            |scratch, u| {
                scratch.dijkstra_into(g, VertexId(u as u32));
                scratch.dist_row(n)
            },
        );
        let mut dist = Vec::with_capacity(n * n);
        for row in rows {
            dist.extend(row);
        }
        DistanceMatrix { n, dist }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Exact distance between `u` and `v`, or `None` if unreachable.
    pub fn dist(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let d = self.dist[u.index() * self.n + v.index()];
        (d != INFINITY).then_some(d)
    }

    /// The (hop-unnormalized) diameter: the largest finite pairwise distance.
    pub fn diameter(&self) -> Weight {
        self.dist.iter().copied().filter(|&d| d != INFINITY).max().unwrap_or(0)
    }

    /// The smallest non-zero pairwise distance.
    pub fn min_positive_distance(&self) -> Option<Weight> {
        self.dist.iter().copied().filter(|&d| d != INFINITY && d > 0).min()
    }

    /// Multiplicative stretch of a routed path of total weight `routed`
    /// between `u` and `v`: `routed / d(u, v)`.
    ///
    /// Returns `None` if `u` and `v` are not connected; returns 1.0 when
    /// `u == v`.
    pub fn stretch(&self, u: VertexId, v: VertexId, routed: Weight) -> Option<f64> {
        if u == v {
            return Some(1.0);
        }
        let d = self.dist(u, v)?;
        Some(routed as f64 / d as f64)
    }
}

impl DistanceOracle for DistanceMatrix {
    fn n(&self) -> usize {
        self.n
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.dist(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_path::dijkstra;
    use crate::GraphBuilder;

    #[test]
    fn matrix_matches_dijkstra() {
        let g = generators::grid(5, 5);
        let m = DistanceMatrix::new(&g);
        let sp = dijkstra(&g, VertexId(0));
        for v in g.vertices() {
            assert_eq!(m.dist(VertexId(0), v), sp.dist(v));
        }
        assert_eq!(m.n(), 25);
        assert_eq!(m.diameter(), 8);
        assert_eq!(m.min_positive_distance(), Some(1));
    }

    #[test]
    fn matrix_is_symmetric() {
        let g = generators::cycle(9);
        let m = DistanceMatrix::new(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(m.dist(u, v), m.dist(v, u));
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut b = GraphBuilder::new(4);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.dist(VertexId(0), VertexId(3)), None);
        assert_eq!(m.dist(VertexId(0), VertexId(1)), Some(1));
    }

    #[test]
    fn stretch_computation() {
        let g = generators::path(4);
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.stretch(VertexId(0), VertexId(3), 6), Some(2.0));
        assert_eq!(m.stretch(VertexId(2), VertexId(2), 0), Some(1.0));
    }
}

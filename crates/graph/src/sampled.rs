//! Sampled ground-truth distances: the scalable replacement for the dense
//! [`crate::apsp::DistanceMatrix`].
//!
//! [`SampledDistances`] stores exact single-source distance rows for `k`
//! chosen source vertices — `O(k·n)` memory and `k` parallel Dijkstra runs
//! (`O(k·(m + n log n))` work) instead of the matrix's `O(n^2)` of both.
//! Any pair with at least one endpoint among the sources is an `O(1)` exact
//! lookup (the graphs here are undirected, so a source row answers both
//! directions); other pairs are answered **on demand** with a fresh Dijkstra
//! whose row is cached up to a configurable cap.
//!
//! The intended protocol, used by `routing_model::eval` and the churn
//! harness, is therefore: *sample evaluation pairs anchored at the oracle's
//! sources* — then every ground-truth lookup is exact and free, and
//! measuring stretch over `p` pairs at `n = 10,000` costs `k` graph searches
//! instead of `n` (let alone `n^2` memory).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::apsp::DistanceOracle;
use crate::scratch::SearchScratch;
use crate::{Graph, VertexId, Weight, INFINITY};

/// Upper bound on rows kept by the on-demand cache, so that a caller that
/// ignores the anchoring protocol degrades to recomputation, not to the
/// dense matrix's quadratic memory.
const MAX_ONDEMAND_ROWS: usize = 64;

/// Exact distances from `k` sampled sources, with on-demand exact queries
/// for every other pair.
#[derive(Debug)]
pub struct SampledDistances {
    /// Owned copy of the graph, for on-demand searches. CSR graphs are
    /// `O(n + m)`, so this is cheap next to even a single stored row set.
    graph: Graph,
    /// The sources, sorted by id, deduplicated.
    sources: Vec<VertexId>,
    /// `row_of[v]` = index into `rows` if `v` is a source.
    row_of: Vec<Option<u32>>,
    /// `rows[i][v]` = `d(sources[i], v)` (`INFINITY` when unreachable).
    rows: Vec<Vec<Weight>>,
    /// On-demand rows computed for non-source queries, capped at
    /// [`MAX_ONDEMAND_ROWS`].
    // lint:allow(det-hash-iter): keyed row cache (get/insert by vertex); never iterated
    ondemand: Mutex<HashMap<VertexId, Vec<Weight>>>,
    /// Number of on-demand Dijkstra runs performed (for harness reporting).
    ondemand_searches: AtomicUsize,
}

impl SampledDistances {
    /// Builds the oracle for an explicit source set (deduplicated), running
    /// one Dijkstra per source in parallel over [`routing_par::threads`]
    /// threads.
    pub fn from_sources(g: &Graph, sources: Vec<VertexId>) -> Self {
        let mut sources = sources;
        sources.sort_unstable();
        sources.dedup();
        let mut row_of = vec![None; g.n()];
        for (i, &s) in sources.iter().enumerate() {
            row_of[s.index()] = Some(i as u32);
        }
        let rows = routing_par::par_map_scratch(
            sources.len(),
            || SearchScratch::for_graph(g),
            |scratch, i| {
                scratch.dijkstra_into(g, sources[i]);
                scratch.dist_row(g.n())
            },
        );
        SampledDistances {
            graph: g.clone(),
            sources,
            row_of,
            rows,
            // lint:allow(det-hash-iter): keyed row cache, never iterated
            ondemand: Mutex::new(HashMap::new()),
            ondemand_searches: AtomicUsize::new(0),
        }
    }

    /// Builds the oracle from `k` sources drawn uniformly at random without
    /// replacement (all of `V` when `k >= n`).
    pub fn sample<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Self {
        let mut ids: Vec<VertexId> = g.vertices().collect();
        ids.shuffle(rng);
        ids.truncate(k.min(g.n()));
        Self::from_sources(g, ids)
    }

    /// Number of vertices of the underlying graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The sampled sources, sorted by id.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// True when `d(u, v)` is an `O(1)` lookup (at least one endpoint is a
    /// source).
    pub fn covers(&self, u: VertexId, v: VertexId) -> bool {
        self.row_of[u.index()].is_some() || self.row_of[v.index()].is_some()
    }

    /// Exact distance between `u` and `v`, or `None` if unreachable.
    ///
    /// `O(1)` when [`SampledDistances::covers`] the pair; otherwise one
    /// Dijkstra from `u` (the row is cached, up to a fixed cap of 64 rows,
    /// so repeated queries from the same off-sample source stay cheap).
    pub fn dist(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        if u == v {
            return Some(0);
        }
        if let Some(i) = self.row_of[u.index()] {
            return finite(self.rows[i as usize][v.index()]);
        }
        if let Some(i) = self.row_of[v.index()] {
            // Undirected graph: d(v, u) = d(u, v).
            return finite(self.rows[i as usize][u.index()]);
        }
        {
            let cache = self.ondemand.lock().expect("oracle cache poisoned");
            if let Some(row) = cache.get(&u) {
                return finite(row[v.index()]);
            }
            if let Some(row) = cache.get(&v) {
                return finite(row[u.index()]);
            }
        }
        self.ondemand_searches.fetch_add(1, Ordering::Relaxed);
        let row = compute_row(&self.graph, u);
        let d = finite(row[v.index()]);
        let mut cache = self.ondemand.lock().expect("oracle cache poisoned");
        if cache.len() < MAX_ONDEMAND_ROWS {
            cache.insert(u, row);
        }
        d
    }

    /// How many on-demand (non-covered) Dijkstra searches have been run so
    /// far. The harness reports this so a mis-anchored pair population is
    /// visible instead of silently slow.
    pub fn ondemand_searches(&self) -> usize {
        self.ondemand_searches.load(Ordering::Relaxed)
    }
}

impl DistanceOracle for SampledDistances {
    fn n(&self) -> usize {
        self.graph.n()
    }

    fn distance(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.dist(u, v)
    }
}

fn finite(d: Weight) -> Option<Weight> {
    (d != INFINITY).then_some(d)
}

fn compute_row(g: &Graph, s: VertexId) -> Vec<Weight> {
    let mut scratch = SearchScratch::for_graph(g);
    scratch.dijkstra_into(g, s);
    scratch.dist_row(g.n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::DistanceMatrix;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_matrix_on_covered_pairs() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::erdos_renyi(
            80,
            0.06,
            generators::WeightModel::Uniform { lo: 1, hi: 9 },
            &mut rng,
        );
        let matrix = DistanceMatrix::new(&g);
        let oracle = SampledDistances::sample(&g, 12, &mut rng);
        assert_eq!(oracle.sources().len(), 12);
        for &s in oracle.sources() {
            for v in g.vertices() {
                assert!(oracle.covers(s, v));
                assert_eq!(oracle.dist(s, v), matrix.dist(s, v));
                assert_eq!(oracle.dist(v, s), matrix.dist(v, s));
            }
        }
        assert_eq!(oracle.ondemand_searches(), 0, "covered pairs never search");
    }

    #[test]
    fn on_demand_pairs_are_exact_and_cached() {
        let g = generators::grid(7, 7);
        let matrix = DistanceMatrix::new(&g);
        let oracle = SampledDistances::from_sources(&g, vec![VertexId(0)]);
        let (u, v) = (VertexId(10), VertexId(43));
        assert!(!oracle.covers(u, v));
        assert_eq!(oracle.dist(u, v), matrix.dist(u, v));
        assert_eq!(oracle.ondemand_searches(), 1);
        // Second query from the same source hits the cached row; so does the
        // reverse direction.
        assert_eq!(oracle.dist(u, VertexId(48)), matrix.dist(u, VertexId(48)));
        assert_eq!(oracle.dist(VertexId(48), u), matrix.dist(VertexId(48), u));
        assert_eq!(oracle.ondemand_searches(), 1);
    }

    #[test]
    fn unreachable_and_identity() {
        let mut b = crate::GraphBuilder::new(5);
        b.add_unit_edge(0, 1).unwrap();
        b.add_unit_edge(2, 3).unwrap();
        let g = b.build();
        let oracle = SampledDistances::from_sources(&g, vec![VertexId(0), VertexId(0)]);
        assert_eq!(oracle.sources(), &[VertexId(0)], "sources are deduplicated");
        assert_eq!(oracle.dist(VertexId(0), VertexId(3)), None);
        assert_eq!(oracle.dist(VertexId(4), VertexId(4)), Some(0));
        assert_eq!(oracle.dist(VertexId(2), VertexId(3)), Some(1), "on-demand pair");
        assert_eq!(oracle.n(), 5);
    }

    #[test]
    fn oracle_trait_dispatch() {
        let g = generators::cycle(10);
        let oracle = SampledDistances::from_sources(&g, vec![VertexId(2)]);
        let dyn_oracle: &dyn DistanceOracle = &oracle;
        assert_eq!(dyn_oracle.n(), 10);
        assert_eq!(dyn_oracle.distance(VertexId(2), VertexId(7)), Some(5));
    }
}

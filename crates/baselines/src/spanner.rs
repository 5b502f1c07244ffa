//! The greedy `(2k−1)`-spanner (Althöfer–Das–Dobkin–Joseph–Soares, 1993),
//! included because the paper's introduction frames spanners, distance
//! oracles and routing schemes as three views of the same stretch/space
//! trade-off governed by the girth conjecture:
//!
//! * a `(2k−1)`-**spanner** with `O(n^{1+1/k})` edges (this module),
//! * a `(2k−1)`-stretch **distance oracle** with `O(k·n^{1+1/k})` space
//!   (Thorup–Zwick \[22\], [`crate::tz::TzOracle`]),
//! * a `(4k−5)`-stretch **compact routing scheme** with `Õ(n^{1/k})`-word
//!   tables (Thorup–Zwick \[21\], [`crate::tz::TzRoutingScheme`]) — the
//!   prior art whose stretch the paper's Theorems 10 and 11 beat at equal
//!   space.
//!
//! The greedy construction is the classic generalization of Kruskal's
//! algorithm: scan edges by non-decreasing weight and keep an edge `(u, v)`
//! only if the spanner built so far has no `u`–`v` path of weight at most
//! `(2k−1)·w(u, v)`. Every kept edge therefore closes no cycle of length
//! `≤ 2k`, so the result has girth `> 2k`, and by the Bondy–Simonovits
//! bound any graph with `Ω(n^{1+1/k})` edges contains such a cycle — which
//! is what caps the spanner at `O(n^{1+1/k})` edges. The stretch bound is
//! immediate: a discarded edge is certified by a `(2k−1)`-approximate
//! detour, and shortest paths compose such certificates edge by edge.

use routing_core::BuildError;
use routing_graph::SearchScratch;
use routing_graph::{Graph, GraphBuilder, Port, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// Computes the greedy `(2k−1)`-spanner of `g`: edges are scanned in
/// non-decreasing weight order and kept only if the spanner built so far has
/// no path of weight at most `(2k−1)` times the edge weight between its
/// endpoints.
///
/// The result has girth greater than `2k`, hence `O(n^{1+1/k})` edges, and
/// preserves all distances within a factor `2k−1`.
///
/// # Errors
///
/// [`BuildError::Inconsistent`] if an edge of `g` cannot be added to the
/// spanner (it cannot: every edge comes from a valid graph).
pub fn greedy_spanner(g: &Graph, k: usize) -> Result<Graph, BuildError> {
    let k = k.max(1);
    let factor = (2 * k - 1) as u128;
    let mut edges: Vec<_> = g.all_edges().collect();
    edges.sort_by_key(|&(u, v, w)| (w, u, v));
    let mut builder = GraphBuilder::new(g.n());
    let mut spanner = builder.clone().build();
    // One workspace reused across all O(m) distance queries.
    let mut scratch = SearchScratch::new(g.n());
    for (u, v, w) in edges {
        // Distance between u and v in the current spanner.
        scratch.dijkstra_into(&spanner, u);
        let keep = match scratch.dist(v) {
            Some(d) => (d as u128) > factor * (w as u128),
            None => true,
        };
        if keep {
            builder.add_edge(u.index(), v.index(), w).map_err(|e| BuildError::Inconsistent {
                what: format!("spanner edge {u}-{v}: {e}"),
            })?;
            spanner = builder.clone().build();
        }
    }
    Ok(spanner)
}

/// Header for spanner routing (nothing needs to be carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannerHeader;

impl HeaderSize for SpannerHeader {
    fn words(&self) -> usize {
        0
    }
}

/// Shortest-path routing **restricted to a greedy `(2k−1)`-spanner** of the
/// input graph: full next-hop tables are computed on the spanner's shortest
/// paths, then expressed as ports of the *original* graph, so messages
/// travel on real links but only ever use spanner edges.
///
/// This is the routing view of the girth-conjecture storyline in the module
/// docs: the spanner certifies that every distance survives within a factor
/// `2k−1` after throwing away all but `O(n^{1+1/k})` edges, and this scheme
/// realizes that certificate as routes. The per-vertex table is still
/// `Θ(n)` words (it is the *edge set*, not the table, that the spanner
/// compresses — that is exactly why the paper's compact schemes are a
/// different trade-off), so the interesting measured quantities are the
/// kept-edge count ([`SpannerScheme::spanner_edges`]) and the observed
/// stretch `≤ 2k−1`.
#[derive(Debug, Clone)]
pub struct SpannerScheme {
    n: usize,
    k: usize,
    spanner_m: usize,
    /// `next[u][v]` = port **in the original graph** towards `v` along a
    /// spanner shortest path (`None` on the diagonal or for unreachable
    /// pairs).
    next: Vec<Vec<Option<Port>>>,
}

impl SpannerScheme {
    /// Computes the greedy `(2k−1)`-spanner of `g` and full next-hop tables
    /// on it (one Dijkstra per destination on the spanner, fanned out over
    /// [`routing_par::threads`] threads).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TooSmall`] on an empty graph,
    /// [`BuildError::BadParameter`] for `k < 1`, and whatever
    /// [`greedy_spanner`] reports.
    pub fn build(g: &Graph, k: usize) -> Result<Self, BuildError> {
        if g.n() == 0 {
            return Err(BuildError::TooSmall {
                what: "spanner routing needs at least one vertex".into(),
            });
        }
        if k < 1 {
            return Err(BuildError::BadParameter {
                what: format!("spanner parameter k must be >= 1, got {k}"),
            });
        }
        let n = g.n();
        let span_greedy = routing_obs::span("greedy-spanner");
        let spanner = greedy_spanner(g, k)?;
        drop(span_greedy);
        // Column v comes from the spanner tree rooted at v; the parent edge
        // exists in g (the spanner's edges are a subset), so it has a port.
        // One reused search workspace per worker thread.
        let span_cols = routing_obs::span("dijkstra-columns");
        let columns: Vec<Vec<Option<Port>>> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(&spanner),
            |scratch, v| {
                let v = VertexId(v as u32);
                scratch.dijkstra_into(&spanner, v);
                g.vertices()
                    .map(|u| {
                        if u == v {
                            None
                        } else {
                            scratch.parent(u).and_then(|p| g.port_to(u, p))
                        }
                    })
                    .collect()
            },
        );
        drop(span_cols);
        let _span_next = routing_obs::span("next-table");
        let mut next = vec![vec![None; n]; n];
        for (v, column) in columns.into_iter().enumerate() {
            for (u, port) in column.into_iter().enumerate() {
                next[u][v] = port;
            }
        }
        Ok(SpannerScheme { n, k, spanner_m: spanner.m(), next })
    }

    /// The spanner parameter `k` (stretch bound `2k−1`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of edges the greedy spanner kept (`O(n^{1+1/k})`).
    pub fn spanner_edges(&self) -> usize {
        self.spanner_m
    }

    /// The stretch guarantee `2k − 1`.
    pub fn stretch_bound(&self) -> usize {
        2 * self.k - 1
    }
}

impl RoutingScheme for SpannerScheme {
    type Label = VertexId;
    type Header = SpannerHeader;

    fn name(&self) -> &str {
        "spanner"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }

    fn init_header(&self, _source: VertexId, dest: &VertexId) -> Result<SpannerHeader, RouteError> {
        if dest.index() >= self.n {
            return Err(RouteError::BadLabel { what: format!("{dest} is not a vertex") });
        }
        Ok(SpannerHeader)
    }

    fn decide(
        &self,
        at: VertexId,
        _header: &mut SpannerHeader,
        dest: &VertexId,
    ) -> Result<Decision, RouteError> {
        if at == *dest {
            return Ok(Decision::Deliver);
        }
        self.next[at.index()][dest.index()]
            .map(Decision::Forward)
            .ok_or_else(|| RouteError::MissingInformation {
                at,
                what: format!("{dest} is unreachable in the spanner"),
            })
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.next.get(v.index()).map_or(0, |row| row.iter().filter(|p| p.is_some()).count())
    }

    fn label_words(&self, _v: VertexId) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use routing_graph::apsp::DistanceMatrix;
    use routing_graph::generators::{self, WeightModel};

    #[test]
    fn spanner_preserves_distances_within_stretch() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(50, 0.15, WeightModel::Uniform { lo: 1, hi: 10 }, &mut rng);
        for k in [2usize, 3] {
            let h = greedy_spanner(&g, k).unwrap();
            assert!(h.m() <= g.m());
            let dg = DistanceMatrix::new(&g);
            let dh = DistanceMatrix::new(&h);
            for u in g.vertices() {
                for v in g.vertices() {
                    if u == v {
                        continue;
                    }
                    let orig = dg.dist(u, v).unwrap();
                    let span = dh.dist(u, v).unwrap();
                    assert!(
                        span <= (2 * k as u64 - 1) * orig,
                        "spanner stretch violated for k={k}: {span} vs {orig}"
                    );
                }
            }
        }
    }

    #[test]
    fn spanner_of_a_tree_is_the_tree() {
        let g = generators::binary_tree(31);
        let h = greedy_spanner(&g, 2).unwrap();
        assert_eq!(h.m(), g.m());
    }

    #[test]
    fn larger_k_gives_sparser_spanner() {
        let g = generators::complete(30);
        let h2 = greedy_spanner(&g, 2).unwrap();
        let h4 = greedy_spanner(&g, 4).unwrap();
        assert!(h4.m() <= h2.m());
        assert!(h2.m() < g.m());
    }

    #[test]
    fn spanner_scheme_routes_within_stretch_on_original_ports() {
        use routing_model::simulate;
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::erdos_renyi(40, 0.2, WeightModel::Uniform { lo: 1, hi: 8 }, &mut rng);
        let scheme = SpannerScheme::build(&g, 2).unwrap();
        assert_eq!(scheme.name(), "spanner");
        assert_eq!(scheme.stretch_bound(), 3);
        assert!(scheme.spanner_edges() <= g.m());
        let exact = DistanceMatrix::new(&g);
        for u in g.vertices().step_by(3) {
            for v in g.vertices().step_by(5) {
                if u == v {
                    continue;
                }
                let out = simulate(&g, &scheme, u, v).unwrap();
                let d = exact.dist(u, v).unwrap();
                assert!(out.weight >= d, "routes travel real edges, never beating d");
                assert!(
                    out.weight <= 3 * d,
                    "spanner routing stretch violated {u}->{v}: {} vs {d}",
                    out.weight
                );
            }
        }
        assert_eq!(scheme.table_words(VertexId(0)), 39);
        assert_eq!(scheme.label_words(VertexId(0)), 1);
    }

    #[test]
    fn spanner_scheme_build_rejects_degenerate_inputs() {
        let empty = GraphBuilder::new(0).build();
        assert!(matches!(
            SpannerScheme::build(&empty, 2),
            Err(BuildError::TooSmall { .. })
        ));
        let g = generators::path(3);
        assert!(matches!(
            SpannerScheme::build(&g, 0),
            Err(BuildError::BadParameter { .. })
        ));
    }

    #[test]
    fn spanner_builder_key_matches_scheme_name() {
        let g = generators::cycle(12);
        let scheme = SpannerScheme::build(&g, 2).unwrap();
        assert_eq!(scheme.name(), "spanner");
        assert_eq!(scheme.n(), 12);
    }
}

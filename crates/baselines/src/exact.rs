//! Exact shortest-path routing with full tables: every vertex stores the
//! next-hop port towards every destination. Stretch 1, `Θ(n)` words per
//! vertex — the ground-truth extreme of the space/stretch trade-off.
//!
//! This is the scheme the compact-routing lower bounds are measured
//! against: Peleg–Upfal showed stretch-1 routing *requires* `Ω(n)`-bit
//! tables on some graphs, which is why every scheme in `routing-core`
//! trades a bounded stretch (`1+ε` inside the Lemma 7/8 structures, `2+ε`
//! to `5+ε` end-to-end) for sublinear `Õ(n^x)` tables. In the experiment
//! harness this scheme plays two roles: the stretch-1.0 / `Θ(n)`-words
//! anchor row of the Table 1 comparison, and the "oracle operator" in the
//! churn experiments — the deliverability of freshly rebuilt full tables is
//! the ceiling any compact scheme's rebuild can reach.
//!
//! Next hops are derived from the shortest-path tree of each destination
//! (parent pointers with the paper's `(distance, id)` tie-breaking), so the
//! routed paths are exactly the trees every other scheme's stretch is
//! measured against. The `n` per-destination Dijkstra runs fan out over
//! [`routing_par::threads`] worker threads.

use routing_core::BuildError;
use routing_graph::SearchScratch;
use routing_graph::{Graph, Port, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// The full-table shortest-path routing scheme.
#[derive(Debug, Clone)]
pub struct ExactScheme {
    n: usize,
    /// `next[u][v]` = port at `u` towards `v` (`None` on the diagonal or for
    /// unreachable pairs).
    next: Vec<Vec<Option<Port>>>,
}

impl ExactScheme {
    /// Preprocesses full routing tables with `n` Dijkstra runs, fanned out
    /// over [`routing_par::threads`] threads.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TooSmall`] on an empty graph (there is nothing
    /// to route between).
    pub fn build(g: &Graph) -> Result<Self, BuildError> {
        let n = g.n();
        if n == 0 {
            return Err(BuildError::TooSmall {
                what: "exact routing needs at least one vertex".into(),
            });
        }
        // Column v of the table comes from the tree rooted at v: the parent
        // of u in that tree is the next hop on a shortest path from u to v.
        // One reused search workspace per worker thread.
        let span_cols = routing_obs::span("dijkstra-columns");
        let columns: Vec<Vec<Option<Port>>> = routing_par::par_map_scratch(
            n,
            || SearchScratch::for_graph(g),
            |scratch, v| {
                let v = VertexId(v as u32);
                scratch.dijkstra_into(g, v);
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
            for u in 0..n {
                next[u][v] = column[u];
            }
        }
        Ok(ExactScheme { n, next })
    }
}

/// Header for exact routing (nothing needs to be carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactHeader;

impl HeaderSize for ExactHeader {
    fn words(&self) -> usize {
        0
    }
}

impl RoutingScheme for ExactScheme {
    type Label = VertexId;
    type Header = ExactHeader;

    fn name(&self) -> &str {
        "exact"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn label_of(&self, v: VertexId) -> VertexId {
        v
    }

    fn init_header(&self, _source: VertexId, dest: &VertexId) -> Result<ExactHeader, RouteError> {
        if dest.index() >= self.n {
            return Err(RouteError::BadLabel { what: format!("{dest} is not a vertex") });
        }
        Ok(ExactHeader)
    }

    fn decide(
        &self,
        at: VertexId,
        _header: &mut ExactHeader,
        dest: &VertexId,
    ) -> Result<Decision, RouteError> {
        if at == *dest {
            return Ok(Decision::Deliver);
        }
        self.next[at.index()][dest.index()]
            .map(Decision::Forward)
            .ok_or_else(|| RouteError::MissingInformation {
                at,
                what: format!("{dest} is unreachable"),
            })
    }

    fn table_words(&self, v: VertexId) -> usize {
        self.next[v.index()].iter().filter(|p| p.is_some()).count()
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
    use routing_model::simulate;

    #[test]
    fn exact_routing_has_stretch_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::erdos_renyi(60, 0.08, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng);
        let scheme = ExactScheme::build(&g).unwrap();
        let exact = DistanceMatrix::new(&g);
        for u in g.vertices().take(20) {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                let out = simulate(&g, &scheme, u, v).unwrap();
                assert_eq!(Some(out.weight), exact.dist(u, v));
            }
        }
    }

    #[test]
    fn exact_tables_are_linear_in_n() {
        let g = generators::cycle(40);
        let scheme = ExactScheme::build(&g).unwrap();
        for v in g.vertices() {
            assert_eq!(scheme.table_words(v), 39);
            assert_eq!(scheme.label_words(v), 1);
        }
        assert_eq!(scheme.name(), "exact");
        assert_eq!(RoutingScheme::n(&scheme), 40);
    }

    #[test]
    fn exact_reports_unreachable_destinations() {
        let mut b = routing_graph::GraphBuilder::new(3);
        b.add_unit_edge(0, 1).unwrap();
        let g = b.build();
        let scheme = ExactScheme::build(&g).unwrap();
        let err = simulate(&g, &scheme, VertexId(0), VertexId(2)).unwrap_err();
        assert!(matches!(err, RouteError::MissingInformation { .. }));
    }
}

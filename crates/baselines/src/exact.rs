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
//! measured against. The table is one packed `n × n` column of ports (a
//! byte a pair below degree 255), filled eight rounds of destinations at a
//! time ([`routing_par::by_rounds`]): each worker packs the columns of its
//! Dijkstra runs, so the build holds an eighth of the table beside it.

use routing_core::BuildError;
use routing_graph::{Graph, PackedColumn, Port, SearchScratch, SlotCodec, VertexId};
use routing_model::{Decision, HeaderSize, RouteError, RoutingScheme};

/// The full-table shortest-path routing scheme.
#[derive(Debug, Clone)]
pub struct ExactScheme {
    n: usize,
    /// Row-major `n × n`: entry `u·n + v` is the port at `u` towards `v`, at
    /// the port width of [`SlotCodec::for_graph`], and the sentinel on the
    /// diagonal and for unreachable pairs.
    next: PackedColumn<1>,
}

impl ExactScheme {
    /// Preprocesses full routing tables with `n` Dijkstra runs, fanned out
    /// over [`routing_par::threads`] threads.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooSmall`] on an empty graph (there is nothing to
    /// route between), [`BuildError::BadParameter`] past `n = 65,535`,
    /// whose `n²` ports one column cannot hold.
    pub fn build(g: &Graph) -> Result<Self, BuildError> {
        let n = g.n();
        if n == 0 {
            return Err(BuildError::TooSmall {
                what: "exact routing needs at least one vertex".into(),
            });
        }
        if n.checked_mul(n).is_none_or(|pairs| pairs > u32::MAX as usize) {
            let what = format!("exact routing keeps n² ports, too many at n = {n}");
            return Err(BuildError::BadParameter { what });
        }
        let codec = SlotCodec::new([SlotCodec::for_graph(g).bytes()[1]]);
        let mut next = PackedColumn::zeroed(codec, n * n);
        // Column v of the table comes from the tree rooted at v: the parent
        // of u in that tree is the next hop on a shortest path from u to v.
        let _span = routing_obs::span("dijkstra-columns");
        let plan = routing_par::RoundPlan { items: n, rounds: 8, align: 1, task: |_| 1 };
        let column = |scratch: &mut SearchScratch, v: std::ops::Range<usize>| {
            let v = VertexId(v.start as u32);
            scratch.dijkstra_into(g, v);
            let mut column = PackedColumn::with_capacity(codec, n);
            for u in g.vertices() {
                let port = if u == v { None } else { scratch.parent(u).and_then(|p| g.port_to(u, p)) };
                column.push([port.map_or(u32::MAX, |p| p.0)]);
            }
            Ok::<_, BuildError>(column)
        };
        routing_par::by_rounds(plan, || SearchScratch::for_graph(g), column, |round, columns| {
            for (v, column) in round.zip(&columns) {
                for (u, [port]) in column.view().records::<u32>().enumerate() {
                    next.set(u * n + v, [port]);
                }
            }
            Ok(())
        })?;
        Ok(ExactScheme { n, next })
    }

    /// The port at `u` towards `v`; `None` on the diagonal, for an
    /// unreachable pair and for a vertex outside `0..n`.
    fn port(&self, u: VertexId, v: VertexId) -> Option<Port> {
        let pair = (u.index() < self.n && v.index() < self.n).then(|| u.index() * self.n + v.index())?;
        self.next.get::<u32>(pair).filter(|&[p]| p != u32::MAX).map(|[p]| Port(p))
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
        self.port(at, *dest)
            .map(Decision::Forward)
            .ok_or_else(|| RouteError::MissingInformation {
                at,
                what: format!("{dest} is unreachable"),
            })
    }

    fn table_words(&self, v: VertexId) -> usize {
        let row = v.index().checked_mul(self.n).and_then(|start| self.next.slice(start..start + self.n));
        row.map_or(0, |row| row.iter::<u32>().filter(|&p| p != u32::MAX).count())
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

    /// The packed table holds, for every pair, the port at `u` to its parent
    /// in `v`'s shortest-path tree, read test-locally from a Dijkstra per
    /// destination: through `decide` (a forward on that port, a missing
    /// pair's error) and `table_words`, on unit and weighted ER, a grid and
    /// two components, at 1 and 4 threads; one byte a pair plus the pad;
    /// and a vertex outside `0..n` holds no words and routes nowhere.
    #[test]
    fn the_packed_table_holds_each_trees_parent_port() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut two = routing_graph::GraphBuilder::new(40);
        for i in (1..40).filter(|&i| i != 17) {
            two.add_edge(i - 1, i, 1 + i as u64 % 3).unwrap();
        }
        let graphs = [
            ("unit er", generators::erdos_renyi(90, 0.06, WeightModel::Unit, &mut rng)),
            ("weighted er", generators::erdos_renyi(90, 0.06, WeightModel::Uniform { lo: 1, hi: 9 }, &mut rng)),
            ("grid", generators::grid(7, 9)),
            ("two components", two.build()),
        ];
        for (name, g) in &graphs {
            let n = g.n();
            let mut expect = vec![vec![None; n]; n];
            let mut scratch = SearchScratch::for_graph(g);
            for v in g.vertices() {
                scratch.dijkstra_into(g, v);
                for u in g.vertices().filter(|&u| u != v) {
                    expect[u.index()][v.index()] = scratch.parent(u).and_then(|p| g.port_to(u, p));
                }
            }
            let [one, four] = [1, 4].map(|threads| {
                routing_par::set_threads(threads);
                let scheme = ExactScheme::build(g).unwrap();
                routing_par::set_threads(routing_par::available_threads());
                scheme
            });
            assert_eq!(one.next, four.next, "{name}: threads 1 and 4");
            assert_eq!(one.next.heap_bytes(), n * n + routing_graph::SLOT_PAD, "{name}: one byte a pair");
            for u in g.vertices() {
                for v in g.vertices() {
                    let decided = one.decide(u, &mut ExactHeader, &v);
                    match expect[u.index()][v.index()] {
                        _ if u == v => assert_eq!(decided, Ok(Decision::Deliver), "{name}: ({u}, {v})"),
                        Some(port) => assert_eq!(decided, Ok(Decision::Forward(port)), "{name}: ({u}, {v})"),
                        None => assert!(
                            matches!(decided, Err(RouteError::MissingInformation { .. })),
                            "{name}: ({u}, {v}) {decided:?}"
                        ),
                    }
                }
                let words = expect[u.index()].iter().flatten().count();
                assert_eq!(one.table_words(u), words, "{name}: words at {u}");
            }
            for outside in [n, n + 3] {
                let outside = VertexId(outside as u32);
                assert_eq!(one.table_words(outside), 0, "{name}");
                let decided = one.decide(VertexId(0), &mut ExactHeader, &outside);
                assert!(matches!(decided, Err(RouteError::MissingInformation { .. })), "{name}");
            }
        }
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
